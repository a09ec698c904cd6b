"""One reader of numbers, checked over every export that takes one.

For one numeric argument of one export at a time, with every other argument
valid, a hypothesis property test draws NaN, +-inf, 0, 1, negatives,
non-integers, bools and wrong shapes (for an array, the whole value or one of
its entries).  The call must raise a ValueError, or a subclass of it, whose
message names the argument as a word (or by an alias on ``ALIASES``), or
return outputs whose every number is finite, except those on
``ALLOWED_NONFINITE``.  The table is checked against the package's exports,
so a new export needs a row or a stated reason to have none.
"""

import dataclasses
import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stablelab as sl
from stablelab import analytics, functionals, geometry, identities, process, spectral
from stablelab.closedform import GaussianBump
from stablelab.geometry import _number

BM1 = sl.ProcessSpec(2.0, 1)
STABLE2 = sl.ProcessSpec(1.5, 2)  # the subordinated route: it reads h and size once more
I1 = sl.Interval(-1.0, 1.0)
POT = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
GRID = sl.Grid1D.symmetric(1.0, 0.25)
GEN = sl.dirichlet_laplacian(GRID)
PATH = sl.sample_path(BM1, [0.0], 1.0, 0.1, 5)
BATCH = sl.sample_path_batch(BM1, [0.0], 1.0, 0.1, 4, 6)
RUN = dict(h=0.1, n_paths=4, seed=1)  # a path loop of ten steps of four paths


def _call(export, **fixed):
    return lambda **numeric: export(**fixed, **numeric)


# export -> (call taking the numeric arguments by keyword, their valid values)
ROWS = {
    "JParams": (sl.JParams, dict(gamma1=0.5, gamma2=2.0, dim=1)),
    "envelope_constant_check": (
        _call(sl.envelope_constant_check, p=sl.JParams(0.5, 2.0, 1)),
        dict(train_probes=[2.0, 4.0], test_probes=[3.0])),
    "gamma_fn": (sl.gamma_fn, dict(s=1.5)),
    "green_constant": (sl.green_constant, dict(d=3, alpha=1.0)),
    "green_function": (sl.green_function, dict(x=[0.0], y=[1.0], d=1, alpha=0.5)),
    "j_integral": (_call(sl.j_integral, p=sl.JParams(0.5, 2.0, 1)), dict(x=0.5)),
    "r0_mu_bound_check": (_call(sl.r0_mu_bound_check, weight=sl.TimeChangeWeight(2.0)),
                          dict(d=1, alpha=0.5, probes=[1.0])),
    # a record of what an estimator computed: only its path count is read
    "EstimatorResult": (_call(sl.EstimatorResult, mean=0.5, stderr=0.1, step_h=0.1, seed=1),
                        dict(n_paths=10)),
    "KillingPotential": (_call(sl.KillingPotential, kind="power"),
                         dict(c=1.0, gamma=2.0, offset=1.0)),
    "TimeChangeWeight": (sl.TimeChangeWeight, dict(beta=2.0)),
    "estimate_killed_lifetime_mean": (
        _call(sl.estimate_killed_lifetime_mean, spec=BM1, potential=POT),
        dict(x0=[0.0], t_max=1.0, threads=1, **RUN)),
    "estimate_mean_exit_time": (_call(sl.estimate_mean_exit_time, spec=BM1, domain=I1),
                                dict(x0=[0.0], t_max=1.0, threads=1, **RUN)),
    "estimate_resolvent_r1": (_call(sl.estimate_resolvent_r1, spec=BM1, lifetime=I1),
                              dict(x0=[0.0], t_max=1.0, threads=1, **RUN)),
    "estimate_survival": (_call(sl.estimate_survival, spec=BM1, domain=I1),
                          dict(x0=[0.0], t=1.0, threads=1, **RUN)),
    "exit_time_scan": (_call(sl.exit_time_scan, spec=BM1, domain=I1),
                       dict(starts=[[0.0], [0.5]], t_max=1.0, threads=1, **RUN)),
    "feynman_kac_weight": (_call(sl.feynman_kac_weight, path=PATH, potential=POT), dict(t=0.5)),
    "Ball": (sl.Ball, dict(center=[0.0, 0.0], radius=1.0)),
    "Box": (sl.Box, dict(lo=[0.0, 0.0], hi=[1.0, 1.0])),
    "FullSpace": (sl.FullSpace, dict(dim=1)),
    "Interval": (sl.Interval, dict(a=-1.0, b=1.0)),
    "UnionOfBalls": (sl.UnionOfBalls, dict(centers=[[1.0], [2.0]], radii=[0.6, 0.6])),
    "UnionOfIntervals": (sl.UnionOfIntervals, dict(segments=[[0.0, 1.0], [2.0, 3.0]])),
    "disjoint_shrinking_intervals": (sl.disjoint_shrinking_intervals, dict(n_max=4)),
    "shrinking_ball_domain": (sl.shrinking_ball_domain, dict(d=2, n_max=4)),
    "shrinking_radius": (sl.shrinking_radius, dict(n=[1.0, 2.0])),
    "boundary_term": (_call(sl.boundary_term, spec=BM1, level=I1),
                      dict(t=0.5, probes=[[0.0]], threads=1, **RUN)),
    "dynkin_residual": (_call(sl.dynkin_residual, spec=BM1, f=GaussianBump(1.0), domain=I1),
                        dict(x0=[0.0], t=0.5, **RUN)),
    "estimate_T_norm": (_call(sl.estimate_T_norm, spec=BM1, level=I1),
                        dict(t=0.5, probes=[[0.0]], threads=1, **RUN)),
    "subprocess_commute_check": (
        _call(sl.subprocess_commute_check, batch=BATCH, level=I1, f=lambda x: np.exp(-x**2)),
        dict(t=0.5)),
    "t_norm_bound_check": (
        _call(sl.t_norm_bound_check, spec=BM1, potential=POT, level_n=sl.Interval(-2.0, 2.0)),
        dict(inner_probes=[[0.0]], outer_probes=[[1.5]], t=0.5, threads=1, zeta_t_max=1.0,
             **RUN)),
    "ProcessSpec": (sl.ProcessSpec, dict(alpha=1.5, dim=1)),
    "sample_increments": (_call(sl.sample_increments, spec=STABLE2, rng=sl.stream(2)),
                          dict(h=0.1, size=3)),
    "sample_path": (_call(sl.sample_path, spec=BM1), dict(x0=[0.0], t_max=1.0, h=0.1, seed=1)),
    "sample_path_batch": (_call(sl.sample_path_batch, spec=BM1),
                          dict(x0=[0.0], t_max=1.0, h=0.1, n_paths=2, seed=1)),
    "sample_subordinator_increment": (_call(sl.sample_subordinator_increment, rng=sl.stream(3)),
                                      dict(index=0.5, h=0.1, size=3)),
    "stream": (sl.stream, dict(seed=1, stream_id=0)),
    # L's own matrix and points are taken as given; a builder reads the numbers
    "GeneratorMatrix": (_call(sl.GeneratorMatrix, points=GRID.points, matrix=GEN.matrix),
                        dict(delta=0.25, weight=np.ones(GRID.n))),
    "Grid1D": (sl.Grid1D, dict(x_min=-1.0, x_max=1.0, delta=0.25)),
    "compactness_diagnostic": (
        _call(sl.compactness_diagnostic, gen=GEN, levels=[sl.Interval(-0.6, 0.6)]), dict(t=0.5)),
    "fractional_power": (_call(sl.fractional_power, grid=GRID), dict(alpha=1.0)),
    "heat_trace": (_call(sl.heat_trace, gen=GEN), dict(t=0.5)),
    "lp_spectral_bound_compare": (_call(sl.lp_spectral_bound_compare, gen=GEN),
                                  dict(t_grid=[0.5, 1.0])),
    "semigroup_matrix": (_call(sl.semigroup_matrix, gen=GEN), dict(t=0.5)),
    "union_interval_trace": (
        _call(sl.union_interval_trace, union=sl.UnionOfIntervals([[0.0, 1.0], [2.0, 3.0]])),
        dict(delta=0.25, t=0.5)),
    "weighted_generator": (
        _call(sl.weighted_generator, grid=GRID, weight=sl.TimeChangeWeight(2.0)), dict(alpha=1.0)),
    "weighted_transition_study": (sl.weighted_transition_study,
                                  dict(alpha=1.0, betas=[2.0], radii=[2.0, 4.0], delta=0.5)),
}

# exports with no row, and why
NO_NUMBERS = {
    "Domain": "the base class takes no argument",
    "TailBoundError": "an exception",
    "UnsupportedConfiguration": "an exception",
    "exit_time": "takes a path and a domain, whose numbers their builders read",
    "time_change_clock": "takes a path and a weight, whose numbers their builders read",
    "dirichlet_laplacian": "takes a grid, whose numbers Grid1D reads",
    "killed_generator": "takes a generator and a potential, whose numbers their builders read",
    "part_generator": "takes a generator and a mask of booleans or a domain",
    "PathSample": "a record that sample_path builds from the numbers it has read",
    "PathBatch": "a record that sample_path_batch builds from the numbers it has read",
    "TimeChangeClock": "a record that time_change_clock builds",
    "DynkinResidual": "a record that dynkin_residual builds",
    "BoundaryTermEstimate": "a record that boundary_term builds",
    "TNormBound": "a record that t_norm_bound_check builds",
    "LpRates": "a record that lp_spectral_bound_compare builds",
}

# outputs that may hold a number that is not finite, by attribute name, and why
ALLOWED_NONFINITE = {
    "_windows": "UnionOfBalls pads its lattice windows with -inf, the radius of no ball",
}

# the names a refusal may use for an argument in place of its own
ALIASES = {
    "x0": ("starts",),  # a path loop's one reader of starts refuses a non-finite start
    "probes": ("probe points",),
    "inner_probes": ("probe points",),
    "outer_probes": ("probe points",),
    "t": ("t_max",),  # a path loop names its horizon t_max
    "zeta_t_max": ("t_max",),
    "t_grid": ("t", "time grid"),
    "center": ("centre",),
    "radii": ("radius", "grid"),  # a grid of radius r names its ends and delta
    "betas": ("beta",),
    "weight": ("weights",),
}

SCALARS = [math.nan, math.inf, -math.inf, 0, 0.0, 1, -1, -1.0, 0.5, 1.5, True, False]
SHAPES = [[0.5, 0.5], [[1.0]]]


def test_every_export_has_a_row_or_a_reason():
    exported = {name for mod in (analytics, functionals, geometry, identities, process, spectral)
                for name in mod.__all__ if hasattr(sl, name)}
    assert len(exported) == 61
    assert set(ROWS) | set(NO_NUMBERS) == exported
    assert not set(ROWS) & set(NO_NUMBERS)


def _numbers(out, where=""):
    """(where, number) for every number an output holds, through dataclasses,
    objects, dicts, sequences and numeric arrays; booleans and text are not numbers."""
    if out is None or isinstance(out, (bool, np.bool_, str)) or callable(out) and not hasattr(
            out, "__dataclass_fields__"):
        return
    if isinstance(out, numbers.Number):
        yield where, out
    elif isinstance(out, np.ndarray):
        if out.dtype.kind in "iuf":
            yield from ((where, v) for v in out.ravel().tolist())
    elif isinstance(out, dict):
        for k, v in out.items():
            yield from _numbers(v, f"{where}[{k!r}]")
    elif isinstance(out, (list, tuple)):
        for i, v in enumerate(out):
            yield from _numbers(v, f"{where}[{i}]")
    elif dataclasses.is_dataclass(out) or hasattr(out, "__dict__"):
        items = ((f.name, getattr(out, f.name)) for f in dataclasses.fields(out)) if (
            dataclasses.is_dataclass(out)) else vars(out).items()
        for k, v in items:
            if k not in ALLOWED_NONFINITE:
                yield from _numbers(v, f"{where}.{k}")


@st.composite
def _bad_value(draw, valid):
    """One of SCALARS or SHAPES in place of ``valid``, or, for an array (a list,
    or a numpy array, which stays one), in place of one of its entries, which
    only a scalar replaces."""
    if isinstance(valid, (list, np.ndarray)) and draw(st.booleans()):
        entries = np.array(valid, dtype=object)
        entries.flat[draw(st.integers(0, entries.size - 1))] = draw(st.sampled_from(SCALARS))
        return entries.tolist() if isinstance(valid, list) else entries.astype(float)
    return draw(st.sampled_from(SCALARS + SHAPES))


@pytest.mark.parametrize("name", sorted(ROWS))
@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_number_is_read_or_refused_by_name(name, data):
    call, valid = ROWS[name]
    arg = data.draw(st.sampled_from(sorted(valid)), label="argument")
    value = data.draw(_bad_value(valid[arg]), label="value")
    try:
        out = call(**{**valid, arg: value})
    except ValueError as exc:
        names = (arg, *ALIASES.get(arg, ()))  # each as a word, not inside another name
        assert any(re.search(rf"(?<![\w.]){re.escape(n)}(?!\w)", str(exc)) for n in names), exc
        return
    bad = [(where, v) for where, v in _numbers(out) if not math.isfinite(v)]
    assert not bad, bad


@pytest.mark.parametrize("value, args, expected", [
    (0.5, ("h", 0.0), 0.5),
    (np.float64(0.25), ("h", 0.0), 0.25),
    (2, ("n_paths", 2, math.inf, "[)", True), 2),
    (np.int64(7), ("seed", 0, math.inf, "[)", True), 7),
    (2**64 + 999, ("seed", 0, math.inf, "[)", True), 2**64 + 999),
    (2**64 - 1, ("seed", 0, 2**64, "[)", True), 2**64 - 1),
    (2.0, ("alpha", 0.0, 2.0, "(]"), 2.0),
    (0.0, ("c", 0.0, math.inf, "[)"), 0.0),
    (-3.5, ("a",), -3.5),
])
def test_reader_returns_a_plain_number_in_range(value, args, expected):
    out = _number(value, *args)
    assert out == expected and type(out) is type(expected)


def test_a_derived_seed_past_two_to_the_64_is_read():
    # the exterior lifetimes run at seed + 1000, which a config seed near 2^64 passes
    bound = sl.t_norm_bound_check(BM1, POT, sl.Interval(-2.0, 2.0), [[0.0]], [[1.5]], 0.5,
                                  zeta_t_max=1.0, **{**RUN, "seed": 2**64 - 1})
    assert math.isfinite(bound.lhs) and math.isfinite(bound.rhs)


@pytest.mark.parametrize("value, args", [
    (math.nan, ("h", 0.0)), (math.inf, ("h", 0.0)), (-math.inf, ("a",)), (0.0, ("h", 0.0)),
    (True, ("h", 0.0)), (np.bool_(True), ("h", 0.0)), ("0.5", ("h", 0.0)), ([0.5], ("h", 0.0)),
    (np.array(0.5), ("h", 0.0)), (1.0, ("dim", 1, math.inf, "[)", True)),
    (False, ("seed", 0, 2**64, "[)", True)), (2**64, ("seed", 0, 2**64, "[)", True)),
    (2.5, ("alpha", 0.0, 2.0, "(]")), (1.0, ("index", 0.0, 1.0)),
])
def test_reader_refuses_by_name(value, args):
    with pytest.raises(ValueError, match=rf"^{args[0]}: need "):
        _number(value, *args)
