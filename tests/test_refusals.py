"""Refusals and boundary values that no other test or run reaches.

One table of calls that must raise, and one of calls whose answer at the
edge of a formula's domain is fixed by definition (an empty interval, a
start outside the set, a zero clearance).
"""

import math

import numpy as np
import pytest

import stablelab as sl
from stablelab import closedform, functionals, identities
from stablelab.closedform import GaussianBump
from stablelab.config import ConfigError, parse_config

BM1 = sl.ProcessSpec(alpha=2.0, dim=1)
I1 = sl.Interval(-1.0, 1.0)

REFUSALS = {
    "j_params_gamma2_zero": (lambda: sl.JParams(0.5, 0.0), ValueError, "gamma2"),
    "j_integral_point_of_wrong_dimension": (
        lambda: sl.j_integral(sl.JParams(0.5, 3.0, 3), [1.0, 2.0]), ValueError, r"R\^3"),
    "unknown_experiment": (
        lambda: parse_config("", experiment="nonsense"), ConfigError, "nonsense"),
    "feynman_kac_weight_past_t_max": (
        lambda: sl.feynman_kac_weight(
            sl.sample_path(BM1, [0.0], 1.0, 0.1, 5), sl.KillingPotential.constant(1.0), 1.5),
        ValueError, r"t: need a finite number in \[0.0, 1.000000000001\], got 1.5"),
    "lifetime_tail_bound_diverges": (
        lambda: sl.estimate_killed_lifetime_mean(
            BM1, [0.0], sl.KillingPotential.constant(1e-12), 0.1, 2, 1, t_max=1.0),
        sl.TailBoundError, "diverges"),
    "union_of_balls_radius_count": (
        lambda: sl.UnionOfBalls(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), [0.6, 0.6]),
        ValueError, "one radius per center"),
    "shrinking_balls_none": (lambda: sl.shrinking_ball_domain(2, 0), ValueError, "n_max"),
    "shrinking_intervals_none": (
        lambda: sl.disjoint_shrinking_intervals(0), ValueError, "n_max"),
    "path_batch_no_paths": (
        lambda: sl.sample_path_batch(BM1, [0.0], 1.0, 0.1, 0, 1), ValueError, "n_paths"),
    "engine_capture_past_horizon": (
        lambda: functionals._fk_engine(
            BM1, np.zeros((1, 1)), sl.KillingPotential.none(), 0.1, 1.0, 2, 1,
            capture_time=2.0),
        ValueError, "capture_time"),
    "part_mask_one_point_short": (
        lambda: sl.part_generator(
            sl.dirichlet_laplacian(sl.Grid1D.symmetric(1.0, 0.1)), np.ones(18, dtype=bool)),
        ValueError, "mask"),
    "exit_time_from_a_nan_start": (
        lambda: sl.estimate_mean_exit_time(BM1, [np.nan], sl.Interval(-1, 1), 1.0, 0.01, 10, 1),
        ValueError, "finite"),
    "engine_threads_zero": (
        lambda: sl.estimate_mean_exit_time(BM1, [0.0], sl.Interval(-1, 1), 1.0, 0.01, 10, 1,
                                           threads=0),
        ValueError, "threads"),
    "engine_threads_negative": (
        lambda: sl.estimate_mean_exit_time(BM1, [0.0], sl.Interval(-1, 1), 1.0, 0.01, 10, 1,
                                           threads=-3),
        ValueError, "threads"),
    "interval_survival_at_time_zero": (
        lambda: closedform.brownian_interval_survival(-1.0, 1.0, 0.0, 0.0), ValueError,
        r"t: need a finite number in \(0.0, inf\), got 0.0"),
    # a seed is an integer >= 0: 1.5 and True ran as seed 1
    "stream_of_a_fractional_seed": (lambda: sl.stream(1.5), ValueError, "seed: need an integer"),
    "estimate_with_a_fractional_seed": (
        lambda: sl.estimate_mean_exit_time(BM1, [0.0], I1, 1.0, 0.1, 10, 1.5),
        ValueError, "seed: need an integer"),
    "estimate_with_a_bool_seed": (
        lambda: sl.estimate_survival(BM1, [0.0], I1, 1.0, 0.1, 10, True),
        ValueError, "seed: need an integer"),
    "conservative_shortcut_with_a_fractional_seed": (
        lambda: sl.estimate_resolvent_r1(BM1, [0.0], sl.FullSpace(1), 0.1, 10, 1.5, t_max=1.0),
        ValueError, "seed: need an integer"),
    # an estimate needs 2 paths, a batch 1: one path read residual 0.0 +- 0.0
    "dynkin_residual_of_one_path": (
        lambda: sl.dynkin_residual(BM1, [0.0], GaussianBump(1.0), 0.5, I1, 0.1, 1, 1),
        ValueError, r"n_paths: need an integer in \[2, inf\), got 1"),
    "boundary_term_of_one_path": (
        lambda: sl.boundary_term(BM1, I1, 0.5, [[0.0]], 0.1, 1, 1),
        ValueError, r"n_paths: need an integer in \[2, inf\), got 1"),
    "engine_of_no_paths": (
        lambda: sl.estimate_mean_exit_time(BM1, [0.0], I1, 1.0, 0.1, 0, 1),
        ValueError, r"n_paths: need an integer in \[2, inf\), got 0"),
    "dynkin_residual_of_no_paths": (
        lambda: sl.dynkin_residual(BM1, [0.0], GaussianBump(1.0), 0.5, I1, 0.1, 0, 1),
        ValueError, r"n_paths: need an integer in \[2, inf\), got 0"),
    # the full-space shortcuts draw nothing, but read threads as the loop does
    "full_space_exit_time_on_no_threads": (
        lambda: sl.estimate_mean_exit_time(BM1, [0.0], sl.FullSpace(1), 1.0, 0.1, 4, 1, threads=0),
        ValueError, r"threads: need an integer in \[1, inf\), got 0"),
    "full_space_resolvent_on_negative_threads": (
        lambda: sl.estimate_resolvent_r1(BM1, [0.0], sl.FullSpace(1), 0.1, 4, 1, t_max=1.0,
                                         threads=-2),
        ValueError, r"threads: need an integer in \[1, inf\), got -2"),
    # a shape, coefficient or point that is not finite, or not a point of R^d
    "green_function_of_a_point_in_another_dimension": (
        lambda: sl.green_function([0.0, 0.0], [1.0], 1, 0.5), ValueError, r"x != y in R\^d, d = 1"),
    "interval_of_the_whole_line": (
        lambda: sl.Interval(-math.inf, math.inf), ValueError, "a: need a finite number"),
    "ball_of_infinite_radius": (
        lambda: sl.Ball((0.0,), math.inf), ValueError, "radius: need a finite number"),
    "box_with_an_infinite_side": (
        lambda: sl.Box((0.0, 0.0), (1.0, math.inf)), ValueError, "finite lo < hi"),
    "power_of_infinite_coefficient": (
        lambda: sl.KillingPotential.power(math.inf, 2.0), ValueError, "c: need a finite number"),
    "power_of_infinite_offset": (
        lambda: sl.KillingPotential.power(1.0, 2.0, offset=math.inf),
        ValueError, "offset: need a finite number"),
    "weight_of_infinite_beta": (
        lambda: sl.TimeChangeWeight(math.inf), ValueError, "beta: need a finite number"),
    "gamma_at_infinity": (lambda: sl.gamma_fn(math.inf), ValueError, "s: need a finite number"),
    "spec_of_a_bool_dimension": (
        lambda: sl.ProcessSpec(2.0, True), ValueError, "dim: need an integer"),
    "green_constant_of_a_fractional_dimension": (
        lambda: sl.green_constant(1.5, 0.5), ValueError, "d: need an integer"),
    "interval_mean_exit_from_nan": (
        lambda: closedform.brownian_interval_mean_exit(-1.0, 1.0, math.nan),
        ValueError, "x: need a finite number"),
    "interval_survival_from_nan": (
        lambda: closedform.brownian_interval_survival(-1.0, 1.0, math.nan, 0.5),
        ValueError, "x: need a finite number"),
    "j_integral_at_nan": (
        lambda: sl.j_integral(sl.JParams(0.5, 2.0, 1), math.nan),
        ValueError, r"x must be a finite point in R\^1"),
    "r0_bound_at_a_nan_probe": (
        lambda: sl.r0_mu_bound_check(sl.TimeChangeWeight(2.0), 1, 0.5, [math.nan]),
        ValueError, "probes must be a 1-D array of finite points"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refused(name):
    call, error, match = REFUSALS[name]
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call", [
    lambda: sl.estimate_mean_exit_time(BM1, [0.0], I1, 1.0, 0.1, 1, 1),
    lambda: sl.exit_time_scan(BM1, [[0.0]], I1, 1.0, 0.1, 1, 1),
    lambda: sl.estimate_killed_lifetime_mean(BM1, [0.0], sl.KillingPotential.constant(1.0),
                                             0.1, 1, 1, t_max=1.0),
    lambda: sl.dynkin_residual(BM1, [0.0], GaussianBump(1.0), 0.5, I1, 0.1, 1, 1),
    lambda: sl.boundary_term(BM1, I1, 0.5, [[0.0]], 0.1, 1, 1),
], ids=["exit_time", "scan", "lifetime", "dynkin", "boundary_term"])
def test_path_count_is_read_before_any_draw(call, monkeypatch):
    # one path used to run the whole loop before the result refused it, or never be refused
    def no_draw(*args, **kwargs):
        raise AssertionError("a refused path count must not reach a draw")

    for mod in (functionals, identities):
        monkeypatch.setattr(mod, "sample_increments", no_draw)
    with pytest.raises(ValueError, match=r"n_paths: need an integer in \[2, inf\), got 1"):
        call()


VALUES = {
    "lp_rates_one_time_is_its_rate": (
        lambda: sl.LpRates((8.0,), (1.5,), (1.4,), (1.5,)).extrapolated(1), 1.5),
    "interval_mean_exit_outside": (
        lambda: closedform.brownian_interval_mean_exit(-1.0, 1.0, 2.0), 0.0),
    "interval_survival_outside": (
        lambda: closedform.brownian_interval_survival(-1.0, 1.0, 2.0, 0.5), 0.0),
    "ball_mean_exit_outside": (lambda: closedform.brownian_ball_mean_exit(1.0, 2.0, 2), 0.0),
    "stable_mean_exit_outside": (
        lambda: closedform.stable_interval_mean_exit(1.5, 1.0, 2.0), 0.0),
    "central_mass_of_nothing": (
        lambda: closedform.symmetric_stable_central_cdf_mass(1.5, 0.0), 0.0),
    "exit_with_no_clearance": (lambda: closedform.brownian_one_sided_exit_prob(0.0, 1.0), 1.0),
}


@pytest.mark.parametrize("name", VALUES)
def test_boundary_value(name):
    call, expected = VALUES[name]
    assert call() == expected
