"""Numerical checks of the semigroup decomposition machinery.

The operating identity is the decomposition of the semigroup over an open
set U,

    p_t f(x) = p_t^U f(x) + E_x[ p_{t - tau_U} f(X_{tau_U}) ; tau_U <= t ],

splitting the evolution into the part process and a boundary contribution.
``dynkin_residual`` measures how far sampled paths are from satisfying it,
with the inner semigroup p_s f supplied by a closed-form oracle rather than
by restarting paths (a restart would only test the sampler's Markov
property, not the identity).

The boundary operator T_{n,t} f(x) = E_x[p_{t-tau_n} f(X_{tau_n}); tau_n <= t]
over an exhaustion level U_n has positive kernel, so its sup-norm is attained
at f = 1 and is estimated as a max over a documented probe grid; the grid
stands in for the sup over all of E and its density is a reported parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closedform import CauchyBump, GaussianBump
from .functionals import (
    KillingPotential,
    UnsupportedConfiguration,
    _exit_step,
    _fk_engine,
    _killed_lifetimes,
)
from .geometry import Domain, Interval
from .process import (
    PathBatch, ProcessSpec, _as_start, _checked_run, _n_steps, sample_increments, stream,
)

__all__ = [
    "DynkinResidual",
    "BoundaryTermEstimate",
    "TNormBound",
    "dynkin_residual",
    "boundary_term",
    "estimate_T_norm",
    "t_norm_bound_check",
    "subprocess_commute_check",
]


_ZETA_T_MAX = 6.0  # default horizon of t_norm_bound_check's lifetime run


@dataclass(frozen=True)
class DynkinResidual:
    """Decomposition residual with the three estimated pieces."""

    residual: float
    stderr: float
    full_semigroup: float
    part_semigroup: float
    boundary_term: float
    n_paths: int


def _heat_oracle(spec: ProcessSpec, f):
    """Closed-form s -> p_s f, or raise when no oracle exists."""
    if spec.is_brownian and isinstance(f, GaussianBump):
        return lambda s, x: f.heat(s, x, dim=spec.dim)
    if spec.alpha == 1.0 and spec.dim == 1 and isinstance(f, CauchyBump):
        return lambda s, x: f.heat(s, x)
    raise UnsupportedConfiguration(
        "dynkin_residual needs a closed-form inner semigroup: "
        "alpha=2 with a GaussianBump, or alpha=1 in d=1 with a CauchyBump"
    )


def _residual_domain(spec: ProcessSpec, domain: Domain) -> None:
    """The U that ``dynkin_residual`` supports: an interval on the line, and no other."""
    if not (spec.dim == 1 and isinstance(domain, Interval)):
        raise UnsupportedConfiguration("dynkin_residual supports U = a 1D interval: over "
                                       "the whole space the residual is 0 by construction")


def _start_inside(domain: Domain, start: np.ndarray, what: str = "x0") -> None:
    """Paths start inside U: ``start`` is one row, named ``what`` in the refusal."""
    if not domain.contains_point(start[0]):
        raise ValueError(f"{what} must lie inside U")


def dynkin_residual(
    spec: ProcessSpec,
    x0,
    f,
    t: float,
    domain: Domain,
    h: float,
    n_paths: int,
    seed: int,
) -> DynkinResidual:
    """Estimate p_t f(x0) - p_t^U f(x0) - boundary term on shared paths.

    All three pieces come from the same ensemble, so the residual's
    per-path variance is the right yardstick.  The inner semigroup value
    p_{t-tau} f(X_tau) is evaluated by the closed-form oracle.  Exits are
    found by the path engine's rule (``_exit_step``): on the grid, and for
    Brownian paths also between grid points by the bridge rule; a Brownian
    exit sits mid-step (O(h), inside the noise at the default settings) at
    the endpoint nearer to the step's end.
    """
    oracle = _heat_oracle(spec, f)
    start, n_steps = _checked_run(spec, _as_start(x0, spec.dim), h, t)
    _residual_domain(spec, domain)
    _start_inside(domain, start)
    rng = stream(seed)
    x = np.repeat(start, n_paths, axis=0)
    depth = domain.depth(x)
    alive = np.ones(n_paths, dtype=bool)  # "not exited yet"; paths continue after exit
    exit_pos = np.zeros(n_paths)
    exit_time = np.zeros(n_paths)
    bridge = spec.is_brownian
    a, b = domain.a, domain.b
    for k in range(n_steps):
        x += sample_increments(spec, h, rng, n_paths)
        depth, out, t_exit = _exit_step(domain, depth, x, alive, (k + 1) * h, h, rng, bridge)
        exit_time[out] = t_exit
        end = x[out, 0]
        exit_pos[out] = np.where(end - a < b - end, a, b) if bridge else end
    exited = ~alive
    f_end = np.asarray(f(x[:, 0]), dtype=float)
    full_vals = f_end
    part_vals = np.where(exited, 0.0, f_end)
    bnd_vals = np.zeros(n_paths)
    if exited.any():
        bnd_vals[exited] = oracle(t - exit_time[exited], exit_pos[exited])
    res_vals = full_vals - part_vals - bnd_vals
    return DynkinResidual(
        residual=float(res_vals.mean()),
        stderr=float(res_vals.std(ddof=0) / math.sqrt(n_paths)),
        full_semigroup=float(full_vals.mean()),
        part_semigroup=float(part_vals.mean()),
        boundary_term=float(bnd_vals.mean()),
        n_paths=n_paths,
    )


@dataclass(frozen=True)
class BoundaryTermEstimate:
    """T_{n,t} 1 over a probe grid: per-probe means and standard errors."""

    level: Domain
    t: float
    probes: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray

    @property
    def sup(self) -> float:
        return float(self.means.max())

    @property
    def sup_stderr(self) -> float:
        return float(self.stderrs[int(self.means.argmax())])


def boundary_term(
    spec: ProcessSpec,
    level: Domain,
    t: float,
    probes,
    h: float,
    n_paths: int,
    seed: int,
    potential: KillingPotential = KillingPotential.none(),
    threads: int = 1,
) -> BoundaryTermEstimate:
    """Estimate T_{n,t} 1(x) = E_x[p_{t-tau_n} 1(X_{tau_n}); tau_n <= t].

    By the Markov property this equals E_x[w_t ; tau_n <= t] on continued
    paths, where w is the killing weight (identically 1 for a conservative
    process, exp(-A_t) under a potential).  Values at probes are estimated
    from independent ensembles per probe.  Exits from the level are found
    by the path engine's rule, so Brownian paths are also caught between
    grid points by the bridge rule, on every domain.  A conservative path
    stops at its exit, so there the estimate is the exit probability by t,
    1 - ``estimate_survival`` on the same paths; under a potential a path
    runs on after its exit until its weight is captured at t.
    """
    probes, _ = _checked_run(spec, probes, h, t)
    out = _fk_engine(
        spec, probes, potential, h, t, n_paths, seed,
        capture_time=t, level=level, threads=threads,
    )
    cap = out["captured"] * np.isfinite(out["tau"])
    return BoundaryTermEstimate(
        level=level,
        t=t,
        probes=probes,
        means=cap.mean(axis=1),
        stderrs=cap.std(axis=1, ddof=0) / math.sqrt(n_paths),
    )


def estimate_T_norm(
    spec: ProcessSpec,
    level: Domain,
    t: float,
    probes,
    h: float,
    n_paths: int,
    seed: int,
    potential: KillingPotential = KillingPotential.none(),
    threads: int = 1,
) -> tuple[float, BoundaryTermEstimate]:
    """Operator norm of T_{n,t} on bounded functions.

    The kernel is positive, so the norm equals sup_x T_{n,t} 1(x); the sup
    is proxied by the max over the probe grid.  Returns (norm estimate,
    full per-probe table).
    """
    table = boundary_term(
        spec, level, t, probes, h, n_paths, seed, potential, threads
    )
    return table.sup, table


@dataclass(frozen=True)
class TNormBound:
    """Two sides of the boundary-operator norm bound, with noise allowance.

    ``passed`` is lhs <= rhs + slack, where slack is three combined
    standard errors of the two sides.
    """

    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float
    slack: float
    compact_part: float
    tail_part: float
    passed: bool
    probe_table: BoundaryTermEstimate | None = None


def _check_killing(potential: KillingPotential) -> None:
    """The bound's right side needs finite lifetimes, so V must not be identically 0."""
    if potential.is_none:
        raise UnsupportedConfiguration(
            "t_norm_bound_check needs finite lifetimes: supply a killing "
            "potential (a conservative process has E[zeta] = infinity)"
        )


def t_norm_bound_check(
    spec: ProcessSpec,
    potential: KillingPotential,
    level_n: Domain,
    inner_probes,
    outer_probes,
    t: float,
    h: float,
    n_paths: int,
    seed: int,
    threads: int = 1,
    zeta_t_max: float = _ZETA_T_MAX,
) -> TNormBound:
    """Check ||T_{n,t}|| <= sup_{K_m} T_{n,t} 1 + (4/t) sup_{E \\ K_m} E[zeta].

    ``inner_probes`` sample the compact K_m, ``outer_probes`` its complement;
    the left side takes the sup over both grids.  The exterior lifetimes are
    tail-corrected means (see ``estimate_killed_lifetime_mean``) from one
    engine run over all outer probes plus the origin at ``seed + 1000``, so
    they share one geometric tail rate p_hat, the largest P(zeta > 1) among
    those starts; a check takes two engine runs whatever the probe counts.
    Requires a killing potential: without one the lifetime is infinite and
    the right side is vacuous, so the configuration is rejected.
    """
    _check_killing(potential)
    inner, outer = (_checked_run(spec, p, h, t)[0] for p in (inner_probes, outer_probes))
    allp = np.vstack([inner, outer])
    lhs, table = estimate_T_norm(
        spec, level_n, t, allp, h, n_paths, seed, potential, threads
    )
    compact_part = float(table.means[: inner.shape[0]].max())
    compact_se = float(table.stderrs[: inner.shape[0]][
        int(table.means[: inner.shape[0]].argmax())
    ])
    zeta, tails, _ = _killed_lifetimes(
        spec, outer, potential, h, n_paths, seed + 1000, zeta_t_max, threads
    )
    zeta_means = zeta.mean(axis=1) + tails
    j = int(np.argmax(zeta_means))
    tail_part = (4.0 / t) * float(zeta_means[j])
    zeta_se = float(zeta[j].std(ddof=0)) / math.sqrt(n_paths)
    rhs = compact_part + tail_part
    rhs_se = math.sqrt(compact_se**2 + (4.0 / t) ** 2 * zeta_se**2)
    slack = 3.0 * math.sqrt(table.sup_stderr**2 + rhs_se**2)
    return TNormBound(
        lhs=lhs,
        lhs_stderr=table.sup_stderr,
        rhs=rhs,
        rhs_stderr=rhs_se,
        slack=slack,
        compact_part=compact_part,
        tail_part=tail_part,
        passed=bool(lhs <= rhs + slack),
        probe_table=table,
    )


def subprocess_commute_check(
    batch: PathBatch,
    level: Domain,
    t: float,
    f,
    potential: KillingPotential = KillingPotential.none(),
) -> float:
    """Algebraic identity of the 1-subprocess: T^(1)_{n,t} f = e^{-t} T_{n,t} f.

    The unit-rate subprocess is realized as the deterministic weight e^{-t}
    on the same paths, so the two estimators share every sample and may
    differ only by floating-point association.  Returns the relative
    deviation, which must sit at rounding scale.
    """
    h = batch.step_h
    n_cap = _n_steps(t, h)
    if n_cap > batch.positions.shape[1] - 1:
        raise ValueError("t exceeds the batch horizon")
    pos = batch.positions
    inside = level.contains(pos[:, : n_cap + 1].reshape(-1, pos.shape[2])).reshape(
        pos.shape[0], n_cap + 1
    )
    exited = ~inside.all(axis=1)
    end = pos[:, n_cap]
    weights = np.ones(pos.shape[0])
    if not potential.is_none:
        v = potential(pos[:, :n_cap].reshape(-1, pos.shape[2])).reshape(
            pos.shape[0], n_cap
        )
        weights = np.exp(-h * v.sum(axis=1))
    vals = weights * np.asarray(f(end), dtype=float) * exited
    sub_estimate = float(np.mean(math.exp(-t) * vals))
    scaled_estimate = math.exp(-t) * float(np.mean(vals))
    denom = max(abs(scaled_estimate), 1e-300)
    return abs(sub_estimate - scaled_estimate) / denom
