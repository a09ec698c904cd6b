"""The four benchmark workloads: fixed lists of stablelab calls with checks.

``setup(name, seed, threads, toy)`` is the timed set-up: it builds the
workload's domains and grids, makes one small warm-up call and returns the
operations.  Each operation is one library call made as a user would make
it; the spectral ones build their own generators, so no eigendecomposition
is cached across operations or passes.

Every pass of a run makes the same calls.  A Monte Carlo call in pass p
draws from a seed derived from (workload seed, call, p), so the same seed
gives the same inputs, and the checks pool the passes of a run (see
checks.py).  A pass is kept to a few seconds so that a run holds several.
How many passes a run makes depends only on the workload and ``--seconds``
(see ``passes``), never on how fast the host is, so every run of a
workload makes the same calls and its time statistic is the same one.
``toy`` shrinks the calls so that a workload runs in seconds in the
benchmark's tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import stablelab as sl
from stablelab.closedform import GaussianBump

import checks


@dataclass(frozen=True)
class Op:
    """One library call; ``call(p)`` makes it for pass p, ``check`` judges
    the list of its outputs over the passes of a run."""

    name: str
    call: Callable[[int], object]
    check: Callable[[list], list]


# Seconds one pass is budgeted, from its time on a 2-core box when the host
# is not slowed; ``passes`` divides the run length by it.
PASS_SECONDS = {
    "brownian-exit": 6.0,
    "stable-killed": 3.3,
    "spectral-killed": 4.5,
    "spectral-weighted": 3.3,
}
# The checks pool the passes; with three the disc's tolerance is
# 4 * sqrt(0.125 / 30 000) = 0.0082, so a disc mean 2 % high fails.
MIN_PASSES = 3


def passes(name: str, seconds: float) -> int:
    """Passes a run of ``seconds`` makes: a fixed count, whatever the host speed."""
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[name]))


def op_seed(seed: int, k: int, p: int) -> int:
    """Seed of the k-th Monte Carlo call in pass p."""
    return int(np.random.SeedSequence([seed, k, p]).generate_state(1)[0])


def setup(name: str, seed: int, threads: int, toy: bool = False) -> list[Op]:
    """Build the workload's inputs, warm up, and return its operations.

    ``threads`` is passed as ``threads=`` to the Monte Carlo calls.
    """
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(_BUILDERS)}") from None
    return build(seed, threads, toy)


def _brownian_exit(seed: int, threads: int, toy: bool) -> list[Op]:
    bm2 = sl.ProcessSpec(alpha=2.0, dim=2)
    bm1 = sl.ProcessSpec(alpha=2.0, dim=1)
    disc = sl.Ball((0.0, 0.0), 1.0)
    ns = np.array([5.0, 50.0, 500.0, 5000.0])
    probes = np.column_stack([ns, np.zeros_like(ns)])
    union = sl.shrinking_ball_domain(2, 10_000)
    interval = sl.Interval(-1.0, 1.0)
    bump = GaussianBump(1.0)
    disc_paths, disc_h = (1_000, 1e-3) if toy else (10_000, 1e-4)
    scan_paths, scan_h = (500, 1e-2) if toy else (500, 1e-3)
    dyn_paths = 2_000 if toy else 5_000
    t_dyn = 0.5
    sl.estimate_mean_exit_time(bm2, [0.0, 0.0], disc, t_max=0.05, h=1e-3, n_paths=16,
                               seed=seed, threads=threads)
    return [
        Op("disc",
           lambda p: sl.estimate_mean_exit_time(
               bm2, [0.0, 0.0], disc, t_max=8.0, h=disc_h, n_paths=disc_paths,
               seed=op_seed(seed, 0, p), threads=threads),
           checks.check_disc),
        Op("shrinking-ball-scan",
           lambda p: sl.exit_time_scan(
               bm2, probes, union, t_max=20.0, h=scan_h, n_paths=scan_paths,
               seed=op_seed(seed, 1, p), threads=threads),
           lambda scans: checks.check_scan(scans, ns)),
        Op("dynkin",
           lambda p: sl.dynkin_residual(
               bm1, [0.0], bump, t_dyn, interval, h=1e-3, n_paths=dyn_paths,
               seed=op_seed(seed, 2, p)),
           lambda results: checks.check_dynkin(results, bump.a, t_dyn)),
    ]


def _stable_killed(seed: int, threads: int, toy: bool) -> list[Op]:
    cauchy = sl.ProcessSpec(alpha=1.0, dim=1)
    stable05 = sl.ProcessSpec(alpha=0.5, dim=1)
    potential = sl.KillingPotential.power(1.0, 2.0, offset=1.0)  # V = 1 + x^2
    level = sl.Interval(-6.0, 6.0)
    inner = np.linspace(-3.0, 3.0, 13)[:, None]
    outer = np.array([[-6.0], [-5.0], [-4.0], [-3.5], [-3.25],
                      [3.25], [3.5], [4.0], [5.0], [6.0]])
    interval = sl.Interval(-1.0, 1.0)
    bound_paths, bound_h = (50, 1e-2) if toy else (100, 1e-3)
    exit_paths = 2_000 if toy else 4_000
    t = 1.0
    sl.estimate_mean_exit_time(stable05, [0.0], interval, t_max=0.05, h=1e-3, n_paths=16,
                               seed=seed, threads=threads)
    return [
        Op("norm-bound",
           lambda p: sl.t_norm_bound_check(
               cauchy, potential, level, inner, outer, t=t, h=bound_h,
               n_paths=bound_paths, seed=op_seed(seed, 0, p), threads=threads,
               zeta_t_max=6.0),
           lambda bounds: checks.check_bound(bounds, t)),
        Op("exit-alpha-0.5",
           lambda p: sl.estimate_mean_exit_time(
               stable05, [0.0], interval, t_max=8.0, h=1e-3, n_paths=exit_paths,
               seed=op_seed(seed, 1, p), threads=threads),
           lambda results: checks.check_stable_exit(results, 0.5, 1.0, 0.0)),
    ]


def _spectral_killed(seed: int, threads: int, toy: bool) -> list[Op]:
    delta = 0.1 if toy else 0.025
    grid = sl.Grid1D.symmetric(20.0, delta)
    potential = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
    levels = [sl.Interval(-r, r) for r in (4.0, 7.0, 10.0, 13.0, 16.0)]
    n_levels = 5  # oscillator levels checked
    t_lp = 8.0
    _ = sl.dirichlet_laplacian(sl.Grid1D.symmetric(1.0, 0.1)).eigenvalues

    def killed(p):
        gen = sl.killed_generator(sl.dirichlet_laplacian(grid), potential)
        return sl.compactness_diagnostic(gen, levels, 1.0), gen.eigenvalues[:n_levels].copy()

    def control(p):
        gen = sl.dirichlet_laplacian(grid)
        return sl.compactness_diagnostic(gen, levels, 1.0), gen.eigenvalues.copy()

    def rates(p):
        gen = sl.killed_generator(sl.dirichlet_laplacian(grid), potential)
        return sl.lp_spectral_bound_compare(gen, [t_lp])

    return [
        Op("killed-diagnostic", killed,
           lambda outs: checks.check_killed_diagnostic(outs, delta)),
        Op("control-diagnostic", control,
           lambda outs: checks.check_control_diagnostic(outs, delta)),
        Op("lp-rates", rates, lambda outs: checks.check_lp_rates(outs, t_lp)),
    ]


def _spectral_weighted(seed: int, threads: int, toy: bool) -> list[Op]:
    delta = 0.25 if toy else 0.1
    radii = (20.0, 40.0, 80.0)
    _ = sl.dirichlet_laplacian(sl.Grid1D.symmetric(1.0, 0.1)).eigenvalues
    return [
        Op("beta-transition",
           lambda p: sl.weighted_transition_study(1.0, [2.0, 0.5, 0.0], radii, delta),
           lambda studies: checks.check_weighted_study(studies, delta)),
    ]


_BUILDERS = {
    "brownian-exit": _brownian_exit,
    "stable-killed": _stable_killed,
    "spectral-killed": _spectral_killed,
    "spectral-weighted": _spectral_weighted,
}
WORKLOADS = tuple(_BUILDERS)
