"""Correctness checks of workload outputs, with their reference values.

Every reference is computed here from a textbook formula (``math``, numpy
and ``scipy.special`` only), never taken from ``stablelab.closedform``, so a
check shares no code path with the estimator it judges.  Each check returns
a :class:`Check`; a workload is correct when all of its checks hold.

Monte Carlo checks allow ``Z`` standard errors.  The acceptance tests use 3
at one fixed seed; the benchmark is run at whatever seed it is given, about
a hundred times per evaluation, with four two-sided checks of that kind per
Monte Carlo run.  At 3 standard errors about one run in a hundred would
fail by chance; at 4 the chance is about 3e-4 per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import i0

Z = 4.0


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# references


def ball_mean_exit(radius: float, dim: int) -> float:
    """E_0[tau] of Brownian motion (generator Delta/2) from a centred ball."""
    return radius**2 / dim


def shrinking_radius(n) -> np.ndarray:
    """r_n = (log log(n + 3))^(-1/2), the radius of the n-th ball."""
    return np.log(np.log(np.asarray(n, dtype=float) + 3.0)) ** -0.5


def ball_r1_planar(radius) -> np.ndarray:
    """E_0[1 - e^{-tau}] for a planar ball: 1 - 1/I0(sqrt(2) r).

    u(x) = E_x[e^{-tau}] solves (Delta/2) u = u with u = 1 on the sphere,
    so u(0) = 1/I0(sqrt(2) r) in two dimensions.
    """
    return 1.0 - 1.0 / i0(math.sqrt(2.0) * np.asarray(radius, dtype=float))


def stable_interval_mean_exit(alpha: float, a: float, x: float) -> float:
    """E_x[tau] from (-a, a) for exponent |xi|^alpha: (a^2 - x^2)^(alpha/2) / Gamma(1 + alpha)."""
    return (a * a - x * x) ** (alpha / 2.0) / math.gamma(1.0 + alpha)


def gaussian_heat_at_zero(a: float, t: float) -> tuple[float, float]:
    """Mean and standard deviation of exp(-a B_t^2) for a 1D Brownian B_0 = 0.

    E[exp(-c B_t^2)] = (1 + 2ct)^(-1/2), so the mean is that at c = a and
    the second moment that at c = 2a.
    """
    mean = (1.0 + 2.0 * a * t) ** -0.5
    second = (1.0 + 4.0 * a * t) ** -0.5
    return mean, math.sqrt(second - mean * mean)


def grid_size(radius: float, delta: float) -> int:
    """Interior points of the uniform grid on (-R, R) with spacing delta."""
    return int(round(2.0 * radius / delta)) - 1


def dirichlet_sine_spectrum(n: int, delta: float) -> np.ndarray:
    """Eigenvalues of -(1/2) second difference on n points, Dirichlet ends.

    The eigenvectors are discrete sines, with eigenvalues
    (1 - cos(k pi / (n + 1))) / delta^2, k = 1..n, ascending.
    """
    k = np.arange(1, n + 1)
    return (1.0 - np.cos(k * np.pi / (n + 1))) / delta**2


def oscillator_levels(k) -> np.ndarray:
    """Spectrum of -(1/2) d^2/dx^2 + 1 + x^2: 1 + sqrt(2) (k + 1/2)."""
    return 1.0 + math.sqrt(2.0) * (np.asarray(k, dtype=float) + 0.5)


# ---------------------------------------------------------------------------
# checks


def mean_matches(name, mean, stderr, ref, rel_floor=0.0) -> Check:
    """|mean - ref| <= max(Z stderr, rel_floor |ref|)."""
    tol = max(Z * stderr, rel_floor * abs(ref))
    err = mean - ref
    return Check(name, bool(abs(err) <= tol),
                 f"{mean:.6g} vs {ref:.6g}: error {err:+.3g}, tolerance {tol:.3g}")


def at_least(name, values, stderrs, bounds) -> Check:
    """values >= bounds - Z stderrs, elementwise."""
    values, stderrs, bounds = (np.asarray(v, dtype=float) for v in (values, stderrs, bounds))
    slack = values - (bounds - Z * stderrs)
    return Check(name, bool(np.all(slack >= 0.0)),
                 f"smallest margin {slack.min():.3g} over {values.size} values")


def strictly_decreasing(name, values) -> Check:
    d = np.diff(np.asarray(values, dtype=float))
    return Check(name, bool(np.all(d < 0.0)), f"largest step {d.max():+.3g}")


def jensen(name, r1, exit_means) -> Check:
    """Mean of 1 - e^{-tau} <= 1 - e^{-mean tau}, exact for empirical means.

    The slack 1e-12 covers rounding of the two means only.
    """
    r1 = np.asarray(r1, dtype=float)
    bound = 1.0 - np.exp(-np.asarray(exit_means, dtype=float))
    gap = bound - r1
    return Check(name, bool(np.all(gap >= -1e-12)), f"smallest gap {gap.min():.3g}")


def within(name, values, lo, hi, lo_open=False) -> Check:
    v = np.asarray(values, dtype=float)
    ok_lo = np.all(v > lo) if lo_open else np.all(v >= lo)
    return Check(name, bool(ok_lo and np.all(v <= hi)),
                 f"range [{v.min():.4g}, {v.max():.4g}] in {'(' if lo_open else '['}{lo:.4g}, {hi:.4g}]")


def close(name, got, ref, rtol=0.0, atol=0.0) -> Check:
    """|got - ref| <= atol + rtol |ref| elementwise."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return Check(name, False, f"shape {got.shape} vs reference {ref.shape}")
    excess = np.abs(got - ref) - (atol + rtol * np.abs(ref))
    return Check(name, bool(np.all(excess <= 0.0)),
                 f"max error {np.abs(got - ref).max():.3g} (atol {atol:.3g}, rtol {rtol:.3g})")


def holds(name, ok, detail="") -> Check:
    return Check(name, bool(ok), detail)


# ---------------------------------------------------------------------------
# per-operation checks
#
# Each takes the outputs of one operation over all passes of a run.  Monte
# Carlo passes draw from distinct seeds and have equal sizes, so their
# estimates pool: the mean of the means, with standard error
# sqrt(sum stderr^2) / passes.  Matrix outputs are checked pass by pass.


def pool(results) -> tuple[float, float]:
    means = np.array([r.mean for r in results])
    ses = np.array([r.stderr for r in results])
    return float(means.mean()), float(np.sqrt((ses**2).sum()) / means.size)


def each(outputs, check, *args) -> list[Check]:
    """Run ``check`` on every output; one Check per name, failing if any did."""
    merged: dict[str, Check] = {}
    for out in outputs:
        for c in check(out, *args):
            if c.name not in merged or (merged[c.name].ok and not c.ok):
                merged[c.name] = c
    return list(merged.values())


def check_disc(results, radius=1.0, dim=2) -> list[Check]:
    mean, se = pool(results)
    return [mean_matches("disc.mean", mean, se, ball_mean_exit(radius, dim), rel_floor=0.01)]


def check_scan(scans, ns) -> list[Check]:
    """``scans`` are exit_time_scan outputs: (mean exit, R_1) pairs per probe."""
    et, et_se = np.array([pool([s[i][0] for s in scans]) for i in range(len(ns))]).T
    r1, r1_se = np.array([pool([s[i][1] for s in scans]) for i in range(len(ns))]).T
    r = shrinking_radius(ns)
    return [
        at_least("scan.exit_above_inscribed_ball", et, et_se, r**2 / 2.0),
        at_least("scan.r1_above_inscribed_ball", r1, r1_se, ball_r1_planar(r)),
        strictly_decreasing("scan.exit_decreasing", et),
        strictly_decreasing("scan.r1_decreasing", r1),
        jensen("scan.r1_jensen", r1, et),
    ]


def check_dynkin(results, a, t) -> list[Check]:
    residual, se = pool([SimpleNamespace(mean=r.residual, stderr=r.stderr) for r in results])
    full = float(np.mean([r.full_semigroup for r in results]))
    full_mean, full_sd = gaussian_heat_at_zero(a, t)
    n = sum(r.n_paths for r in results)
    return [
        holds("dynkin.residual", abs(residual) <= Z * se, f"|{residual:.3g}| vs {Z:g} x {se:.3g}"),
        mean_matches("dynkin.full_space", full, full_sd / math.sqrt(n), full_mean),
    ]


def check_bound(bounds, t) -> list[Check]:
    return each(bounds, _check_bound, t)


def _check_bound(bound, t) -> list[Check]:
    """C4 bound with V >= 1: e^{-t} caps T_{n,t} 1 and 1 caps E[zeta].

    ``TNormBound`` exposes the largest of the outer lifetime means only, as
    tail_part = (4/t) max E[zeta]; bounding the largest bounds them all.
    The slack 1e-12 on e^{-t} covers rounding of the product of per-step
    weights.
    """
    top_lifetime = bound.tail_part * t / 4.0
    return [
        holds("bound.passed", bound.passed,
              f"lhs {bound.lhs:.3g} <= rhs {bound.rhs:.4g} (+ noise)"),
        within("bound.boundary_means", bound.probe_table.means, 0.0,
               math.exp(-t) * (1.0 + 1e-12)),
        within("bound.lifetime_means", top_lifetime, 0.0, 1.0, lo_open=True),
    ]


def check_stable_exit(results, alpha, a, x) -> list[Check]:
    mean, se = pool(results)
    ref = stable_interval_mean_exit(alpha, a, x)
    return [mean_matches("stable_exit.mean", mean, se, ref, rel_floor=0.01)]


def check_killed_diagnostic(outputs, delta) -> list[Check]:
    """``outputs`` are (norms, lowest eigenvalues) pairs."""
    return each(outputs, lambda out: [
        holds("killed.top_level_norm", out[0][-1] < 0.01, f"{out[0][-1]:.3g} < 0.01"),
        _oscillator(out[1], delta),
    ])


def _oscillator(lowest, delta) -> Check:
    """Lowest levels within delta^2 (k + 1)^2 of 1 + sqrt(2)(k + 1/2).

    The second difference misses the quartic term of the Taylor series, an
    O(delta^2) error that grows with the level's curvature; measured at
    delta = 0.02 it is -2.5e-5 at k = 0, a sixteenth of its allowance here.
    """
    k = np.arange(len(lowest))
    err = np.asarray(lowest) - oscillator_levels(k)
    allowed = delta**2 * (k + 1.0) ** 2
    return Check("killed.oscillator_levels", bool(np.all(np.abs(err) <= allowed)),
                 f"errors {np.array2string(err, precision=2)} within delta^2 (k+1)^2")


def check_control_diagnostic(outputs, delta) -> list[Check]:
    """``outputs`` are (norms, all eigenvalues) pairs."""
    return each(outputs, lambda out: [
        holds("control.norms", bool(np.all(np.asarray(out[0]) >= 0.9)),
              f"min {np.min(out[0]):.4f} >= 0.9"),
        close("control.sine_spectrum", out[1], dirichlet_sine_spectrum(len(out[1]), delta),
              rtol=1e-8),
    ])


def check_lp_rates(outputs, t) -> list[Check]:
    return each(outputs, _check_lp_rates, t)


def _check_lp_rates(rates, t) -> list[Check]:
    lam1, lam2, laminf = rates.rate_at(1, t), rates.rate_at(2, t), rates.rate_at("inf", t)
    rel = abs(lam1 - lam2) / lam2
    return [
        holds("lp.one_equals_inf", lam1 == laminf, f"{lam1!r} == {laminf!r}"),
        holds("lp.one_near_two", rel < 0.05, f"relative gap {rel:.4f} < 0.05"),
    ]


def check_weighted_study(outputs, delta) -> list[Check]:
    return each(outputs, _check_weighted_study, delta)


def _check_weighted_study(study, delta) -> list[Check]:
    """C9 transition plus the beta = 0 row, whose weight is the constant 2."""
    got = np.array(study["eigenvalues"][0.0])
    ref = np.array([
        2.0 * np.sqrt(2.0 * dirichlet_sine_spectrum(grid_size(r, delta), delta)[: got.shape[1]])
        for r in study["radii"]
    ])
    stab = study["gap"][2.0]
    dec = study["gap"][0.5]
    rel_stab = abs(stab[-1] - stab[-2]) / stab[-2]
    drop = (dec[-2] - dec[-1]) / dec[-2]
    return [
        close("weighted.beta0_sine_spectrum", got, ref, atol=1e-9),
        holds("weighted.beta2_stable", rel_stab < 0.01, f"gap change {rel_stab:.4%} < 1%"),
        strictly_decreasing("weighted.beta05_decreasing", dec),
        holds("weighted.beta05_drop", drop > 0.20, f"gap drop {drop:.1%} > 20%"),
    ]
