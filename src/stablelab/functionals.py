"""Path functionals and Monte Carlo estimators.

Exit times, killed (Feynman-Kac) semigroups, time-change clocks, lifetimes
and 1-resolvents.  Every estimator that steps an ensemble of paths runs the
one engine, ``_fk_engine``: rows carry a Feynman-Kac weight and record
their first exit from a watched level; an exit time is the case V = 0.
Estimation is vectorized over paths; work is split into fixed-size chunks,
each driven by its own SFC64 stream (``process.stream``), so results are
identical for any worker count and merging is order independent.

Exit detection happens on the time grid.  Brownian paths can also cross
and come back between grid points, so for every domain the engine applies
one bridge rule (Baldi 1995; Gobet 2000): a step staying inside exits with
probability exp(-2 d0 d1 / h), where d0, d1 are the domain depths at the
step endpoints.  Every ``Domain.depth`` is a lower bound on the distance to
the complement (exact for balls, intervals and boxes; unions undershoot
inside overlaps, where the rule kills a little early), so no shape needs a
rule of its own.  ``_bridge_kills`` applies it, drawing a uniform only for
the rows the rule can kill, those with d0 d1 < 14 h (below that cut the
chance is under 7e-13), inside ``_exit_step``, the one exit step of both
path loops: the engine's (exit times, boundary-term levels) and Dynkin's.
Bridge-detected exits sit mid-step (O(h) bias, inside reported
tolerances).  Jump-driven paths (alpha < 2) have no bridge rule; grid
detection misses the exits of excursions that leave and return between
grid points, so their exit times come out high: by +0.9 to +1.8 % at
alpha = 1.5 and h = 1e-3, and by about +0.4 % at h = 1e-4.

V, W and the starts are (n, d) rows of points, read by one rule
(``geometry._rows``), which refuses a 1-D array.  An engine row retires
once nothing it does later can change an output: when its weight falls
below ``_PRUNE_BELOW``, or, without a potential, at its exit.  The
1-resolvent under V is the mean lifetime under V + 1.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, FullSpace, _norm2, _number, _rows
from .process import (
    PathSample, ProcessSpec, _as_start, _checked_run, _n_steps, sample_increments, stream,
)

__all__ = [
    "KillingPotential",
    "TimeChangeWeight",
    "EstimatorResult",
    "TimeChangeClock",
    "UnsupportedConfiguration",
    "TailBoundError",
    "exit_time",
    "estimate_mean_exit_time",
    "estimate_survival",
    "estimate_resolvent_r1",
    "feynman_kac_weight",
    "estimate_killed_lifetime_mean",
    "time_change_clock",
    "exit_time_scan",
]

_CHUNK = 100_000
_BRIDGE_CUT = 14.0
_PRUNE_BELOW = 1e-14


class UnsupportedConfiguration(ValueError):
    """Raised when an operation has no valid oracle/route for the arguments."""


class TailBoundError(RuntimeError):
    """Raised when the geometric tail bound of a lifetime estimate diverges."""


@dataclass(frozen=True)
class KillingPotential:
    """Nonnegative killing rate V.

    ``power`` builds V(x) = offset + c |x|^gamma (offset extends the plain
    power so that strictly positive rates like 1 + |x|^2 stay in closed
    form); ``custom`` wraps any vectorized callable; ``none`` is the zero
    power.  Any other kind, or a custom one without a callable, raises when
    built.  V must be >= 0: a power with a negative coefficient raises when
    it is built, a custom V that goes negative raises at evaluation time.
    For tightness-style claims V should also grow without bound.  It is
    called on an (n, d) array of points.
    """

    kind: str
    c: float = 1.0
    gamma: float = 0.0
    offset: float = 0.0
    fn: object = None

    def __post_init__(self):
        if self.kind not in ("power", "custom") or (self.kind == "custom") != callable(self.fn):
            raise ValueError(f"potential needs kind power (no fn) or custom (a callable fn): {self}")
        for name, lo in (("c", 0.0), ("gamma", -math.inf), ("offset", 0.0)):  # as floats
            object.__setattr__(self, name, _number(getattr(self, name), name, lo, ends="[)"))

    @classmethod
    def none(cls) -> "KillingPotential":
        return cls.power(0.0, 0.0)

    @classmethod
    def power(cls, c: float, gamma: float, offset: float = 0.0) -> "KillingPotential":
        return cls(kind="power", c=c, gamma=gamma, offset=offset)

    @classmethod
    def constant(cls, c: float) -> "KillingPotential":
        return cls.power(c=0.0, gamma=0.0, offset=c)

    @classmethod
    def custom(cls, fn) -> "KillingPotential":
        return cls(kind="custom", fn=fn)

    @property
    def is_none(self) -> bool:
        """V is identically 0: a power with c = offset = 0, ``none()`` too."""
        return self.kind == "power" and self.c == 0.0 and self.offset == 0.0

    def __call__(self, points) -> np.ndarray:
        p = _rows(points)
        if self.kind == "power":
            if self.c == 0.0:  # the offset alone: no |x|^2 to overflow
                return np.full(p.shape[0], self.offset)
            # |x|^gamma as (|x|^2)^(gamma/2): one power, no square root.
            return self.offset + self.c * _norm2(p) ** (self.gamma / 2.0)
        v = np.asarray(self.fn(p), dtype=float).reshape(p.shape[0])
        if not np.all(v >= 0.0):
            raise ValueError("killing potential must be nonnegative at visited points")
        return v


@dataclass(frozen=True)
class TimeChangeWeight:
    """Clock weight W with the contract 1 + |x|^beta <= W(x) < infinity.

    The default is the extremal weight W(x) = 1 + |x|^beta itself.  Custom
    weights are spot-checked against the lower bound on the points where
    they are evaluated.  It is called on an (n, d) array of points, or on a
    scalar (a point on the line), which returns a float.
    """

    beta: float
    fn: object = None

    def __post_init__(self):
        _number(self.beta, "beta", 0.0, ends="[)")

    def __call__(self, points) -> np.ndarray:
        scalar = np.ndim(points) == 0
        p = np.reshape(np.asarray(points, dtype=float), (1, 1)) if scalar else _rows(points)
        r = np.sqrt(_norm2(p))
        lower = 1.0 + r**self.beta
        if self.fn is None:
            w = lower
        else:
            w = np.asarray(self.fn(p), dtype=float).reshape(p.shape[0])
            if not np.all(w >= lower * (1.0 - 1e-12)):
                raise ValueError("weight violates its lower bound 1 + |x|^beta")
        return float(w[0]) if scalar else w


@dataclass(frozen=True)
class EstimatorResult:
    """Universal Monte Carlo return: point estimate plus its uncertainty."""

    mean: float
    stderr: float
    n_paths: int
    step_h: float
    seed: int
    quantity: str = ""
    survived_fraction: float = 0.0
    tail_corrected_mean: float | None = None
    p_hat: float | None = None
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        _number(self.n_paths, "n_paths", 2, ends="[)", integer=True)  # a spread needs 2


def _result(values: np.ndarray, h: float, seed: int, quantity: str, **extra) -> EstimatorResult:
    return EstimatorResult(
        mean=float(values.mean()),
        stderr=float(values.std(ddof=0) / math.sqrt(values.size)),
        n_paths=int(values.size),
        step_h=float(h),
        seed=int(seed),
        quantity=quantity,
        **extra,
    )


# ---------------------------------------------------------------------------
# exit-time machinery


def exit_time(path: PathSample, domain: Domain) -> float:
    """First grid time at which the path sits outside the open set.

    Returns 0.0 when the start is already outside (infimum over an empty
    delay) and ``inf`` when the whole sampled horizon stays inside.
    """
    inside = domain.contains(path.positions)
    if not inside[0]:
        return 0.0
    out = np.nonzero(~inside)[0]
    if out.size == 0:
        return math.inf
    return float(out[0] * path.step_h)


# ---------------------------------------------------------------------------
# the path engine


def _bridge_kills(d0, d1, watch, h: float, rng, out) -> None:
    """Mark in ``out`` the watched rows that exit between grid points.

    A Brownian step that clears the boundary by d0 at its start and d1 > 0
    at its end crosses it in between with chance exp(-2 d0 d1 / h).  Only
    rows with d0 d1 < 14 h (``_BRIDGE_CUT``) draw a uniform, one each, in
    row order; beyond the cut the chance is below 7e-13.  Rows with d1 <= 0
    are on-grid exits and are left to the caller.  A step with no row under
    the cut returns at once and draws nothing.
    """
    prod = d0 * d1
    at = (prod < _BRIDGE_CUT * h).nonzero()[0]
    if at.size == 0:
        return
    at = at[watch[at] & (d1[at] > 0.0)]
    p = np.exp(-2.0 * prod[at] / h)
    out[at[rng.random(at.size) < p]] = True


def _exit_step(level: Domain, depth, x_new, fresh, t: float, h: float, rng, bridge: bool):
    """One step's exits from ``level``, the rule of both path loops: ``fresh``
    rows at depth <= 0 exit on the grid at t; with ``bridge`` rows still inside
    may exit in between (``_bridge_kills``), all stamped mid-step, t - h/2.
    Clears exits from ``fresh`` in place; returns (new depths, exits, exit time)."""
    new_depth = level.depth(x_new)
    out = fresh & (new_depth <= 0.0)
    if bridge:
        _bridge_kills(depth, new_depth, fresh, h, rng, out)
    fresh[out] = False
    return new_depth, out, t - h / 2.0 if bridge else t


def _fk_engine(
    spec: ProcessSpec,
    starts: np.ndarray,
    potential: KillingPotential,
    h: float,
    horizon: float,
    n_paths: int,
    seed: int,
    capture_time: float | None = None,
    level: Domain | None = None,
    threads: int = 1,
) -> dict:
    """The path loop behind every estimator that steps an ensemble.

    Each start gets n_paths rows carrying the Feynman-Kac weight
    w = exp(-A_t) of ``potential`` (left rule; w stays 1 without one).
    With a ``level`` the loop records each row's first exit from it: on the
    grid, and for Brownian paths also between grid points by the bridge
    rule, in which case the exit sits mid-step.  A row retires once nothing
    it does later can change an output: when w drops below _PRUNE_BELOW (it
    weighs 0 from then on, a bias of at most _PRUNE_BELOW * horizon per
    path), or, without a potential, at its exit.

    Per start and path it returns
      tau:      the first exit time from the level; inf if there is no
                level or no exit before the horizon or the row's retirement
      zeta:     int_0^horizon w_s ds (0 without a potential)
      captured: w at capture_time (1 without a potential)
      w_end:    w at the horizon (likewise)
    Rows are compacted once fewer than 85 % are alive.  Each chunk of
    ``_CHUNK`` rows draws from its own stream, so the result does not
    depend on ``threads``.
    """
    starts, n_steps = _checked_run(spec, starts, h, horizon, n_paths, seed, threads=threads)
    n_cap = -1 if capture_time is None else _n_steps(capture_time, h)
    if n_cap > n_steps:
        raise ValueError("capture_time beyond horizon")
    weighted = not potential.is_none
    bridge = level is not None and spec.is_brownian
    flat = np.repeat(starts, n_paths, axis=0)
    n_chunks = (flat.shape[0] + _CHUNK - 1) // _CHUNK

    def work(cid):
        rng = stream(seed, cid)
        x = flat[cid * _CHUNK:(cid + 1) * _CHUNK]
        rows = x.shape[0]
        tau = np.full(rows, math.inf)
        zeta = np.zeros(rows)
        captured = np.full(rows, 0.0 if weighted else 1.0)
        w_end = captured.copy()
        w = np.ones(rows)
        ids = np.arange(rows)
        fresh = np.ones(rows, dtype=bool)  # rows that have not exited yet
        if level is not None:
            depth = level.depth(x)
            fresh = depth > 0.0
            tau[~fresh] = 0.0
        alive = w >= _PRUNE_BELOW if weighted else fresh
        n_alive = np.count_nonzero(alive)
        t = 0.0
        for k in range(n_steps):
            if n_alive == 0:
                break
            if weighted:
                zeta[ids] += w * h
                w = w * np.exp(-potential(x) * h)
            t += h
            x_new = sample_increments(spec, h, rng, x.shape[0])
            x_new += x
            if level is not None:
                depth, out, t_exit = _exit_step(level, depth, x_new, fresh, t, h, rng, bridge)
                tau[ids[out]] = t_exit
            x = x_new
            if k + 1 == n_cap:
                captured[ids] = w
            n_before = n_alive
            alive = w >= _PRUNE_BELOW if weighted else fresh
            n_alive = np.count_nonzero(alive)
            if n_alive / w.size < 0.85:
                x, w, ids, fresh = x[alive], w[alive], ids[alive], fresh[alive]
                if level is not None:
                    depth = depth[alive]
            elif weighted and n_alive < n_before:
                w *= alive  # rows frozen in this step weigh 0 from now on
        w_end[ids] = w
        return tau, zeta, captured, w_end

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(work, range(n_chunks)))
    else:
        parts = [work(c) for c in range(n_chunks)]
    m = starts.shape[0]
    return {
        name: np.concatenate([p[j] for p in parts]).reshape(m, n_paths)
        for j, name in enumerate(("tau", "zeta", "captured", "w_end"))
    }


def _exit_times(spec, starts, domain, t_max, h, n_paths, seed, threads=1):
    """Exit times from ``domain``, shape (starts, n_paths); inf marks survivors."""
    starts, _ = _checked_run(spec, starts, h, t_max, n_paths, seed, threads=threads)
    if isinstance(domain, FullSpace):
        return np.full((starts.shape[0], n_paths), math.inf)
    return _fk_engine(
        spec, starts, KillingPotential.none(), h, t_max, n_paths, seed,
        level=domain, threads=threads,
    )["tau"]


def _exit_stats(tau: np.ndarray, t_max: float, h: float, seed: int):
    """(mean of min(tau, t_max), E[1 - exp(-min(tau, t_max))]) from one row of
    exit times, both with the survivor fraction.

    If more than 1e-3 of the paths survive the horizon the mean carries a
    warning; its tail-corrected mean extrapolates the censored part with the
    empirical late-time decay rate of the survival curve.  The 1-resolvent
    needs no correction: survivors move it by at most exp(-t_max).
    """
    n = tau.size
    survived = ~np.isfinite(tau)
    frac = float(survived.mean())
    capped = np.where(survived, t_max, tau)
    warnings = ()
    if frac > 1e-3:
        warnings = (
            f"survivor fraction {frac:.2e} exceeds 1e-3; raise t_max",
        )
    tail_corrected = None
    if frac > 0.0:
        # decay rate fitted on the last stretch of the survival curve
        s_half = max(float((tau > t_max / 2.0).mean()), 1.0 / n)
        rate = 2.0 * math.log(s_half / max(frac, 1.0 / n)) / t_max
        if rate > 0.0:
            tail_corrected = float(capped.mean() + frac / rate)
    mexit = _result(
        capped, h, seed, "mean_exit_time",
        survived_fraction=frac,
        tail_corrected_mean=tail_corrected,
        warnings=warnings,
    )
    r1 = _result(1.0 - np.exp(-capped), h, seed, "resolvent_r1", survived_fraction=frac)
    return mexit, r1


# ---------------------------------------------------------------------------
# exit-time estimators


def estimate_mean_exit_time(
    spec: ProcessSpec,
    x0,
    domain: Domain,
    t_max: float,
    h: float,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> EstimatorResult:
    """Mean of min(tau, t_max), with survivor accounting.

    If more than 1e-3 of the paths survive the horizon the result carries a
    warning; a tail-corrected mean extrapolates the censored part with the
    empirical late-time decay rate of the survival curve.
    """
    tau = _exit_times(spec, _as_start(x0, spec.dim), domain, t_max, h, n_paths, seed, threads)[0]
    return _exit_stats(tau, t_max, h, seed)[0]


def exit_time_scan(
    spec: ProcessSpec,
    starts,
    domain: Domain,
    t_max: float,
    h: float,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[EstimatorResult, EstimatorResult]]:
    """Joint (mean exit time, 1-resolvent) estimates on shared paths per start.

    One simulation per start feeds both statistics, which is what a trend
    comparison along a probe sequence wants: the two columns then carry the
    same path noise.  Each pair is what ``estimate_mean_exit_time`` and
    ``estimate_resolvent_r1`` report for that start, warnings included.
    """
    taus = _exit_times(spec, starts, domain, t_max, h, n_paths, seed, threads)
    return [_exit_stats(tau, t_max, h, seed) for tau in taus]


def estimate_survival(
    spec: ProcessSpec,
    x0,
    domain: Domain,
    t: float,
    h: float,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> EstimatorResult:
    """Empirical P_x(tau > t)."""
    tau = _exit_times(spec, _as_start(x0, spec.dim), domain, t, h, n_paths, seed, threads)[0]
    return _result((~np.isfinite(tau)).astype(float), h, seed, "survival")


def estimate_resolvent_r1(
    spec: ProcessSpec,
    x0,
    lifetime,
    h: float,
    n_paths: int,
    seed: int,
    t_max: float = 20.0,
    threads: int = 1,
) -> EstimatorResult:
    """E_x[1 - exp(-zeta)] -- the 1-resolvent applied to the constant 1.

    ``lifetime`` selects the killing mechanism: a Domain kills at its exit
    time (part process), a KillingPotential kills at the Feynman-Kac rate.
    Under a potential V, R_1 1 = E int exp(-t) exp(-A_t) dt is the mean
    lifetime of the unit-rate 1-subprocess, killed at rate V + 1, which is
    what the engine reports (as ``zeta``) for that potential.  A
    conservative configuration (full space, no potential) returns 1
    exactly.  Horizon truncation contributes at most exp(-t_max).
    """
    starts = _as_start(x0, spec.dim)
    if isinstance(lifetime, FullSpace) or (
        isinstance(lifetime, KillingPotential) and lifetime.is_none
    ):
        _checked_run(spec, starts, h, t_max, n_paths, seed, threads=threads)
        return EstimatorResult(1.0, 0.0, n_paths, h, seed, quantity="resolvent_r1")
    if isinstance(lifetime, KillingPotential):
        unit = KillingPotential.custom(lambda p: lifetime(p) + 1.0)
        out = _fk_engine(spec, starts, unit, h, t_max, n_paths, seed, threads=threads)
        return _result(out["zeta"][0], h, seed, "resolvent_r1")
    tau = _exit_times(spec, starts, lifetime, t_max, h, n_paths, seed, threads)[0]
    return _exit_stats(tau, t_max, h, seed)[1]


# ---------------------------------------------------------------------------
# Feynman-Kac weights and lifetimes


def feynman_kac_weight(path: PathSample, potential: KillingPotential, t: float) -> float:
    """exp(-A_t) with A_t the left-endpoint Riemann sum of V along the path."""
    _number(t, "t", 0.0, path.t_max + 1e-12, "[]")  # within the path's t_max
    n_terms = _n_steps(t, path.step_h)
    if n_terms == 0:
        return 1.0
    v = potential(path.positions[:n_terms])
    return float(np.exp(-path.step_h * v.sum()))


def _lifetime_capture(t_max: float) -> float:
    """Time at which a lifetime run to t_max reads P(zeta > 1)."""
    return min(1.0, _number(t_max, "t_max"))


def _killed_lifetimes(spec, starts, potential, h, n_paths, seed, t_max, threads):
    """(zeta rows, tail bounds, p_hat) of the killed process from the (m, d) ``starts``.

    One engine run over the starts plus the origin gives, per start,
    zeta = int_0^t_max exp(-A_t) dt on each path and the tail bound
    E[exp(-A_{t_max})] / (1 - p_hat), where p_hat is the largest
    P(zeta > 1) = E[exp(-A_1)] over all of those rows.
    """
    if potential.is_none:
        raise TailBoundError("lifetime is infinite without killing")
    out = _fk_engine(
        spec, np.vstack([starts, np.zeros((1, starts.shape[1]))]), potential, h, t_max,
        n_paths, seed, capture_time=_lifetime_capture(t_max), threads=threads,
    )
    p_hat = float(out["captured"].mean(axis=1).max())
    if p_hat >= 1.0 - 1e-9:
        raise TailBoundError(
            f"geometric tail bound diverges: p_hat = {p_hat:.6f} >= 1"
        )
    m = starts.shape[0]
    return out["zeta"][:m], out["w_end"][:m].mean(axis=1) / (1.0 - p_hat), p_hat


def estimate_killed_lifetime_mean(
    spec: ProcessSpec,
    x0,
    potential: KillingPotential,
    h: float,
    n_paths: int,
    seed: int,
    t_max: float = 8.0,
    threads: int = 1,
) -> EstimatorResult:
    """Mean lifetime of the killed process, E[zeta] = int_0^inf E[exp(-A_t)] dt.

    Path quadrature runs to t_max; the remainder is bounded through the
    geometric decay of the survival probability: with p_hat the larger
    P(zeta > 1) from x0 and from the origin, the tail is at most
    E[exp(-A_{t_max})] / (1 - p_hat).  The reported ``tail_corrected_mean``
    adds that bound; ``p_hat`` is attached to the result.
    """
    zeta, tails, p_hat = _killed_lifetimes(
        spec, _as_start(x0, spec.dim), potential, h, n_paths, seed, t_max, threads
    )
    tail_corrected = float(zeta[0].mean()) + float(tails[0])
    return _result(
        zeta[0], h, seed, "killed_lifetime_mean", tail_corrected_mean=tail_corrected, p_hat=p_hat
    )


# ---------------------------------------------------------------------------
# time change


@dataclass(frozen=True)
class TimeChangeClock:
    """Additive clock A_t = int_0^t ds / W(X_s) along one sampled path.

    ``values[k]`` approximates A at grid time k*h (left rule), so values[0]
    is 0 and the clock is strictly increasing while W is finite.  The
    inverse clock and the time-changed position are grid lookups.
    """

    path: PathSample
    values: np.ndarray

    @property
    def total(self) -> float:
        return float(self.values[-1])

    def inverse(self, s: float) -> float:
        """tau_s = first grid time with A >= s (binary search)."""
        _number(s, "s", 0.0, self.total, "[]")
        k = int(np.searchsorted(self.values, s, side="left"))
        return float(k * self.path.step_h)

    def position(self, s: float) -> np.ndarray:
        """X^mu_s = X_{tau_s}."""
        k = int(np.searchsorted(self.values, min(s, self.total), side="left"))
        return self.path.positions[k]


def time_change_clock(path: PathSample, weight: TimeChangeWeight) -> TimeChangeClock:
    """Clock samples {A_{t_k}} plus inverse-clock lookup for one path."""
    w = weight(path.positions[:-1])
    incr = path.step_h / w
    values = np.concatenate([[0.0], np.cumsum(incr)])
    return TimeChangeClock(path=path, values=values)
