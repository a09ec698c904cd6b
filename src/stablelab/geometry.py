"""Open sets and membership tests.

Every shape answers two vectorized queries:

* ``depth(points)`` — a lower bound on the distance to the complement,
  positive exactly on the set.  Exact for balls, intervals and boxes; for
  unions it is the max over members, which undershoots inside overlaps.
  The depth feeds the Brownian-bridge crossing correction and doubles as
  the analytic openness certificate (depth > 0 at any interior point).
* ``contains(points)`` — open-set membership (boundaries excluded), which
  every shape answers as ``depth(points) > 0``, so a point is inside by
  one rule wherever it is read.

Unbounded unions are truncated at a finite count ``n_max``; experiments
report the truncation and are expected to show stability in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Domain",
    "FullSpace",
    "Ball",
    "Interval",
    "Box",
    "UnionOfBalls",
    "UnionOfIntervals",
    "shrinking_radius",
    "shrinking_ball_domain",
    "disjoint_shrinking_intervals",
]


def _pts(points, dim: int) -> np.ndarray:
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        p = p[None, :]
    if p.shape[-1] != dim:
        raise ValueError(f"points have dimension {p.shape[-1]}, domain has {dim}")
    return p


class Domain:
    """Base class; subclasses set ``dim`` and implement ``depth``."""

    dim: int

    def depth(self, points) -> np.ndarray:
        raise NotImplementedError

    def contains(self, points) -> np.ndarray:
        return self.depth(points) > 0.0

    def contains_point(self, x) -> bool:
        return bool(self.contains(np.asarray(x, dtype=float).reshape(1, -1))[0])


@dataclass(frozen=True)
class FullSpace(Domain):
    dim: int

    def depth(self, points) -> np.ndarray:
        p = _pts(points, self.dim)
        return np.full(p.shape[0], np.inf)


@dataclass(frozen=True)
class Ball(Domain):
    center: tuple
    radius: float
    dim: int = field(init=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.radius <= 0.0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(c))
        object.__setattr__(self, "dim", c.size)

    def depth(self, points) -> np.ndarray:
        q = _pts(points, self.dim)
        if any(self.center):  # a centered ball needs no shift
            q = q - np.asarray(self.center)
        return self.radius - np.sqrt(np.einsum("ij,ij->i", q, q))


@dataclass(frozen=True)
class Interval(Domain):
    a: float
    b: float
    dim: int = field(init=False, default=1)

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got ({self.a}, {self.b})")
        object.__setattr__(self, "dim", 1)

    def depth(self, points) -> np.ndarray:
        x = _pts(points, 1)[:, 0]
        return np.minimum(x - self.a, self.b - x)


@dataclass(frozen=True)
class Box(Domain):
    lo: tuple
    hi: tuple
    dim: int = field(init=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ValueError("box requires lo < hi componentwise")
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))
        object.__setattr__(self, "dim", lo.size)

    def depth(self, points) -> np.ndarray:
        p = _pts(points, self.dim)
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.minimum(p - lo, hi - p).min(axis=-1)


@dataclass(frozen=True)
class UnionOfBalls(Domain):
    """Finite union of open balls centred on consecutive integer points of
    the first axis (infinite families enter truncated).

    The shrinking-ball family is such a union.  Depth only consults the few
    balls whose centre is within max-radius of round(x_1), so the per-point
    cost stays flat in the number of balls.  Centres off that lattice raise
    ``ValueError``.
    """

    centers: np.ndarray
    radii: np.ndarray
    dim: int = field(init=False)
    # radii with 2 span + 1 entries of -inf on each side, so an offset that
    # leaves the lattice gathers -inf instead of needing a mask
    _padded: np.ndarray = field(init=False, repr=False)
    _span: int = field(init=False, repr=False)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if c.shape[0] != r.size or c.shape[0] < 1:
            raise ValueError("need one radius per center")
        if np.any(r <= 0.0):
            raise ValueError("ball radii must be positive")
        lattice = np.round(c[0, 0]) + np.arange(c.shape[0])
        if not np.array_equal(c[:, 0], lattice) or np.any(c[:, 1:]):
            raise ValueError("centers must be consecutive integer points on the first axis")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "dim", c.shape[1])
        span = int(math.ceil(float(r.max()))) + 1
        gap = np.full(2 * span + 1, -np.inf)
        object.__setattr__(self, "_padded", np.concatenate([gap, r, gap]))
        object.__setattr__(self, "_span", span)

    def depth(self, points) -> np.ndarray:
        # max over the balls j = round(x_1) + k, |k| <= span, of r_j - |x - c_j|.
        # round(x_1) is clipped to [-span - 1, n + span]; that moves only
        # points whose every offset is off the lattice, where -inf is gathered.
        p = _pts(points, self.dim)
        first0 = self.centers[0, 0]
        span = self._span
        x1 = np.ascontiguousarray(p[:, 0])
        j0 = np.clip(np.rint(x1 - first0), -span - 1, self.radii.size + span)
        c0 = first0 + j0  # first-axis center of ball j0, exact on the lattice
        # _padded[m:][at] is the radius of ball j0 + m - span
        at = j0.astype(np.intp) + (span + 1)
        if self.dim > 1:
            q = p[:, 1:]
            rest2 = np.einsum("ij,ij->i", q, q)
        else:
            rest2 = 0.0
        rows = p.shape[0]
        best = np.full(rows, -np.inf)
        dist = np.empty(rows)
        cand = np.empty(rows)
        for m in range(2 * span + 1):
            np.add(c0, m - span, out=dist)
            np.subtract(x1, dist, out=dist)
            np.multiply(dist, dist, out=dist)
            np.add(dist, rest2, out=dist)
            np.sqrt(dist, out=dist)
            np.take(self._padded[m:], at, out=cand, mode="clip")
            np.subtract(cand, dist, out=cand)
            np.maximum(best, cand, out=best)
        return best


@dataclass(frozen=True)
class UnionOfIntervals(Domain):
    """Finite union of open intervals on the line, kept sorted by left end."""

    segments: np.ndarray
    dim: int = field(init=False, default=1)

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.segments, dtype=float))
        if s.shape[1] != 2 or np.any(s[:, 0] >= s[:, 1]):
            raise ValueError("segments must be rows (a, b) with a < b")
        s = s[np.argsort(s[:, 0])]
        object.__setattr__(self, "segments", s)
        object.__setattr__(self, "dim", 1)

    def depth(self, points) -> np.ndarray:
        x = _pts(points, 1)[:, 0]
        d = np.minimum(
            x[:, None] - self.segments[None, :, 0],
            self.segments[None, :, 1] - x[:, None],
        )
        return d.max(axis=1)


def shrinking_radius(n) -> np.ndarray:
    """Radius r_n = (log log(n + 3))^(-1/2) of the n-th shrinking ball."""
    n = np.asarray(n, dtype=float)
    return np.log(np.log(n + 3.0)) ** -0.5


def shrinking_ball_domain(d: int, n_max: int) -> Domain:
    """Union of balls B(e_n, r_n), e_n = (n, 0, ..., 0), truncated at n_max.

    The radii r_n = (log log(n+3))^(-1/2) decrease to zero, so the mean exit
    time from far-out balls vanishes, yet slowly enough that the heat trace
    of the union diverges.  Note r_n > 1/2 for every n reachable at desk
    scale, so consecutive balls overlap and the truncated set is connected.
    Every d, d = 1 included, gets the lattice union, whose depth costs the
    same per point whatever n_max is; in d = 1 the balls are the intervals
    (n - r_n, n + r_n).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1)
    centers = np.zeros((n_max, d))
    centers[:, 0] = ns
    return UnionOfBalls(centers, shrinking_radius(ns))


def disjoint_shrinking_intervals(n_max: int) -> UnionOfIntervals:
    """Disjoint 1D family (n - l_n, n + l_n) with l_n = 0.5 * n^(-0.42).

    The shrinking-ball radii r_n stay above 1/2 at any reachable n, so on
    the line the segments merge into one long interval and the exit-time
    bound never shrinks.  This family keeps the two phenomena visible at
    desk scale: half-lengths decay like a small power (exit bound -> 0)
    while the heat trace still grows without saturating as n_max doubles
    (the power 0.42 is below 1/2).  The segments stay disjoint, since
    0.5 + 0.5 * 2^-0.42 < 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.arange(1, n_max + 1, dtype=float)
    half = 0.5 * ns**-0.42
    return UnionOfIntervals(np.column_stack([ns - half, ns + half]))
