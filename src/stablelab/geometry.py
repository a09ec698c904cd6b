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

Points are (n, d) rows, read by one rule (``_rows``) here and in V, W and
a path loop's starts.  A 1-D array is refused; ``contains_point`` reads one.
Every scalar number, in every module and config key, is read by one rule
too (``_number``).  A shape's numbers are finite.

Unbounded unions are truncated at a finite count ``n_max``; experiments
report the truncation and are expected to show stability in it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# rows per pass of the lattice-union depth: its (2 span + 1, rows)
# temporaries stay in cache however many rows a call brings
_BLOCK = 2048

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


def _norm2(q: np.ndarray, center=None) -> np.ndarray:
    """Squared Euclidean norm of each row of q - center (center None: 0).

    Summed column by column, q_0^2 + q_1^2 + ..., with the centre taken off
    one column at a time, so no (rows, d) temporary is built.  For d <= 2
    this is bitwise ``np.einsum("ij,ij->i", q, q)``; for d >= 3 the two
    may sum in other orders and differ by an ulp or two.  The one
    squared-norm rule of the package.
    """
    s = None
    for j in range(q.shape[1]):
        col = q[:, j]
        if center is not None and center[j]:
            col = col - center[j]
        if s is None:
            s = col * col
        else:
            s += col * col
    return s


def _rows(points, dim: int | None = None, name: str = "points") -> np.ndarray:
    """Points as an (n, d) float array, d = ``dim`` if given: the one reader
    of every array of points.  A 1-D array is ambiguous (one point in R^d or
    d points on the line), so it is refused, as is any other shape."""
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or dim is not None and p.shape[1] != dim:
        d = "" if dim is None else f" = {dim}"
        raise ValueError(f"{name} must be (n, d) rows in dimension d{d}, got shape {p.shape}")
    return p


def _number(value, name: str, lo=-math.inf, hi=math.inf, ends: str = "()", integer: bool = False):
    """The one reader of a scalar number: ``value`` as a finite float, or an int if
    ``integer``, between lo and hi, ends open or closed as ``ends`` marks ("(]" is
    lo < value <= hi).  Anything else, bools too, raises a ValueError naming ``name``."""
    if type(value) is (int if integer else float) and lo < value < hi:
        return value  # the fast path: a plain number strictly inside the range
    kind = numbers.Integral if integer else numbers.Real
    ok = isinstance(value, kind) and not isinstance(value, (bool, np.bool_))
    x = (int if integer else float)(value) if ok else math.nan
    inside = lo < x < hi or x == lo and ends[0] == "[" or x == hi and ends[1] == "]"
    if not inside or abs(x) == math.inf:  # an infinite end is never reached
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{name}: need {what} in {ends[0]}{lo}, {hi}{ends[1]}, got {value!r}")
    return x


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

    def __post_init__(self):
        object.__setattr__(self, "dim", _number(self.dim, "dim", 1, ends="[)", integer=True))

    def depth(self, points) -> np.ndarray:
        p = _rows(points, self.dim)
        return np.full(p.shape[0], np.inf)


@dataclass(frozen=True)
class Ball(Domain):
    center: tuple
    radius: float
    dim: int = field(init=False)

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError(f"ball needs a finite centre, a point: {self.center}")
        _number(self.radius, "radius", 0.0)
        object.__setattr__(self, "center", tuple(c))
        object.__setattr__(self, "dim", c.size)

    def depth(self, points) -> np.ndarray:
        return self.radius - np.sqrt(_norm2(_rows(points, self.dim), self.center))


@dataclass(frozen=True)
class Interval(Domain):
    a: float
    b: float
    dim: int = field(init=False, default=1)

    def __post_init__(self):
        if not _number(self.a, "a") < _number(self.b, "b"):
            raise ValueError(f"interval requires a < b, got ({self.a}, {self.b})")

    def depth(self, points) -> np.ndarray:
        x = _rows(points, 1)[:, 0]
        return np.minimum(x - self.a, self.b - x)


@dataclass(frozen=True)
class Box(Domain):
    lo: tuple
    hi: tuple
    dim: int = field(init=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape or not np.all((lo < hi) & np.isfinite(hi - lo)):
            raise ValueError("box requires finite lo < hi componentwise")
        object.__setattr__(self, "lo", tuple(lo))
        object.__setattr__(self, "hi", tuple(hi))
        object.__setattr__(self, "dim", lo.size)

    def depth(self, points) -> np.ndarray:
        p = _rows(points, self.dim)
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
    # _windows[m, i] is the radius of ball i + m - 2 span - 1, -inf off the
    # lattice, so the 2 span + 1 candidates of a row are one column gather
    _windows: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)
    _span: int = field(init=False, repr=False)

    def __post_init__(self):
        c = _rows(self.centers, name="centers")
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if c.shape[0] != r.size or c.shape[0] < 1:
            raise ValueError("need one radius per center (a row of centers)")
        if not (np.all(r > 0.0) and np.isfinite(r).all() and np.isfinite(c).all()):
            raise ValueError("ball radii must be positive, radii and centers finite")
        lattice = np.round(c[0, 0]) + np.arange(c.shape[0])
        if not np.array_equal(c[:, 0], lattice) or np.any(c[:, 1:]):
            raise ValueError("centers must be consecutive integer points on the first axis")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "dim", c.shape[1])
        span = int(math.ceil(float(r.max()))) + 1
        gap = np.full(2 * span + 1, -np.inf)
        padded = np.concatenate([gap, r, gap])
        windows = np.lib.stride_tricks.sliding_window_view(padded, r.size + 2 * span + 2)
        object.__setattr__(self, "_windows", np.ascontiguousarray(windows))
        object.__setattr__(self, "_offsets", np.arange(-span, span + 1, dtype=float)[:, None])
        object.__setattr__(self, "_span", span)

    def depth(self, points) -> np.ndarray:
        # max over the balls j = round(x_1) + k, |k| <= span, of r_j - |x - c_j|,
        # as one (2 span + 1, rows) pass per block of at most _BLOCK rows.
        # round(x_1) is clipped to [-span - 1, n + span]; that moves only
        # points whose every offset is off the lattice, where -inf is gathered.
        p = _rows(points, self.dim)
        first0 = self.centers[0, 0]
        span = self._span
        rows = p.shape[0]
        k = 2 * span + 1
        n = min(rows, _BLOCK)
        buf = np.empty(2 * k * n)  # dist, then cand, of every block
        best = np.empty(rows)
        for lo in range(0, rows, _BLOCK):
            q = p[lo:lo + _BLOCK]
            w = q.shape[0]
            dist = buf[:k * w].reshape(k, w)
            cand = buf[k * n:k * (n + w)].reshape(k, w)
            x1 = q[:, 0]
            j0 = np.rint(x1 - first0)
            np.maximum(j0, -span - 1, out=j0)
            np.minimum(j0, self.radii.size + span, out=j0)
            at = j0.astype(np.intp)
            at += span + 1  # column of ball j0 in _windows[span]
            # e = x_1 - c_0, c_0 the first-axis centre of ball j0, is exact
            # on every unclipped row: |e| <= 1/2 (Sterbenz), so e - offset
            # rounds x_1 - (c_0 + offset) once, as the direct form does
            e = np.add(j0, first0, out=j0)
            np.subtract(x1, e, out=e)
            np.subtract(e, self._offsets, out=dist)
            np.multiply(dist, dist, out=dist)
            if self.dim > 1:
                np.add(dist, _norm2(q[:, 1:]), out=dist)
            np.sqrt(dist, out=dist)
            np.take(self._windows, at, axis=1, out=cand, mode="clip")
            np.subtract(cand, dist, out=cand)
            cand.max(axis=0, out=best[lo:lo + w])
        return best


@dataclass(frozen=True)
class UnionOfIntervals(Domain):
    """Finite union of open intervals on the line, kept sorted by left end."""

    segments: np.ndarray
    dim: int = field(init=False, default=1)

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.segments, dtype=float))
        if s.ndim != 2 or s.shape[1] != 2 or not np.all((s[:, 0] < s[:, 1]) & np.isfinite(s).all(1)):
            raise ValueError("segments must be finite rows (a, b) with a < b")
        s = s[np.argsort(s[:, 0])]
        object.__setattr__(self, "segments", s)

    def depth(self, points) -> np.ndarray:
        x = _rows(points, 1)[:, 0]
        d = np.minimum(
            x[:, None] - self.segments[None, :, 0],
            self.segments[None, :, 1] - x[:, None],
        )
        return d.max(axis=1)


def shrinking_radius(n) -> np.ndarray:
    """Radius r_n = (log log(n + 3))^(-1/2) of the n-th shrinking ball, n >= 0."""
    n = np.asarray(n, dtype=float)
    for end in (n.min(initial=0.0), n.max(initial=0.0)):  # an array's least and largest n
        _number(float(end), "n", 0.0, ends="[)")
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
    n_max = _number(n_max, "n_max", 1, ends="[)", integer=True)
    d = _number(d, "d", 1, ends="[)", integer=True)
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
    n_max = _number(n_max, "n_max", 1, ends="[)", integer=True)
    ns = np.arange(1, n_max + 1, dtype=float)
    half = 0.5 * ns**-0.42
    return UnionOfIntervals(np.column_stack([ns - half, ns + half]))
