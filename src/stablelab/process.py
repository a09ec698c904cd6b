"""Exact-law sampling for rotationally symmetric alpha-stable processes.

Conventions (they matter, and they differ between the two regimes):

* ``alpha = 2`` means standard Brownian motion: each coordinate of an
  increment over time ``h`` is N(0, h), so the generator is (1/2)*Laplacian
  and the mean exit time from a centered ball of radius r is r^2/d.
* ``alpha < 2`` means the process with characteristic function
  ``E[exp(i xi . X_h)] = exp(-h |xi|^alpha)`` exactly, which makes
  closed-form exit-time expressions such as
  (a^2 - x^2)^(alpha/2) / Gamma(1 + alpha) directly applicable.  In
  general it is realized by subordination: ``X_h = sqrt(2 S) Z`` with ``Z``
  standard normal in R^d and ``S`` a one-sided stable variable of index
  alpha/2 with Laplace transform ``E[exp(-lam S)] = exp(-h lam^(alpha/2))``.
  The factor 2 under the square root absorbs the 2^(-alpha/2) coming from
  (|xi|^2/2)^(alpha/2), so the exponent is |xi|^alpha with no stray
  constant.  Two cases have cheaper exact draws of the same law:

  - ``dim = 1``: the symmetric Chambers-Mallows-Stuck formula (Chambers,
    Mallows & Stuck 1976; Weron 1996) draws X_h itself from one uniform and
    one exponential, and at alpha = 1 it is the Cauchy draw h tan(U);
  - ``alpha = 1``, ``dim >= 2``: the index-1/2 subordinator is exactly
    h^2 / (2 N^2) with N standard normal, so X_h = h Z / |N|.

  For ``dim >= 2`` and alpha != 1 the subordinator stays: a rotationally
  symmetric law is not a product of one-dimensional symmetric stable
  coordinates, and the common clock S is what couples them.

All samplers are pure functions of their arguments and an explicit RNG
stream; parallel workers get independent SFC64 streams, each spawned from
``SeedSequence(seed, spawn_key=(stream_id,))`` by :func:`stream`, so
results do not depend on worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProcessSpec",
    "PathSample",
    "PathBatch",
    "stream",
    "sample_increments",
    "sample_subordinator_increment",
    "sample_path",
    "sample_path_batch",
]


@dataclass(frozen=True)
class ProcessSpec:
    """Stability index and dimension of the driving process.

    Brownian (alpha = 2) uses variance-h increments, everything below 2
    uses the unit characteristic exponent |xi|^alpha (``_exponent_scale``).
    """

    alpha: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if self.dim < 1 or int(self.dim) != self.dim:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def is_brownian(self) -> bool:
        return self.alpha == 2.0


def _exponent_scale(alpha: float) -> float:
    """kappa in E exp(i xi . (X_t - X_0)) = exp(-t kappa |xi|^alpha), the one
    statement of the convention: 1/2 at alpha = 2 (Brownian motion, generator
    (1/2)Delta), 1 below (the unit exponent).  The Green constant and the
    matrix side's spectrum read it here."""
    return 0.5 if alpha == 2.0 else 1.0


@dataclass(frozen=True)
class PathSample:
    """One discretized trajectory on the grid t_k = k * step_h.

    ``positions`` has shape (n_steps + 1, dim) with positions[0] = x0.
    The sample is fully determined by (spec, x0, t_max, step_h, seed).
    """

    spec: ProcessSpec
    step_h: float
    positions: np.ndarray
    seed: int

    @property
    def times(self) -> np.ndarray:
        return self.step_h * np.arange(self.positions.shape[0])

    @property
    def t_max(self) -> float:
        return self.step_h * (self.positions.shape[0] - 1)

    def to_csv(self, path) -> None:
        """Dump as (t, x_1..x_d) rows, for eyeballing trajectories."""
        data = np.column_stack([self.times, self.positions])
        header = "t," + ",".join(f"x_{i+1}" for i in range(self.spec.dim))
        np.savetxt(path, data, delimiter=",", header=header, comments="")


@dataclass(frozen=True)
class PathBatch:
    """A stack of i.i.d. trajectories sharing one grid.

    ``positions`` has shape (n_paths, n_steps + 1, dim).  Used by checks
    that must evaluate two functionals on the *same* randomness.
    """

    spec: ProcessSpec
    step_h: float
    positions: np.ndarray
    seed: int

    @property
    def n_paths(self) -> int:
        return self.positions.shape[0]


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """RNG stream number ``stream_id`` of ``seed``; distinct pairs never collide.

    An SFC64 generator (Doty-Humphrey's Small Fast Chaotic generator)
    seeded from ``SeedSequence(seed, spawn_key=(stream_id,))``: the
    SeedSequence spawn key keeps the streams independent, so estimators
    split work across workers and stay bit-reproducible independent of
    scheduling.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.SFC64(ss))


def sample_subordinator_increment(
    index: float, h: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw one-sided stable subordinator increments.

    The law has Laplace transform ``E[exp(-lam S)] = exp(-h lam^index)``,
    sampled by the Kanter/Chambers-Mallows-Stuck representation

        S = h^(1/index) * (A(U) / E)^((1-index)/index),
        A(u) = (sin(index u)^index * sin((1-index) u)^(1-index) / sin u)^(1/(1-index)),

    with U uniform on (0, pi) and E unit exponential.  Draws are >= 0 by
    construction.

    Parameters
    ----------
    index : stability index of the subordinator, in (0, 1).
    h : time step, > 0.
    rng : numpy Generator.
    size : number of draws.
    """
    if not (0.0 < index < 1.0):
        raise ValueError(f"subordinator index must lie in (0, 1), got {index}")
    _check_step(h)
    u = rng.uniform(0.0, np.pi, size)
    e = rng.exponential(1.0, size)
    rho = index
    a = (
        np.sin(rho * u) ** rho
        * np.sin((1.0 - rho) * u) ** (1.0 - rho)
        / np.sin(u)
    ) ** (1.0 / (1.0 - rho))
    return h ** (1.0 / rho) * (a / e) ** ((1.0 - rho) / rho)


def sample_increments(
    spec: ProcessSpec, h: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized increment draws, shape (size, dim).

    Each case takes the cheapest exact route (see the module docstring):

    * alpha = 2: coordinates are independent N(0, h).
    * alpha < 2, dim = 1: symmetric CMS, X = h^(1/alpha) sin(alpha U) /
      cos(U)^(1/alpha) * (cos((1 - alpha) U) / E)^((1 - alpha)/alpha) with
      U uniform on (-pi/2, pi/2) and E unit exponential; h tan(U) at alpha = 1.
    * alpha = 1, dim >= 2: X = h Z / |N|, Z standard normal in R^d.
    * otherwise: subordinated Gaussian, X = sqrt(2 S) Z with S of index
      alpha/2, which rotational symmetry needs for dim >= 2.
    """
    _check_step(h)
    if spec.is_brownian:
        z = rng.standard_normal((size, spec.dim))
        z *= math.sqrt(h)
        return z
    a = spec.alpha
    if spec.dim == 1:
        u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, (size, 1))
        if a == 1.0:
            return h * np.tan(u)
        e = rng.exponential(1.0, (size, 1))
        x = np.sin(a * u) / np.cos(u) ** (1.0 / a)
        x *= (np.cos((1.0 - a) * u) / e) ** ((1.0 - a) / a)
        x *= h ** (1.0 / a)
        return x
    if a == 1.0:
        z = rng.standard_normal((size, spec.dim))
        z *= h / np.abs(rng.standard_normal((size, 1)))
        return z
    s = sample_subordinator_increment(a / 2.0, h, rng, size=size)
    z = rng.standard_normal((size, spec.dim))
    z *= np.sqrt(2.0 * s)[:, None]
    return z


def _check_step(h: float) -> None:
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"time step h must be finite and positive, got {h}")


def _n_steps(t: float, h: float) -> int:
    """Number of steps of size h in [0, t]; t must be a whole number of steps."""
    _check_step(h)
    if not math.isfinite(t / h):
        raise ValueError(f"t / h must be finite, got t = {t}, h = {h}")
    n = round(t / h)
    if abs(t / h - n) > 1e-9 * max(1, n):
        raise ValueError(f"t = {t} is not a whole number of steps h = {h}")
    return n


def _as_start(x0, dim: int) -> np.ndarray:
    """The start of a single-start entry point, a point in R^dim, as one row."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    if x.shape != (dim,):
        raise ValueError(f"x0 must be a point in R^{dim}, got shape {x.shape}")
    return x[None]


def _checked_run(spec: ProcessSpec, starts, h: float, horizon: float):
    """Starts as (m, d) rows and the step count, once both are checked.

    The one reader of a path loop's starts, step and horizon: every loop
    and every shortcut that skips one calls it before anything else, so an
    empty grid of starts is refused before any draw.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.ndim != 2 or starts.shape[1] != spec.dim:
        raise ValueError(f"starts must be points in R^{spec.dim}, got shape {starts.shape}")
    if starts.shape[0] == 0:
        raise ValueError("the grid of starts (probe points) is empty")
    if h <= 0.0 or horizon < h:
        raise ValueError(f"need t_max >= h > 0, got t_max={horizon}, h={h}")
    return starts, _n_steps(horizon, h)


def sample_path(
    spec: ProcessSpec, x0, t_max: float, h: float, seed: int
) -> PathSample:
    """Simulate one trajectory; replayable from (spec, x0, t_max, h, seed).

    It is the one path of ``sample_path_batch`` with n_paths = 1.
    """
    batch = sample_path_batch(spec, x0, t_max, h, 1, seed)
    return PathSample(spec=spec, step_h=h, positions=batch.positions[0], seed=int(seed))


def sample_path_batch(
    spec: ProcessSpec, x0, t_max: float, h: float, n_paths: int, seed: int
) -> PathBatch:
    """Simulate n_paths i.i.d. trajectories from a common start."""
    (x,), n_steps = _checked_run(spec, _as_start(x0, spec.dim), h, t_max)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = stream(seed)
    inc = sample_increments(spec, h, rng, n_paths * n_steps).reshape(
        n_paths, n_steps, spec.dim
    )
    pos = np.empty((n_paths, n_steps + 1, spec.dim))
    pos[:, 0] = x
    np.cumsum(inc, axis=1, out=pos[:, 1:])
    pos[:, 1:] += x
    return PathBatch(spec=spec, step_h=h, positions=pos, seed=int(seed))
