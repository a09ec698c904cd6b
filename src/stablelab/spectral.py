"""Matrix-side semigroups: discretized generators and their diagnostics.

Everything lives on a uniform 1D grid with Dirichlet truncation; a
generator is a dense symmetric matrix L (nonpositive), self-adjoint with
respect to the measure weights w_i * delta carried by the object.  The
fractional Laplacian is the SPECTRAL power of the discrete Dirichlet
Laplacian, which differs from the restricted singular-integral operator;
the qualitative claims probed here (compactness onset, weight transitions,
trace growth) are robust to that choice, and every full-space statement is
run as a truncation-stability study in the box size R.

Eigendecompositions are cached and use the structure of the matrix they
are given: a symmetrized generator whose nonzeros all lie on the three
central diagonals (the alpha = 2 generators, their killed versions and
every part of them) goes to the tridiagonal solver
``scipy.linalg.eigh_tridiagonal``, anything else (fractional powers) to
the dense ``numpy.linalg.eigh``.  Sizes are capped at ~4000 rows on
purpose -- this is desk-scale tooling, not a solver library.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .functionals import KillingPotential, TimeChangeWeight
from .geometry import Domain, UnionOfIntervals

__all__ = [
    "Grid1D",
    "GeneratorMatrix",
    "SpectralReport",
    "dirichlet_laplacian",
    "killed_generator",
    "fractional_power",
    "weighted_generator",
    "semigroup_matrix",
    "heat_trace",
    "part_generator",
    "compactness_diagnostic",
    "lp_spectral_bound_compare",
    "LpRates",
    "weighted_transition_study",
    "union_interval_trace",
]

_MAX_DENSE = 4096


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of interior points of (x_min, x_max), spacing delta."""

    x_min: float
    x_max: float
    delta: float

    def __post_init__(self):
        if self.delta <= 0.0 or self.x_max - self.x_min <= 2.0 * self.delta:
            raise ValueError("grid needs x_max - x_min > 2*delta > 0")

    @cached_property
    def points(self) -> np.ndarray:
        return np.arange(self.x_min + self.delta, self.x_max - self.delta / 2.0, self.delta)

    @property
    def n(self) -> int:
        return self.points.size

    @classmethod
    def symmetric(cls, radius: float, delta: float) -> "Grid1D":
        return cls(-radius, radius, delta)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Dense symmetric generator on grid points, sign convention L <= 0.

    ``weight`` holds the measure weights w_i (the reference measure is
    w_i * delta); L is self-adjoint in the inner product they induce.
    The eigendecomposition is of the symmetrized similar matrix
    diag(sqrt(w)) L diag(1/sqrt(w)) and is cached on first use.
    """

    points: np.ndarray
    delta: float
    matrix: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        n = self.points.size
        if self.matrix.shape != (n, n):
            raise ValueError("matrix shape must match the grid")
        if n > _MAX_DENSE:
            raise ValueError(f"dense generator capped at {_MAX_DENSE} points, got {n}")
        if np.any(self.weight <= 0.0):
            raise ValueError("measure weights must be positive")

    @property
    def n(self) -> int:
        return self.points.size

    def _symmetrized(self) -> np.ndarray:
        """-diag(s) L diag(1/s) with s = sqrt(weight), made exactly symmetric."""
        s = np.sqrt(self.weight)
        sym = self.matrix * np.outer(s, -1.0 / s)
        sym += sym.T
        sym /= 2.0
        return sym

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray]:
        # Solvers are looked up on their modules at call time, so a wrapper
        # installed there (bench/tracing.py) sees every call.
        sym = self._symmetrized()
        d, e = np.diagonal(sym), np.diagonal(sym, 1)
        if np.count_nonzero(sym) == np.count_nonzero(d) + 2 * np.count_nonzero(e):
            return scipy.linalg.eigh_tridiagonal(d, e)
        return np.linalg.eigh(sym)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -L, ascending."""
        return self._eig[0]

    def eigenfunction(self, k: int) -> np.ndarray:
        """k-th eigenvector, orthonormal in the weighted inner product."""
        lam, psi = self._eig
        phi = psi[:, k] / np.sqrt(self.weight * self.delta)
        # ground state sign fixed positive (positivity-preserving semigroup)
        if phi[np.argmax(np.abs(phi))] < 0.0:
            phi = -phi
        return phi

    def semigroup_sym(self, t: float) -> np.ndarray:
        """Bitwise-symmetric representation of exp(tL)."""
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        lam, psi = self._eig
        m = (psi * np.exp(-lam * t)) @ psi.T
        return (m + m.T) / 2.0

    def validate_symmetry(self) -> float:
        """Max asymmetry of L in the weighted pairing (should be ~0)."""
        dl = self.weight[:, None] * self.matrix
        return float(np.abs(dl - dl.T).max())


def dirichlet_laplacian(grid: Grid1D, mask=None) -> GeneratorMatrix:
    """(1/2) * second difference / delta^2, Dirichlet by row/column deletion.

    ``mask`` selects in-domain grid points (boolean array over grid.points
    or a Domain); points outside are removed, which decouples components
    that are not grid-adjacent.
    """
    xs = grid.points
    keep = _as_mask(mask, xs)
    idx = np.nonzero(keep)[0]
    if idx.size < 3:
        raise ValueError("need at least 3 in-domain grid points")
    n = idx.size
    L = np.zeros((n, n))
    inv = 0.5 / grid.delta**2
    np.fill_diagonal(L, -2.0 * inv)
    adjacent = np.diff(idx) == 1
    rows = np.arange(n - 1)[adjacent]
    L[rows, rows + 1] = inv
    L[rows + 1, rows] = inv
    return GeneratorMatrix(
        points=xs[idx], delta=grid.delta, matrix=L, weight=np.ones(n)
    )


def _as_mask(mask, xs: np.ndarray) -> np.ndarray:
    if mask is None:
        return np.ones(xs.size, dtype=bool)
    if isinstance(mask, Domain):
        return mask.contains(xs[:, None])
    m = np.asarray(mask, dtype=bool)
    if m.shape != xs.shape:
        raise ValueError("mask must match the grid points")
    return m


def killed_generator(gen: GeneratorMatrix, potential: KillingPotential) -> GeneratorMatrix:
    """L - diag(V): Feynman-Kac killing at rate V(x_i)."""
    v = potential(gen.points[:, None])
    return GeneratorMatrix(
        points=gen.points,
        delta=gen.delta,
        matrix=gen.matrix - np.diag(v),
        weight=gen.weight,
    )


def fractional_power(gen: GeneratorMatrix, alpha: float) -> GeneratorMatrix:
    """-(-Laplacian)^(alpha/2) as a spectral power.

    The input is the half-Laplacian-convention generator; its eigenvalues
    are first doubled (rescaling (1/2)Delta to Delta) and then raised to
    the power alpha/2, matching the |xi|^alpha exponent convention of the
    stable process.  At alpha = 2 this returns the unscaled Laplacian.
    """
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    lam, psi = gen._eig
    frac = (psi * (2.0 * lam) ** (alpha / 2.0)) @ psi.T
    frac = (frac + frac.T) / 2.0
    s = np.sqrt(gen.weight)
    L = -(frac / np.outer(s, 1.0 / s))
    return GeneratorMatrix(
        points=gen.points, delta=gen.delta, matrix=L, weight=gen.weight
    )


def weighted_generator(
    gen: GeneratorMatrix, weight, alpha: float
) -> GeneratorMatrix:
    """Time-change generator -W(x) (-Laplacian)^(alpha/2) on its natural measure.

    ``weight`` is a TimeChangeWeight or any callable mapping grid points to
    values >= 1.  The operator is self-adjoint with respect to the weights
    1/W(x_i); the eigenproblem is solved through the symmetrized similar
    matrix W^(1/2) (-Laplacian)^(alpha/2) W^(1/2).  The ambient grid plays
    the role of a Dirichlet truncation of the full space; run R-stability
    studies for any full-space claim.
    """
    wvals = np.asarray(weight(gen.points[:, None]), dtype=float).reshape(gen.n)
    if np.any(wvals < 1.0):
        raise ValueError("time-change weight must satisfy W >= 1 on the grid")
    frac = -fractional_power(gen, alpha).matrix
    L = -(wvals[:, None] * frac)
    return GeneratorMatrix(
        points=gen.points, delta=gen.delta, matrix=L, weight=1.0 / wvals
    )


def semigroup_matrix(gen: GeneratorMatrix, t: float) -> np.ndarray:
    """P_t = exp(tL) via the eigendecomposition; sub-Markov up to round-off.

    Entries in (-1e-12, 0) are clipped to zero; anything more negative
    would signal a genuine positivity violation and is left visible.
    """
    sym = gen.semigroup_sym(t)
    s = np.sqrt(gen.weight)
    p = sym / np.outer(s, 1.0 / s)
    np.copyto(p, 0.0, where=(p > -1e-12) & (p < 0.0))
    return p


def heat_trace(gen: GeneratorMatrix, t) -> np.ndarray | float:
    """Trace of exp(tL) = sum_k exp(-lambda_k t).

    The matrix trace approximates the continuum integral of p_t(x, x):
    the matrix entry is density times cell width delta, and the integral
    supplies the matching factor delta, so no measure factor appears.
    """
    tv = np.asarray(t, dtype=float)
    if np.any(tv <= 0.0):
        raise ValueError("heat trace needs t > 0")
    lam = gen.eigenvalues
    out = np.exp(-np.outer(tv, lam)).sum(axis=1)
    return float(out[0]) if np.ndim(t) == 0 else out


def part_generator(gen: GeneratorMatrix, mask) -> tuple[GeneratorMatrix, np.ndarray]:
    """Restriction of L to masked points (the part-process generator)."""
    keep = _as_mask(mask, gen.points)
    idx = np.nonzero(keep)[0]
    if idx.size < 3:
        raise ValueError("part generator needs at least 3 points")
    sub = GeneratorMatrix(
        points=gen.points[idx],
        delta=gen.delta,
        matrix=gen.matrix[np.ix_(idx, idx)],
        weight=gen.weight[idx],
    )
    return sub, idx


def _row_sums(gen: GeneratorMatrix, t: float) -> np.ndarray:
    """P_t 1 = (psi (exp(-lambda t) * psi^T s)) / s, s = sqrt(weight): two mat-vecs."""
    lam, psi = gen._eig
    s = np.sqrt(gen.weight)
    return (psi @ (np.exp(-lam * t) * (psi.T @ s))) / s


def compactness_diagnostic(
    gen: GeneratorMatrix, levels, t: float
) -> np.ndarray:
    """||P_t - P_t^n||_{inf->inf} along an increasing family of levels.

    P_t^n is the part-process semigroup on level n, zero-extended to the
    ambient grid; the norm is the max absolute row sum of the difference.
    For a Markov generator (off-diagonal entries >= 0) part monotonicity
    gives 0 <= P_t^n <= P_t entrywise, so that norm is
    max_i (P_t 1 - P_t^n 1)_i, computed from row sums alone.  A generator
    with an off-diagonal entry below -1e-12 max|L_ii| is rejected, since
    the identity needs that positivity.  The sequence decreasing to zero
    is the compactness signature; for a conservative generator it stalls
    near 1 instead.
    """
    diag = np.diagonal(gen.matrix)
    tol = 1e-12 * np.abs(diag).max()
    negative = np.count_nonzero(gen.matrix < -tol) - np.count_nonzero(diag < -tol)
    if negative:
        raise ValueError(
            f"generator has {negative} negative off-diagonal entries; it is not Markov"
        )
    rows = _row_sums(gen, t)
    masks = [_as_mask(lv, gen.points) for lv in levels]
    for lo, hi in zip(masks[:-1], masks[1:]):
        if np.any(lo & ~hi):
            raise ValueError("levels must be nested")
    norms = np.empty(len(masks))
    for k, mask in enumerate(masks):
        if np.all(mask):
            norms[k] = 0.0
            continue
        sub, idx = part_generator(gen, mask)
        diff = rows.copy()
        diff[idx] -= _row_sums(sub, t)
        norms[k] = diff.max()
    return norms


@dataclass(frozen=True)
class LpRates:
    """Operator-norm decay rates on L^p for p in {1, 2, inf}."""

    t_grid: tuple
    rates_1: tuple
    rates_2: tuple
    rates_inf: tuple

    def rate_at(self, p, t: float) -> float:
        i = self.t_grid.index(t)
        return {1: self.rates_1, 2: self.rates_2, "inf": self.rates_inf}[p][i]

    def extrapolated(self, p) -> float:
        """Rate between the two largest grid times (cancels the prefactor)."""
        r = {1: self.rates_1, 2: self.rates_2, "inf": self.rates_inf}[p]
        if len(self.t_grid) < 2:
            return r[-1]
        t1, t2 = self.t_grid[-2], self.t_grid[-1]
        return (t2 * r[-1] - t1 * r[-2]) / (t2 - t1)


def lp_spectral_bound_compare(gen: GeneratorMatrix, t_grid) -> LpRates:
    """Spectral-bound proxies lambda_hat_p = -(1/t) log ||P_t||_{p->p}.

    Norms: 1->1 is the weighted max column sum (the adjoint's row sums),
    2->2 is exp(-lambda_1 t) exactly, inf->inf is the max row sum.  Both
    endpoint norms are evaluated through the bitwise-symmetric kernel, so
    duality makes lambda_hat_1 equal lambda_hat_inf exactly, not just to
    rounding.
    """
    lam1 = gen.eigenvalues[0]
    s = np.sqrt(gen.weight)
    t_grid = tuple(float(t) for t in t_grid)
    r1, r2, rinf = [], [], []
    for t in t_grid:
        sym_abs = np.abs(gen.semigroup_sym(t))
        adj_abs = sym_abs.T.copy()  # adjoint kernel in the weighted pairing
        rows_inf = (sym_abs @ s) / s          # row sums of P
        rows_one = (adj_abs @ s) / s          # weighted column sums of P
        n_inf = float(rows_inf.max())
        n_one = float(rows_one.max())
        rinf.append(-math.log(n_inf) / t)
        r1.append(-math.log(n_one) / t)
        r2.append(lam1)
    return LpRates(
        t_grid=t_grid, rates_1=tuple(r1), rates_2=tuple(r2), rates_inf=tuple(rinf)
    )


def weighted_transition_study(
    alpha: float,
    betas,
    radii,
    delta: float,
    n_eigs: int = 2,
) -> dict:
    """Truncation study of W (-Delta)^(alpha/2), W = 1 + |x|^beta, on (-R, R).

    Returns, per beta and R, the lowest eigenvalues of the weighted
    generator.  For a conservative driving process with finite weighted
    measure the continuum operator annihilates constants, so the lowest
    Dirichlet eigenvalue is a truncation artifact creeping to zero (about
    1/log R); the discreteness transition in beta is carried by the first
    eigenvalue ABOVE it (``gap``): it stabilizes in R when the spectrum is
    discrete and collapses toward zero when it is not.  The fractional
    power of the box Laplacian is shared across betas at each R.  Only the
    lowest ``n_eigs`` eigenvalues are computed (a subset eigensolve);
    ``n_eigs`` must lie between 2 and the size of the smallest grid.
    """
    betas = [float(b) for b in np.atleast_1d(betas)]
    out = {
        "radii": [float(r) for r in radii],
        "betas": betas,
        "eigenvalues": {b: [] for b in betas},
        "gap": {b: [] for b in betas},
        "bottom": {b: [] for b in betas},
    }
    n_min = min(Grid1D.symmetric(r, delta).n for r in radii)
    if not 2 <= n_eigs <= n_min:
        raise ValueError(f"n_eigs must lie in [2, {n_min}] (the smallest grid), got {n_eigs}")
    for r in radii:
        base = dirichlet_laplacian(Grid1D.symmetric(r, delta))
        frac = fractional_power(base, alpha)
        for b in betas:
            wvals = TimeChangeWeight(beta=b)(frac.points[:, None])
            gen = GeneratorMatrix(
                points=frac.points,
                delta=frac.delta,
                matrix=wvals[:, None] * frac.matrix,
                weight=1.0 / wvals,
            )
            lam = scipy.linalg.eigh(
                gen._symmetrized(), eigvals_only=True, subset_by_index=[0, n_eigs - 1]
            )
            out["eigenvalues"][b].append([float(v) for v in lam])
            out["bottom"][b].append(float(lam[0]))
            out["gap"][b].append(float(lam[1]))
    return out


def union_interval_trace(
    union: UnionOfIntervals, delta: float, t: float
) -> float:
    """Heat trace of the Dirichlet generator on a union of disjoint intervals.

    The generator is block diagonal over components, so the trace is the
    sum of per-interval traces on matching grids (same spacing everywhere).
    Raises if segments overlap -- merged segments are a different operator.
    """
    segs = union.segments
    if np.any(segs[1:, 0] < segs[:-1, 1]):
        raise ValueError("segments overlap; the block decomposition is invalid")
    total = 0.0
    for a, b in segs:
        gen = dirichlet_laplacian(Grid1D(a, b, delta))
        total += heat_trace(gen, t)
    return total


@dataclass(frozen=True)
class SpectralReport:
    """Serializable digest of a spectral experiment."""

    eigenvalues: tuple
    trace_times: tuple = ()
    trace_values: tuple = ()
    lp_rates: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    schema_version: str = "1"

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "eigenvalues": list(self.eigenvalues),
            "trace": {"t": list(self.trace_times), "value": list(self.trace_values)},
            "lp_rates": self.lp_rates,
            "diagnostics": self.diagnostics,
        }
        return json.dumps(payload, indent=2, sort_keys=True)
