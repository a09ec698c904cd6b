"""Matrix-side semigroups: discretized generators and their diagnostics.

Everything lives on a uniform 1D grid with Dirichlet truncation; a
generator is a symmetrizable matrix L (nonpositive), self-adjoint with
respect to the measure weights w_i * delta carried by the object.  The
fractional Laplacian is the SPECTRAL power of the discrete Dirichlet
Laplacian, which differs from the restricted singular-integral operator;
the qualitative claims probed here (compactness onset, weight transitions,
trace growth) are robust to that choice, and every full-space statement is
run as a truncation-stability study in the box size R.

The grid and alpha fix every operator.  ``Grid1D`` holds 3 to 4096 points
(desk-scale tooling, not a solver library), so no builder fills a matrix the
cap refuses.  ``_power_spectrum`` is the one alpha rule, with the path side's
exponent scale (``process._exponent_scale``): (1/2)Delta at alpha = 2, the
unit |xi|^alpha exponent below.  The sine basis (orthonormal DST-I)
diagonalizes every tridiagonal Toeplitz matrix: the beta study solves
:func:`weighted_generator`'s W L in it, two DSTs per product, and a union of
intervals sums closed-form segment spectra.  A generator holds L in one of
three forms (``_Form``), and every operation asks the form, the diagnostic's
norms too: bands (alpha = 2; killing, parts and weights keep them; Toeplitz
ones take no eigensolver; the diagnostic by uniformization), a power (below
2: spectrum, sine basis, Toeplitz-minus-Hankel coefficients, a row scale W;
no eigensolver if W = 1) and a dense array (built by hand and never scanned,
or a power once killed or restricted).  A semigroup of bands with few weights
exp(-lambda t) above 0 takes those pairs alone, by inverse iteration.
Every time t is refused unless finite, by one rule (``_checked_times``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .functionals import KillingPotential, TimeChangeWeight
from .geometry import Domain, UnionOfIntervals
from .process import _exponent_scale, _n_steps

__all__ = [
    "Grid1D", "GeneratorMatrix", "dirichlet_laplacian", "killed_generator", "fractional_power",
    "weighted_generator", "semigroup_matrix", "heat_trace", "part_generator",
    "compactness_diagnostic", "lp_spectral_bound_compare", "LpRates",
    "weighted_transition_study", "union_interval_trace",
]

_MAX_DENSE = 4096
_MIN_POINTS = 3
# Ritz residual / top Ritz value ending the beta study's Krylov solve (floor ~1e-15)
_RITZ_TOL = 1e-14
_UNDERFLOW = "||P_t|| underflows to 0 at t = {0:g} (lambda_1 t = {1:.6g})"


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of interior points of (x_min, x_max), spacing delta."""

    x_min: float
    x_max: float
    delta: float

    def __post_init__(self):
        span = (self.x_max - self.x_min) / self.delta if self.delta > 0.0 else math.nan
        if not math.isfinite(span) or self.n < _MIN_POINTS:
            raise ValueError(f"grid needs delta > 0, finite ends and {_MIN_POINTS} or more points")
        if self.n > _MAX_DENSE:  # refused before any builder fills an n x n matrix
            raise ValueError(f"grid has {self.n} points; dense generators are capped at {_MAX_DENSE}")

    @cached_property
    def points(self) -> np.ndarray:
        return np.arange(self.x_min + self.delta, self.x_max - self.delta / 2.0, self.delta)

    @property
    def n(self) -> int:
        """points.size, by numpy's arange length rule, without building them."""
        start, stop = self.x_min + self.delta, self.x_max - self.delta / 2.0
        return max(0, math.ceil((stop - start) / self.delta))

    @classmethod
    def symmetric(cls, radius: float, delta: float) -> "Grid1D":
        """The grid of (-radius, radius), whose width must be a whole number of steps."""
        grid = cls(-radius, radius, delta)  # refuses a width/delta that is not finite first
        _n_steps(2.0 * radius, delta)  # else the points stop short of radius: an asymmetric box
        return grid


class _Form:
    """How a generator stores L.  Every form answers: ``diagonal``;
    ``apply(x)`` = L x, x of shape (n, k); ``dense()``; ``negatives(tol)``,
    the off-diagonal entries below -tol; ``eigenvalues(s)`` and ``pairs(s,
    k)`` of -diag(s) L diag(1/s), s = sqrt(weight), read as symmetric
    (bands average the two off-diagonals, ``eigh`` reads a dense form's
    lower triangle); the forms of L - diag(v), of L on points ``idx`` and
    of diag(w) L (``shift``, ``restrict``, ``scale_rows``); ``w``, the row
    scale a ``scale_rows`` form keeps (None on any other); and ``gaps(s,
    inside, t)``, max_i (P_t 1 - P_t^n 1)_i for each level n, a row of
    ``inside`` that ``compactness_diagnostic`` has checked.  A form belongs
    to one generator: its eigenvalues and full pairs are each solved once and
    kept, by solvers looked up on their modules at call time (bench/tracing.py)."""

    _eig = _lam = w = None

    def pairs(self, s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenpairs, the lowest k at least: here all of them."""
        if self._eig is None:
            self._eig = self._solve(s)
        return self._eig

    def _row_sums(self, s: np.ndarray, t: float) -> np.ndarray:
        """P_t 1 = (psi (exp(-lambda t) * psi^T s)) / s: two mat-vecs."""
        lam, psi = self.pairs(s, self.n)
        return (psi @ (np.exp(-lam * t) * (psi.T @ s))) / s

    def gaps(self, s: np.ndarray, inside: np.ndarray, t: float) -> list:
        """The eigen route: P_t 1 from the kept eigendecomposition, less each
        level's own row sums on its points (the form ``restrict`` gives)."""
        rows = self._row_sums(s, t)
        parts = (self.restrict(np.flatnonzero(m))._row_sums(s[m], t) for m in inside)
        return [max(rows[~m].max(), (rows[m] - part).max()) for m, part in zip(inside, parts)]


class _Bands(_Form):
    """L's main, upper and lower diagonals.  Bands stay bands under shift,
    restrict and scale_rows, and only ``dense`` builds an n x n array."""

    def __init__(self, mid: np.ndarray, up: np.ndarray, lo: np.ndarray, w=None):
        self.lines, self.mid, self.up, self.lo, self.w = (mid, up, lo), mid, up, lo, w
        self.diagonal, self.shape, self.n = mid, (mid.size, mid.size), mid.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        mid, up, lo = (line[:, None] for line in self.lines)
        y = mid * x
        y[:-1] += up * x[1:]
        y[1:] += lo * x[:-1]
        return y

    def dense(self) -> np.ndarray:
        n, m = self.n, np.zeros(self.shape)
        for start, line in zip((0, 1, n), self.lines):
            m.flat[start::n + 1] = line
        return m

    def negatives(self, tol: float) -> int:
        return sum(np.count_nonzero(line < -tol) for line in self.lines[1:])

    def symmetric(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(d, e), the diagonal and first off-diagonal of the symmetrized -L."""
        r = -1.0 / s
        return self.mid * (s * r), (self.up * (s[:-1] * r[1:]) + self.lo * (s[1:] * r[:-1])) / 2.0

    def _solve(self, s: np.ndarray, eigvals_only: bool = False):
        d, e = self.symmetric(s)
        if e.size and e[0] <= 0.0 and np.all(d == d[0]) and np.all(e == e[0]):  # Toeplitz
            lam = _toeplitz_spectrum(d[0], e[0], self.n)
            return lam if eigvals_only else (lam, _sine_basis(self.n))
        import scipy.linalg

        return scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=eigvals_only)

    def eigenvalues(self, s: np.ndarray) -> np.ndarray:
        if self._lam is None:
            self._lam = self._solve(s, eigvals_only=True)
        return self._lam

    def pairs(self, s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """With 16 k <= n the lowest k pairs alone, C-ordered, by inverse
        iteration (LAPACK ``stein``, n x k memory) from the kept eigenvalues;
        else all of them, kept.  k alone picks.  At n = 1599, k = 65, ``stein``
        takes 6.0 ms, the eigenvalue solve 23 ms (medians of 7, 2-core box)."""
        if 16 * k > self.n:
            return super().pairs(s, k)
        import scipy.linalg

        (d, e), lam, n = self.symmetric(s), self.eigenvalues(s)[:k], self.n
        stein, = scipy.linalg.get_lapack_funcs(("stein",), (d, e))
        psi, info = stein(d, e, lam, np.ones(n, int), np.full(n, n))  # one block: isplit[0] = n
        if info != 0:
            raise RuntimeError(f"inverse iteration (LAPACK stein) failed: info = {info}")
        return lam, np.ascontiguousarray(psi)

    def shift(self, v: np.ndarray) -> "_Bands":
        return _Bands(self.mid - v, self.up, self.lo)

    def restrict(self, idx: np.ndarray) -> "_Bands":
        near, cut = np.diff(idx) == 1, idx[:-1]  # couplings across a gap are zeroed
        return _Bands(self.mid[idx], np.where(near, self.up[cut], 0.0),
                      np.where(near, self.lo[cut], 0.0))

    def scale_rows(self, w: np.ndarray) -> "_Bands":
        return _Bands(w * self.mid, w[:-1] * self.up, w[1:] * self.lo,
                      w if self.w is None else w * self.w)

    def gaps(self, s: np.ndarray, inside: np.ndarray, t: float) -> np.ndarray:
        """Uniformized (Jensen 1953), weights unused: with Lam = max|L_ii| and
        K = I + L/Lam >= 0, P_t = sum_k Pois(Lam t; k) K^k.  Off level U the
        gap K^k 1 - (K_UU^k 1 (+) 0) is a_k = K^k 1, one row shared by every
        level; on U it is g_k, run without a subtraction on U's points alone:

            a_0 = 1,  a_k = K a_(k-1),
            g_0 = 0,  g_k = K_UU g_(k-1) + K_(U,U^c) a_(k-1).

        K_UU is the bands restricted to U (``restrict``), and the inflow
        K_(U,U^c) a comes from U's edge, the grid points next to U: g's row
        holds them as copies of a, so one pass of the bands applies both.  A
        level's norm is the larger of max sum_k p_k a_k off U and max sum_k
        p_k g_k on U.  Every term is >= 0, so nothing cancels, however small
        the norm (4e-71 at C7's top level); K's diagonal (Lam + L_ii)/Lam is
        rounded once and raised to about Lam t powers, and a test holds each
        norm within Lam t 2^-53 relative of the exact one.  The Poisson window
        (``_poisson_window``) starts where the weights stop being normal
        doubles, however large the terms are there, so the terms dropped on
        the left sum to below 1e-300.  It ends at the first N (checked every
        32 steps past the mode) with Q(N) max_i (a_N)_i <= 2^-53 times each
        level's partial norm, Q(N) = P(Pois(Lam t) > N): a_k is entrywise
        nonincreasing in k (as L 1 <= 0) and bounds g_k, so Q(N) a_N bounds
        every dropped term.  The cost is O(Lam t (n + sum |U|)).
        """
        lam, n = float(np.abs(self.mid).max()) or 1.0, self.n
        near = inside.copy()  # U and its edge
        near[:, 1:] |= inside[:, :-1]
        near[:, :-1] |= inside[:, 1:]
        # One flat vector: a, then each level's g on U and its edge.  K's
        # bands are tiled over the rows, with zeros where a row ends.
        rows = [self] + [self.restrict(np.flatnonzero(row)) for row in near]
        kd = (lam + np.concatenate([b.mid for b in rows])) / lam
        ku = np.concatenate([np.append(b.up, 0.0) for b in rows])[:-1] / lam
        kl = np.concatenate([np.append(0.0, b.lo) for b in rows])[1:] / lam
        starts = np.cumsum([b.n for b in rows[:-1]])
        edge = ~inside[near]
        copy, src = n + np.flatnonzero(edge), np.nonzero(near)[1][edge]

        def level_norms(acc):  # an edge point's sum is a's there: no larger than off U's max
            off = [acc[:n][~row].max() for row in inside]
            return np.maximum(off, np.maximum.reduceat(acc, starts))

        z = np.concatenate((np.ones(n), edge), dtype=float)
        kz, tmp = np.empty_like(z), np.empty_like(z)
        k_lo, p = _poisson_window(lam * t)
        tail = np.append(np.cumsum(p[::-1])[::-1][1:], 0.0)  # tail[j] = P(k > k_lo + j)
        mode, eps = int(lam * t), 2.0**-53
        acc = p[0] * z if k_lo == 0 else np.zeros_like(z)
        for k in range(1, k_lo + p.size):
            np.multiply(z, kd, out=kz)
            np.multiply(z[1:], ku, out=tmp[:-1])
            kz[:-1] += tmp[:-1]
            np.multiply(z[:-1], kl, out=tmp[1:])
            kz[1:] += tmp[1:]
            kz[copy] = kz[src]
            z, kz = kz, z
            if k < k_lo:
                continue
            j = k - k_lo
            np.multiply(z, p[j], out=tmp)
            acc += tmp
            if k > mode and k % 32 == 0 and tail[j] * z[:n].max() <= eps * level_norms(acc).min():
                break
        return level_norms(acc)


class _Dense(_Form):
    """L as an n x n array, taken as given: never scanned for bands.  One
    ``numpy.linalg.eigh`` gives its eigenvalues and pairs alike."""

    def __init__(self, array: np.ndarray):
        self.array, self.shape, self.n = array, array.shape, array.shape[0]
        self.diagonal = np.diagonal(array)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.array @ x

    def dense(self) -> np.ndarray:
        return self.array

    def _own(self) -> np.ndarray:  # L as an array the caller may overwrite
        return self.array.copy()

    def negatives(self, tol: float) -> int:
        return np.count_nonzero(self.dense() < -tol) - np.count_nonzero(self.diagonal < -tol)

    def eigenvalues(self, s: np.ndarray) -> np.ndarray:
        return self.pairs(s, self.n)[0]

    def _solve(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.dense() * np.outer(s, -1.0 / s))

    def shift(self, v: np.ndarray) -> "_Dense":
        m = self._own()
        m.flat[::self.n + 1] -= v
        return _Dense(m)

    def restrict(self, idx: np.ndarray) -> "_Dense":
        return _Dense(self.dense()[np.ix_(idx, idx)])

    def scale_rows(self, w: np.ndarray) -> "_Dense":
        return _Dense(w[:, None] * self.dense())


class _Power(_Dense):
    """-diag(w) psi diag(mu) psi^T, psi the sine basis: L_ij = w_i (c(i + j +
    2) - c(|i - j|)) (0-based), c = irfft([0, mu, 0]), w = 1 (None) unless
    ``scale_rows`` kept one; its products come from mu and w, its diagonal
    and ``dense`` from c and w.  Unscaled (weights 1), its eigenpairs are mu
    and psi, one DST of the identity.  Any other question, shift and restrict
    go through its array, built at each ``dense``, not kept."""

    def __init__(self, mu: np.ndarray, c: np.ndarray, w=None):
        self.mu, self.c, self.w, self.shape, self.n = mu, c, w, (mu.size, mu.size), mu.size
        self.diagonal = (1.0 if w is None else w) * (c[2:2 * mu.size + 1:2] - c[0])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """-psi (mu psi^T x), times w: two orthonormal DST-Is (psi^T = psi)."""
        import scipy.fft

        y = scipy.fft.dst(x, type=1, norm="ortho", axis=0) * -self.mu[:, None]
        y = scipy.fft.dst(y, type=1, norm="ortho", axis=0)
        return y if self.w is None else self.w[:, None] * y

    def dense(self) -> np.ndarray:
        n, c, window = self.n, self.c, np.lib.stride_tricks.sliding_window_view
        p = window(c[2:2 * n + 1], n) - window(np.concatenate((c[n - 1:0:-1], c[:n])), n)[::-1]
        return p if self.w is None else np.multiply(p, self.w[:, None], out=p)

    _own = dense

    def eigenvalues(self, s: np.ndarray) -> np.ndarray:
        return self.mu if self.w is None else super().eigenvalues(s)

    def _solve(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return super()._solve(s) if self.w is not None else (self.mu, _sine_basis(self.n))

    def scale_rows(self, w: np.ndarray) -> _Dense:
        return _Power(self.mu, self.c, w) if self.w is None else super().scale_rows(w)


class GeneratorMatrix:
    """Symmetrizable generator on grid points, sign convention L <= 0.

    ``weight`` holds the measure weights w_i (the reference measure is
    w_i * delta); L is self-adjoint in the inner product they induce.  L is
    held in one form (``_Form``), a dense one if passed in as ``matrix``;
    the n x n ``matrix`` is built from the form when read.
    """

    def __init__(self, points: np.ndarray, delta: float, matrix, weight: np.ndarray):
        form = matrix if isinstance(matrix, _Form) else _Dense(matrix)
        if form.shape != (points.size, points.size):
            raise ValueError("matrix shape must match the grid")
        if points.size > _MAX_DENSE:
            raise ValueError(f"dense generator capped at {_MAX_DENSE} points, got {points.size}")
        if np.shape(weight) != (points.size,):
            raise ValueError(f"measure weights must be one per point, got shape {np.shape(weight)}")
        if not np.all(weight > 0.0):
            raise ValueError("measure weights must be positive")
        self.points, self.delta, self.weight, self._form = points, delta, weight, form
        self.n = points.size

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._form.dense()

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -L, ascending."""
        return self._form.eigenvalues(np.sqrt(self.weight))

    def semigroup_sym(self, t: float) -> np.ndarray:
        """Bitwise-symmetric representation of exp(tL): X X^T, X = psi
        diag(exp(-lambda t / 2)) over the eigenpairs of -L's symmetrized
        matrix; BLAS forms one triangle (syrk) and mirrors it.  lambda
        ascends, so the k weights exp(-lambda t) that are not 0 are a prefix
        of ``eigenvalues``, and only those pairs are asked of the form; k = 0
        is the zero kernel."""
        _checked_times(t, "a semigroup", positive=False)
        k = np.count_nonzero(np.exp(-self.eigenvalues * t))
        if k == 0:
            return np.zeros((self.n, self.n))
        lam, psi = self._form.pairs(np.sqrt(self.weight), k)
        k = np.count_nonzero(np.exp(-lam * t))
        x = psi[:, :k] * np.exp(-lam[:k] * (t / 2))
        return x @ x.T


def _checked_times(t, what: str, positive: bool = True) -> None:
    """The one time rule of this module: ValueError naming t unless every
    entry of t is finite and > 0 (``positive``) or >= 0."""
    tv = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(tv) & ((tv > 0.0) if positive else (tv >= 0.0))):
        kind = "t > 0" if positive else "nonnegative t"
        raise ValueError(f"{what} needs a finite {kind}, got t = {t}")


def dirichlet_laplacian(grid: Grid1D) -> GeneratorMatrix:
    """(1/2) * second difference / delta^2 on the grid, Dirichlet at its ends,
    banded.  Restrict it to a domain with :func:`part_generator`."""
    if not isinstance(grid, Grid1D):  # a generator has points too, but is not a grid
        raise TypeError(f"expected a Grid1D, got {type(grid).__name__}")
    n, inv = grid.n, 0.5 / grid.delta**2
    off = np.full(n - 1, inv)
    return GeneratorMatrix(grid.points, grid.delta, _Bands(np.full(n, -2.0 * inv), off, off),
                           np.ones(n))


def _as_mask(mask, xs: np.ndarray) -> np.ndarray:
    if isinstance(mask, Domain):
        return mask.contains(xs[:, None])
    m = np.asarray(mask, dtype=bool)
    if m.shape != xs.shape:
        raise ValueError("mask must match the grid points")
    return m


def killed_generator(gen: GeneratorMatrix, potential: KillingPotential) -> GeneratorMatrix:
    """L - diag(V): Feynman-Kac killing at rate V(x_i); bands stay bands."""
    v = potential(gen.points[:, None])
    return GeneratorMatrix(gen.points, gen.delta, gen._form.shift(v), gen.weight)


def _sine_spectrum(grid: Grid1D) -> np.ndarray:
    """Eigenvalues 4 e sin^2(k pi / (2 (n + 1))), e = 0.5 / delta^2, of minus
    the grid's Dirichlet Laplacian e (u_{i-1} - 2 u_i + u_{i+1})."""
    if not isinstance(grid, Grid1D):  # a generator has points too, but is not a grid
        raise TypeError(f"expected a Grid1D, got {type(grid).__name__}")
    return _toeplitz_spectrum(1.0 / grid.delta**2, -0.5 / grid.delta**2, grid.n)


def _toeplitz_spectrum(d0: float, e0: float, n: int) -> np.ndarray:
    """Eigenvalues of the n x n tridiagonal Toeplitz matrix, d0 on the diagonal
    and e0 beside it, ascending if e0 <= 0; eigenvectors :func:`_sine_basis`."""
    angle = np.arange(1, n + 1) * (np.pi / (2 * (n + 1)))
    return (d0 + 2.0 * e0) - 4.0 * e0 * np.sin(angle) ** 2


def _sine_basis(n: int) -> np.ndarray:
    """The orthonormal DST-I basis, column k - 1 for the k-th sine (Strang 1999)."""
    import scipy.fft

    return scipy.fft.dst(np.eye(n), type=1, norm="ortho")


def _power_spectrum(grid: Grid1D, alpha: float) -> np.ndarray:
    """Eigenvalues of minus the alpha generator in the grid's sine basis,
    kappa (2 lambda)^(alpha/2): 2 lambda, the spectrum of -Delta, stands for
    |xi|^2 and kappa is the exponent's scale (``process._exponent_scale``),
    so alpha = 2 gives (1/2)Delta's own lambda, bit for bit."""
    if not (0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    return _exponent_scale(alpha) * (2.0 * _sine_spectrum(grid)) ** (alpha / 2.0)


def fractional_power(grid: Grid1D, alpha: float) -> GeneratorMatrix:
    """The alpha generator on the grid: minus the spectral power of its
    Dirichlet Laplacian with eigenvalues :func:`_power_spectrum`.  At alpha = 2
    that is :func:`dirichlet_laplacian` itself, tridiagonal.  Below 2 it is
    a ``_Power``, mu and c(m) = (1/(n+1)) sum_k mu_k cos(m k pi/(n+1)) from
    one inverse real FFT.
    """
    if alpha == 2.0:
        return dirichlet_laplacian(grid)
    mu = _power_spectrum(grid, alpha)
    import scipy.fft

    c = scipy.fft.irfft(np.concatenate(([0.0], mu, [0.0])))
    return GeneratorMatrix(grid.points, grid.delta, _Power(mu, c), np.ones(mu.size))


def weighted_generator(grid: Grid1D, weight, alpha: float) -> GeneratorMatrix:
    """Time-change generator W(x) L on its natural measure, L the alpha
    :func:`fractional_power` of ``grid`` (so W (1/2)Delta, tridiagonal, at
    alpha = 2).  ``weight`` is a TimeChangeWeight or any callable mapping
    grid points to values >= 1.  The operator is self-adjoint with respect
    to the weights 1/W(x_i).
    """
    frac = fractional_power(grid, alpha)
    wvals = np.asarray(weight(frac.points[:, None]), dtype=float).reshape(frac.n)
    if not np.all(wvals >= 1.0):
        raise ValueError("time-change weight must satisfy W >= 1 on the grid")
    return GeneratorMatrix(frac.points, frac.delta, frac._form.scale_rows(wvals), 1.0 / wvals)


def semigroup_matrix(gen: GeneratorMatrix, t: float) -> np.ndarray:
    """P_t = exp(tL) via the eigendecomposition; sub-Markov up to round-off.

    Entries in (-1e-12, 0) are clipped to zero; anything more negative
    would signal a genuine positivity violation and is left visible.  The
    kernel X X^T from ``semigroup_sym`` becomes P_t in place, scaled and
    clipped by row blocks, so it is the one n x n array held.
    """
    p = gen.semigroup_sym(t)
    s = np.sqrt(gen.weight)
    r = 1.0 / s
    for i in range(0, gen.n, 256):
        rows = p[i:i + 256]
        rows /= np.outer(s[i:i + 256], r)
        np.copyto(rows, 0.0, where=(rows > -1e-12) & (rows < 0.0))
    return p


def heat_trace(gen: GeneratorMatrix, t) -> np.ndarray | float:
    """Trace of exp(tL) = sum_k exp(-lambda_k t).

    The matrix trace approximates the continuum integral of p_t(x, x):
    the matrix entry is density times cell width delta, and the integral
    supplies the matching factor delta, so no measure factor appears.
    """
    _checked_times(t, "the heat trace")
    return _exp_trace(gen.eigenvalues, t)


def _exp_trace(lam: np.ndarray, t) -> np.ndarray | float:
    """sum_k exp(-lam_k t), a float for scalar t, an array over an array t."""
    out = np.exp(-np.outer(np.asarray(t, dtype=float), lam)).sum(axis=1)
    return float(out[0]) if np.ndim(t) == 0 else out


def part_generator(gen: GeneratorMatrix, mask) -> tuple[GeneratorMatrix, np.ndarray]:
    """Restriction of L to masked points (the part-process generator); bands
    stay bands, with the couplings across each gap zeroed."""
    idx = _part_index(_as_mask(mask, gen.points))
    return GeneratorMatrix(gen.points[idx], gen.delta, gen._form.restrict(idx), gen.weight[idx]), idx


def _part_index(keep: np.ndarray) -> np.ndarray:
    idx = np.nonzero(keep)[0]
    if idx.size < _MIN_POINTS:
        raise ValueError(f"part generator needs at least {_MIN_POINTS} points")
    return idx


def compactness_diagnostic(gen: GeneratorMatrix, levels, t: float) -> np.ndarray:
    """||P_t - P_t^n||_{inf->inf} along an increasing family of levels.

    P_t^n is the part-process semigroup on level n, zero-extended to the
    ambient grid; the norm is the max absolute row sum of the difference.
    For a sub-Markov generator (off-diagonal entries >= 0, row sums L 1 <= 0)
    part monotonicity gives 0 <= P_t^n <= P_t entrywise, so that norm is
    max_i (P_t 1 - P_t^n 1)_i, computed from row sums alone.  Every rule is
    checked here once, before any solve: an off-diagonal entry below -1e-12
    max|L_ii| or a row sum above it, levels that are not nested, and a level
    of fewer than 3 points below the grid raise ValueError; a level equal
    to the grid reads 0.  The sequence decreasing to zero is the compactness
    signature; for a conservative generator it stalls near 1 instead.  The
    form computes the other levels' norms (``gaps``): bands by uniformization
    with no eigenvector, the other forms from their kept eigenpairs.
    """
    _checked_times(t, "the diagnostic", positive=False)
    form = gen._form
    tol = 1e-12 * np.abs(form.diagonal).max()
    if negative := form.negatives(tol):
        raise ValueError(f"generator has {negative} negative off-diagonal entries; it is not Markov")
    if form.apply(np.ones((gen.n, 1))).max() > tol:
        raise ValueError("generator has a positive row sum; it is not sub-Markov")
    masks = [_as_mask(lv, gen.points) for lv in levels]
    for lo, hi in zip(masks[:-1], masks[1:]):
        if np.any(lo & ~hi):
            raise ValueError("levels must be nested")
    live = [k for k, mask in enumerate(masks) if not np.all(mask)]
    for k in live:
        _part_index(masks[k])
    norms = np.zeros(len(masks))
    if live:
        norms[live] = form.gaps(np.sqrt(gen.weight), np.array([masks[k] for k in live]), t)
    return norms


def _poisson_window(mean: float) -> tuple[int, np.ndarray]:
    """(k_lo, p): Poisson(mean) probabilities p[j] of k_lo + j over every k
    where they are normal doubles, by the ratios of consecutive terms from
    the mode outward (Fox & Glynn 1988), normalized over the window."""
    mode = int(mean)
    left = np.cumprod(np.arange(mode, 0, -1) / mean)[::-1]
    span = int(40.0 * math.sqrt(mean)) + 300  # past the underflow of the right tail
    right = np.cumprod(mean / np.arange(mode + 1, mode + span + 1))
    w = np.concatenate((left, [1.0], right))
    p = w / w.sum()
    kept = np.nonzero(p >= np.finfo(float).tiny)[0]
    return int(kept[0]), p[kept[0]:kept[-1] + 1]


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


def _rate_times(gen: GeneratorMatrix, t_grid) -> tuple:
    """The rate times as floats: ValueError unless they are finite, > 0,
    one or more and strictly increasing (``LpRates.extrapolated`` reads the
    last two as the largest), and exp(-lambda_1 t) is not 0 at the last
    (lambda_1 is kept)."""
    t_grid = tuple(float(t) for t in t_grid)
    _checked_times(t_grid, "a rate")
    if not t_grid or any(a >= b for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError(f"rates need a nonempty, strictly increasing time grid, got {t_grid}")
    lam1 = gen.eigenvalues[0]
    if np.exp(-lam1 * t_grid[-1]) == 0.0:
        raise ValueError(_UNDERFLOW.format(t_grid[-1], lam1 * t_grid[-1]))
    return t_grid


def lp_spectral_bound_compare(gen: GeneratorMatrix, t_grid) -> LpRates:
    """Spectral-bound proxies lambda_hat_p = -(1/t) log ||P_t||_{p->p}.

    Norms: 2->2 is exp(-lambda_1 t) exactly, inf->inf is the max row sum
    of |P|, 1->1 (in the measure w_i delta) the max weighted column sum.
    With S = X X^T the kernel from ``semigroup_sym``, one triangle mirrored,
    and s = sqrt(w), P = diag(1/s) S diag(s), so the row sums are (|S| s) / s
    and the weighted column sums (|S|^T s) / s.  |S|^T is |S| entry for
    entry, so one vector gives both norms and lambda_hat_1 equals
    lambda_hat_inf exactly, not just to rounding.  lambda_1 is
    ``eigenvalues[0]``.  A grid that is empty or not strictly increasing,
    or a t that is not finite and positive, raises ValueError at once; an
    underflowing norm too, before any kernel if exp(-lambda_1 t) is 0.
    """
    t_grid = _rate_times(gen, t_grid)
    lam1 = gen.eigenvalues[0]
    s = np.sqrt(gen.weight)
    rates = []
    for t in t_grid:
        kernel = gen.semigroup_sym(t)
        norm = float(((np.abs(kernel, out=kernel) @ s) / s).max())
        if norm == 0.0:
            raise ValueError(_UNDERFLOW.format(t, lam1 * t))
        rates.append(-math.log(norm) / t)
    rates = tuple(rates)
    return LpRates(t_grid=t_grid, rates_1=rates, rates_2=(lam1,) * len(t_grid), rates_inf=rates)


def _lowest_weighted_eigenpairs(mu: np.ndarray, wvals: np.ndarray, k: int):
    """Lowest k eigenpairs of S = W^(1/2) psi diag(mu) psi W^(1/2), psi the sine
    basis, as reciprocals of the top ones of K = S^(-1) (two DSTs).  The block
    Krylov basis of K is fully reorthogonalized and grows until each wanted
    Ritz residual is at round-off or the basis is complete.  Its seeded start
    has no parity: an even one never reaches the odd gap vector x/(1+x^2).

    Kept between steps, and extended in place: the basis V and its images
    K V, as rows (16 k of them, doubled when full), and H = V^T K V.  A step
    with m rows costs O(n m k): two Gram-Schmidt passes and one QR for the
    new block, H's k new columns and rows, and one m x m symmetric eigensolve
    (``numpy.linalg.eigh``, looked up at call time: bench/tracing.py)."""
    import scipy.fft

    n, v = mu.size, 1.0 / np.sqrt(wvals)
    block = np.random.default_rng(0).standard_normal((n, k)).T  # k rows of n
    cap, m = min(n, 16 * k), 0
    basis, images, h = np.empty((cap, n)), np.empty((cap, n)), np.empty((cap, cap))
    while True:
        for _ in range(2):  # twice is enough for orthogonality
            block -= (block @ basis[:m].T) @ basis[:m]
        block = np.linalg.qr(block.T)[0].T
        y = scipy.fft.dst(v * block, type=1, norm="ortho", axis=1) / mu
        y = v * scipy.fft.dst(y, type=1, norm="ortho", axis=1)
        m0, m = m, m + block.shape[0]
        if m > cap:
            cap = min(n, 2 * cap)
            basis, images = (np.pad(a, ((0, cap - a.shape[0]), (0, 0))) for a in (basis, images))
            h = np.pad(h, (0, cap - h.shape[0]))
        basis[m0:m], images[m0:m] = block, y
        h[:m, m0:m] = basis[:m] @ y.T
        h[m0:m, :m0] = block @ images[:m0].T
        theta, s = np.linalg.eigh((h[:m, :m] + h[:m, :m].T) / 2.0)
        theta, s = theta[-k:], s[:, -k:].T
        vecs = s @ basis[:m]
        resid = np.linalg.norm(s @ images[:m] - theta[:, None] * vecs, axis=1)
        if m == n or resid.max() <= _RITZ_TOL * theta[-1]:
            return 1.0 / theta[::-1], vecs[::-1].T
        block = y[: n - m]


def weighted_transition_study(alpha: float, betas, radii, delta: float) -> dict:
    """Truncation study of W L, L the alpha :func:`fractional_power` and
    W = 1 + |x|^beta, on (-R, R).

    Returns, per beta and R, the lowest two eigenvalues of the weighted
    generator and the second alone (``gap``).  For a conservative driving
    process with finite weighted measure the continuum operator annihilates
    constants, so the lowest Dirichlet eigenvalue is a truncation artifact
    creeping to zero (about 1/log R); the discreteness transition in beta is
    carried by the gap: it stabilizes in R when the spectrum is discrete and
    collapses toward zero when it is not.

    Every grid is built, so checked against the cap, before any is solved.
    Each operator is :func:`weighted_generator`'s form, which keeps W.  Its
    pairs come matrix-free from the sine basis at every alpha (at 2 the
    bands' solvers are 1e-9 off), and the form's product checks them on S =
    W^(1/2) A W^(1/2), A = -L: a residual above 1e-13 max_i A_ii max W
    lambda_j / lambda_0 (ten times the Krylov tolerance) raises RuntimeError.
    """
    betas = [float(b) for b in np.atleast_1d(betas)]
    out = {"radii": [float(r) for r in radii], "betas": betas}
    out.update({key: {b: [] for b in betas} for key in ("eigenvalues", "gap")})
    grids = [Grid1D.symmetric(r, delta) for r in radii]
    for r, grid in zip(radii, grids):
        mu = _power_spectrum(grid, alpha)
        for b in betas:
            gen = weighted_generator(grid, TimeChangeWeight(beta=b), alpha)
            form, s = gen._form, np.sqrt(gen.weight)[:, None]
            lam, vecs = _lowest_weighted_eigenpairs(mu, form.w, 2)
            resid = np.linalg.norm(s * form.apply(vecs / s) + vecs * lam, axis=0)
            tol = 10.0 * _RITZ_TOL * -(form.diagonal / form.w).min() * form.w.max() * lam / lam[0]
            if np.any(resid > tol):
                raise RuntimeError(f"eigenpair residuals {resid} exceed {tol} at R = {r}, beta = {b}")
            out["eigenvalues"][b].append([float(v) for v in lam])
            out["gap"][b].append(float(lam[1]))
    return out


def union_interval_trace(union: UnionOfIntervals, delta: float, t: float) -> float:
    """Heat trace of the Dirichlet generator on a union of disjoint intervals.

    The generator is block diagonal over components, so the trace is the
    sum of per-interval traces on matching grids (same spacing everywhere),
    each from the closed-form sine spectrum: no matrix, no eigensolve.
    Raises if segments overlap -- merged segments are a different operator.
    """
    _checked_times(t, "the heat trace")
    segs = union.segments
    if np.any(segs[1:, 0] < segs[:-1, 1]):
        raise ValueError("segments overlap; the block decomposition is invalid")
    return sum(_exp_trace(_sine_spectrum(Grid1D(a, b, delta)), t) for a, b in segs)
