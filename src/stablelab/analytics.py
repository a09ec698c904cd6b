"""Gamma function, Green function and the weighted singular integral J.

The integral

    J_{g1,g2}(x) = int dy / ( |x-y|^g1 * (1 + |y|^g2) )

is finite for 0 <= g1 < d and g1 + g2 > d.  It controls the 0-resolvent of
the time-changed stable process: R_0 applied to 1 is bounded by
c(d, alpha) * J_{d-alpha, beta} when the clock weight satisfies
W(y) >= 1 + |y|^beta, with equality for the extremal weight.

Quadrature strategy: the |x-y|^(-g1) singularity is removed exactly by the
substitution u = v^(1/(1-g1)) near the singular point (polar splitting
around x); in d = 3 the angular integral is done in closed form first, so
only 1D radial quadratures remain.  Supported dimensions: 1 and 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import _exponent_scale

__all__ = [
    "gamma_fn",
    "green_constant",
    "green_function",
    "JParams",
    "j_integral",
    "envelope_constant_check",
    "R0BoundTable",
    "r0_mu_bound_check",
]

def gamma_fn(s: float) -> float:
    """Gamma(s) for s > 0: ``math.gamma`` with its negative branch ruled out."""
    s = float(s)
    if not s > 0.0:
        raise ValueError(f"gamma_fn requires s > 0, got {s}")
    return math.gamma(s)


def _transient(d: int, alpha: float) -> None:
    """The Green function and the 0-resolvent exist only for a transient process."""
    if not d > alpha:
        raise ValueError(f"transience requires d > alpha, got d={d}, alpha={alpha}")


def green_constant(d: int, alpha: float) -> float:
    """c(d, alpha) = Gamma((d-alpha)/2) / (2^alpha pi^(d/2) Gamma(alpha/2)).

    The Riesz kernel of the package's alpha < 2 process, whose exponent is
    |xi|^alpha, divided by the exponent's scale (``process._exponent_scale``):
    at alpha = 2 the process is Brownian motion with generator (1/2)Delta,
    so the constant is twice the Riesz one (1/(2 pi) in d = 3).  Defined for
    transient parameters d > alpha only.
    """
    _transient(d, alpha)
    riesz = 2.0**alpha * math.pi ** (d / 2.0) * gamma_fn(alpha / 2.0)
    return gamma_fn((d - alpha) / 2.0) / _exponent_scale(alpha) / riesz


def green_function(x, y, d: int, alpha: float) -> float:
    """G(x, y) = c(d, alpha) |x - y|^(alpha - d) for the transient process."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = float(np.sqrt(((x - y) ** 2).sum()))
    if r == 0.0:
        raise ValueError("green_function is singular on the diagonal x = y")
    return green_constant(d, alpha) * r ** (alpha - d)


@dataclass(frozen=True)
class JParams:
    """Exponent pair of the singular integral, with the finiteness window."""

    gamma1: float
    gamma2: float
    dim: int = 1

    def __post_init__(self):
        if self.dim not in (1, 3):
            raise ValueError("j_integral supports dim 1 and 3 only")
        if not (0.0 <= self.gamma1 < self.dim):
            raise ValueError(
                f"need 0 <= gamma1 < d for local integrability, got gamma1={self.gamma1}, d={self.dim}"
            )
        if not self.gamma2 > 0.0:
            raise ValueError("gamma2 must be positive")
        if not self.gamma1 + self.gamma2 > self.dim:
            raise ValueError(
                f"need gamma1 + gamma2 > d for finiteness, got {self.gamma1} + {self.gamma2} <= {self.dim}"
            )


_QUAD = dict(limit=200, epsabs=1e-12, epsrel=1e-10)


def _near_singular(g, gamma1: float, upper: float) -> float:
    """int_0^upper u^(-gamma1) g(u) du with the singularity substituted away.

    u = v^p with p = 1/(1 - gamma1) turns the integrand into p * g(v^p).
    """
    from scipy import integrate

    p = 1.0 / (1.0 - gamma1)
    vmax = upper ** (1.0 - gamma1)
    val, _ = integrate.quad(lambda v: p * g(v**p), 0.0, vmax, **_QUAD)
    return val


def _split_1d(g, gamma1: float) -> float:
    """int_0^inf u^(-gamma1) g(u) du: substituted on [0, 1], plain quad beyond."""
    from scipy import integrate

    near = _near_singular(g, gamma1, 1.0)
    far, _ = integrate.quad(lambda u: u**-gamma1 * g(u), 1.0, np.inf, **_QUAD)
    return near + far


def _j1d(gamma1: float, gamma2: float, x: float) -> float:
    f = lambda y: 1.0 / (1.0 + abs(y) ** gamma2)
    return _split_1d(lambda u: f(x + u) + f(x - u), gamma1)


def _j3d(gamma1: float, gamma2: float, r: float) -> float:
    from scipy import integrate

    f = lambda s: 1.0 / (1.0 + s**gamma2)
    if r == 0.0:
        # radial integral of s^(2-gamma1) f(s): an integrable singularity at 0
        # for gamma1 in (2, 3), regular for gamma1 <= 2
        return 4.0 * math.pi * _split_1d(f, gamma1 - 2.0)
    # angular integral in closed form: for |x| = r > 0,
    #   int_{S^2} |x - s w|^(-g1) dw = (2 pi / (r s)) * K(r, s),
    #   K = ((r+s)^(2-g1) - |r-s|^(2-g1)) / (2 - g1),  or log((r+s)/|r-s|) at g1 = 2.
    if gamma1 == 2.0:
        kern = lambda s: math.log((r + s) / abs(r - s))
    else:
        q = 2.0 - gamma1
        kern = lambda s: ((r + s) ** q - abs(r - s) ** q) / q
    h = lambda s: 2.0 * math.pi / r * s * f(s) * kern(s)
    # integrable endpoint behavior at s = r; split there and let quad handle it
    a, _ = integrate.quad(h, 0.0, r, **_QUAD)
    b, _ = integrate.quad(h, r, 2.0 * r + 1.0, **_QUAD)
    c, _ = integrate.quad(h, 2.0 * r + 1.0, np.inf, **_QUAD)
    return a + b + c


def j_integral(p: JParams, x) -> float:
    """Evaluate J_{gamma1,gamma2}(x); x is a scalar (d=1) or point (d=3)."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    if xv.size not in (1, p.dim):
        raise ValueError(f"x must be a point in R^{p.dim}")
    if p.dim == 1:
        return _j1d(p.gamma1, p.gamma2, float(xv[0]))
    r = float(np.sqrt((xv**2).sum())) if xv.size == p.dim else abs(float(xv[0]))
    return _j3d(p.gamma1, p.gamma2, r)


def envelope_constant_check(
    p: JParams, train_probes, test_probes
) -> tuple[float, bool]:
    """Fit the decay-envelope constant on train probes, verify on held-out ones.

    The envelope depends on how gamma2 compares with d:
      gamma2 < d : |x|^(d - gamma1 - gamma2)
      gamma2 = d : (1 + |x|)^(-gamma1) log|x|
      gamma2 > d : (1 + |x|)^(-gamma1)
    Returns (fitted constant, whether J <= c * envelope held on test probes
    up to 0.1% slack).  The testable claim is existence of a finite
    constant, not its value; since the ratio J/envelope drifts toward its
    asymptote, held-out probes should interleave the trained range rather
    than extrapolate beyond it.
    """

    def env(x: float) -> float:
        ax = abs(x)
        if p.gamma2 < p.dim:
            return ax ** (p.dim - p.gamma1 - p.gamma2)
        if p.gamma2 == p.dim:
            return (1.0 + ax) ** -p.gamma1 * math.log(ax)
        return (1.0 + ax) ** -p.gamma1

    for x in list(train_probes) + list(test_probes):
        if abs(x) <= 1.0:
            raise ValueError("envelope probes must satisfy |x| > 1")
    c = max(j_integral(p, x) / env(x) for x in train_probes)
    ok = all(j_integral(p, x) <= c * env(x) * 1.001 for x in test_probes)
    return c, ok


def _r0_quadrature_1d(weight, alpha: float, x: float) -> float:
    """R_0 applied to 1 at x: c(1,alpha) * int |x-y|^(alpha-1) / W(y) dy."""
    wf = lambda y: 1.0 / float(weight(y))
    return green_constant(1, alpha) * _split_1d(lambda u: wf(x + u) + wf(x - u), 1.0 - alpha)


@dataclass(frozen=True)
class R0BoundTable:
    """Per-probe 0-resolvent mass versus its Green/J upper bound."""

    probes: np.ndarray
    resolvent: np.ndarray
    bound: np.ndarray
    beta: float
    alpha: float

    def decays(self) -> bool:
        order = np.argsort(np.abs(self.probes))
        r = self.resolvent[order]
        b = self.bound[order]
        return bool(np.all(np.diff(r) < 0.0) and np.all(np.diff(b) < 0.0))


def _quadrature_dim(d: int) -> None:
    if d != 1:
        raise ValueError("r0_mu_bound_check quadrature supports d = 1 only")


def _finite_mass(beta: float, alpha: float) -> None:
    if not beta > alpha:
        raise ValueError(
            f"a finite 0-resolvent mass requires beta > alpha, got beta={beta}, alpha={alpha}"
        )


def r0_mu_bound_check(weight, d: int, alpha: float, probes) -> R0BoundTable:
    """Compare quadrature of the time-changed 0-resolvent with its J bound.

    ``weight`` is a clock weight W with attributes ``beta`` and call syntax
    W(y) (scalar in d = 1).  Requires transience d > alpha and beta > alpha:
    for beta <= alpha the resolvent mass integral behaves like
    |y|^(alpha - d - beta) at infinity and diverges.  Only d = 1 is wired
    for the quadrature column.
    """
    c = green_constant(d, alpha)  # refuses d <= alpha first
    _quadrature_dim(d)
    beta = float(weight.beta)
    _finite_mass(beta, alpha)
    probes = np.asarray(probes, dtype=float)
    jp = JParams(gamma1=d - alpha, gamma2=beta, dim=d)
    res = np.array([_r0_quadrature_1d(weight, alpha, float(x)) for x in probes])
    bnd = np.array([c * j_integral(jp, float(x)) for x in probes])
    return R0BoundTable(probes=probes, resolvent=res, bound=bnd, beta=beta, alpha=alpha)
