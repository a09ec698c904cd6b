"""Closed-form reference quantities used as independent oracles.

Nothing here touches the samplers: these are textbook formulas (Gaussian
convolutions, Cauchy kernels, stable scaling identities) evaluated directly,
so Monte Carlo output can be compared against an answer that does not share
its code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import gamma_fn
from .geometry import _number

__all__ = [
    "GaussianBump",
    "CauchyBump",
    "brownian_interval_mean_exit",
    "brownian_interval_survival",
    "brownian_ball_mean_exit",
    "stable_interval_mean_exit",
    "levy_half_cdf",
    "symmetric_stable_central_cdf_mass",
    "brownian_one_sided_exit_prob",
    "brownian_quadratic_survival",
    "brownian_quadratic_lifetime",
]


@dataclass(frozen=True)
class GaussianBump:
    """f(x) = exp(-a |x|^2); the Brownian semigroup maps it inside the family.

    For increments of per-coordinate variance s,
        p_s f(x) = (1 + 2 a s)^(-d/2) exp(-a |x|^2 / (1 + 2 a s)).
    """

    a: float = 1.0

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r2 = (x**2).sum(axis=-1) if x.ndim > 1 else x**2
        return np.exp(-self.a * r2)

    def heat(self, s, x, dim: int = 1) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        s = np.asarray(s, dtype=float)
        r2 = (x**2).sum(axis=-1) if x.ndim > 1 else x**2
        c = 1.0 + 2.0 * self.a * s
        return c ** (-dim / 2.0) * np.exp(-self.a * r2 / c)


@dataclass(frozen=True)
class CauchyBump:
    """f(x) = b^2 / (b^2 + x^2) on the line; Cauchy semigroup stays in family.

    For the alpha = 1 process (characteristic exponent |xi|),
        p_s f(x) = b (b + s) / ((b + s)^2 + x^2).
    """

    b: float = 1.0

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        return self.b**2 / (self.b**2 + x**2)

    def heat(self, s, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(-1)
        bs = self.b + s
        return self.b * bs / (bs**2 + x**2)


def brownian_interval_mean_exit(a: float, b: float, x: float) -> float:
    """E_x[tau] for variance-t Brownian motion on (a, b): (x - a)(b - x)."""
    a, b, x = (_number(v, name) for v, name in ((a, "a"), (b, "b"), (x, "x")))
    if not a < x < b:
        return 0.0
    return (x - a) * (b - x)


def brownian_interval_survival(a: float, b: float, x: float, t: float) -> float:
    """P_x(tau > t), t > 0, for variance-t Brownian motion on (a, b), L = b - a:
        sum_{k odd} 4/(k pi) sin(k pi (x - a)/L) exp(-k^2 pi^2 t / (2 L^2)),
    the Dirichlet heat equation's sine series, summed while exp(...) >= e^-40."""
    a, b, x = (_number(v, name) for v, name in ((a, "a"), (b, "b"), (x, "x")))
    t = _number(t, "t", 0.0)
    if not a < x < b:
        return 0.0
    span = b - a
    rate = math.pi**2 * t / (2.0 * span**2)
    k = np.arange(1, math.sqrt(40.0 / rate) + 2.0, 2)
    terms = 4.0 / (k * math.pi) * np.sin(k * math.pi * (x - a) / span) * np.exp(-k**2 * rate)
    return float(terms.sum())


def brownian_ball_mean_exit(radius: float, dist_from_center: float, d: int) -> float:
    """E_x[tau] for the centered ball under the (1/2)*Laplacian convention."""
    if dist_from_center >= radius:
        return 0.0
    return (radius**2 - dist_from_center**2) / d


def stable_interval_mean_exit(alpha: float, a: float, x: float) -> float:
    """Mean exit time of the |xi|^alpha process from (-a, a) started at x.

    The classical formula (a^2 - x^2)^(alpha/2) / Gamma(1 + alpha); it
    requires the unit characteristic exponent, which is exactly the alpha<2
    convention of ProcessSpec (and matches alpha=2 with generator Delta,
    not Delta/2 -- do not use it for the Brownian spec).
    """
    if abs(x) >= a:
        return 0.0
    return (a**2 - x**2) ** (alpha / 2.0) / gamma_fn(1.0 + alpha)


def levy_half_cdf(s) -> np.ndarray:
    """CDF of the index-1/2 subordinator with E[exp(-lam S)] = exp(-sqrt(lam)).

    P(S <= s) = erfc(1 / (2 sqrt(s))).
    """
    from scipy import special

    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = special.erfc(1.0 / (2.0 * np.sqrt(s[pos])))
    return out


def symmetric_stable_central_cdf_mass(alpha: float, m: float, t: float = 1.0) -> float:
    """P(|X_t| <= m) for the 1D symmetric stable law, by Gil-Pelaez inversion.

    P(|X| <= m) = (2/pi) * int_0^inf sin(m u)/u * exp(-t u^alpha) du,
    evaluated with an oscillatory-weight quadrature plus a bounded tail.
    """
    from scipy import integrate

    if m <= 0.0:
        return 0.0
    cut = max(50.0, 10.0 / m)
    # sin(mu)/u is smooth at 0: integrate it plainly up to 1, then switch to
    # the oscillatory-weight rule where 1/u is tame
    head, _ = integrate.quad(
        lambda u: np.sinc(m * u / math.pi) * m * np.exp(-t * u**alpha),
        0.0,
        1.0,
        limit=200,
    )
    osc, _ = integrate.quad(
        lambda u: np.exp(-t * u**alpha) / u,
        1.0,
        cut,
        weight="sin",
        wvar=m,
        limit=400,
    )
    # |tail| <= exp(-t cut^alpha) / (m cut) in absolute value
    return 2.0 / math.pi * (head + osc)


def brownian_one_sided_exit_prob(clearance: float, t: float) -> float:
    """P(max of variance-s BM over [0, t] exceeds clearance), by reflection."""
    from scipy import special

    if clearance <= 0.0:
        return 1.0
    return float(special.erfc(clearance / math.sqrt(2.0 * t)))


def brownian_quadratic_survival(x, t: float, c0: float, c: float) -> float:
    """E_x[exp(-A_t)] for variance-t Brownian motion under V = c0 + c |x|^2.

    Cameron-Martin (Mehler): with w = sqrt(2 c),
        e^(-c0 t) cosh(w t)^(-d/2) exp(-(w/2) |x|^2 tanh(w t)),
    where cosh(u)^(-1) = 2 e^(-u) / (1 + e^(-2u)) keeps large w t finite.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = math.sqrt(2.0 * c)
    u = w * t
    log_sech = math.log(2.0) - u - math.log1p(math.exp(-2.0 * u))
    return math.exp(-c0 * t + 0.5 * x.size * log_sech - 0.5 * w * float(x @ x) * math.tanh(u))


def brownian_quadratic_lifetime(x, c0: float, c: float) -> float:
    """E_x[zeta] = int_0^inf E_x[exp(-A_t)] dt under V = c0 + c |x|^2, c0 > 0.

    The 1-resolvent of 1 under V is the same integral with c0 + 1.
    """
    from scipy import integrate

    val, _ = integrate.quad(
        lambda t: brownian_quadratic_survival(x, t, c0, c), 0.0, np.inf, epsabs=1e-13, epsrel=1e-11
    )
    return val
