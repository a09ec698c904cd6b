"""Gamma, Green function and singular-integral quadrature tests."""

import math

import numpy as np
import pytest

import stablelab as sl
from stablelab.analytics import JParams, _j3d

PI = math.pi


class TestGamma:
    def test_classical_values(self):
        assert sl.gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)
        assert sl.gamma_fn(0.5) == pytest.approx(math.sqrt(PI), rel=1e-12)
        assert sl.gamma_fn(5.0) == pytest.approx(24.0, rel=1e-12)

    def test_against_stdlib_over_range(self):
        for s in np.geomspace(1e-3, 50.0, 200):
            assert abs(sl.gamma_fn(float(s)) - math.gamma(s)) <= 1e-10 * math.gamma(s)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            sl.gamma_fn(0.0)
        with pytest.raises(ValueError):
            sl.gamma_fn(-1.5)


class TestGreen:
    def test_constant_classical_value(self):
        # c(3, 2) = 1/(2 pi): the Newtonian kernel of (1/2)-normalized heat
        assert sl.green_constant(3, 2.0) == pytest.approx(1.0 / (2.0 * PI), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_constant_matches_the_d1_fourier_closed_form(self, alpha):
        # exponent |xi|^alpha in d = 1: G(x) = Gamma(1-alpha) sin(pi alpha/2)/pi |x|^(alpha-1),
        # a route through neither Gamma(alpha/2) nor pi^(d/2); 0.39894 at alpha = 0.5
        ref = math.gamma(1.0 - alpha) * math.sin(PI * alpha / 2.0) / PI
        assert sl.green_constant(1, alpha) == pytest.approx(ref, rel=1e-12)
        if alpha == 0.5:
            assert sl.green_constant(1, alpha) == pytest.approx(0.39894228, rel=1e-8)

    def test_positivity(self):
        for d, a in ((1, 0.5), (3, 1.0), (3, 2.0), (2, 1.5)):
            assert sl.green_constant(d, a) > 0.0

    def test_transience_precondition(self):
        with pytest.raises(ValueError, match="d > alpha"):
            sl.green_constant(1, 1.0)
        with pytest.raises(ValueError, match="d > alpha"):
            sl.green_function([0.0], [1.0], 1, 1.5)

    def test_kernel_symmetry_scaling_value(self):
        x, y = [0.2, 0.1, -0.3], [1.0, 0.4, 0.2]
        d, a = 3, 1.2
        g1 = sl.green_function(x, y, d, a)
        assert g1 == sl.green_function(y, x, d, a)
        c = 2.5
        g2 = sl.green_function([c * v for v in x], [c * v for v in y], d, a)
        assert g2 == pytest.approx(c ** (a - d) * g1, rel=1e-12)
        assert sl.green_function([0.0] * 3, [1.0, 0.0, 0.0], 3, 2.0) == pytest.approx(
            1.0 / (2.0 * PI), rel=1e-12
        )

    def test_diagonal_singularity(self):
        with pytest.raises(ValueError, match="singular"):
            sl.green_function([1.0], [1.0], 3, 2.0)


class TestJParams:
    def test_finiteness_window(self):
        with pytest.raises(ValueError, match="gamma1"):
            JParams(gamma1=1.0, gamma2=2.0, dim=1)
        with pytest.raises(ValueError, match="finiteness"):
            JParams(gamma1=0.2, gamma2=0.5, dim=1)
        with pytest.raises(ValueError, match="dim"):
            JParams(gamma1=0.5, gamma2=2.0, dim=2)


class TestJIntegral:
    def test_beta_closed_form_1d(self):
        # J_{1/2,2}(0) = pi sqrt(2) via the Beta integral
        val = sl.j_integral(JParams(0.5, 2.0, 1), 0.0)
        assert val == pytest.approx(PI * math.sqrt(2.0), rel=1e-8)

    def test_even_in_x(self):
        p = JParams(0.5, 2.0, 1)
        for x in (0.7, 2.3, 11.0):
            assert sl.j_integral(p, x) == pytest.approx(sl.j_integral(p, -x), rel=1e-9)

    def test_bounded_with_max_near_origin(self):
        p = JParams(0.5, 2.0, 1)
        probes = np.concatenate([[0.0], np.geomspace(0.1, 300.0, 25)])
        vals = np.array([sl.j_integral(p, float(x)) for x in probes])
        assert np.isfinite(vals).all()
        assert probes[int(vals.argmax())] < 1.0

    def test_3d_beta_closed_form_at_origin(self):
        # gamma1 = 0: J(x) = 4 pi int s^2/(1+s^b) ds = 4 pi (pi/b)/sin(3 pi/b)
        p = JParams(0.0, 4.0, 3)
        oracle = 4.0 * PI * (PI / 4.0) / math.sin(3.0 * PI / 4.0)
        assert sl.j_integral(p, [0.0, 0.0, 0.0]) == pytest.approx(oracle, rel=1e-8)
        # gamma1 = 0 removes the kernel: J is constant in x, which exercises
        # the radial-reduction branch against the same closed form
        assert sl.j_integral(p, [2.0, 0.0, 0.0]) == pytest.approx(oracle, rel=1e-6)

    def test_3d_log_branch_at_origin(self):
        # gamma1 = 2, gamma2 = 2: J(0) = 4 pi int 1/(1+s^2) ds = 2 pi^2
        p = JParams(2.0, 2.0, 3)
        assert sl.j_integral(p, [0.0, 0.0, 0.0]) == pytest.approx(2.0 * PI**2, rel=1e-8)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_3d_log_branch_offcenter_double_quadrature_oracle(self):
        # the oracle's own crude quadrature grumbles about the kernel kink
        from scipy import integrate

        p = JParams(2.0, 2.0, 3)
        r = 1.0

        def inner(s):
            f = lambda mu: 1.0 / (r * r + s * s - 2.0 * r * s * mu)
            v, _ = integrate.quad(f, -1.0, 1.0, limit=100)
            return 2.0 * PI * s * s / (1.0 + s * s) * v

        head, _ = integrate.quad(inner, 0.0, r - 1e-6, limit=200)
        mid, _ = integrate.quad(inner, r + 1e-6, 50.0, limit=200)
        tail = 4.0 * PI * (PI / 2.0 - math.atan(50.0))  # 1/(1+s^2) tail
        oracle = head + mid + tail
        assert sl.j_integral(p, [r, 0.0, 0.0]) == pytest.approx(oracle, rel=1e-2)

    def test_quadrature_self_consistency(self):
        p = JParams(0.5, 2.0, 1)
        a = sl.j_integral(p, 3.0)
        b = sl.j_integral(p, 3.0 + 0.0)  # determinism
        assert a == b


class TestEnvelope:
    def test_heavy_tail_case_fitted_and_verified(self):
        # gamma2 > d: J is bounded by c (1+|x|)^(-gamma1) with some finite c
        p = JParams(0.5, 3.0, 1)
        c, ok = sl.envelope_constant_check(p, train_probes=(2.0, 4.0, 8.0), test_probes=(16.0, 32.0, 64.0))
        assert ok and 0.0 < c < math.inf

    def test_all_three_cases(self):
        # held-out probes interleave the trained range: the ratio drifts
        # toward its asymptote, so extrapolating beyond the fit is unfair
        cases = [
            JParams(0.5, 0.8, 1),  # gamma2 < d
            JParams(0.5, 1.0, 1),  # gamma2 = d (log factor)
            JParams(0.5, 2.0, 1),  # gamma2 > d
        ]
        for p in cases:
            c, ok = sl.envelope_constant_check(p, (2.0, 8.0, 32.0, 128.0), (4.0, 16.0, 64.0))
            assert ok, f"envelope failed for {p}"

    def test_probe_domain_guard(self):
        with pytest.raises(ValueError, match=r"\|x\| > 1"):
            sl.envelope_constant_check(JParams(0.5, 2.0, 1), (0.5,), (2.0,))


class TestR0Bound:
    def test_extremal_weight_columns_coincide(self):
        table = sl.r0_mu_bound_check(sl.TimeChangeWeight(beta=1.0), 1, 0.5, (1.0, 2.0, 4.0))
        assert np.allclose(table.resolvent, table.bound, rtol=1e-8)
        assert np.max(table.resolvent - table.bound) <= 1e-6  # resolvent-bounds' rule

    def test_decay_along_probes(self):
        table = sl.r0_mu_bound_check(
            sl.TimeChangeWeight(beta=1.0), 1, 0.5, (1.0, 2.0, 4.0, 8.0, 16.0)
        )
        assert table.decays()

    def test_sub_threshold_beta_rejected(self):
        # beta <= alpha: the resolvent mass diverges, so there is nothing to check
        with pytest.raises(ValueError, match="beta > alpha"):
            sl.r0_mu_bound_check(sl.TimeChangeWeight(beta=0.2), 1, 0.3, (1.0, 2.0))
        with pytest.raises(ValueError, match="beta > alpha"):
            sl.r0_mu_bound_check(sl.TimeChangeWeight(beta=0.5), 1, 0.5, (1.0,))

    def test_transience_required(self):
        with pytest.raises(ValueError, match="d > alpha"):
            sl.r0_mu_bound_check(sl.TimeChangeWeight(beta=2.0), 1, 1.0, (1.0,))

    def test_strict_weight_stays_below_bound(self):
        # W = 2(1 + |x|): strictly above the extremal weight, so the
        # resolvent column drops strictly below the J bound
        w = sl.TimeChangeWeight(beta=1.0, fn=lambda p: 2.0 * (1.0 + np.abs(p[:, 0])))
        table = sl.r0_mu_bound_check(w, 1, 0.5, (1.0, 2.0, 4.0))
        assert np.all(table.resolvent < table.bound)
        assert np.max(table.resolvent - table.bound) <= 1e-6  # resolvent-bounds' rule
