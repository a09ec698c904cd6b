"""Estimator tests against closed-form oracles and structural contracts."""

import math

import numpy as np
import pytest

import stablelab as sl
from stablelab.closedform import (
    GaussianBump,
    brownian_ball_mean_exit,
    brownian_interval_mean_exit,
    brownian_interval_survival,
    brownian_quadratic_lifetime,
    brownian_quadratic_survival,
    stable_interval_mean_exit,
)
from stablelab.process import PathSample

BM1 = sl.ProcessSpec(alpha=2.0, dim=1)
BM2 = sl.ProcessSpec(alpha=2.0, dim=2)
CAUCHY = sl.ProcessSpec(alpha=1.0, dim=1)


def _hop_path(positions, h=1.0):
    arr = np.asarray(positions, dtype=float)[:, None]
    return PathSample(spec=BM1, step_h=h, positions=arr, seed=0)


class TestExitTime:
    def test_start_outside_is_zero(self):
        path = _hop_path([5.0, 5.1, 5.2])
        assert sl.exit_time(path, sl.Interval(-1, 1)) == 0.0

    def test_conservative_survives(self):
        path = sl.sample_path(BM1, [0.0], t_max=1.0, h=0.01, seed=1)
        assert sl.exit_time(path, sl.FullSpace(1)) == math.inf

    def test_first_grid_exit(self):
        # 0 -> 0.5 -> 1.5 with h = 1 leaves (-1, 1) at the second step
        path = _hop_path([0.0, 0.5, 1.5], h=1.0)
        assert sl.exit_time(path, sl.Interval(-1, 1)) == 2.0


class TestMeanExitTime:
    def test_brownian_interval_ode_oracle(self):
        # (1/2) u'' = -1 on (-1,1), u(+-1) = 0  =>  u(0) = 1
        res = sl.estimate_mean_exit_time(BM1, [0.0], sl.Interval(-1, 1), 10.0, 1e-3, 20_000, 21)
        assert res.survived_fraction < 1e-3
        assert abs(res.mean - 1.0) <= max(3.0 * res.stderr, 0.015)

    def test_brownian_ball_center(self):
        res = sl.estimate_mean_exit_time(
            BM2, [0.0, 0.0], sl.Ball((0.0, 0.0), 1.0), 8.0, 1e-3, 20_000, 22
        )
        oracle = brownian_ball_mean_exit(1.0, 0.0, 2)
        assert oracle == 0.5
        assert abs(res.mean - oracle) <= max(3.0 * res.stderr, 0.015 * oracle)

    def test_stable_interval_getoor_oracle(self):
        # (a^2 - x^2)^(alpha/2) / Gamma(1 + alpha) at alpha = 1, a = 1, x = 0
        res = sl.estimate_mean_exit_time(CAUCHY, [0.0], sl.Interval(-1, 1), 30.0, 5e-4, 40_000, 23)
        oracle = stable_interval_mean_exit(1.0, 1.0, 0.0)
        assert oracle == pytest.approx(1.0, rel=1e-12)
        assert abs(res.mean - oracle) <= max(3.0 * res.stderr, 0.02 * oracle)

    def test_step_halving_drift_within_noise(self):
        # refining h must not move the Brownian interval estimate by more
        # than the combined noise (the bridge correction removes the
        # leading O(sqrt(h)) bias)
        a = sl.estimate_mean_exit_time(BM1, [0.0], sl.Interval(-1, 1), 10.0, 2e-3, 20_000, 25)
        b = sl.estimate_mean_exit_time(BM1, [0.0], sl.Interval(-1, 1), 10.0, 1e-3, 20_000, 26)
        assert abs(a.mean - b.mean) <= 3.0 * math.hypot(a.stderr, b.stderr)

    def test_survivor_warning_and_tail_correction(self):
        res = sl.estimate_mean_exit_time(BM1, [0.0], sl.Interval(-1, 1), 0.5, 1e-3, 4_000, 24)
        assert res.survived_fraction > 1e-3
        assert res.warnings
        assert res.tail_corrected_mean is None or res.tail_corrected_mean > res.mean

    def test_interval_bridged_like_a_one_piece_union(self):
        # one bridge rule for every shape: an interval is bridged by its
        # depth, so it exits exactly like the union made of it alone, even
        # where both endpoints are within reach of one step
        a = sl.estimate_mean_exit_time(BM1, [0.0], sl.Interval(-0.1, 0.1), 1.0, 1e-3, 4_000, 27)
        b = sl.estimate_mean_exit_time(
            BM1, [0.0], sl.UnionOfIntervals([[-0.1, 0.1]]), 1.0, 1e-3, 4_000, 27
        )
        assert a == b
        assert abs(a.mean - brownian_interval_mean_exit(-0.1, 0.1, 0.0)) <= 4.0 * a.stderr

    def test_brownian_square_torsion_series(self):
        # E[tau] from the centre of (-1, 1)^2 is 2 u(0, 0), with u the
        # torsion function of the square (-Laplacian u = 1, u = 0 on the edge):
        # u(0, 0) = 1/2 - (16/pi^3) sum_k (-1)^k / ((2k+1)^3 cosh((2k+1) pi/2)).
        # A box is bridged like every shape; grid detection alone reads ~4 % high.
        series = sum(
            (-1) ** k / ((2 * k + 1) ** 3 * math.cosh((2 * k + 1) * math.pi / 2))
            for k in range(20)
        )
        oracle = 2.0 * (0.5 - 16.0 / math.pi**3 * series)
        assert oracle == pytest.approx(0.5893708, abs=1e-7)
        res = sl.estimate_mean_exit_time(
            BM2, [0.0, 0.0], sl.Box((-1.0, -1.0), (1.0, 1.0)), 8.0, 1e-3, 20_000, 28
        )
        assert abs(res.mean - oracle) <= max(3.0 * res.stderr, 0.01 * oracle)

    def test_one_dimensional_box_exits_like_the_interval(self):
        from stablelab.functionals import _exit_times

        box = _exit_times(BM1, [[0.3]], sl.Box((-1.0,), (1.0,)), 4.0, 1e-3, 2_000, 31)
        interval = _exit_times(BM1, [[0.3]], sl.Interval(-1.0, 1.0), 4.0, 1e-3, 2_000, 31)
        assert np.array_equal(box, interval)


class TestSurvival:
    def test_outside_zero_and_fullspace_one(self):
        out = sl.estimate_survival(BM1, [3.0], sl.Interval(-1, 1), 1.0, 1e-2, 500, 3)
        assert out.mean == 0.0
        cons = sl.estimate_survival(BM1, [0.0], sl.FullSpace(1), 1.0, 1e-2, 500, 3)
        assert cons.mean == 1.0

    @pytest.mark.parametrize("x0, t, value", [(0.0, 0.5, 0.685446), (0.6, 1.0, 0.217947)])
    def test_interval_matches_sine_series(self, x0, t, value):
        # the oracle is the Dirichlet heat equation's series: no path in it
        oracle = brownian_interval_survival(-1.0, 1.0, x0, t)
        assert oracle == pytest.approx(value, abs=1e-6)
        res = sl.estimate_survival(BM1, [x0], sl.Interval(-1.0, 1.0), t, 1e-3, 20_000, 41)
        assert abs(res.mean - oracle) <= 4.0 * res.stderr

    def test_monotone_in_t(self):
        vals = [
            sl.estimate_survival(BM2, [0.0, 0.0], sl.Ball((0.0, 0.0), 1.0), t, 1e-3, 8_000, 31).mean
            for t in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a > b for a, b in zip(vals[:-1], vals[1:]))
        assert vals[-1] < 0.05


class TestResolventR1:
    def test_conservative_is_one(self):
        res = sl.estimate_resolvent_r1(BM1, [0.0], sl.FullSpace(1), 1e-2, 100, 4)
        assert res.mean == 1.0 and res.stderr == 0.0

    def test_small_ball_first_order(self):
        # R_1 1 ~ E[tau] for a tiny ball, and strictly below it
        dom = sl.Ball((0.0, 0.0), 0.05)
        r1 = sl.estimate_resolvent_r1(BM2, [0.0, 0.0], dom, 1e-6, 3_000, 5, t_max=1.0)
        et = sl.estimate_mean_exit_time(BM2, [0.0, 0.0], dom, 1.0, 1e-6, 3_000, 5)
        assert r1.mean < et.mean
        assert abs(r1.mean - et.mean) < 0.05 * et.mean

    def test_killed_process_quadrature(self):
        # V == c: zeta ~ Exp(c), R_1 1 = 1/(1+c).  R_1 1 is the lifetime
        # under V + 1 == 4, so every path carries the weight q^k at step k,
        # q = exp(-4 h), and sums to h (1 - q^N) / (1 - q) over N = 10^4 steps
        h, n = 1e-3, 10_000
        pot = sl.KillingPotential.constant(3.0)
        res = sl.estimate_resolvent_r1(BM1, [0.0], pot, h, 4_000, 6, t_max=10.0)
        assert abs(res.mean - 0.25) < 0.01
        q = math.exp(-4.0 * h)
        assert res.mean == pytest.approx(h * (1.0 - q**n) / (1.0 - q), rel=1e-12)
        assert res.stderr == 0.0


class TestFeynmanKac:
    def test_zero_potential_weighs_one(self):
        path = sl.sample_path(BM1, [0.0], 1.0, 0.01, 7)
        assert sl.feynman_kac_weight(path, sl.KillingPotential.none(), 1.0) == 1.0

    def test_constant_potential_exact(self):
        path = sl.sample_path(BM1, [0.0], 1.0, 0.01, 8)
        w = sl.feynman_kac_weight(path, sl.KillingPotential.constant(2.0), 0.5)
        assert w == pytest.approx(math.exp(-2.0 * 0.5), rel=1e-12)

    def test_riemann_sum_first_order_on_frozen_path(self):
        # halving h halves the quadrature error on a fixed Brownian path
        fine = sl.sample_path(BM1, [0.0], 1.0, 1e-4, 9)
        pot = sl.KillingPotential.power(1.0, 2.0)

        def weight_at_stride(stride):
            sub = PathSample(
                spec=BM1, step_h=fine.step_h * stride,
                positions=fine.positions[::stride], seed=9,
            )
            return sl.feynman_kac_weight(sub, pot, 1.0)

        w1, w2, w4 = weight_at_stride(1), weight_at_stride(2), weight_at_stride(4)
        err_coarse = abs(math.log(w4) - math.log(w1))
        err_fine = abs(math.log(w2) - math.log(w1))
        assert err_fine < 0.75 * err_coarse

    def test_negative_potential_rejected(self):
        path = sl.sample_path(BM1, [0.0], 1.0, 0.01, 10)
        bad = sl.KillingPotential.custom(lambda p: -np.ones(len(p)))
        with pytest.raises(ValueError, match="nonnegative"):
            sl.feynman_kac_weight(path, bad, 1.0)

    def test_negative_power_coefficient_rejected_when_built(self):
        for kw in ({"c": -1.0}, {"c": 1.0, "offset": -0.5}):
            with pytest.raises(ValueError, match="nonnegative"):
                sl.KillingPotential(kind="power", gamma=2.0, **kw)

    @pytest.mark.parametrize("kw, match", [
        ({"kind": "powr", "c": 1.0, "gamma": 2.0}, "kind"), ({"kind": "none"}, "kind"),
        ({"kind": "custom"}, "callable"), ({"kind": "custom", "fn": 3.0}, "callable")])
    def test_unknown_kind_or_missing_fn_rejected_when_built(self, kw, match):
        with pytest.raises(ValueError, match=match):
            sl.KillingPotential(**kw)

    def test_none_is_the_zero_power(self):
        none = sl.KillingPotential.none()
        assert none == sl.KillingPotential.power(0.0, 0.0) and none.is_none
        x = np.array([[0.0], [-2.5], [1e100]])
        v = none(x)
        assert np.array_equal(v, np.zeros(3)) and not np.any(np.signbit(v))

    @pytest.mark.parametrize("c, gamma, offset", [
        (math.nan, 2.0, 1.0), (1.0, 2.0, math.nan), (1.0, math.nan, 1.0), (1.0, math.inf, 0.0)])
    def test_nan_power_parameters_rejected_when_built(self, c, gamma, offset):
        with pytest.raises(ValueError, match="potential"):
            sl.KillingPotential.power(c, gamma, offset)

    def test_offset_alone_forms_no_square(self):
        # c = 0: V is its offset, with no |x|^2 to overflow at |x| = 1e300
        far = np.array([[1e300]])
        assert sl.KillingPotential.none()(far).tolist() == [0.0]
        assert sl.KillingPotential.constant(2.0)(far).tolist() == [2.0]
        near = np.array([[0.0], [-3.5], [1e150]])
        assert sl.KillingPotential.power(0.0, 2.0, offset=1.5)(near).tolist() == [1.5] * 3

    def test_nan_custom_potential_rejected(self):
        bad = sl.KillingPotential.custom(lambda p: np.full(len(p), math.nan))
        with pytest.raises(ValueError, match="nonnegative"):
            bad(np.zeros((3, 1)))

    @pytest.mark.parametrize("d, gamma", [(1, 2.0), (2, 2.0), (1, 1.5), (3, 0.7), (2, 0.0)])
    def test_power_matches_norm_to_the_gamma(self, d, gamma):
        x = np.random.default_rng(5).standard_normal((500, d)) * 3.0
        x[0] = 0.0
        v = sl.KillingPotential.power(2.0, gamma, offset=0.5)(x)
        ref = 0.5 + 2.0 * np.linalg.norm(x, axis=1) ** gamma
        np.testing.assert_allclose(v, ref, rtol=1e-14, atol=0.0)

    def test_weight_in_unit_interval(self):
        path = sl.sample_path(BM1, [0.5], 2.0, 0.01, 11)
        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
        w = [sl.feynman_kac_weight(path, pot, t) for t in (0.0, 0.5, 1.0, 2.0)]
        assert all(0.0 < v <= 1.0 for v in w)
        assert w[0] == 1.0


class TestKilledLifetime:
    def test_constant_potential_inverse_rate(self):
        pot = sl.KillingPotential.constant(2.0)
        res = sl.estimate_killed_lifetime_mean(BM1, [0.0], pot, 1e-3, 3_000, 12, t_max=8.0)
        assert res.mean == pytest.approx(0.5, abs=0.01)
        assert res.tail_corrected_mean == pytest.approx(0.5, abs=0.01)

    def test_geometric_bound_ordering(self):
        # 1/(1 - p) with p = exp(-c) overestimates the true mean 1/c
        pot = sl.KillingPotential.constant(1.0)
        res = sl.estimate_killed_lifetime_mean(BM1, [0.0], pot, 1e-3, 3_000, 13, t_max=8.0)
        assert res.p_hat == pytest.approx(math.exp(-1.0), abs=0.01)
        assert 1.0 / (1.0 - res.p_hat) > res.mean

    def test_decreasing_in_start_distance(self):
        pot = sl.KillingPotential.power(1.0, 2.0)  # V = |x|^2
        means = [
            sl.estimate_killed_lifetime_mean(BM1, [x], pot, 2e-3, 3_000, 14, t_max=6.0).mean
            for x in (0.0, 2.0, 4.0, 8.0)
        ]
        assert all(a > b for a, b in zip(means[:-1], means[1:]))

    def test_divergent_tail_bound_rejected(self):
        with pytest.raises(sl.TailBoundError):
            sl.estimate_killed_lifetime_mean(
                BM1, [0.0], sl.KillingPotential.none(), 1e-2, 100, 15
            )
        with pytest.raises(sl.TailBoundError):
            sl.estimate_killed_lifetime_mean(
                BM1, [0.0], sl.KillingPotential.power(0.0, 0.0), 1e-2, 100, 15
            )

    def test_zero_power_is_no_killing(self, monkeypatch):
        # c = offset = 0 is V = 0: refused before the engine draws anything
        def no_draws(*args, **kwargs):
            raise AssertionError("the engine must not run")

        zero = sl.KillingPotential.power(0.0, 2.0, offset=0.0)
        assert zero.is_none and not sl.KillingPotential.power(0.0, 2.0, offset=1e-300).is_none
        monkeypatch.setattr(sl.functionals, "_fk_engine", no_draws)
        monkeypatch.setattr(sl.identities, "_fk_engine", no_draws)
        with pytest.raises(sl.TailBoundError):
            sl.estimate_killed_lifetime_mean(BM1, [0.0], zero, 1e-2, 100, 15)
        with pytest.raises(sl.UnsupportedConfiguration, match="conservative"):
            sl.t_norm_bound_check(BM1, zero, sl.Interval(-2, 2), [[0.0]], [[3.0]], 1.0, 1e-2, 100, 17)


QUADRATIC = sl.KillingPotential.power(1.0, 2.0, offset=1.0)  # V = 1 + |x|^2


class TestQuadraticPotentialOracle:
    """The engine under V = 1 + |x|^2 (alpha = 2) against Cameron-Martin."""

    def test_closed_form_limits(self):
        # c = 0 leaves exp(-c0 t); large w t neither overflows nor goes negative
        assert brownian_quadratic_survival([0.3, 0.4], 2.0, 1.5, 0.0) == pytest.approx(
            math.exp(-3.0), rel=1e-14)
        assert brownian_quadratic_lifetime([0.3], 2.0, 0.0) == pytest.approx(0.5, rel=1e-10)
        assert brownian_quadratic_survival([0.5], 1e4, 0.0, 1.0) == 0.0
        # the exponent factorizes over coordinates
        one = brownian_quadratic_survival([0.5], 0.7, 0.0, 1.0)
        two = brownian_quadratic_survival([0.5, 0.0], 0.7, 0.0, 1.0)
        zero = brownian_quadratic_survival([0.0], 0.7, 0.0, 1.0)
        assert two == pytest.approx(one * zero, rel=1e-14)

    @pytest.mark.parametrize("spec, zeta, seed", [(BM1, 0.652381, 41), (BM2, 0.543269, 42)])
    def test_killed_lifetime(self, spec, zeta, seed):
        # at d = 1 the matrix side agrees: a tridiagonal solve of (V - L) u = 1
        # on (-10, 10) at delta = 0.005 reads u(0.5) = 0.6523815
        x0 = [0.5] + [0.0] * (spec.dim - 1)
        assert brownian_quadratic_lifetime(x0, 1.0, 1.0) == pytest.approx(zeta, abs=1e-6)
        res = sl.estimate_killed_lifetime_mean(spec, x0, QUADRATIC, 1e-3, 5_000, seed, t_max=8.0)
        assert abs(res.mean - zeta) <= 4.0 * res.stderr

    @pytest.mark.parametrize("spec, r1, seed", [(BM1, 0.403492, 141), (BM2, 0.366476, 142)])
    def test_resolvent_r1(self, spec, r1, seed):
        # R_1 1 under V is the lifetime under V + 1
        x0 = [0.5] + [0.0] * (spec.dim - 1)
        assert brownian_quadratic_lifetime(x0, 2.0, 1.0) == pytest.approx(r1, abs=1e-6)
        res = sl.estimate_resolvent_r1(spec, x0, QUADRATIC, 1e-3, 5_000, seed, t_max=8.0)
        assert abs(res.mean - r1) <= 4.0 * res.stderr


class TestTimeChange:
    def test_identity_weight_identity_clock(self):
        path = sl.sample_path(BM1, [0.0], 1.0, 0.01, 16)
        one = sl.TimeChangeWeight(beta=0.0, fn=lambda p: np.full(len(p), 2.0))
        # W == 2 everywhere: clock runs at half speed, exactly
        clock = sl.time_change_clock(path, one)
        assert np.allclose(clock.values, path.times / 2.0, atol=1e-12)

    def test_clock_below_real_time(self):
        path = sl.sample_path(BM1, [1.0], 2.0, 0.01, 17)
        clock = sl.time_change_clock(path, sl.TimeChangeWeight(beta=2.0))
        assert np.all(clock.values <= path.times + 1e-12)
        assert np.all(np.diff(clock.values) > 0.0)

    def test_frozen_path_rate(self):
        # parked at x = 10 with W = 1 + x^2: the clock accumulates at 1/101
        pos = np.full((101, 1), 10.0)
        path = PathSample(spec=BM1, step_h=0.01, positions=pos, seed=0)
        clock = sl.time_change_clock(path, sl.TimeChangeWeight(beta=2.0))
        assert clock.total == pytest.approx(1.0 / 101.0, rel=1e-12)

    def test_inverse_and_position_lookup(self):
        path = sl.sample_path(BM1, [0.0], 1.0, 0.01, 18)
        clock = sl.time_change_clock(path, sl.TimeChangeWeight(beta=2.0))
        s = clock.total / 3.0
        tau = clock.inverse(s)
        k = int(round(tau / path.step_h))
        assert clock.values[k] >= s >= (clock.values[k - 1] if k else 0.0)
        assert np.allclose(clock.position(s), path.positions[k])
        with pytest.raises(ValueError):
            clock.inverse(clock.total * 1.5)

    def test_one_dimensional_array_rejected(self):
        # a 1-D array could be one point in R^d or d points on the line
        w = sl.TimeChangeWeight(beta=2.0)
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            w(np.array([3.0, 4.0]))
        assert w(3.0) == 10.0  # the scalar form stays a point on the line
        assert np.array_equal(w(np.array([[3.0], [4.0]])), [10.0, 17.0])
        pot = sl.KillingPotential.power(1.0, 2.0)
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            pot(np.array([3.0, 4.0]))
        assert pot(np.array([[3.0, 4.0]])) == pytest.approx([25.0])
        # domains, ball centres and path-loop starts read their arrays by the same rule
        for call in (
            lambda: sl.Ball((0.0, 0.0), 1.0).depth(np.array([0.3, 0.4])),
            lambda: sl.Interval(-1.0, 1.0).contains(np.array([0.5])),
            lambda: sl.UnionOfBalls(np.array([1.0, 2.0]), [0.6, 0.6]),
            lambda: sl.exit_time_scan(BM1, np.array([0.3]), sl.Interval(-1.0, 1.0), 0.1, 0.01, 2, 1),
        ):
            with pytest.raises(ValueError, match=r"\(n, d\) rows in dimension"):
                call()
        assert sl.Ball((0.0, 0.0), 1.0).contains_point([0.3, 0.4])  # one point keeps its reader

    def test_weight_lower_bound_enforced(self):
        w = sl.TimeChangeWeight(beta=2.0, fn=lambda p: np.ones(len(p)))
        with pytest.raises(ValueError, match="lower bound"):
            w(np.array([[3.0]]))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            sl.TimeChangeWeight(beta=math.nan)
        w = sl.TimeChangeWeight(beta=2.0, fn=lambda p: np.full(len(p), math.nan))
        with pytest.raises(ValueError, match="lower bound"):
            w(np.array([[3.0]]))


def test_estimator_result_needs_two_paths():
    with pytest.raises(ValueError):
        sl.EstimatorResult(mean=0.0, stderr=0.0, n_paths=1, step_h=0.1, seed=0)


def test_exit_scan_reports_what_the_single_estimators_report():
    # a one-start scan runs the same paths as the single-start estimators,
    # so it must carry the same survivor warning and tail correction
    dom = sl.Interval(-1, 1)
    scan = sl.exit_time_scan(BM1, [[0.0]], dom, 0.5, 1e-3, 4_000, 24)
    mexit = sl.estimate_mean_exit_time(BM1, [0.0], dom, 0.5, 1e-3, 4_000, 24)
    r1 = sl.estimate_resolvent_r1(BM1, [0.0], dom, 1e-3, 4_000, 24, t_max=0.5)
    assert mexit.survived_fraction > 1e-3 and mexit.warnings
    assert scan[0][0] == mexit
    assert scan[0][1] == r1


def test_exit_scan_joint_columns():
    dom = sl.shrinking_ball_domain(2, 12)
    starts = np.array([[5.0, 0.0], [10.0, 0.0]])
    scan = sl.exit_time_scan(BM2, starts, dom, 15.0, 2e-3, 2_000, 19)
    for mexit, r1 in scan:
        assert 0.0 < r1.mean < 1.0
        assert r1.mean < mexit.mean


def test_threads_do_not_change_results(monkeypatch):
    # chunk layout is fixed by n_paths alone, so the worker count cannot
    # change the streams; shrink the chunk size to force a multi-chunk merge
    import stablelab.functionals as fn

    monkeypatch.setattr(fn, "_CHUNK", 10_000)
    dom = sl.Ball((0.0, 0.0), 1.0)
    a = sl.estimate_mean_exit_time(BM2, [0.0, 0.0], dom, 6.0, 1e-2, 60_000, 20, threads=1)
    b = sl.estimate_mean_exit_time(BM2, [0.0, 0.0], dom, 6.0, 1e-2, 60_000, 20, threads=3)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_bridge_with_no_row_under_the_cut_draws_nothing():
    # a step far from the boundary returns before drawing: the stream and
    # the exit marks are as they were
    import stablelab.functionals as fn

    h = 1e-3
    d0 = np.array([0.5, 0.3, 0.9])
    d1 = np.array([0.4, 0.2, 0.8])  # d0 d1 >= 0.06, far above 14 h
    rng = sl.stream(7)
    state = repr(rng.bit_generator.state)
    out = np.zeros(3, dtype=bool)
    fn._bridge_kills(d0, d1, np.ones(3, dtype=bool), h, rng, out)
    assert repr(rng.bit_generator.state) == state
    assert not out.any()
    # a row under the cut draws one uniform
    fn._bridge_kills(d0, np.array([1e-4, 0.2, 0.8]), np.ones(3, dtype=bool), h, rng, out)
    assert repr(rng.bit_generator.state) != state


_POT = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
# The five single-start entry points, each route of the 1-resolvent and of
# the Dynkin residual (shortcuts and the refused full space included) as its own case.
_SINGLE_START = {
    "mean_exit_time": lambda x0, h: sl.estimate_mean_exit_time(
        BM1, x0, sl.Interval(-1, 1), 0.5, h, 50, 1),
    "survival": lambda x0, h: sl.estimate_survival(BM1, x0, sl.Interval(-1, 1), 0.5, h, 50, 1),
    "r1_domain": lambda x0, h: sl.estimate_resolvent_r1(
        BM1, x0, sl.Interval(-1, 1), h, 50, 1, t_max=0.5),
    "r1_potential": lambda x0, h: sl.estimate_resolvent_r1(BM1, x0, _POT, h, 50, 1, t_max=0.5),
    "r1_fullspace": lambda x0, h: sl.estimate_resolvent_r1(
        BM1, x0, sl.FullSpace(1), h, 50, 1, t_max=0.5),
    "r1_no_potential": lambda x0, h: sl.estimate_resolvent_r1(
        BM1, x0, sl.KillingPotential.none(), h, 50, 1, t_max=0.5),
    "killed_lifetime": lambda x0, h: sl.estimate_killed_lifetime_mean(
        BM1, x0, _POT, h, 50, 1, t_max=0.5),
    "dynkin_interval": lambda x0, h: sl.dynkin_residual(
        BM1, x0, GaussianBump(1.0), 0.5, sl.Interval(-1, 1), h, 50, 1),
    "dynkin_fullspace": lambda x0, h: sl.dynkin_residual(
        BM1, x0, GaussianBump(1.0), 0.5, sl.FullSpace(1), h, 50, 1),
}


@pytest.mark.parametrize("name", sorted(_SINGLE_START))
@pytest.mark.parametrize("x0", [[[0.5], [0.0]], [0.5, 0.0]], ids=["two-starts", "wrong-dim"])
def test_single_start_refuses_other_shapes(name, x0):
    # a second start raises instead of being simulated and dropped; a 2-vector is not a point in R^1
    with pytest.raises(ValueError, match=r"x0 must be a point in R\^1"):
        _SINGLE_START[name](x0, 1e-2)


@pytest.mark.parametrize("name", sorted(set(_SINGLE_START) - {"dynkin_fullspace"}))
def test_single_start_reads_scalar_list_and_array_alike(name):
    # the full-space Dynkin run reads its start and step, then is refused
    results = [repr(_SINGLE_START[name](x0, 1e-2)) for x0 in (0.5, [0.5], np.array([0.5]))]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("name", ["r1_fullspace", "r1_no_potential", "dynkin_fullspace"])
@pytest.mark.parametrize("h", [0.0, -1.0])
def test_shortcuts_check_the_step(name, h):
    # the conservative shortcuts draw nothing, but still refuse what the loop refuses
    with pytest.raises(ValueError, match=r"need t_max >= h > 0"):
        _SINGLE_START[name]([0.5], h)


def test_horizon_shorter_than_step_one_message():
    calls = [lambda: sl.sample_path_batch(BM1, [0.5], 0.5, 0.6, 10, 1)]
    calls += [lambda f=f: f([0.5], 0.6) for f in _SINGLE_START.values()]
    messages = set()
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {"need t_max >= h > 0, got t_max=0.5, h=0.6"}


def test_off_grid_horizon_rejected():
    # t_max = 1.0 is not a whole number of steps of 0.6: flooring gives one
    # step, rounding two; every path loop refuses it instead
    with pytest.raises(ValueError, match="whole number"):
        sl.sample_path(BM1, [0.0], t_max=1.0, h=0.6, seed=1)
    with pytest.raises(ValueError, match="whole number"):
        sl.estimate_mean_exit_time(BM1, [0.0], sl.Interval(-1.0, 1.0), 1.0, 0.6, 10, 1)
