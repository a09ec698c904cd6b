"""Semigroup-identity checks: decomposition residual, boundary operator norm
and the 1-subprocess commuting identity."""

import math

import numpy as np
import pytest

import stablelab as sl
from stablelab.closedform import CauchyBump, GaussianBump, brownian_one_sided_exit_prob

BM1 = sl.ProcessSpec(alpha=2.0, dim=1)
CAUCHY = sl.ProcessSpec(alpha=1.0, dim=1)


class TestDynkinResidual:
    def test_fullspace_refused(self):
        # no path leaves the whole space, so its residual is 0 by construction
        with pytest.raises(sl.UnsupportedConfiguration, match="0 by construction"):
            sl.dynkin_residual(BM1, [0.0], GaussianBump(1.0), 0.5, sl.FullSpace(1), 1e-2, 100, 1)

    def test_brownian_interval_within_noise(self):
        res = sl.dynkin_residual(
            BM1, [0.0], GaussianBump(1.0), 0.5, sl.Interval(-1, 1), 1e-3, 40_000, 2
        )
        assert abs(res.residual) <= 3.0 * res.stderr
        assert res.boundary_term > 0.01  # the split is not vacuous at t=0.5

    def test_cauchy_interval_within_noise(self):
        res = sl.dynkin_residual(
            CAUCHY, [0.0], CauchyBump(1.0), 0.5, sl.Interval(-1, 1), 1e-3, 40_000, 3
        )
        assert abs(res.residual) <= 3.0 * res.stderr
        assert res.boundary_term > 0.05

    def test_short_time_boundary_vanishes(self):
        res = sl.dynkin_residual(
            BM1, [0.0], GaussianBump(1.0), 1e-3, sl.Interval(-1, 1), 1e-4, 5_000, 4
        )
        assert res.boundary_term < 1e-4

    def test_unsupported_configurations(self):
        with pytest.raises(sl.UnsupportedConfiguration):
            sl.dynkin_residual(
                sl.ProcessSpec(alpha=1.5, dim=1), [0.0], GaussianBump(), 0.5,
                sl.Interval(-1, 1), 1e-3, 100, 5,
            )
        with pytest.raises(sl.UnsupportedConfiguration):
            sl.dynkin_residual(
                sl.ProcessSpec(alpha=2.0, dim=2), [0.0, 0.0], GaussianBump(), 0.5,
                sl.Ball((0.0, 0.0), 1.0), 1e-3, 100, 6,
            )
        with pytest.raises(ValueError, match="inside"):
            sl.dynkin_residual(BM1, [2.0], GaussianBump(), 0.5, sl.Interval(-1, 1), 1e-3, 100, 7)


class TestBoundaryOperator:
    def test_conservative_norm_near_boundary_reflection_oracle(self):
        # P_x(tau <= t) for x close to the edge: one-sided reflection value,
        # the far boundary adds only exp(-2 * 3.8^2 / t) ~ 0
        level = sl.Interval(-2.0, 2.0)
        probe = 1.9
        t = 0.5
        norm, table = sl.estimate_T_norm(BM1, level, t, [[probe]], 1e-4, 40_000, 8)
        oracle = brownian_one_sided_exit_prob(2.0 - probe, t)
        assert abs(norm - oracle) < 0.01
        assert norm > 0.8  # close to 1 near the boundary

    def test_brownian_level_exits_between_grid_points(self):
        # At h = 1e-3 a path 0.1 from the edge often crosses and comes back
        # between grid points: grid-only detection of the level's exit would
        # read 0.870 here (z = -10); the bridge rule must catch those exits.
        t = 0.5
        norm, table = sl.estimate_T_norm(BM1, sl.Interval(-2.0, 2.0), t, [[1.9]], 1e-3, 40_000, 8)
        oracle = brownian_one_sided_exit_prob(0.1, t)
        assert abs(norm - oracle) < 4.0 * table.sup_stderr

    def test_constant_one_attains_sup(self):
        # positive kernel: |T f| <= T 1 for every |f| <= 1, on shared paths
        level = sl.Interval(-1.0, 1.0)
        batch = sl.sample_path_batch(BM1, [0.0], 1.0, 1e-3, 4_000, seed=9)
        pos = batch.positions
        n_cap = pos.shape[1] - 1
        inside = level.contains(pos.reshape(-1, 1)).reshape(pos.shape[0], -1)
        exited = ~inside.all(axis=1)
        end = pos[:, -1, 0]
        t_one = (1.0 * exited).mean()
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b, c = rng.uniform(-1, 1, 3)
            f_end = np.clip(a * np.sin(3 * b * end) + c * np.cos(2 * end), -1, 1)
            assert abs((f_end * exited).mean()) <= t_one + 1e-12

    def test_boundary_term_monotone_in_level(self):
        probes = [[-1.0], [0.0], [1.0]]
        sups = []
        for radius in (2.0, 3.0, 4.0):
            tab = sl.boundary_term(
                BM1, sl.Interval(-radius, radius), 1.0, probes, 1e-3, 20_000, 11
            )
            sups.append((tab.means, tab.stderrs))
        for (m_small, s_small), (m_big, s_big) in zip(sups[:-1], sups[1:]):
            # nonincreasing in the level, within 3 combined stderr
            slack = 3.0 * np.sqrt(s_small**2 + s_big**2)
            assert np.all(m_big <= m_small + slack)

    def test_boundary_term_vanishes_on_compacts(self):
        tab = sl.boundary_term(BM1, sl.Interval(-6.0, 6.0), 0.5, [[0.0]], 1e-3, 20_000, 12)
        assert tab.sup < 1e-3

    @pytest.mark.parametrize("spec", [BM1, CAUCHY], ids=["alpha2", "alpha1"])
    def test_conservative_boundary_term_is_the_exit_probability(self, spec):
        # without a potential T_{n,t} 1 = P(tau_n <= t), and a path stops at
        # its exit, so the boundary run and the survival run share every draw
        level = sl.Interval(-1.0, 1.0)
        tab = sl.boundary_term(spec, level, 0.5, [[0.3]], 1e-3, 4_000, 33)
        surv = sl.estimate_survival(spec, [0.3], level, 0.5, 1e-3, 4_000, 33)
        assert tab.means[0] == pytest.approx(1.0 - surv.mean, abs=1e-12)

    def test_empty_probe_grid_rejected(self):
        with pytest.raises(ValueError, match="probe"):
            sl.estimate_T_norm(BM1, sl.Interval(-1, 1), 1.0, np.empty((0, 1)), 1e-3, 100, 13)

    @pytest.mark.parametrize("call", [
        lambda e: sl.exit_time_scan(BM1, e, sl.Interval(-1, 1), 1.0, 1e-2, 10, 1),
        lambda e: sl.exit_time_scan(BM1, e, sl.FullSpace(1), 1.0, 1e-2, 10, 1),
        lambda e: sl.boundary_term(BM1, sl.Interval(-1, 1), 1.0, e, 1e-2, 10, 1),
        lambda e: sl.estimate_T_norm(BM1, sl.Interval(-1, 1), 1.0, e, 1e-2, 10, 1),
        lambda e: sl.t_norm_bound_check(BM1, sl.KillingPotential.constant(1.0),
                                        sl.Interval(-2, 2), e, [[3.0]], 1.0, 1e-2, 10, 1),
        lambda e: sl.t_norm_bound_check(BM1, sl.KillingPotential.constant(1.0),
                                        sl.Interval(-2, 2), [[0.0]], e, 1.0, 1e-2, 10, 1),
    ], ids=["scan", "scan-fullspace", "boundary", "T-norm", "inner", "outer"])
    def test_empty_start_grid_refused_before_any_draw(self, monkeypatch, call):
        import stablelab.functionals as functionals
        import stablelab.identities as identities

        def engine(*args, **kwargs):
            raise AssertionError("the path engine ran")

        monkeypatch.setattr(functionals, "_fk_engine", engine)
        monkeypatch.setattr(identities, "_fk_engine", engine)
        with pytest.raises(ValueError, match="grid of starts .* is empty"):
            call(np.empty((0, 1)))


class TestTNormBound:
    def test_unit_potential_bound_is_loose(self):
        # V == 1: E[zeta] = 1, so the tail part alone is 4/t = 4 >= rhs,
        # while the boundary operator of a sub-Markov process has norm <= 1
        pot = sl.KillingPotential.constant(1.0)
        bound = sl.t_norm_bound_check(
            BM1, pot, sl.Interval(-4, 4), [[-1.0], [0.0], [1.0]],
            [[-5.0], [5.0]], 1.0, 2e-3, 2_000, 14, zeta_t_max=10.0,
        )
        assert bound.passed
        assert bound.lhs <= 1.0 + 3 * bound.lhs_stderr
        assert bound.rhs >= 4.0 * 0.9

    def test_killed_stable_configuration_passes(self):
        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
        inner = np.linspace(-3, 3, 7)[:, None]
        outer = np.array([[-4.0], [-3.3], [3.3], [4.0]])
        bound = sl.t_norm_bound_check(
            CAUCHY, pot, sl.Interval(-6, 6), inner, outer, 1.0, 2e-3, 2_000, 15
        )
        assert bound.passed
        assert bound.lhs < 0.01 < bound.rhs

    def test_tail_part_decreases_with_compact_radius(self):
        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
        tails = []
        for r_m in (1.5, 2.5, 3.5):
            outer = np.array([[-r_m * 1.05], [r_m * 1.05], [r_m * 1.5]])
            bound = sl.t_norm_bound_check(
                CAUCHY, pot, sl.Interval(-6, 6), [[0.0]], outer, 1.0, 2e-3, 1_500, 16
            )
            tails.append(bound.tail_part)
        assert tails[0] > tails[1] > tails[2]

    def test_constant_potential_tail_part_closed_form(self):
        # V == c makes every weight exp(-c s): the quadrature to T is the
        # geometric sum h (1 - e^{-cT}) / (1 - e^{-ch}), the tail bound adds
        # e^{-cT} / (1 - p_hat) with p_hat = e^{-c}
        c, t, h, big_t = 0.7, 0.5, 1e-2, 3.0
        bound = sl.t_norm_bound_check(
            BM1, sl.KillingPotential.constant(c), sl.Interval(-3, 3), [[0.0]],
            [[-4.0], [4.0], [5.0]], t, h, 50, 31, zeta_t_max=big_t,
        )
        q = math.exp(-c * big_t)
        exact = (4.0 / t) * (h * (1.0 - q) / (1.0 - math.exp(-c * h)) + q / (1.0 - math.exp(-c)))
        assert bound.tail_part == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("n_outer", [1, 10])
    def test_two_engine_runs_per_check(self, monkeypatch, n_outer):
        from stablelab import functionals, identities

        calls = []
        engine = functionals._fk_engine

        def counted(*args, **kwargs):
            calls.append(np.asarray(args[1]).shape[0])
            return engine(*args, **kwargs)

        monkeypatch.setattr(functionals, "_fk_engine", counted)
        monkeypatch.setattr(identities, "_fk_engine", counted)
        outer = np.linspace(3.5, 6.0, n_outer)[:, None]
        sl.t_norm_bound_check(
            CAUCHY, sl.KillingPotential.power(1.0, 2.0, offset=1.0), sl.Interval(-6, 6),
            [[0.0], [1.0]], outer, 1.0, 1e-2, 20, 32, zeta_t_max=1.0,
        )
        # the boundary run over inner + outer probes, the lifetime run over
        # outer probes plus the origin
        assert calls == [2 + n_outer, n_outer + 1]

    def test_joint_lifetimes_match_separate_estimates(self):
        from stablelab.functionals import _killed_lifetimes

        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
        outer = np.array([[-4.0], [-3.3], [3.3], [4.0]])
        zeta, tails, p_hat = _killed_lifetimes(CAUCHY, outer, pot, 2e-3, 2_000, 33, 6.0, 1)
        assert zeta.shape == (4, 2_000) and 0.0 < p_hat < 1.0
        joint = zeta.mean(axis=1) + tails
        joint_se = zeta.std(axis=1) / math.sqrt(zeta.shape[1])
        for x, m, se in zip(outer, joint, joint_se):
            r = sl.estimate_killed_lifetime_mean(CAUCHY, x, pot, 2e-3, 2_000, 34, t_max=6.0)
            assert abs(m - r.tail_corrected_mean) <= 4.0 * math.hypot(se, r.stderr)

    def test_conservative_rejected(self):
        with pytest.raises(sl.UnsupportedConfiguration, match="conservative"):
            sl.t_norm_bound_check(
                BM1, sl.KillingPotential.none(), sl.Interval(-2, 2),
                [[0.0]], [[3.0]], 1.0, 1e-2, 100, 17,
            )


class TestSubprocessCommute:
    def test_identity_at_float_scale(self):
        batch = sl.sample_path_batch(BM1, [0.0], 1.0, 1e-3, 5_000, seed=18)
        for t in (0.25, 0.5, 1.0):
            dev = sl.subprocess_commute_check(batch, sl.Interval(-1, 1), t, lambda x: np.ones(len(x)))
            assert dev <= 1e-12

    def test_with_killing_weights(self):
        batch = sl.sample_path_batch(CAUCHY, [0.0], 1.0, 1e-3, 5_000, seed=19)
        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
        dev = sl.subprocess_commute_check(
            batch, sl.Interval(-2, 2), 1.0, lambda x: np.exp(-x**2), potential=pot
        )
        assert dev <= 1e-12

    def test_horizon_guard(self):
        batch = sl.sample_path_batch(BM1, [0.0], 0.5, 1e-2, 100, seed=20)
        with pytest.raises(ValueError, match="horizon"):
            sl.subprocess_commute_check(batch, sl.Interval(-1, 1), 1.0, lambda x: x)
