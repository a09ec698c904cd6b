"""Matrix-side tests: discrete eigenvalue oracles, sub-Markov invariants,
compactness diagnostics and the weight-exponent transition."""

import math

import numpy as np
import pytest
import scipy.linalg

import stablelab as sl

PI = math.pi


def _interval_gen(a, b, delta):
    return sl.dirichlet_laplacian(sl.Grid1D(a, b, delta))


class TestDirichletLaplacian:
    def test_sine_eigenvalue_oracle(self):
        # classical: lambda_k of -(1/2)Delta on (0, pi) is k^2/2; the
        # discrete counterpart is (1/delta^2)(1 - cos(k pi /(n+1)))
        delta = PI / 400
        gen = _interval_gen(0.0, PI, delta)
        n = gen.n
        ks = np.arange(1, 5)
        discrete = (1.0 / delta**2) * (1.0 - np.cos(ks * PI / (n + 1)))
        assert np.allclose(gen.eigenvalues[:4], discrete, rtol=1e-10)
        assert abs(gen.eigenvalues[0] - 0.5) < 1e-5

    def test_second_order_convergence(self):
        errs = []
        for delta in (PI / 100, PI / 200):
            gen = _interval_gen(0.0, PI, delta)
            errs.append(abs(gen.eigenvalues[0] - 0.5))
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_disjoint_intervals_block_spectrum(self):
        # the spectrum of a masked generator is the union of the spectra of
        # its grid-adjacency components (block-diagonal decomposition)
        delta = 0.05
        grid = sl.Grid1D(-3.0, 3.0, delta)
        union = sl.UnionOfIntervals([[-3.0, -1.0], [1.0, 3.0]])
        gen = sl.dirichlet_laplacian(grid, union)
        breaks = np.nonzero(np.diff(gen.points) > 1.5 * delta)[0]
        blocks = np.split(np.arange(gen.n), breaks + 1)
        assert len(blocks) == 2
        parts = []
        for idx in blocks:
            sub = sl.GeneratorMatrix(
                points=gen.points[idx], delta=delta,
                matrix=gen.matrix[np.ix_(idx, idx)], weight=gen.weight[idx],
            )
            parts.append(sub.eigenvalues)
        merged = np.sort(np.concatenate(parts))
        assert np.allclose(gen.eigenvalues, merged, atol=1e-9)

    def test_ground_state_positive(self):
        gen = _interval_gen(0.0, 1.0, 0.01)
        phi = gen.eigenfunction(0)
        assert phi.min() >= -1e-12

    def test_too_few_points_rejected(self):
        grid = sl.Grid1D(0.0, 1.0, 0.01)
        tiny = sl.UnionOfIntervals([[0.5, 0.52]])
        with pytest.raises(ValueError, match="3"):
            sl.dirichlet_laplacian(grid, tiny)


class TestFractionalPower:
    def test_alpha_two_recovers_full_laplacian(self):
        gen = _interval_gen(0.0, 2.0, 0.02)
        full = sl.fractional_power(gen, 2.0)
        assert np.allclose(full.matrix, 2.0 * gen.matrix, atol=1e-9)

    def test_eigenvalues_map_monotonically(self):
        gen = _interval_gen(0.0, 2.0, 0.02)
        frac = sl.fractional_power(gen, 1.2)
        assert np.allclose(frac.eigenvalues, (2.0 * gen.eigenvalues) ** 0.6, atol=1e-9)
        assert np.all(np.diff(frac.eigenvalues) > 0.0)

    def test_boundary_interval_half_laplacian_integer_limit(self):
        # on (0, pi) at alpha = 1: k-th eigenvalue tends to k
        gen = _interval_gen(0.0, PI, PI / 400)
        frac = sl.fractional_power(gen, 1.0)
        assert np.allclose(frac.eigenvalues[:4], [1, 2, 3, 4], atol=0.01)

    def test_alpha_validation(self):
        gen = _interval_gen(0.0, 1.0, 0.02)
        with pytest.raises(ValueError):
            sl.fractional_power(gen, 2.5)


def _count_solver_calls(monkeypatch):
    calls = {"tridiagonal": 0, "dense": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal",
                        counted("tridiagonal", scipy.linalg.eigh_tridiagonal))
    monkeypatch.setattr(np.linalg, "eigh", counted("dense", np.linalg.eigh))
    return calls


class TestTridiagonalPath:
    # Weights are 1 here, so -L itself is the symmetric matrix to diagonalize;
    # the references below use numpy's dense solver on it directly.
    @pytest.mark.parametrize("split", [False, True])
    def test_matches_dense_solver(self, monkeypatch, split):
        gen = sl.killed_generator(_interval_gen(-8.0, 8.0, 0.05),
                                  sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        if split:
            # non-contiguous union: the gap's couplings are zero, so the
            # part generator splits into two blocks
            gen, _ = sl.part_generator(gen, sl.UnionOfIntervals([[-6.0, -1.0], [0.5, 5.0]]))
            assert np.count_nonzero(np.diagonal(gen.matrix, 1)) < gen.n - 1
        calls = _count_solver_calls(monkeypatch)
        lam = gen.eigenvalues
        assert calls == {"tridiagonal": 1, "dense": 0}
        lam_ref, psi_ref = np.linalg.eigh(-gen.matrix)
        assert np.all(np.abs(lam - lam_ref) <= 1e-12 * np.abs(lam_ref))
        t = 0.5
        p_ref = (psi_ref * np.exp(-lam_ref * t)) @ psi_ref.T
        assert np.abs(sl.semigroup_matrix(gen, t) - p_ref).max() <= 1e-14
        phi = gen.eigenfunction(0)
        assert phi.min() >= 0.0 and phi.max() > 0.0

    def test_dense_generator_keeps_dense_solver(self, monkeypatch):
        frac = sl.fractional_power(_interval_gen(-4.0, 4.0, 0.05), 1.0)
        calls = _count_solver_calls(monkeypatch)
        lam = frac.eigenvalues
        assert calls == {"tridiagonal": 0, "dense": 1}
        sym = -(frac.matrix + frac.matrix.T) / 2.0
        lam_ref = np.linalg.eigvalsh(sym)
        assert np.allclose(lam, lam_ref, rtol=1e-12, atol=0.0)


class TestWeightedGenerator:
    def test_unit_weight_reduces_to_fractional(self):
        gen = _interval_gen(-2.0, 2.0, 0.02)
        frac = sl.fractional_power(gen, 1.0)
        weighted = sl.weighted_generator(gen, lambda p: np.ones(len(p)), 1.0)
        assert np.allclose(weighted.matrix, frac.matrix, atol=1e-12)
        assert np.allclose(weighted.weight, 1.0)

    def test_similarity_spectrum(self):
        gen = _interval_gen(-2.0, 2.0, 0.05)
        w = sl.TimeChangeWeight(beta=2.0)
        weighted = sl.weighted_generator(gen, w, 1.0)
        frac = -sl.fractional_power(gen, 1.0).matrix
        wv = w(gen.points[:, None])
        sym = np.sqrt(wv)[:, None] * frac * np.sqrt(wv)[None, :]
        direct = np.linalg.eigvalsh((sym + sym.T) / 2.0)
        assert np.allclose(weighted.eigenvalues, direct, atol=1e-9)

    def test_weight_below_one_rejected(self):
        gen = _interval_gen(-2.0, 2.0, 0.05)
        with pytest.raises(ValueError, match=">= 1"):
            sl.weighted_generator(gen, lambda p: np.full(len(p), 0.5), 1.0)

    def test_weighted_gap_closed_form(self):
        # alpha=1, W = 1 + x^2: W (-Delta)^(1/2) maps x/(1+x^2) to
        # 2 x/(1+x^2), an exact continuum eigenvalue; the truncated matrix
        # gap converges to it
        study = sl.weighted_transition_study(1.0, [2.0], (20.0, 40.0), 0.1)
        gaps = study["gap"][2.0]
        assert abs(gaps[-1] - 2.0) < 0.02
        rel = abs(gaps[1] - gaps[0]) / gaps[0]
        assert rel < 0.02

    def test_transition_both_regimes(self):
        study = sl.weighted_transition_study(1.0, [2.0, 0.5], (10.0, 20.0, 40.0), 0.1)
        stab = study["gap"][2.0]
        dec = study["gap"][0.5]
        assert abs(stab[-1] - stab[-2]) / stab[-2] < 0.01
        assert (dec[-2] - dec[-1]) / dec[-2] > 0.20
        assert all(a > b for a, b in zip(dec[:-1], dec[1:]))

    @pytest.mark.parametrize("n_eigs", [2, 4])
    def test_study_matches_full_spectrum(self, n_eigs):
        radii, delta = (10.0, 20.0), 0.1
        study = sl.weighted_transition_study(1.0, [2.0, 0.5], radii, delta, n_eigs=n_eigs)
        for b in (2.0, 0.5):
            for r, lam in zip(radii, study["eigenvalues"][b]):
                base = _interval_gen(-r, r, delta)
                gen = sl.weighted_generator(base, sl.TimeChangeWeight(beta=b), 1.0)
                full = gen.eigenvalues[:n_eigs]
                assert len(lam) == n_eigs
                assert np.all(np.abs(np.array(lam) - full) <= 1e-10 * full)

    def test_study_n_eigs_range(self):
        radii, delta = (2.0, 1.0), 0.25
        n = sl.Grid1D.symmetric(1.0, delta).n
        study = sl.weighted_transition_study(1.0, [2.0], radii, delta, n_eigs=n)
        assert [len(v) for v in study["eigenvalues"][2.0]] == [n, n]
        for bad in (1, n + 1):
            with pytest.raises(ValueError, match="n_eigs"):
                sl.weighted_transition_study(1.0, [2.0], radii, delta, n_eigs=bad)

    def test_alpha_two_transition_trend(self):
        # for alpha = 2 discreteness needs beta > 2; at beta = 3 the gap's
        # truncation error still shrinks as R doubles (slow convergence),
        # while at beta = 0.5 the gap collapses
        study = sl.weighted_transition_study(2.0, [3.0, 0.5], (10.0, 20.0, 40.0), 0.05)
        g3 = study["gap"][3.0]
        rel_early = abs(g3[1] - g3[0]) / g3[0]
        rel_late = abs(g3[2] - g3[1]) / g3[1]
        assert rel_late < rel_early
        g05 = study["gap"][0.5]
        assert (g05[-2] - g05[-1]) / g05[-2] > 0.20


class TestSemigroup:
    def setup_method(self):
        base = _interval_gen(-6.0, 6.0, 0.02)
        self.kill = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0, offset=1.0))

    def test_time_zero_identity(self):
        p0 = sl.semigroup_matrix(self.kill, 0.0)
        assert np.allclose(p0, np.eye(self.kill.n), atol=1e-10)

    def test_submarkov_and_positivity(self):
        p = sl.semigroup_matrix(self.kill, 0.5)
        assert p.min() >= -1e-12
        assert p.sum(axis=1).max() <= 1.0 + 1e-10

    def test_semigroup_law(self):
        p1 = sl.semigroup_matrix(self.kill, 0.3)
        p2 = sl.semigroup_matrix(self.kill, 0.7)
        p3 = sl.semigroup_matrix(self.kill, 1.0)
        assert np.abs(p1 @ p2 - p3).max() < 1e-10

    def test_weighted_self_adjointness(self):
        base = _interval_gen(-4.0, 4.0, 0.05)
        gen = sl.weighted_generator(base, sl.TimeChangeWeight(beta=2.0), 1.0)
        p = sl.semigroup_matrix(gen, 0.5)
        flow = gen.weight[:, None] * p
        assert np.abs(flow - flow.T).max() < 1e-10

    def test_harmonic_oscillator_bottom_eigenvalue(self):
        # -(1/2) d^2/dx^2 + (1 + x^2): ground energy 1 + sqrt(2)/2
        assert self.kill.eigenvalues[0] == pytest.approx(1.0 + math.sqrt(2) / 2, abs=1e-3)


class TestHeatTrace:
    def test_ground_state_domination_large_t(self):
        gen = _interval_gen(0.0, PI, PI / 200)
        t = 8.0
        assert sl.heat_trace(gen, t) == pytest.approx(math.exp(-gen.eigenvalues[0] * t), rel=1e-5)

    def test_strictly_decreasing(self):
        gen = _interval_gen(0.0, 2.0, 0.02)
        ts = np.array([0.01, 0.05, 0.1, 0.5, 1.0])
        tr = sl.heat_trace(gen, ts)
        assert np.all(np.diff(tr) < 0.0)

    def test_union_trace_matches_masked_matrix(self):
        # block-diagonal decomposition: per-interval traces on matching
        # grids equal the full masked-generator trace (the mask is built
        # with an endpoint tolerance so float drift cannot leak a boundary
        # point into the open set)
        delta = 0.05
        union = sl.UnionOfIntervals([[1.0, 2.0], [3.0, 3.8]])
        by_blocks = sl.union_interval_trace(union, delta, 0.05)
        grid = sl.Grid1D(0.0, 4.0, delta)
        pts = grid.points
        mask = np.zeros(pts.size, dtype=bool)
        for a, b in union.segments:
            mask |= (pts > a + 1e-9) & (pts < b - 1e-9)
        full = sl.dirichlet_laplacian(grid, mask)
        assert by_blocks == pytest.approx(sl.heat_trace(full, 0.05), rel=1e-8)

    def test_union_trace_rejects_overlap(self):
        union = sl.UnionOfIntervals([[0.0, 1.0], [0.5, 2.0]])
        with pytest.raises(ValueError, match="overlap"):
            sl.union_interval_trace(union, 0.05, 0.1)

    def test_shrinking_intervals_growth_with_count(self):
        t = 0.01
        tr = [
            sl.union_interval_trace(sl.disjoint_shrinking_intervals(n), 0.02, t)
            for n in (4, 8, 16)
        ]
        assert tr[0] < tr[1] < tr[2]


class TestCompactnessDiagnostic:
    def test_killed_generator_collapses(self):
        base = _interval_gen(-8.0, 8.0, 0.02)
        kill = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        levels = [sl.Interval(-r, r) for r in (2.0, 3.0, 4.0, 5.0, 6.0)]
        norms = sl.compactness_diagnostic(kill, levels, 1.0)
        assert np.all(np.diff(norms) < 0.0)
        assert norms[-1] < 0.01

    def test_conservative_control_stalls(self):
        base = _interval_gen(-8.0, 8.0, 0.02)
        levels = [sl.Interval(-r, r) for r in (2.0, 3.0, 4.0, 5.0, 6.0)]
        norms = sl.compactness_diagnostic(base, levels, 1.0)
        assert np.all(norms >= 0.9)

    def test_top_level_exact_zero(self):
        base = _interval_gen(-2.0, 2.0, 0.05)
        norms = sl.compactness_diagnostic(base, [sl.Interval(-1, 1), np.ones(base.n, bool)], 0.5)
        assert norms[-1] == 0.0

    def test_norm_equals_difference_operator_norm(self):
        # ||P - P^n|| is literally the sup-norm of the boundary operator
        # T = P - P^n in finite dimensions
        base = _interval_gen(-3.0, 3.0, 0.05)
        level = sl.Interval(-1.5, 1.5)
        norms = sl.compactness_diagnostic(base, [level], 0.5)
        sub, idx = sl.part_generator(base, level)
        diff = sl.semigroup_matrix(base, 0.5)
        diff[np.ix_(idx, idx)] -= sl.semigroup_matrix(sub, 0.5)
        assert norms[0] == np.abs(diff).sum(axis=1).max()

    @pytest.mark.parametrize("kind", ["killed", "conservative", "fractional", "weighted"])
    def test_row_sums_match_dense_definition_on_unions(self, kind):
        # the dense definition max_i sum_j |P_t - P_t^n|_ij, on levels that
        # are split unions
        base = _interval_gen(-5.0, 5.0, 0.05)
        gen = {
            "killed": lambda: sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0)),
            "conservative": lambda: base,
            "fractional": lambda: sl.fractional_power(base, 1.0),
            "weighted": lambda: sl.weighted_generator(base, sl.TimeChangeWeight(beta=2.0), 1.0),
        }[kind]()
        levels = [
            sl.UnionOfIntervals([[-3.0, -1.5], [1.0, 2.5]]),
            sl.UnionOfIntervals([[-3.5, -0.5], [0.5, 3.0]]),
            sl.UnionOfIntervals([[-4.5, -0.2], [0.2, 4.0]]),
            sl.Interval(-4.6, 4.6),
        ]
        t = 0.5
        norms = sl.compactness_diagnostic(gen, levels, t)
        p = sl.semigroup_matrix(gen, t)
        for norm, level in zip(norms, levels):
            sub, idx = sl.part_generator(gen, level)
            diff = p.copy()
            diff[np.ix_(idx, idx)] -= sl.semigroup_matrix(sub, t)
            assert abs(norm - np.abs(diff).sum(axis=1).max()) <= 1e-13

    def test_negative_coupling_rejected(self):
        # not a Markov generator: P_t^n <= P_t fails, so row sums no longer
        # give the norm
        gen = _interval_gen(-2.0, 2.0, 0.1)
        matrix = gen.matrix.copy()
        matrix[3, 7] = matrix[7, 3] = -1.0
        bad = sl.GeneratorMatrix(points=gen.points, delta=gen.delta, matrix=matrix,
                                 weight=gen.weight)
        with pytest.raises(ValueError, match="negative off-diagonal"):
            sl.compactness_diagnostic(bad, [sl.Interval(-1.0, 1.0)], 0.5)

    def test_non_nested_levels_rejected(self):
        base = _interval_gen(-3.0, 3.0, 0.05)
        with pytest.raises(ValueError, match="nested"):
            sl.compactness_diagnostic(base, [sl.Interval(-2, 2), sl.Interval(-1, 1)], 0.5)

    def test_part_process_domination(self):
        base = _interval_gen(-3.0, 3.0, 0.05)
        small, idx_s = sl.part_generator(base, sl.Interval(-1.0, 1.0))
        big, idx_b = sl.part_generator(base, sl.Interval(-2.0, 2.0))
        t = 0.4
        p = sl.semigroup_matrix(base, t)
        p_small = np.zeros_like(p)
        p_small[np.ix_(idx_s, idx_s)] = sl.semigroup_matrix(small, t)
        p_big = np.zeros_like(p)
        p_big[np.ix_(idx_b, idx_b)] = sl.semigroup_matrix(big, t)
        assert np.all(p_small <= p_big + 1e-12)
        assert np.all(p_big <= p + 1e-12)


class TestLpRates:
    def test_exact_duality(self):
        base = _interval_gen(-4.0, 4.0, 0.05)
        gen = sl.weighted_generator(base, sl.TimeChangeWeight(beta=2.0), 1.0)
        rates = sl.lp_spectral_bound_compare(gen, [1.0, 2.0, 4.0])
        assert rates.rates_1 == rates.rates_inf

    def test_killed_generator_rate_gap(self):
        base = _interval_gen(-12.0, 12.0, 0.02)
        kill = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        rates = sl.lp_spectral_bound_compare(kill, [4.0, 8.0])
        lam1 = rates.rate_at(1, 8.0)
        lam2 = rates.rate_at(2, 8.0)
        assert abs(lam1 - lam2) / lam2 < 0.05
        assert rates.extrapolated("inf") == pytest.approx(lam2, rel=1e-3)

    def test_conservative_rates_vanish(self):
        base = _interval_gen(-12.0, 12.0, 0.02)
        rates = sl.lp_spectral_bound_compare(base, [2.0, 4.0])
        assert rates.rate_at("inf", 4.0) < 1e-6
        assert rates.rate_at(2, 4.0) > 0.0  # truncation gap, tiny but positive


def test_generator_validation():
    with pytest.raises(ValueError, match="grid"):
        sl.Grid1D(0.0, 0.01, 0.02)
    base = _interval_gen(0.0, 1.0, 0.05)
    with pytest.raises(ValueError, match="shape"):
        sl.GeneratorMatrix(points=base.points, delta=0.05, matrix=np.eye(3), weight=np.ones(3))
    with pytest.raises(ValueError, match="capped"):
        sl.dirichlet_laplacian(sl.Grid1D(0.0, 500.0, 0.05))
    assert base.validate_symmetry() == 0.0
