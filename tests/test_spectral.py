"""Matrix-side tests: discrete eigenvalue oracles, sub-Markov invariants,
compactness diagnostics and the weight-exponent transition."""

import math

import numpy as np
import pytest
import scipy.linalg

import stablelab as sl
from stablelab.closedform import brownian_quadratic_survival

PI = math.pi


def _interval_gen(a, b, delta):
    return sl.dirichlet_laplacian(sl.Grid1D(a, b, delta))


def _full_pairs(gen):
    """Every eigenpair of -L symmetrized, as the generator's form keeps them."""
    return gen._form.pairs(np.sqrt(gen.weight), gen.n)


def _solved(gen):
    """Whether the generator's form holds its full eigendecomposition."""
    return gen._form._eig is not None


def _extended_gaps(gen, levels, t):
    """max_i (P_t 1 - P_t^n 1)_i in np.longdouble for a tridiagonal generator,
    the reference for the uniformized diagnostic.  Each exp(t L_U) 1_U is a
    scaled Taylor series, (exp(t L_U / s))^s with ||t L_U / s|| <= 1, L_U
    applied by L's bands and masked to the level U (U = everything for P_t)."""
    assert np.finfo(np.longdouble).eps < 1e-18
    m = gen.matrix.astype(np.longdouble)
    d, up, lo = np.diagonal(m), np.diagonal(m, 1), np.diagonal(m, -1)
    keep = np.array([np.ones(gen.n, bool)]
                    + [lv.contains(gen.points[:, None]) for lv in levels]).astype(np.longdouble)
    steps = math.ceil(t * float(np.abs(gen.matrix).sum(axis=1).max()))
    h = np.longdouble(t) / steps
    v = keep.copy()
    for _ in range(steps):
        term, total = v, v.copy()
        for j in range(1, 60):
            nxt = d * term
            nxt[:, :-1] += up * term[:, 1:]
            nxt[:, 1:] += lo * term[:, :-1]
            term = nxt * keep * (h / j)
            total += term
            if np.abs(term).max() < 1e-24:
                break
        v = total
    return np.array([float((v[0] - part).max()) for part in v[1:]])


def _sturm_eigenvalue(d, e2, k, lo, hi):
    """The k-th smallest eigenvalue (from 0) of the symmetric tridiagonal
    matrix with diagonal d and squared off-diagonal e2, both np.longdouble:
    Sturm counts of the pivots below 0, bisected in [lo, hi] to the last bit.
    A pivot smaller than pivmin = tiny max(1, max e2) counts as -pivmin, as in
    LAPACK's xSTEBZ, so no quotient e2 / pivot overflows."""
    pivmin = np.finfo(np.longdouble).tiny * max(np.longdouble(1), e2.max())

    def below(x):
        count, q = 0, d[0] - x
        for di, ei in zip(d[1:], e2):
            count += q < pivmin
            q = di - x - ei / (q if abs(q) >= pivmin else -pivmin)
        return count + (q < pivmin)

    lo, hi = np.longdouble(lo), np.longdouble(hi)
    assert below(lo) <= k < below(hi)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (lo, mid) if below(mid) > k else (mid, hi)
    return mid


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
        gen, _ = sl.part_generator(sl.dirichlet_laplacian(grid), union)
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

    def test_too_few_points_rejected(self):
        grid = sl.Grid1D(0.0, 1.0, 0.01)
        tiny = sl.UnionOfIntervals([[0.5, 0.52]])
        with pytest.raises(ValueError, match="3"):
            sl.part_generator(sl.dirichlet_laplacian(grid), tiny)


class TestFractionalPower:
    def test_alpha_two_recovers_full_laplacian(self):
        # alpha = 2 is Brownian motion, generator (1/2)Delta, on the matrix
        # side too: the tridiagonal Laplacian itself, routed as tridiagonal
        grid = sl.Grid1D(0.0, 2.0, 0.02)
        gen = sl.dirichlet_laplacian(grid)
        full = sl.fractional_power(grid, 2.0)
        assert np.array_equal(full.matrix, gen.matrix)
        assert isinstance(full._form, sl.spectral._Bands)

    def test_eigenvalues_map_monotonically(self):
        grid = sl.Grid1D(0.0, 2.0, 0.02)
        gen = sl.dirichlet_laplacian(grid)
        frac = sl.fractional_power(grid, 1.2)
        assert np.allclose(frac.eigenvalues, (2.0 * gen.eigenvalues) ** 0.6, atol=1e-9)
        assert np.all(np.diff(frac.eigenvalues) > 0.0)

    def test_boundary_interval_half_laplacian_integer_limit(self):
        # on (0, pi) at alpha = 1: k-th eigenvalue tends to k
        frac = sl.fractional_power(sl.Grid1D(0.0, PI, PI / 400), 1.0)
        assert np.allclose(frac.eigenvalues[:4], [1, 2, 3, 4], atol=0.01)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            sl.fractional_power(sl.Grid1D(0.0, 1.0, 0.02), 2.5)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_closed_form_matches_eigensolver_product(self, monkeypatch, alpha):
        grid = sl.Grid1D(-20.0, 20.0, 0.1)
        gen = sl.dirichlet_laplacian(grid)
        lam, psi = scipy.linalg.eigh_tridiagonal(np.diagonal(-gen.matrix),
                                                 np.diagonal(-gen.matrix, 1))
        ref = (psi * (lam if alpha == 2.0 else (2.0 * lam) ** (alpha / 2.0))) @ psi.T
        calls = _count_solver_calls(monkeypatch)
        a = -sl.fractional_power(grid, alpha).matrix
        assert calls == {"tridiagonal": 0, "dense": 0}
        assert np.abs(a - ref).max() <= 1e-12 * np.abs(a).max()
        assert np.array_equal(a, a.T)

    def test_generator_matrix_refused(self, monkeypatch):
        # the power is of a grid's Laplacian, so the grid is the argument; a
        # generator has points and a spacing too, and would otherwise be read
        # as the unkilled, unrestricted Laplacian of its points
        grid = sl.Grid1D(-4.0, 4.0, 0.1)
        base = sl.dirichlet_laplacian(grid)
        gens = [base, sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0)),
                sl.part_generator(base, sl.UnionOfIntervals([[-4.0, -1.0], [1.0, 4.0]]))[0]]
        calls = _count_solver_calls(monkeypatch)
        for gen in gens:
            with pytest.raises(TypeError, match="Grid1D"):
                sl.fractional_power(gen, 1.0)
            with pytest.raises(TypeError, match="Grid1D"):
                sl.weighted_generator(gen, sl.TimeChangeWeight(beta=2.0), 1.0)
            with pytest.raises(TypeError, match="Grid1D"):
                sl.dirichlet_laplacian(gen)
        assert calls == {"tridiagonal": 0, "dense": 0}


def _line_grid(n):
    """A grid of exactly n points at unit spacing."""
    grid = sl.Grid1D(0.0, n + 1.0, 1.0)
    assert grid.n == n
    return grid


class TestStatedPower:
    # below alpha = 2 a power is stated by its cosine coefficients c and its
    # spectrum mu; the dense matrix is built only when read

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_eigenvalues_are_the_spectrum_without_a_solve(self, monkeypatch, alpha):
        grid = sl.Grid1D(-20.0, 20.0, 0.1)
        gen = sl.fractional_power(grid, alpha)
        calls = _count_solver_calls(monkeypatch)
        lam = gen.eigenvalues
        assert calls == {"tridiagonal": 0, "dense": 0}
        assert "matrix" not in vars(gen)
        assert np.array_equal(lam, sl.spectral._power_spectrum(grid, alpha))
        assert np.all(np.diff(lam) > 0.0)
        ref = np.linalg.eigvalsh(-gen.matrix)
        assert np.abs(lam - ref).max() <= gen.n * 2.0**-53 * lam.max()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_pairs_are_the_sine_basis_without_a_solve(self, monkeypatch, alpha):
        # an unkilled power's kernel, rates and eigen-route diagnostic take
        # its closed-form pairs; a dense copy of it is the eigh reference
        grid, t = sl.Grid1D(-4.0, 4.0, 0.05), 0.5
        gen = sl.fractional_power(grid, alpha)
        hand = sl.GeneratorMatrix(grid.points, grid.delta, gen.matrix, np.ones(grid.n))
        whole = [np.ones(grid.n, dtype=bool)]
        levels = [sl.Interval(-2.0, 2.0)] + whole
        refs = (hand.semigroup_sym(t), sl.semigroup_matrix(hand, t),
                sl.lp_spectral_bound_compare(hand, [t, 1.0]),
                sl.compactness_diagnostic(hand, levels, t))
        calls = _count_solver_calls(monkeypatch)
        got = (gen.semigroup_sym(t), sl.semigroup_matrix(gen, t),
               sl.lp_spectral_bound_compare(gen, [t, 1.0]),
               sl.compactness_diagnostic(gen, whole, t))
        assert calls == {"tridiagonal": 0, "dense": 0}
        lam, _ = _full_pairs(gen)
        assert np.array_equal(lam, gen.eigenvalues)
        # eigh's backward error eps ||L|| moves the reference kernel by about
        # eps mu_max t relative (2.5e-14 at alpha = 1.5 here); the sine basis
        # has no such term
        tol = max(1e-14, 8.0 * 2.0**-52 * lam[-1] * t)
        for kernel, ref in zip(got[:2], refs[:2]):
            assert np.abs(kernel - ref).max() <= tol * np.abs(ref).max()
        assert np.allclose(got[2].rates_1, refs[2].rates_1, rtol=1e-12, atol=0.0)
        # a level below the grid restricts the power to a dense array: one solve
        norms = sl.compactness_diagnostic(gen, levels, t)
        assert calls == {"tridiagonal": 0, "dense": 1}
        assert np.allclose(norms, refs[3], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("n", [3, 59, 1599])
    def test_product_matches_the_matrix(self, alpha, n):
        gen = sl.fractional_power(_line_grid(n), alpha)
        rng = np.random.default_rng(n)
        for k in (1, 4):
            x = rng.standard_normal((n, k))
            got = gen._form.apply(x)
            assert "matrix" not in vars(gen)
            ref = gen.matrix @ x
            assert got.shape == (n, k)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            del gen.matrix

    def test_diagonal_reads_no_matrix(self):
        grid = sl.Grid1D(-5.0, 5.0, 0.05)
        power = sl.fractional_power(grid, 1.0)
        banded = sl.killed_generator(sl.dirichlet_laplacian(grid),
                                     sl.KillingPotential.power(1.0, 2.0))
        hand = sl.GeneratorMatrix(points=grid.points, delta=grid.delta,
                                  matrix=sl.fractional_power(grid, 0.5).matrix,
                                  weight=np.ones(grid.n))
        for gen in (power, banded, hand):
            diag = gen._form.diagonal
            assert gen is hand or "matrix" not in vars(gen)
            assert np.array_equal(diag, np.diagonal(gen.matrix))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_matrix_is_the_two_window_formula(self, alpha):
        # L_ij = c(i + j + 2) - c(|i - j|), c = irfft([0, mu, 0]), entry by entry
        import scipy.fft

        grid = sl.Grid1D(-3.0, 3.0, 0.1)
        mu = sl.spectral._power_spectrum(grid, alpha)
        c = scipy.fft.irfft(np.concatenate(([0.0], mu, [0.0])))
        n = mu.size
        i, j = np.indices((n, n))
        ref = c[i + j + 2] - c[np.abs(i - j)]
        got = sl.fractional_power(grid, alpha).matrix
        assert got.tobytes() == ref.tobytes()

    def test_study_never_reads_the_matrix(self, monkeypatch):
        args = (1.0, [2.0, 0.5], (10.0, 20.0), 0.1)
        ref = sl.weighted_transition_study(*args)

        def no_matrix(self):
            raise AssertionError("the study reads no n x n matrix")

        monkeypatch.setattr(sl.GeneratorMatrix, "matrix", property(no_matrix))
        assert repr(sl.weighted_transition_study(*args)) == repr(ref)

    def test_c9_study_holds_no_square_array(self):
        # C9's grids reach n = 3199; one square array there is 82 MB
        import tracemalloc

        sl.weighted_transition_study(1.0, [2.0], (10.0,), 0.1)  # imports and FFT plans
        tracemalloc.start()
        try:
            sl.weighted_transition_study(1.0, [2.0, 0.5], (20.0, 40.0, 80.0), 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = sl.Grid1D.symmetric(80.0, 0.05).n
        assert n == 3199 and peak < n**2 * 8 / 8

    @pytest.mark.parametrize("radii, delta", [((10.0,), 0.1), ((20.0, 40.0, 80.0), 0.05)])
    def test_study_residual_check_rejects_a_faulty_product(self, monkeypatch, radii, delta):
        apply = sl.spectral._Power.apply

        def off(self, x):
            return apply(self, x) * (1.0 + 1e-9)

        monkeypatch.setattr(sl.spectral._Power, "apply", off)
        with pytest.raises(RuntimeError, match="residual"):
            sl.weighted_transition_study(1.0, [2.0, 0.5], radii, delta)


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


def _spy_tridiagonal(monkeypatch):
    """Every ``scipy.linalg.eigh_tridiagonal`` call from here on, in order,
    as (args, kwargs, result)."""
    seen, solve = [], scipy.linalg.eigh_tridiagonal

    def spy(*args, **kwargs):
        seen.append((args, kwargs, solve(*args, **kwargs)))
        return seen[-1][2]

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    return seen


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

    def test_dense_generator_keeps_dense_solver(self, monkeypatch):
        # below alpha = 2 a weighted generator W L is dense: it has neither
        # bands nor a closed-form spectrum, so it takes the one dense solve
        grid = sl.Grid1D(-4.0, 4.0, 0.05)
        gen = sl.weighted_generator(grid, sl.TimeChangeWeight(beta=2.0), 1.0)
        calls = _count_solver_calls(monkeypatch)
        lam = gen.eigenvalues
        assert calls == {"tridiagonal": 0, "dense": 1}
        sw = np.sqrt(1.0 / gen.weight)
        sym = sw[:, None] * -sl.fractional_power(grid, 1.0).matrix * sw[None, :]
        lam_ref = np.linalg.eigvalsh((sym + sym.T) / 2.0)
        assert np.allclose(lam, lam_ref, rtol=1e-12, atol=0.0)


class TestToeplitzBands:
    # bands whose symmetrized d and e are each constant are tridiagonal
    # Toeplitz: their pairs are the closed-form sine spectrum and basis

    def test_laplacian_is_the_sine_spectrum_without_a_solve(self, monkeypatch):
        # the lp route on the subset (t = 8) and the full (t = 0.5) pairs
        # alike; the dense reference's eigh errs by about eps ||L|| t in the
        # norm, so by eps ||L|| in the rate, ||L|| <= 2 max|L_ii|
        grid, ts = sl.Grid1D(-6.0, 6.0, 0.02), [0.5, 8.0]
        gen = sl.dirichlet_laplacian(grid)
        calls = _count_solver_calls(monkeypatch)
        lam = gen.eigenvalues
        rates = sl.lp_spectral_bound_compare(gen, ts)
        assert calls == {"tridiagonal": 0, "dense": 0}
        assert lam.tobytes() == sl.spectral._sine_spectrum(grid).tobytes()
        hand = sl.GeneratorMatrix(grid.points, grid.delta, gen.matrix.copy(), gen.weight)
        ref = sl.lp_spectral_bound_compare(hand, ts)
        bound = 4.0 * np.finfo(float).eps * 2.0 * np.abs(gen._form.diagonal).max()
        assert all(abs(r - r_ref) <= bound for r, r_ref in zip(rates.rates_1, ref.rates_1))

    def test_constant_potential_is_closed_form(self, monkeypatch):
        # within 4 eps max|d| of a long-double bisection; dense eigvalsh is
        # itself 7.7 eps max|d| off here, so it is held to n eps max|d|
        gen = sl.killed_generator(_interval_gen(-4.0, 4.0, 0.05), sl.KillingPotential.constant(1.5))
        calls = _count_solver_calls(monkeypatch)
        lam = gen.eigenvalues
        assert calls == {"tridiagonal": 0, "dense": 0}
        d, e = np.diagonal(-gen.matrix), np.diagonal(-gen.matrix, 1)
        tol = 4.0 * np.finfo(float).eps * np.abs(d).max()
        d2, e2 = d.astype(np.longdouble), e.astype(np.longdouble) ** 2
        for k in (0, 1, gen.n // 2, gen.n - 1):
            ref = _sturm_eigenvalue(d2, e2, k, lam[k] * (1 - 1e-9), lam[k] * (1 + 1e-9))
            assert abs(lam[k] - ref) <= tol, k
        assert np.abs(lam - np.linalg.eigvalsh(-gen.matrix)).max() <= gen.n * tol / 4.0

    @pytest.mark.parametrize("kind", ["union part", "oscillator", "positive coupling"])
    def test_other_bands_take_one_solve(self, monkeypatch, kind):
        # a zero coupling, a varying diagonal, or an off-diagonal above 0
        # (not Markov, so its sine spectrum would descend) is not answered
        # in closed form: one eigh_tridiagonal, ascending eigenvalues
        grid = sl.Grid1D(-4.0, 4.0, 0.05)
        lap = sl.dirichlet_laplacian(grid)
        if kind == "union part":
            gen, _ = sl.part_generator(lap, sl.UnionOfIntervals([[-3.0, -1.0], [1.0, 3.0]]))
        elif kind == "oscillator":
            gen = sl.killed_generator(lap, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        else:
            mid, up, lo = lap._form.lines
            gen = sl.GeneratorMatrix(grid.points, grid.delta, sl.spectral._Bands(mid, -up, -lo),
                                     lap.weight)
        calls = _count_solver_calls(monkeypatch)
        lam = gen.eigenvalues
        assert calls == {"tridiagonal": 1, "dense": 0}
        assert np.allclose(lam, np.linalg.eigvalsh(-gen.matrix), rtol=1e-12, atol=1e-9)

    def test_laplacian_semigroup_is_sub_markov_to_round_off(self):
        # spectra's default grid; the closed-form pairs keep the row sums
        # within 1e-14 of 1 (eigh_tridiagonal's pairs read 1 + 3.2e-13)
        gen = sl.dirichlet_laplacian(sl.Grid1D.symmetric(12.0, 0.02))
        p = sl.semigroup_matrix(gen, 0.5)
        assert 16 * np.count_nonzero(np.exp(-gen.eigenvalues * 0.5)) > gen.n  # the full route
        assert p.sum(axis=1).max() <= 1.0 + 1e-14

    def test_failed_inverse_iteration_raises(self, monkeypatch):
        # stein's info > 0 counts vectors that did not converge: no partial
        # basis is returned
        gen = sl.killed_generator(_interval_gen(-12.0, 12.0, 0.02),
                                  sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        lookup = scipy.linalg.get_lapack_funcs

        def failing(names, arrays=()):
            (stein,) = lookup(names, arrays)
            return (lambda *args: (stein(*args)[0], 1),)

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", failing)
        with pytest.raises(RuntimeError, match="stein"):
            gen.semigroup_sym(8.0)


class TestWeightedGenerator:
    def test_unit_weight_reduces_to_fractional(self):
        grid = sl.Grid1D(-2.0, 2.0, 0.02)
        frac = sl.fractional_power(grid, 1.0)
        weighted = sl.weighted_generator(grid, lambda p: np.ones(len(p)), 1.0)
        assert np.allclose(weighted.matrix, frac.matrix, atol=1e-12)
        assert np.allclose(weighted.weight, 1.0)

    def test_similarity_spectrum(self):
        grid = sl.Grid1D(-2.0, 2.0, 0.05)
        w = sl.TimeChangeWeight(beta=2.0)
        weighted = sl.weighted_generator(grid, w, 1.0)
        frac = -sl.fractional_power(grid, 1.0).matrix
        wv = w(grid.points[:, None])
        sym = np.sqrt(wv)[:, None] * frac * np.sqrt(wv)[None, :]
        direct = np.linalg.eigvalsh((sym + sym.T) / 2.0)
        assert np.allclose(weighted.eigenvalues, direct, atol=1e-9)

    def test_power_holds_no_square_array(self):
        # below alpha = 2 the weighted power keeps its row scale W, so building
        # it fills no n x n array (82 MB at n = 3199)
        import tracemalloc

        grid, w = sl.Grid1D.symmetric(80.0, 0.05), sl.TimeChangeWeight(beta=2.0)
        sl.weighted_generator(grid, w, 1.0)  # imports and FFT plans
        tracemalloc.start()
        try:
            gen = sl.weighted_generator(grid, w, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.n == 3199 and peak < 1e6
        assert type(gen._form) is sl.spectral._Power and "matrix" not in vars(gen)

    def test_weight_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            sl.weighted_generator(sl.Grid1D(-2.0, 2.0, 0.05), lambda p: np.full(len(p), 0.5), 1.0)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            sl.weighted_generator(sl.Grid1D(-2.0, 2.0, 0.05), lambda p: np.full(len(p), math.nan), 1.0)

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

    def test_study_matches_full_spectrum(self):
        radii, delta = (10.0, 20.0), 0.1
        study = sl.weighted_transition_study(1.0, [2.0, 0.5], radii, delta)
        assert set(study) == {"radii", "betas", "eigenvalues", "gap"}
        for b in (2.0, 0.5):
            for r, lam in zip(radii, study["eigenvalues"][b]):
                gen = sl.weighted_generator(sl.Grid1D(-r, r, delta), sl.TimeChangeWeight(beta=b),
                                            1.0)
                full = gen.eigenvalues[:2]
                assert len(lam) == 2
                assert np.all(np.abs(np.array(lam) - full) <= 1e-10 * full)

    def test_lowest_pairs_match_full_spectrum_beyond_two(self):
        # the Krylov solve takes any block size k; the study asks for 2
        delta, w = 0.1, sl.TimeChangeWeight(beta=2.0)
        for r in (10.0, 20.0):
            grid = sl.Grid1D(-r, r, delta)
            mu = sl.spectral._power_spectrum(grid, 1.0)
            lam, _ = sl.spectral._lowest_weighted_eigenpairs(mu, w(grid.points[:, None]), 4)
            full = sl.weighted_generator(grid, w, 1.0).eigenvalues[:4]
            assert len(lam) == 4
            assert np.all(np.abs(lam - full) <= 1e-10 * full)

    def test_krylov_step_is_one_qr_and_one_small_eigensolve(self, monkeypatch):
        # a step applies K once (two DSTs), orthonormalizes its block with one
        # QR and solves H, extended to m = k, 2k, ... columns, with one eigh
        import scipy.fft
        import scipy.linalg

        grid = sl.Grid1D.symmetric(20.0, 0.1)
        mu = sl.spectral._power_spectrum(grid, 1.0)
        wvals = sl.TimeChangeWeight(beta=2.0)(grid.points[:, None])
        calls = {"dst": [], "qr": [], "eigh": []}

        def counted(key, owner, name):
            fn = getattr(owner, name)

            def wrapper(a, *args, **kwargs):
                calls[key].append(np.shape(a))
                return fn(a, *args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted("dst", scipy.fft, "dst")
        counted("qr", np.linalg, "qr")
        counted("eigh", np.linalg, "eigh")
        counted("eigh", scipy.linalg, "eigh")
        sl.spectral._lowest_weighted_eigenpairs(mu, wvals, 2)
        steps = len(calls["dst"]) // 2
        assert steps > 2 and len(calls["dst"]) == 2 * steps
        assert calls["qr"] == [(grid.n, 2)] * steps
        assert calls["eigh"] == [(2 * j, 2 * j) for j in range(1, steps + 1)]

    def test_krylov_basis_grows_past_its_first_allocation(self, monkeypatch):
        # at alpha = 0.3 the top of K is crowded: k = 1 needs more than the
        # 16 k rows allocated first, so the basis doubles mid-solve
        grid, w = sl.Grid1D.symmetric(10.0, 0.1), sl.TimeChangeWeight(beta=2.0)
        mu = sl.spectral._power_spectrum(grid, 0.3)
        full = sl.weighted_generator(grid, w, 0.3).eigenvalues[:1]
        sizes, eigh = [], np.linalg.eigh

        def counted(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        lam, vecs = sl.spectral._lowest_weighted_eigenpairs(mu, w(grid.points[:, None]), 1)
        assert max(sizes) > 16
        assert np.all(np.abs(lam - full) <= 1e-10 * full)
        assert vecs.shape == (grid.n, 1)

    @pytest.mark.parametrize(
        "alpha, radii, delta, betas, k",
        [(1.0, (20.0, 40.0, 80.0), 0.05, (2.0, 0.5), 2), (0.3, (10.0,), 0.1, (2.0,), 1)],
        ids=["c9", "alpha-0.3-doubling"],
    )
    def test_krylov_basis_stays_orthonormal(self, monkeypatch, alpha, radii, delta, betas, k):
        # each QR block becomes the basis's next rows, projected twice against
        # the basis before its one QR; a basis losing orthogonality would let
        # a ghost copy of the top Ritz value stand in for the gap
        qr, blocks = np.linalg.qr, []

        def kept(a, *args, **kwargs):
            q, r = qr(a, *args, **kwargs)
            blocks.append(q)
            return q, r

        monkeypatch.setattr(np.linalg, "qr", kept)
        for radius in radii:
            grid = sl.Grid1D.symmetric(radius, delta)
            mu = sl.spectral._power_spectrum(grid, alpha)
            for beta in betas:
                blocks.clear()
                wvals = sl.TimeChangeWeight(beta=beta)(grid.points[:, None])
                sl.spectral._lowest_weighted_eigenpairs(mu, wvals, k)
                basis = np.hstack(blocks)
                assert basis.shape[1] > 4 * k
                assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-13

    def test_c9_solve_peaks_below_two_and_a_half_mb(self):
        # the 32 x n basis and images (1.6 MB at n = 3199) are the solve's one
        # large allocation: 2.5 MB leaves no room for a copy of both
        import tracemalloc

        grid = sl.Grid1D.symmetric(80.0, 0.05)
        mu = sl.spectral._power_spectrum(grid, 1.0)
        for beta in (2.0, 0.5):
            wvals = sl.TimeChangeWeight(beta=beta)(grid.points[:, None])
            sl.spectral._lowest_weighted_eigenpairs(mu, wvals, 2)  # imports and FFT plans
            tracemalloc.start()
            try:
                sl.spectral._lowest_weighted_eigenpairs(mu, wvals, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert grid.n == 3199 and peak < 2.5e6

    def test_study_beta_zero_sine_spectrum(self):
        # W = 2, so the lowest eigenvalues are 2 (2 lambda_k)^(1/2) with
        # lambda_k = (1 - cos(k pi/(n+1)))/delta^2, written without cancellation
        delta = 0.05
        study = sl.weighted_transition_study(1.0, [0.0], (80.0,), delta)
        n = sl.Grid1D.symmetric(80.0, delta).n
        lam = 2.0 * np.sin(np.arange(1, 3) * PI / (2 * (n + 1))) ** 2 / delta**2
        got = np.array(study["eigenvalues"][0.0][0])
        assert np.all(np.abs(got / (2.0 * np.sqrt(2.0 * lam)) - 1.0) <= 1e-12)

    def test_study_builds_no_laplacian(self, monkeypatch):
        # the sine basis and the power come from the grid, not from a dense
        # Laplacian built to be recognized
        ref = sl.weighted_transition_study(1.0, [2.0, 0.5], (10.0, 20.0), 0.1)

        def no_laplacian(*args, **kwargs):
            raise AssertionError("the study builds no Laplacian")

        monkeypatch.setattr(sl.spectral, "dirichlet_laplacian", no_laplacian)
        study = sl.weighted_transition_study(1.0, [2.0, 0.5], (10.0, 20.0), 0.1)
        assert repr(study) == repr(ref)

    def test_study_residual_check_rejects_wrong_spectrum(self, monkeypatch):
        solve = sl.spectral._lowest_weighted_eigenpairs

        def off(mu, wvals, k):
            lam, vecs = solve(mu, wvals, k)
            return lam * (1.0 + 1e-6), vecs

        monkeypatch.setattr(sl.spectral, "_lowest_weighted_eigenpairs", off)
        with pytest.raises(RuntimeError, match="residual"):
            sl.weighted_transition_study(1.0, [2.0], (10.0,), 0.1)

    def test_study_refuses_every_grid_before_solving(self, monkeypatch):
        # R = 400 is over the cap at delta = 0.05, so R = 20 is never solved
        def no_solve(*args, **kwargs):
            raise AssertionError("a refused study solves nothing")

        monkeypatch.setattr(sl.spectral, "_lowest_weighted_eigenpairs", no_solve)
        monkeypatch.setattr(sl.spectral, "fractional_power", no_solve)
        with pytest.raises(ValueError, match="capped at 4096"):
            sl.weighted_transition_study(1.0, [2.0], (20.0, 400.0), 0.05)

    def test_alpha_two_weighted_generator_is_tridiagonal(self, monkeypatch):
        # W (1/2)Delta: the tridiagonal routes, and at W = 2 exactly twice
        # the unweighted spectrum
        grid = sl.Grid1D(-4.0, 4.0, 0.1)
        gen = sl.weighted_generator(grid, sl.TimeChangeWeight(beta=2.0), 2.0)
        assert isinstance(gen._form, sl.spectral._Bands)
        calls = _count_solver_calls(monkeypatch)
        lam = gen.eigenvalues
        assert calls == {"tridiagonal": 1, "dense": 0}
        wv = 1.0 / gen.weight
        sym = np.sqrt(wv)[:, None] * -sl.dirichlet_laplacian(grid).matrix * np.sqrt(wv)[None, :]
        assert np.allclose(lam, np.linalg.eigvalsh(sym), rtol=1e-12, atol=0.0)
        double = sl.weighted_generator(grid, sl.TimeChangeWeight(beta=0.0), 2.0)
        assert np.array_equal(double.eigenvalues, 2.0 * sl.dirichlet_laplacian(grid).eigenvalues)

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

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is no wider than float64 here")
    def test_alpha_two_study_matches_a_long_double_bisection(self):
        # at alpha = 2 the study keeps the sine-basis Krylov solve: the bands'
        # eigh_tridiagonal reads lambda_0 3.3e-10 (R = 10) and 6.0e-9 (R = 20)
        # relative off here, so routing the study through it fails this test
        delta, beta = 0.05, 3.0
        study = sl.weighted_transition_study(2.0, [beta], (10.0, 20.0), delta)
        for r, lam in zip(study["radii"], study["eigenvalues"][beta]):
            grid = sl.Grid1D.symmetric(r, delta)
            w = sl.TimeChangeWeight(beta=beta)(grid.points[:, None]).astype(np.longdouble)
            h = np.longdouble(delta) ** 2  # W^(1/2) (-(1/2)Delta) W^(1/2): bands 1/h, -1/(2h)
            d, e2 = w / h, w[:-1] * w[1:] / (4 * h * h)
            for k, v in enumerate(lam):
                ref = _sturm_eigenvalue(d, e2, k, v * (1 - 1e-6), v * (1 + 1e-6))
                assert abs(v - ref) <= 1e-13 * ref, (r, k)


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
        gen = sl.weighted_generator(sl.Grid1D(-4.0, 4.0, 0.05), sl.TimeChangeWeight(beta=2.0), 1.0)
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
        full, _ = sl.part_generator(sl.dirichlet_laplacian(grid), mask)
        assert by_blocks == pytest.approx(sl.heat_trace(full, 0.05), rel=1e-8)

    def test_union_trace_is_closed_form(self, monkeypatch):
        # the segment spectra are the sine spectrum: no matrix, no eigensolve
        unions = [sl.UnionOfIntervals([[1.0, 2.0], [3.0, 3.8]]), sl.disjoint_shrinking_intervals(16)]
        ref = [sum(sl.heat_trace(_interval_gen(a, b, 0.01), 0.01) for a, b in u.segments)
               for u in unions]

        def no_work(*args, **kwargs):
            raise AssertionError("the union trace builds no matrix and solves nothing")

        monkeypatch.setattr(sl.spectral, "dirichlet_laplacian", no_work)
        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", no_work)
        for u, r in zip(unions, ref):
            assert abs(sl.union_interval_trace(u, 0.01, 0.01) - r) <= 1e-13 * r
        with pytest.raises(ValueError, match="t > 0"):
            sl.union_interval_trace(unions[0], 0.01, 0.0)

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
        ref = _extended_gaps(base, [level], 0.5)
        assert abs(norms[0] - ref[0]) <= 1e-14

    @pytest.mark.parametrize("kind", ["killed", "conservative", "fractional", "weighted"])
    def test_row_sums_match_dense_definition_on_unions(self, kind):
        # the dense definition max_i sum_j |P_t - P_t^n|_ij, on levels that
        # are split unions
        grid = sl.Grid1D(-5.0, 5.0, 0.05)
        base = sl.dirichlet_laplacian(grid)
        gen = {
            "killed": lambda: sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0)),
            "conservative": lambda: base,
            "fractional": lambda: sl.fractional_power(grid, 1.0),
            "weighted": lambda: sl.weighted_generator(grid, sl.TimeChangeWeight(beta=2.0), 1.0),
        }[kind]()
        levels = [
            sl.UnionOfIntervals([[-3.0, -1.5], [1.0, 2.5]]),
            sl.UnionOfIntervals([[-3.5, -0.5], [0.5, 3.0]]),
            sl.UnionOfIntervals([[-4.5, -0.2], [0.2, 4.0]]),
            sl.Interval(-4.6, 4.6),
        ]
        t = 0.5
        norms = sl.compactness_diagnostic(gen, levels, t)
        if kind in ("killed", "conservative"):
            # tridiagonal: the uniformized route is more accurate than the
            # dense definition, so the reference is the extended one
            ref = _extended_gaps(gen, levels, t)
            assert np.all(np.abs(norms - ref) <= 1e-14)
            return
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

    def test_killed_levels_match_cameron_martin(self):
        # the sup sits at each level's edge r, where P_t^n 1 = 0, so each norm
        # is P_1 1(r) under V = 1 + x^2: the Cameron-Martin value, which the
        # grid overshoots at second order in delta
        radii = (4.0, 7.0, 10.0, 13.0, 16.0)
        levels = [sl.Interval(-r, r) for r in radii]
        errs = []
        for delta in (0.05, 0.025):
            gen = sl.killed_generator(_interval_gen(-20.0, 20.0, delta),
                                      sl.KillingPotential.power(1.0, 2.0, offset=1.0))
            norms = sl.compactness_diagnostic(gen, levels, 1.0)
            exact = [brownian_quadratic_survival(r, 1.0, 1.0, 1.0) for r in radii]
            errs.append(np.log(norms / exact))
        assert np.all(errs[0] > 0.0) and np.all(errs[1] > 0.0)
        assert np.all((3.5 <= errs[0] / errs[1]) & (errs[0] / errs[1] <= 4.5))


def _time_changed(grid, w, v):
    """W (L - V) on the measure 1/W, L the grid's (1/2)Delta, built as W L
    killed at rate W V: tridiagonal, with non-unit, non-constant weights."""
    return sl.killed_generator(sl.weighted_generator(grid, w, 2.0),
                               sl.KillingPotential.custom(lambda p: w(p) * v(p)))


class TestTridiagonalRoutes:
    def setup_method(self):
        self.gen = _time_changed(sl.Grid1D(-5.0, 5.0, 0.1), lambda p: 1.0 + 0.2 * p[:, 0]**2,
                                 sl.KillingPotential.power(1.0, 2.0))

    def test_bands_are_the_dense_symmetrization(self):
        gen = self.gen
        s = np.sqrt(gen.weight)
        sym = gen.matrix * np.outer(s, -1.0 / s)
        sym += sym.T
        sym /= 2.0
        d, e = gen._form.symmetric(s)
        assert np.array_equal(d, np.diagonal(sym)) and np.array_equal(e, np.diagonal(sym, 1))
        frac = sl.fractional_power(sl.Grid1D(-5.0, 5.0, 0.05), 1.0)
        assert not isinstance(frac._form, sl.spectral._Bands)

    def test_eigenvalues_without_eigenvectors(self, monkeypatch):
        calls = _count_solver_calls(monkeypatch)
        lam = self.gen.eigenvalues
        assert calls == {"tridiagonal": 1, "dense": 0}
        assert not _solved(self.gen)
        ref = _full_pairs(self.gen)[0]
        assert np.all(np.abs(lam - ref) <= 1e-12 * np.abs(ref))

    def test_uniformized_split_union_with_weights(self, monkeypatch):
        levels = [sl.UnionOfIntervals([[-3.0, -1.5], [1.0, 2.5]]),
                  sl.UnionOfIntervals([[-4.5, -0.2], [0.2, 4.0]]),
                  sl.Interval(-4.6, 4.6)]
        calls = _count_solver_calls(monkeypatch)
        norms = sl.compactness_diagnostic(self.gen, levels, 0.5)
        assert calls == {"tridiagonal": 0, "dense": 0}
        assert np.all(np.abs(norms - _extended_gaps(self.gen, levels, 0.5)) <= 1e-14)

    @pytest.mark.parametrize("kind", ["killed", "time-changed"])
    @pytest.mark.parametrize("where", ["grid ends", "one point"])
    def test_uniformized_inflow_at_the_edges(self, kind, where):
        # g's inflow from a at U's edge: none from beyond the box where U
        # holds the first or last grid point; from both sides into a
        # one-point component, one side a point shared with the next
        # component; through bands whose weights are not 1.  The "one point"
        # levels' sup is on U, at a's peak x = 0, where g alone sets it
        gen = self.gen if kind == "time-changed" else sl.killed_generator(
            _interval_gen(-5.0, 5.0, 0.1), sl.KillingPotential.power(1.0, 2.0))
        levels = {
            "grid ends": [sl.Interval(-6.0, 4.55), sl.Interval(-6.0, 4.65),
                          sl.UnionOfIntervals([[-6.0, 4.75], [4.85, 6.0]])],
            "one point": [sl.UnionOfIntervals([[-3.0, -1.0], [-0.05, 0.05]]),
                          sl.UnionOfIntervals([[-3.0, -1.0], [-0.05, 0.05], [0.15, 0.25]]),
                          sl.UnionOfIntervals([[-6.0, -1.0], [-0.05, 0.05], [0.15, 6.0]])],
        }[where]
        norms = sl.compactness_diagnostic(gen, levels, 0.5)
        assert np.all(np.abs(norms - _extended_gaps(gen, levels, 0.5)) <= 1e-14)
        # at t = 0, P_t - P_t^n is the indicator of the points off U
        whole = np.ones(gen.n, dtype=bool)
        assert np.array_equal(sl.compactness_diagnostic(gen, levels + [whole], 0.0), [1, 1, 1, 0])

    def test_uniformized_relative_accuracy(self):
        # K's diagonal (Lam + L_ii)/Lam is rounded once and raised to about
        # Lam t powers: each norm stays within Lam t 2^-53 relative of the
        # extended-precision reference, the top one of about 1e-14 too, which
        # an absolute bound of 1e-14 cannot resolve
        gen = sl.killed_generator(_interval_gen(-8.0, 8.0, 0.05),
                                  sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        levels = [sl.Interval(-r, r) for r in (2.0, 4.0, 6.0, 7.0)]
        norms = sl.compactness_diagnostic(gen, levels, 1.0)
        ref = _extended_gaps(gen, levels, 1.0)
        lam_t = np.abs(gen._form.diagonal).max() * 1.0
        assert 460.0 < lam_t < 470.0 and norms[-1] < 2e-14
        assert np.all(np.abs(norms - ref) <= lam_t * 2.0**-53 * ref)

    def test_positive_row_sum_and_negative_time_rejected(self):
        gen = _interval_gen(-2.0, 2.0, 0.1)
        matrix = gen.matrix.copy()
        matrix[5, 6] += 1.0
        bad = sl.GeneratorMatrix(points=gen.points, delta=gen.delta, matrix=matrix,
                                 weight=gen.weight)
        with pytest.raises(ValueError, match="positive row sum"):
            sl.compactness_diagnostic(bad, [sl.Interval(-1.0, 1.0)], 0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            sl.compactness_diagnostic(gen, [sl.Interval(-1.0, 1.0)], -0.5)

    def test_hand_built_matrix_is_dense(self, monkeypatch):
        # a matrix passed in is dense by statement, tridiagonal or not: it is
        # not scanned for bands, and takes the one dense solve
        gen = _interval_gen(-2.0, 2.0, 0.1)
        hand = sl.GeneratorMatrix(points=gen.points, delta=gen.delta, matrix=gen.matrix.copy(),
                                  weight=gen.weight)
        calls = _count_solver_calls(monkeypatch)
        assert type(hand._form) is sl.spectral._Dense
        lam = hand.eigenvalues
        assert calls == {"tridiagonal": 0, "dense": 1}
        assert np.allclose(lam, gen.eigenvalues, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("banded", [False, True])
    def test_one_markov_contract_on_both_routes(self, monkeypatch, banded):
        # P_t 1 - P_t^n 1 is the norm only for L 1 <= 0: a positive row sum is
        # refused before any solve, whichever route the generator would take
        grid = sl.Grid1D(-2.0, 2.0, 0.1)
        bump = 50.0 * (np.arange(grid.n) == 20)  # one row sum above 0
        if banded:
            mid, up, lo = sl.dirichlet_laplacian(grid)._form.lines
            bands = sl.spectral._Bands(mid + bump, up, lo)
            bad = sl.GeneratorMatrix(grid.points, grid.delta, bands, np.ones(grid.n))
        else:
            matrix = sl.fractional_power(grid, 1.0).matrix + np.diag(bump)
            bad = sl.GeneratorMatrix(points=grid.points, delta=grid.delta, matrix=matrix,
                                     weight=np.ones(grid.n))
        calls = _count_solver_calls(monkeypatch)
        with pytest.raises(ValueError, match="positive row sum"):
            sl.compactness_diagnostic(bad, [sl.Interval(-1.0, 1.0)], 0.5)
        assert calls == {"tridiagonal": 0, "dense": 0}

    @pytest.mark.parametrize("banded", [False, True])
    def test_one_set_of_level_rules_on_both_routes(self, monkeypatch, banded):
        # a level of fewer than 3 points is refused before any solve, and a
        # level equal to the grid reads exactly 0, whichever form computes
        # the norms (a killed power is a dense form with its own eigh)
        grid = sl.Grid1D(-2.0, 2.0, 0.1)
        base = sl.dirichlet_laplacian(grid) if banded else sl.fractional_power(grid, 1.0)
        gen = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0))
        assert isinstance(gen._form, sl.spectral._Bands) == banded
        two = np.isin(np.arange(gen.n), [19, 20])
        calls = _count_solver_calls(monkeypatch)
        with pytest.raises(ValueError, match="at least 3 points"):
            sl.compactness_diagnostic(gen, [two, sl.Interval(-1.0, 1.0)], 0.5)
        assert calls == {"tridiagonal": 0, "dense": 0}
        whole = [sl.Interval(-3.0, 3.0), np.ones(gen.n, dtype=bool)]
        norms = sl.compactness_diagnostic(gen, [sl.Interval(-1.0, 1.0)] + whole, 0.5)
        assert norms[0] > 0.1 and np.array_equal(norms[1:], [0.0, 0.0])
        assert np.array_equal(sl.compactness_diagnostic(gen, whole, 0.5), [0.0, 0.0])

    def test_lp_rates_keep_one_eigendecomposition_on_c8(self, monkeypatch):
        # C8's generator: one eigenvalue pass gives lambda_1 and the count k
        # of weights exp(-lambda t) that are not 0, inverse iteration (LAPACK
        # stein) from the lowest k of them gives those k pairs, and no other
        # eigensolve is made; the result is that route's own arithmetic on
        # the eigenvalues and stein's vectors, to the last bit
        base = sl.dirichlet_laplacian(sl.Grid1D.symmetric(20.0, 0.01))
        gen = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        seen = _spy_tridiagonal(monkeypatch)
        calls = _count_solver_calls(monkeypatch)
        rates = sl.lp_spectral_bound_compare(gen, [8.0])
        assert calls == {"tridiagonal": 1, "dense": 0}
        ((d, e), kwargs0, lam_all), = seen
        k = np.count_nonzero(np.exp(-lam_all * 8.0))
        assert kwargs0 == {"eigvals_only": True}
        mid, up, _ = gen._form.lines  # weights are 1, so the bands are -L's own
        assert np.array_equal(d, -mid) and np.array_equal(e, -up)
        stein, = scipy.linalg.get_lapack_funcs(("stein",), (d, e))
        lam = lam_all[:k]
        psi, info = stein(d, e, lam, np.ones(gen.n, int), np.full(gen.n, gen.n))
        psi = np.ascontiguousarray(psi)
        assert info == 0 and psi.shape == (gen.n, k) and 16 * k <= gen.n
        assert not _solved(gen) and "matrix" not in vars(gen)
        j = np.count_nonzero(np.exp(-lam * 8.0))
        x = psi[:, :j] * np.exp(-lam[:j] * 4.0)
        s = np.sqrt(gen.weight)
        r = -math.log(float(((np.abs(x @ x.T) @ s) / s).max())) / 8.0
        ref = sl.LpRates(t_grid=(8.0,), rates_1=(r,), rates_2=(lam_all[0],), rates_inf=(r,))
        assert repr(rates) == repr(ref)

    def test_lp_rates_hold_one_square_array_on_c8(self):
        # the kernel is the one n x n array; a full eigenvector solve would
        # add a second (the route before the subset solve peaked at 2 n^2 8 B)
        import tracemalloc

        base = sl.dirichlet_laplacian(sl.Grid1D.symmetric(20.0, 0.01))
        gen = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        tracemalloc.start()
        try:
            sl.lp_spectral_bound_compare(gen, [8.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.n == 3999 and peak < 1.25 * gen.n**2 * 8


def _subset_generators():
    """(name, generator, t) with t on the subset route: a killed generator,
    and a conservative part generator of two equal intervals, whose
    eigenvalues come in exactly degenerate pairs near 0."""
    grid = sl.Grid1D(-12.0, 12.0, 0.02)
    kill = sl.killed_generator(sl.dirichlet_laplacian(grid),
                               sl.KillingPotential.power(1.0, 2.0, offset=1.0))
    pair, _ = sl.part_generator(sl.dirichlet_laplacian(grid),
                                sl.UnionOfIntervals([[-11.0, -1.0], [1.0, 11.0]]))
    return [("killed", kill, 8.0), ("conservative", pair, 20.0)]


class TestSubsetSemigroup:
    @pytest.mark.parametrize("name, gen, t", _subset_generators())
    def test_subset_route_matches_full_product(self, monkeypatch, name, gen, t):
        # the eigenvalue pass is the one eigensolve; the pairs are inverse
        # iteration from its lowest k eigenvalues, read here from the form
        calls = _count_solver_calls(monkeypatch)
        got = gen.semigroup_sym(t)
        assert calls == {"tridiagonal": 1, "dense": 0}
        k = np.count_nonzero(np.exp(-gen.eigenvalues * t))
        lam, psi = gen._form.pairs(np.sqrt(gen.weight), k)
        assert calls == {"tridiagonal": 1, "dense": 0}
        assert np.array_equal(lam, gen.eigenvalues[:k]) and 16 * k <= gen.n
        assert psi.shape == (gen.n, k) and psi.flags.c_contiguous and not _solved(gen)
        assert np.abs(psi.T @ psi - np.eye(k)).max() <= 1e-13
        lam_ref, psi_ref = _full_pairs(gen)
        m = (psi_ref * np.exp(-lam_ref * t)) @ psi_ref.T
        ref = (m + m.T) / 2.0
        # each solve errs in lambda by about eps ||L||, so in exp(-lambda t)
        # by t eps ||L|| relative; ||L|| <= 2 max|L_ii| for these bands
        bound = 4.0 * t * np.finfo(float).eps * 2.0 * np.abs(gen._form.diagonal).max()
        assert np.abs(got - ref).max() <= bound * np.abs(ref).max()
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("name, gen, t", _subset_generators())
    def test_route_does_not_depend_on_the_cache(self, name, gen, t):
        # the same kernel, to the bit, whether or not the full solve was
        # cached first: the route depends on (generator, t) only
        for t_now in (t, 0.5):  # the subset route, then the full one
            fresh, warm = (sl.GeneratorMatrix(gen.points, gen.delta,
                                              sl.spectral._Bands(*gen._form.lines), gen.weight)
                           for _ in range(2))
            _full_pairs(warm)
            assert fresh.semigroup_sym(t_now).tobytes() == warm.semigroup_sym(t_now).tobytes()

    def test_no_surviving_weight_is_the_zero_kernel(self, monkeypatch):
        gen = sl.killed_generator(_interval_gen(-12.0, 12.0, 0.05),
                                  sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        seen = _spy_tridiagonal(monkeypatch)
        p = sl.semigroup_matrix(gen, 1e4)
        assert [kwargs for _, kwargs, _ in seen] == [{"eigvals_only": True}]
        assert not _solved(gen)
        assert p.shape == (gen.n, gen.n) and not p.any()

    def test_semigroup_matrix_holds_one_square_array(self):
        # P_t is divided and clipped in place, by row blocks: on the subset
        # route the kernel is the one n x n array (before, three at once)
        import tracemalloc

        gen = sl.killed_generator(_interval_gen(-20.0, 20.0, 0.025),
                                  sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        gen.eigenvalues
        tracemalloc.start()
        try:
            p = sl.semigroup_matrix(gen, 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.n == 1599 and not _solved(gen)
        assert peak < 1.5 * gen.n**2 * 8
        s = np.sqrt(gen.weight)
        ref = gen.semigroup_sym(8.0) / np.outer(s, 1.0 / s)
        np.copyto(ref, 0.0, where=(ref > -1e-12) & (ref < 0.0))
        assert p.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_refused(self, t):
        gen = _interval_gen(-2.0, 2.0, 0.04)
        union = sl.UnionOfIntervals([[-1.0, 0.0], [0.5, 1.5]])
        calls = [lambda: sl.semigroup_matrix(gen, t), lambda: gen.semigroup_sym(t),
                 lambda: sl.heat_trace(gen, t), lambda: sl.heat_trace(gen, [0.5, t]),
                 lambda: sl.union_interval_trace(union, 0.04, t),
                 lambda: sl.compactness_diagnostic(gen, [sl.Interval(-1.0, 1.0)], t),
                 lambda: sl.lp_spectral_bound_compare(gen, [t])]
        for call in calls:
            with pytest.raises(ValueError, match=f"got t = .*{t}"):
                call()
        assert not _solved(gen) and "eigenvalues" not in vars(gen)


class TestLpRates:
    def test_exact_duality(self):
        gen = sl.weighted_generator(sl.Grid1D(-4.0, 4.0, 0.05), sl.TimeChangeWeight(beta=2.0), 1.0)
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

    @pytest.mark.parametrize("t_grid, match", [
        *(([1.0, t], "finite t > 0") for t in (0.0, -1.0, math.inf, math.nan)),
        # the extrapolated rate reads the last two times as the two largest
        ([], r"strictly increasing time grid, got \(\)"),
        ([1.0, 1.0], r"strictly increasing time grid, got \(1.0, 1.0\)"),
        ([8.0, 2.0, 4.0], r"strictly increasing time grid, got \(8.0, 2.0, 4.0\)")])
    def test_bad_time_refused_before_any_eigensolve(self, t_grid, match):
        gen = _interval_gen(-2.0, 2.0, 0.04)
        with pytest.raises(ValueError, match=match):
            sl.lp_spectral_bound_compare(gen, t_grid)
        assert not _solved(gen) and "eigenvalues" not in vars(gen)

    def test_conservative_rates_vanish(self):
        base = _interval_gen(-12.0, 12.0, 0.02)
        rates = sl.lp_spectral_bound_compare(base, [2.0, 4.0])
        assert rates.rate_at("inf", 4.0) < 1e-6
        assert rates.rate_at(2, 4.0) > 0.0  # truncation gap, tiny but positive


def test_generator_validation():
    with pytest.raises(ValueError, match="grid"):
        sl.Grid1D(0.0, 0.01, 0.02)
    with pytest.raises(ValueError, match="3 or more points"):
        sl.Grid1D(0.0, 0.065, 0.02)  # two points, 0.02 and 0.04
    for grid in (sl.Grid1D(0.0, 0.08, 0.02), sl.Grid1D(0.0, PI, PI / 400),
                 sl.Grid1D.symmetric(80.0, 0.05), sl.Grid1D(1.3, 1.7, 0.1)):
        assert grid.n == grid.points.size >= 3
    base = _interval_gen(0.0, 1.0, 0.05)
    with pytest.raises(ValueError, match="shape"):
        sl.GeneratorMatrix(points=base.points, delta=0.05, matrix=np.eye(3), weight=np.ones(3))
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="weights must be positive"):
            sl.GeneratorMatrix(points=np.arange(3.0), delta=1.0, matrix=-np.eye(3),
                               weight=np.array([1.0, bad, 1.0]))
    for bad in (np.float64(1.0), np.ones((3, 1)), np.ones(4)):
        with pytest.raises(ValueError, match="weights must be one per point"):
            sl.GeneratorMatrix(points=np.arange(3.0), delta=1.0, matrix=-np.eye(3), weight=bad)
    # the grid refuses what the dense cap would, before anything fills a
    # matrix; a matrix built by hand still meets the generator's own check
    with pytest.raises(ValueError, match="9999 points; dense generators are capped at 4096"):
        sl.Grid1D(0.0, 500.0, 0.05)
    # 2 / 0.3 steps: the points -0.7 ... 0.8 would be those of (-1, 1.1), not of (-1, 1)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        sl.Grid1D.symmetric(1.0, 0.3)
    assert sl.Grid1D(-1.0, 1.0, 0.3).points[-1] == pytest.approx(0.8)  # interior points only
    with pytest.raises(ValueError, match="capped at 4096 points, got 4097"):
        sl.GeneratorMatrix(points=np.arange(4097.0), delta=1.0,
                           matrix=np.broadcast_to(0.0, (4097, 4097)), weight=np.ones(4097))


def _dense_laplacian(grid):
    """The Dirichlet Laplacian filled as a dense n x n array, entry by entry."""
    n, inv = grid.n, 0.5 / grid.delta**2
    L = np.zeros((n, n))
    np.fill_diagonal(L, -2.0 * inv)
    rows = np.arange(n - 1)
    L[rows, rows + 1] = inv
    L[rows + 1, rows] = inv
    return L


class TestBandedStorage:
    def test_c7_diagnostic_allocates_no_square_array(self):
        # C7's killed generator at delta = 0.01 (n = 3999): builder,
        # diagnostic and eigenvalues read three diagonals only
        import tracemalloc

        levels = [sl.Interval(-r, r) for r in (4.0, 7.0, 10.0, 13.0, 16.0)]
        tracemalloc.start()
        try:
            gen = sl.killed_generator(sl.dirichlet_laplacian(sl.Grid1D.symmetric(20.0, 0.01)),
                                      sl.KillingPotential.power(1.0, 2.0, offset=1.0))
            norms = sl.compactness_diagnostic(gen, levels, 1.0)
            lam = gen.eigenvalues
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.n == 3999 and np.all(np.diff(norms) < 0.0) and lam[0] > 0.0
        # linear in the entries the recursion keeps, n + sum |U|: measured
        # 1.55 MB here, 13.9 doubles an entry (2.55 MB, 22.7, while every
        # level kept two rows on the whole grid)
        sum_u = sum(np.count_nonzero(lv.contains(gen.points[:, None])) for lv in levels)
        assert peak < 16 * 8 * (gen.n + sum_u)
        assert "matrix" not in vars(gen)

    @pytest.mark.parametrize("kind", ["banded", "dense", "killed power", "weighted", "three points"])
    def test_prefix_product_matches_full_product(self, kind):
        # the kernel X X^T is one BLAS product of X with its own transpose:
        # symmetric to the bit on every form, from k = n surviving weights to 1
        grid = sl.Grid1D(-5.0, 5.0, 0.05)
        pot = sl.KillingPotential.power(1.0, 2.0)
        gen = {
            "banded": lambda: sl.killed_generator(sl.dirichlet_laplacian(grid), pot),
            "dense": lambda: sl.fractional_power(grid, 1.0),
            "killed power": lambda: sl.killed_generator(sl.fractional_power(grid, 1.0), pot),
            "weighted": lambda: sl.weighted_generator(grid, sl.TimeChangeWeight(beta=2.0), 1.0),
            "three points": lambda: sl.killed_generator(sl.dirichlet_laplacian(_line_grid(3)), pot),
        }[kind]()
        lam_all = gen.eigenvalues
        few = {"banded": 8.0, "dense": 30.0, "killed power": 30.0, "weighted": 30.0,
               "three points": 100.0}[kind]
        # t = 0 is the identity; at 0.01 every weight survives; at ``few`` the
        # top weights underflow, so fewer than n pairs are multiplied; at the
        # last t exp(-lambda_2 t) underflows and one pair alone survives
        for t, k in ((0.0, gen.n), (0.01, gen.n), (few, None), (746.0 / lam_all[1], 1)):
            got_k = np.count_nonzero(np.exp(-lam_all * t))
            assert (got_k == k) if k else (1 < got_k < gen.n)
            # the pairs the kernel's route takes: bands with 16 k <= n solve
            # for the lowest k alone, every other case reads the kept solve
            lam, psi = gen._form.pairs(np.sqrt(gen.weight), got_k)
            m = (psi * np.exp(-lam * t)) @ psi.T
            ref = (m + m.T) / 2.0
            got = gen.semigroup_sym(t)
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()
            assert np.array_equal(got, got.T)
        assert np.abs(gen.semigroup_sym(0.0) - np.eye(gen.n)).max() <= 1e-12

    def test_weighted_dense_pairs_read_one_triangle(self):
        # diag(s) (-W L) diag(1/s), s = W^(-1/2), is symmetric only to
        # rounding; eigh reads its lower triangle and stays within its own
        # backward error of the averaged matrix
        gen = sl.weighted_generator(sl.Grid1D(-5.0, 5.0, 0.05), sl.TimeChangeWeight(beta=2.0), 1.0)
        s = np.sqrt(gen.weight)
        a = gen.matrix * np.outer(s, -1.0 / s)
        assert not np.array_equal(a, a.T)
        ref = np.linalg.eigvalsh((a + a.T) / 2.0)
        lam, psi = _full_pairs(gen)
        assert np.array_equal(lam, gen.eigenvalues)
        assert np.abs(lam - ref).max() <= gen.n * np.finfo(float).eps * np.abs(ref).max()
        assert np.abs(psi.T @ psi - np.eye(gen.n)).max() <= 1e-13

    @pytest.mark.parametrize("kind", ["bands", "power", "dense"])
    def test_lazy_matrices_equal_the_dense_builders(self, kind):
        # every form's diagonal, product, shift, restriction and row scaling
        # equal the same operation on its dense array, to the bit but for the
        # product; bands stay bands, and a power falls back to a dense form
        # when killed or restricted and stays a power when its rows are scaled
        grid = sl.Grid1D(-5.0, 5.0, 0.05)
        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
        dense, base = {
            "bands": lambda: (_dense_laplacian(grid), sl.dirichlet_laplacian(grid)),
            "power": lambda: (sl.fractional_power(grid, 1.0).matrix,
                              sl.fractional_power(grid, 1.0)),
            "dense": lambda: (_dense_laplacian(grid), sl.GeneratorMatrix(
                points=grid.points, delta=grid.delta, matrix=_dense_laplacian(grid),
                weight=np.ones(grid.n))),
        }[kind]()
        killed = sl.killed_generator(base, pot)
        union = sl.UnionOfIntervals([[-4.0, -1.0], [0.5, 3.0]])
        part, idx = sl.part_generator(killed, union)
        w = sl.TimeChangeWeight(beta=2.0)
        wv = w(grid.points[:, None])
        weighted = sl.GeneratorMatrix(grid.points, grid.delta, base._form.scale_rows(wv), 1.0 / wv)
        assert not any("matrix" in vars(g) for g in (killed, part, weighted))
        v = pot(grid.points[:, None])
        dense_killed = dense - np.diag(v)
        assert np.array_equal(killed.matrix, dense_killed)
        assert np.array_equal(part.matrix, dense_killed[np.ix_(idx, idx)])
        assert np.count_nonzero(np.diff(idx) > 1) == 1  # the split union has one gap
        assert np.array_equal(weighted.matrix, wv[:, None] * dense)
        if kind != "dense":  # the public builder is the same row scaling
            alpha = 2.0 if kind == "bands" else 1.0
            assert np.array_equal(sl.weighted_generator(grid, w, alpha).matrix, weighted.matrix)
        form = base._form
        assert np.array_equal(form.dense(), dense)
        assert np.array_equal(form.diagonal, np.diagonal(dense))
        x = np.random.default_rng(5).standard_normal((grid.n, 3))
        ref = dense @ x
        assert np.abs(form.apply(x) - ref).max() <= 1e-14 * np.abs(ref).max()
        keep = np.nonzero(union.contains(grid.points[:, None]))[0]
        same = sl.spectral._Bands if kind == "bands" else sl.spectral._Dense
        scaled = sl.spectral._Power if kind == "power" else same
        for out, want, cls in ((form.shift(v), dense - np.diag(v), same),
                               (form.restrict(keep), dense[np.ix_(keep, keep)], same),
                               (form.scale_rows(wv), wv[:, None] * dense, scaled)):
            assert type(out) is cls
            assert np.array_equal(out.diagonal, np.diagonal(want))
            assert np.array_equal(out.dense(), want)

    @pytest.mark.parametrize("kind", ["power", "dense"])
    def test_killing_a_dense_form_holds_one_square_array(self, kind):
        # spectra's grid and potential at alpha = 1: the killed array is the
        # one n x n array made (before, np.diag(V) was a second, and a power's
        # matrix was kept on the generator beside them)
        import tracemalloc

        grid = sl.Grid1D.symmetric(12.0, 0.02)
        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
        gen = sl.fractional_power(grid, 1.0)
        ref = gen._form.dense() - np.diag(pot(grid.points[:, None]))
        if kind == "dense":
            gen = sl.GeneratorMatrix(points=grid.points, delta=grid.delta,
                                     matrix=gen._form.dense(), weight=gen.weight)
        tracemalloc.start()
        try:
            killed = sl.killed_generator(gen, pot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.n == 1199 and peak <= 1.1 * gen.n**2 * 8
        assert killed.matrix.tobytes() == ref.tobytes()

    def test_alpha_two_study_builds_no_square_array(self, monkeypatch):
        built, power = [], sl.spectral.fractional_power

        def keep(grid, alpha):
            built.append(power(grid, alpha))
            return built[-1]

        monkeypatch.setattr(sl.spectral, "fractional_power", keep)
        sl.weighted_transition_study(2.0, [3.0], (10.0, 20.0), 0.05)
        assert len(built) == 2 and not any("matrix" in vars(g) for g in built)

    def test_lp_rates_refuse_an_underflowing_norm(self, monkeypatch):
        gen = sl.killed_generator(_interval_gen(-12.0, 12.0, 0.05),
                                  sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        lam1 = gen.eigenvalues[0]

        def no_kernel(self, t):
            raise AssertionError("no weight survives, so no kernel is built")

        with monkeypatch.context() as m:
            m.setattr(sl.GeneratorMatrix, "semigroup_sym", no_kernel)
            with pytest.raises(ValueError, match=r"t = 8e\+06 \(lambda_1 t = "):
                sl.lp_spectral_bound_compare(gen, [4e6, 8e6])
        # exp(-lambda_1 t) survives as a subnormal, but every kernel entry underflows
        t = 744.5 / lam1
        assert np.exp(-lam1 * t) > 0.0
        with pytest.raises(ValueError, match="underflows to 0"):
            sl.lp_spectral_bound_compare(gen, [1.0, t])
