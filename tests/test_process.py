"""Increment-law tests: every law is checked against an oracle that does not
share code with the samplers (closed-form CDFs, CLT intervals, scaling
symmetries, quadrature of the characteristic function)."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

import stablelab as sl
from stablelab.closedform import levy_half_cdf, symmetric_stable_central_cdf_mass


def test_spec_validation():
    with pytest.raises(ValueError, match=r"alpha"):
        sl.ProcessSpec(alpha=2.5, dim=1)
    with pytest.raises(ValueError, match=r"alpha"):
        sl.ProcessSpec(alpha=0.0, dim=1)
    with pytest.raises(ValueError, match=r"dim"):
        sl.ProcessSpec(alpha=1.0, dim=0)
    assert sl.ProcessSpec(alpha=2.0, dim=2).is_brownian
    assert not sl.ProcessSpec(alpha=1.5, dim=1).is_brownian


def test_gaussian_variance_clt_window():
    # CLT oracle: at 1e6 draws the sample variance of N(0,1) lies in
    # [0.99, 1.01] with overwhelming margin (sd of the estimate ~ 0.0014)
    spec = sl.ProcessSpec(alpha=2.0, dim=1)
    x = sl.sample_increments(spec, 1.0, sl.stream(101), 1_000_000)[:, 0]
    assert 0.99 <= x.var() <= 1.01


def test_cauchy_central_mass():
    # alpha=1, h=1: standard Cauchy; P(|X| <= 1) = 2 arctan(1)/pi = 1/2
    spec = sl.ProcessSpec(alpha=1.0, dim=1)
    x = sl.sample_increments(spec, 1.0, sl.stream(102), 1_000_000)[:, 0]
    frac = (np.abs(x) <= 1.0).mean()
    assert abs(frac - 0.5) < 4.0 * 0.5 / math.sqrt(1_000_000) * 2


@pytest.mark.parametrize("alpha", [0.7, 1.0, 1.3, 2.0])
def test_scaling_symmetry_two_sample(alpha):
    # law of X_{2h}, rescaled by 2^{-1/alpha}, matches the law of X_h
    spec = sl.ProcessSpec(alpha=alpha, dim=1)
    n = 50_000
    a = sl.sample_increments(spec, 2.0, sl.stream(103), n)[:, 0] * 2.0 ** (-1.0 / alpha)
    b = sl.sample_increments(spec, 1.0, sl.stream(104), n)[:, 0]
    assert stats.ks_2samp(a, b).pvalue > 1e-3


def test_subordinator_half_index_closed_form():
    # index 1/2: P(S <= s) = erfc(1/(2 sqrt(s))) exactly
    s = sl.sample_subordinator_increment(0.5, 1.0, sl.stream(105), size=1_000_000)
    xs = np.sort(s)
    emp = np.arange(1, xs.size + 1) / xs.size
    cdf = special.erfc(1.0 / (2.0 * np.sqrt(xs)))
    assert np.abs(emp - cdf).max() <= 0.005


@pytest.mark.parametrize("h", [1e-3, 0.5])
def test_subordinator_half_index_ks_against_levy_cdf(h):
    # index 1/2 scales as S_h = h^2 S_1 in law, and S_1 has the Levy CDF
    s = sl.sample_subordinator_increment(0.5, h, sl.stream(110), size=50_000)
    assert stats.kstest(s / h**2, levy_half_cdf).pvalue > 1e-3


def test_subordinator_additivity_and_positivity():
    rng = sl.stream(106)
    one = sl.sample_subordinator_increment(0.7, 2.0, rng, size=40_000)
    two = sl.sample_subordinator_increment(0.7, 1.0, sl.stream(107), size=40_000) + \
        sl.sample_subordinator_increment(0.7, 1.0, sl.stream(108), size=40_000)
    assert stats.ks_2samp(one, two).pvalue > 1e-3
    big = sl.sample_subordinator_increment(0.3, 1.0, sl.stream(109), size=1_000_000)
    assert (big >= 0.0).all()


@pytest.mark.parametrize("seed", [111, 112, 113])
def test_planar_cauchy_radial_law(seed):
    # alpha = 1, d = 2: the density is (1/(2 pi h^2)) (1 + |x|^2/h^2)^(-3/2),
    # so P(|X_h| <= r) = 1 - (1 + r^2/h^2)^(-1/2)
    h = 0.3
    x = sl.sample_increments(sl.ProcessSpec(alpha=1.0, dim=2), h, sl.stream(seed), 50_000)
    r = np.sqrt((x**2).sum(axis=1))
    assert stats.kstest(r, lambda r: 1.0 - (1.0 + (r / h) ** 2) ** -0.5).pvalue > 1e-3


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_one_dimensional_central_mass_quadrature_oracle(alpha):
    # P(|X_1| <= m) from Gil-Pelaez inversion of exp(-|u|^alpha)
    x = sl.sample_increments(sl.ProcessSpec(alpha=alpha, dim=1), 1.0, sl.stream(114), 400_000)
    for m in (0.5, 2.0, 10.0):
        p = symmetric_stable_central_cdf_mass(alpha, m)
        se = math.sqrt(p * (1.0 - p) / x.shape[0])
        assert abs((np.abs(x[:, 0]) <= m).mean() - p) <= 5.0 * se


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_one_dimensional_draws_match_subordinated_gaussian(alpha):
    # the same law built by hand as sqrt(2 S) Z, S of index alpha/2
    h, n = 0.7, 50_000
    x = sl.sample_increments(sl.ProcessSpec(alpha=alpha, dim=1), h, sl.stream(115), n)[:, 0]
    rng = sl.stream(116)
    s = sl.sample_subordinator_increment(alpha / 2.0, h, rng, size=n)
    ref = np.sqrt(2.0 * s) * rng.standard_normal(n)
    assert stats.ks_2samp(x, ref).pvalue > 1e-3


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.9])
def test_one_dimensional_draws_finite_and_centred(alpha):
    n = 100_000
    x = sl.sample_increments(sl.ProcessSpec(alpha=alpha, dim=1), 1.0, sl.stream(117), n)
    assert x.shape == (n, 1)
    assert np.isfinite(x).all()
    # the sample median has stderr 1/(2 f(0) sqrt(n)), f(0) = Gamma(1 + 1/alpha)/pi
    f0 = special.gamma(1.0 + 1.0 / alpha) / math.pi
    assert abs(np.median(x)) <= 5.0 / (2.0 * f0 * math.sqrt(n))


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_non_finite_step_rejected(h):
    rng = sl.stream(1)
    with pytest.raises(ValueError, match=r"finite"):
        sl.sample_subordinator_increment(0.5, h, rng, size=3)
    for alpha, dim in ((2.0, 1), (1.0, 1), (1.5, 1), (1.0, 2), (1.5, 2)):
        with pytest.raises(ValueError, match=r"finite"):
            sl.sample_increments(sl.ProcessSpec(alpha, dim), h, rng, 3)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_non_finite_time_rejected(t):
    with pytest.raises(ValueError,
                       match=r"t_max: need a finite number in \(-inf, inf\), got (inf|nan)"):
        sl.sample_path(sl.ProcessSpec(2.0, 1), [0.0], t, 0.1, 1)


def test_subordinator_argument_errors():
    rng = sl.stream(1)
    with pytest.raises(ValueError):
        sl.sample_subordinator_increment(1.0, 1.0, rng, 3)
    with pytest.raises(ValueError):
        sl.sample_subordinator_increment(0.5, -1.0, rng, 3)
    with pytest.raises(ValueError):
        sl.sample_increments(sl.ProcessSpec(2.0, 1), 0.0, rng, 3)


def test_stream_reproducible_and_distinct():
    a = sl.stream(2024, 3).standard_normal(64)
    assert np.array_equal(a, sl.stream(2024, 3).standard_normal(64))
    assert isinstance(sl.stream(2024, 3).bit_generator, np.random.SFC64)
    draws = [sl.stream(2024, k).standard_normal(64) for k in range(4)]
    draws.append(sl.stream(2025, 0).standard_normal(64))
    for i in range(len(draws)):
        for j in range(i):
            assert not np.any(draws[i] == draws[j])


def test_path_determinism_and_grid():
    spec = sl.ProcessSpec(alpha=1.5, dim=2)
    p1 = sl.sample_path(spec, [0.5, -0.5], t_max=2.0, h=0.01, seed=77)
    p2 = sl.sample_path(spec, [0.5, -0.5], t_max=2.0, h=0.01, seed=77)
    assert np.array_equal(p1.positions, p2.positions)
    assert p1.positions.shape == (math.floor(2.0 / 0.01) + 1, 2)
    assert p1.positions[0] is not None and np.allclose(p1.positions[0], [0.5, -0.5])


@pytest.mark.parametrize("alpha", [2.0, 1.5, 0.5])
def test_sample_path_is_one_path_of_a_batch(alpha):
    spec = sl.ProcessSpec(alpha=alpha, dim=2)
    x0 = np.array([0.3, -0.2])
    path = sl.sample_path(spec, x0, t_max=1.0, h=1e-3, seed=78)
    batch = sl.sample_path_batch(spec, x0, t_max=1.0, h=1e-3, n_paths=1, seed=78)
    assert np.array_equal(path.positions, batch.positions[0])
    # the same draws as summing the increments of stream(seed) by hand
    inc = sl.sample_increments(spec, 1e-3, sl.stream(78), 1_000)
    assert np.array_equal(path.positions[1:], np.cumsum(inc, axis=0) + x0)
    assert np.array_equal(path.positions[0], x0)


def test_brownian_displacement_moment_d3():
    # E|X_t - x0|^2 = d * t under the variance-t convention
    spec = sl.ProcessSpec(alpha=2.0, dim=3)
    batch = sl.sample_path_batch(spec, [0.0, 0.0, 0.0], t_max=1.0, h=0.1, n_paths=100_000, seed=9)
    sq = ((batch.positions[:, -1] - batch.positions[:, 0]) ** 2).sum(axis=1)
    se = sq.std() / math.sqrt(batch.n_paths)
    assert abs(sq.mean() - 3.0) <= 3.0 * se


def test_heavy_tail_mass_quadrature_oracle():
    # P(|X_1| > M) for alpha = 1/2 from Gil-Pelaez inversion of exp(-|u|^a)
    from stablelab.closedform import symmetric_stable_central_cdf_mass

    alpha, m = 0.5, 10.0
    spec = sl.ProcessSpec(alpha=alpha, dim=1)
    x = sl.sample_increments(spec, 1.0, sl.stream(110), 400_000)[:, 0]
    emp_tail = (np.abs(x) > m).mean()
    oracle_tail = 1.0 - symmetric_stable_central_cdf_mass(alpha, m)
    se = math.sqrt(oracle_tail * (1 - oracle_tail) / x.size)
    assert emp_tail > 0.0
    assert abs(emp_tail - oracle_tail) <= 5.0 * se


def test_path_csv_roundtrip(tmp_path):
    spec = sl.ProcessSpec(alpha=2.0, dim=2)
    path = sl.sample_path(spec, [0.0, 0.0], t_max=0.5, h=0.1, seed=3)
    fp = tmp_path / "p.csv"
    path.to_csv(fp)
    data = np.loadtxt(fp, delimiter=",", skiprows=1)
    assert data.shape == (6, 3)
    assert np.allclose(data[:, 0], path.times)
