"""End-to-end acceptance criteria.

Each test runs one criterion at its stated tolerance and prints a single
ACCEPTANCE line with the measured values and the elapsed time (visible with
``pytest -s`` or in the captured output of a failing test).

Criterion 5 scans the shrinking-ball family B(e_n, r_n), r_n =
(log log(n+3))^(-1/2), truncated at n_max.  The paper's hypothesis is that
R_1 1 -> 0 at infinity, with no rate, and this radius law moves only with
log log n: probes doubling from n = 5 to n = 40 take r_n from 1.17 to 0.87
only, too little for R_1 1 to halve.  A probe at n = n_max also sits on
the truncation cut, where the missing next ball shortens the exit time.
The probes therefore span three decades of n and stay far inside the cut,
and the scan is rerun with n_max doubled to show that no path sees the cut.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import i0

import stablelab as sl
from stablelab.closedform import CauchyBump, GaussianBump, brownian_ball_mean_exit

pytestmark = pytest.mark.acceptance

BM1 = sl.ProcessSpec(alpha=2.0, dim=1)
BM2 = sl.ProcessSpec(alpha=2.0, dim=2)
CAUCHY = sl.ProcessSpec(alpha=1.0, dim=1)


class _Clock:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _line(cid, ok, clock, detail):
    print(f"ACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} ({clock.elapsed:.1f}s): {detail}")


def test_c01_brownian_ball_exit_time():
    budget = 60.0
    with _Clock() as ck:
        res = sl.estimate_mean_exit_time(
            BM2, [0.0, 0.0], sl.Ball((0.0, 0.0), 1.0),
            t_max=8.0, h=1e-4, n_paths=100_000, seed=101,
        )
    tol = max(3.0 * res.stderr, 0.01 * 0.5)
    ok = abs(res.mean - 0.5) <= tol and ck.elapsed < budget
    _line("C1", ok, ck, f"E[tau]={res.mean:.5f}+-{res.stderr:.5f}, target 0.5, tol {tol:.5f}")
    assert abs(res.mean - 0.5) <= tol
    assert ck.elapsed < budget


def test_c02_dynkin_residual():
    budget = 60.0
    with _Clock() as ck:
        res = sl.dynkin_residual(
            BM1, [0.0], GaussianBump(1.0), 0.5, sl.Interval(-1.0, 1.0),
            h=1e-3, n_paths=100_000, seed=102,
        )
    ok = abs(res.residual) < 3.0 * res.stderr and ck.elapsed < budget
    _line("C2", ok, ck, f"residual={res.residual:.2e}, 3*stderr={3*res.stderr:.2e}")
    assert abs(res.residual) < 3.0 * res.stderr
    assert ck.elapsed < budget


def test_c03_subprocess_identity():
    budget = 5.0
    with _Clock() as ck:
        batch = sl.sample_path_batch(BM1, [0.0], 1.0, 1e-3, 5_000, seed=103)
        devs = []
        for t in (0.5, 1.0):
            for f in (lambda x: np.ones(len(x)), lambda x: np.exp(-np.asarray(x) ** 2)):
                devs.append(
                    sl.subprocess_commute_check(batch, sl.Interval(-1, 1), t, f)
                )
        worst = max(devs)
    ok = worst <= 1e-12 and ck.elapsed < budget
    _line("C3", ok, ck, f"max relative deviation {worst:.2e}")
    assert worst <= 1e-12
    assert ck.elapsed < budget


def test_c04_operator_norm_bound():
    budget = 120.0
    with _Clock() as ck:
        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)  # V = 1 + x^2
        level = sl.Interval(-6.0, 6.0)
        inner = np.linspace(-3.0, 3.0, 13)[:, None]
        outer = np.array([[-6.0], [-5.0], [-4.0], [-3.5], [-3.25],
                          [3.25], [3.5], [4.0], [5.0], [6.0]])
        bound = sl.t_norm_bound_check(
            CAUCHY, pot, level, inner, outer, t=1.0, h=1e-3,
            n_paths=4_000, seed=104, zeta_t_max=6.0,
        )
    ok = bound.passed and ck.elapsed < budget
    _line("C4", ok, ck,
          f"lhs={bound.lhs:.2e} rhs={bound.rhs:.4f} "
          f"(compact {bound.compact_part:.2e}, tail {bound.tail_part:.4f})")
    assert bound.passed
    assert ck.elapsed < budget


def test_c05_tightness_scan_shrinking_balls():
    budget = 180.0
    ns = np.array([5.0, 50.0, 500.0, 5000.0])
    n_max = 10_000
    probes = np.column_stack([ns, np.zeros_like(ns)])

    def columns(cut):
        scan = sl.exit_time_scan(
            BM2, probes, sl.shrinking_ball_domain(2, cut), t_max=20.0, h=1e-3,
            n_paths=20_000, seed=105, threads=2,
        )
        return np.array([[m.mean, m.stderr, r.mean, r.stderr] for m, r in scan]).T

    with _Clock() as ck:
        et, et_se, r1, r1_se = columns(n_max)
        et2, _, r12, _ = columns(2 * n_max)
    # The inscribed ball B(e_n, r_n) lies in the union, so its closed forms
    # bound both columns from below (capping at t_max = 20 moves the ball's
    # values by < 1e-15).
    r = sl.shrinking_radius(ns)
    et_lo = np.array([brownian_ball_mean_exit(rn, 0.0, 2) for rn in r])
    r1_lo = 1.0 - 1.0 / i0(math.sqrt(2.0) * r)
    et_oracle = bool(np.all(et >= et_lo - 3.0 * et_se))
    r1_oracle = bool(np.all(r1 >= r1_lo - 3.0 * r1_se))
    stable = bool(np.array_equal(et, et2) and np.array_equal(r1, r12))
    et_down = bool(np.all(np.diff(et) < 0.0))
    r1_down = bool(np.all(np.diff(r1) < 0.0))
    et_half = bool(et[-1] < 0.5 * et[0])
    r1_half = bool(r1[-1] < 0.5 * r1[0])
    ok = (et_oracle and r1_oracle and stable and et_down and r1_down
          and et_half and r1_half and ck.elapsed < budget)
    _line(
        "C5", ok, ck,
        f"E[tau]={np.array2string(et, precision=3)} (down={et_down}, ratio {et[-1]/et[0]:.3f}) "
        f"R1={np.array2string(r1, precision=3)} (down={r1_down}, ratio {r1[-1]/r1[0]:.3f}) "
        f"ball bounds ok={et_oracle and r1_oracle}, stable in n_max={stable}",
    )
    assert et_oracle, f"E[tau] below inscribed-ball bound {np.array2string(et_lo, precision=3)}"
    assert r1_oracle, f"R_1 below inscribed-ball bound {np.array2string(r1_lo, precision=3)}"
    assert stable, f"columns changed when n_max went from {n_max} to {2 * n_max}"
    assert et_down, "exit-time column must decrease strictly"
    assert r1_down, "R_1 column must decrease strictly"
    assert et_half, f"exit-time halving failed: ratio {et[-1]/et[0]:.3f}"
    assert ck.elapsed < budget
    assert r1_half, (
        f"R_1 halving failed: ratio {r1[-1]/r1[0]:.3f} > 0.5. The radii "
        "(log log(n+3))^(-1/2) shrink only over decades of n, so the probes "
        "must span them, and each probe must sit away from the cut at n_max."
    )


def test_c06_trace_exit_coexistence():
    budget = 120.0
    with _Clock() as ck:
        t = 0.01
        traces = []
        tails = []
        for n in (8, 16, 32, 64):
            dom = sl.disjoint_shrinking_intervals(n)
            traces.append(sl.union_interval_trace(dom, 0.01, t))
            a, b = dom.segments[-1]
            tails.append(((b - a) / 2.0) ** 2)
        growth = traces[-1] / traces[-2] - 1.0
        tail_ratio = tails[-1] / tails[0]
    ok = growth >= 0.20 and tail_ratio < 0.20 and ck.elapsed < budget
    _line("C6", ok, ck,
          f"trace growth at largest doubling {growth*100:.1f}% (need >= 20%), "
          f"tail half-length^2 ratio {tail_ratio:.3f} (need < 0.2)")
    assert growth >= 0.20
    assert tail_ratio < 0.20
    assert ck.elapsed < budget


def test_c07_compactness_diagnostic():
    budget = 60.0
    with _Clock() as ck:
        levels = [sl.Interval(-r, r) for r in (4.0, 7.0, 10.0, 13.0, 16.0)]
        base = sl.dirichlet_laplacian(sl.Grid1D.symmetric(20.0, 0.01))
        killed = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        tight = sl.compactness_diagnostic(killed, levels, 1.0)
        control_base = sl.dirichlet_laplacian(sl.Grid1D.symmetric(20.0, 0.02))
        control = sl.compactness_diagnostic(control_base, levels, 1.0)
    ok = tight[-1] < 0.01 and np.all(control >= 0.9) and ck.elapsed < budget
    _line("C7", ok, ck,
          f"killed top-level norm {tight[-1]:.2e} (<0.01), "
          f"conservative min {control.min():.3f} (>=0.9)")
    assert tight[-1] < 0.01
    assert np.all(np.diff(tight) < 0)
    assert np.all(control >= 0.9)
    assert ck.elapsed < budget


def test_c08_lp_rate_independence():
    budget = 30.0
    with _Clock() as ck:
        base = sl.dirichlet_laplacian(sl.Grid1D.symmetric(20.0, 0.01))
        killed = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        rates = sl.lp_spectral_bound_compare(killed, [8.0])
        lam1 = rates.rate_at(1, 8.0)
        lam2 = rates.rate_at(2, 8.0)
        laminf = rates.rate_at("inf", 8.0)
        rel = abs(lam1 - lam2) / lam2
    ok = rel < 0.05 and lam1 == laminf and ck.elapsed < budget
    _line("C8", ok, ck,
          f"lam_1={lam1:.5f} lam_2={lam2:.5f} rel={rel:.4f} (<0.05), "
          f"lam_1 == lam_inf: {lam1 == laminf}")
    assert rel < 0.05
    assert lam1 == laminf
    assert ck.elapsed < budget


def test_c09_beta_transition():
    budget = 120.0
    with _Clock() as ck:
        study = sl.weighted_transition_study(1.0, [2.0, 0.5], (20.0, 40.0, 80.0), 0.05)
        stab = study["gap"][2.0]
        dec = study["gap"][0.5]
        rel_stab = abs(stab[-1] - stab[-2]) / stab[-2]
        rel_dec = (dec[-2] - dec[-1]) / dec[-2]
    ok = rel_stab < 0.01 and rel_dec > 0.20 and ck.elapsed < budget
    _line("C9", ok, ck,
          f"beta=2 gap change 40->80: {rel_stab*100:.2f}% (<1%); "
          f"beta=0.5: {rel_dec*100:.1f}% decrease (>20%)")
    assert rel_stab < 0.01
    assert rel_dec > 0.20
    assert dec[-1] < dec[-2] < dec[-3]
    assert ck.elapsed < budget


def test_c10_quadrature_green_bounds():
    budget = 30.0
    with _Clock() as ck:
        j = sl.j_integral(sl.JParams(0.5, 2.0, 1), 0.0)
        target = math.pi * math.sqrt(2.0)
        rel = abs(j - target) / target
        table = sl.r0_mu_bound_check(
            sl.TimeChangeWeight(beta=1.0), 1, 0.5, (1.0, 2.0, 4.0, 8.0, 16.0)
        )
        coincide = bool(np.allclose(table.resolvent, table.bound, rtol=1e-6))
        decays = table.decays()
    ok = rel <= 1e-5 and coincide and decays and ck.elapsed < budget
    _line("C10", ok, ck,
          f"J(0)={j:.8f} vs pi*sqrt(2) rel err {rel:.1e} (<=1e-5); "
          f"extremal columns coincide={coincide}, decay={decays}")
    assert rel <= 1e-5
    assert coincide
    assert decays
    assert ck.elapsed < budget


def test_c11_property_suite():
    budget = 120.0
    checks = {}
    with _Clock() as ck:
        # sampler scaling law: X_{2h} rescaled by 2^(-1/alpha) ~ X_h
        for alpha in (0.8, 1.5, 2.0):
            spec = sl.ProcessSpec(alpha=alpha, dim=1)
            a = sl.sample_increments(spec, 2.0, sl.stream(111), 40_000)[:, 0] * 2 ** (-1 / alpha)
            b = sl.sample_increments(spec, 1.0, sl.stream(112), 40_000)[:, 0]
            checks[f"scaling_alpha_{alpha:g}"] = stats.ks_2samp(a, b).pvalue > 1e-3

        # matrix semigroup invariants on a killed generator
        base = sl.dirichlet_laplacian(sl.Grid1D.symmetric(6.0, 0.02))
        killed = sl.killed_generator(base, sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        p05 = sl.semigroup_matrix(killed, 0.5)
        p03 = sl.semigroup_matrix(killed, 0.3)
        p02 = sl.semigroup_matrix(killed, 0.2)
        checks["submarkov_rows"] = bool(p05.sum(axis=1).max() <= 1.0 + 1e-10)
        checks["positivity"] = bool(p05.min() >= -1e-12)
        checks["semigroup_law"] = bool(np.abs(p03 @ p02 - p05).max() <= 1e-10)

        # part-process monotonicity p^n <= p^{n+1} <= p
        small, idx_s = sl.part_generator(killed, sl.Interval(-2.0, 2.0))
        big, idx_b = sl.part_generator(killed, sl.Interval(-4.0, 4.0))
        ps = np.zeros_like(p05)
        ps[np.ix_(idx_s, idx_s)] = sl.semigroup_matrix(small, 0.5)
        pb = np.zeros_like(p05)
        pb[np.ix_(idx_b, idx_b)] = sl.semigroup_matrix(big, 0.5)
        checks["part_monotone"] = bool(
            np.all(ps <= pb + 1e-12) and np.all(pb <= p05 + 1e-12)
        )

        # Feynman-Kac weight stays in (0, 1]
        path = sl.sample_path(BM1, [0.0], 2.0, 1e-3, 113)
        pot = sl.KillingPotential.power(1.0, 2.0, offset=1.0)
        ws = [sl.feynman_kac_weight(path, pot, t) for t in (0.0, 0.5, 1.0, 2.0)]
        checks["fk_weight_unit_interval"] = all(0.0 < w <= 1.0 for w in ws)

        # constant-potential lifetime 1/c and the geometric overestimate
        res = sl.estimate_killed_lifetime_mean(
            BM1, [0.0], sl.KillingPotential.constant(2.0), 1e-3, 4_000, 114, t_max=8.0
        )
        checks["lifetime_inverse_rate"] = abs(res.mean - 0.5) < 0.01
        checks["geometric_bound_orders"] = 1.0 / (1.0 - res.p_hat) > res.mean
    ok = all(checks.values()) and ck.elapsed < budget
    failed = [k for k, v in checks.items() if not v]
    _line("C11", ok, ck, f"{len(checks)} properties, failed: {failed or 'none'}")
    assert not failed, f"failed properties: {failed}"
    assert ck.elapsed < budget
