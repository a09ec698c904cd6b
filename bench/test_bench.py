"""Tests of the benchmark itself: its checks reject wrong outputs, and every
workload runs, untraced and traced, at toy size in seconds.

    python3 -m pytest bench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _failed(found, name):
    return [c for c in found if c.name == name and not c.ok]


def _toy_outputs(workload):
    return {op.name: op.call(0) for op in workloads.setup(workload, seed=3, threads=2, toy=True)}


# -- the checks reject perturbed outputs ----------------------------------


def test_disc_mean_two_percent_high_fails():
    # The fewest passes a run makes, of 10 000 paths each; Var tau = 3/8 - 1/4.
    n = workloads.MIN_PASSES
    assert workloads.passes("brownian-exit", SPEC["run_seconds"]) >= n
    stderr = math.sqrt(0.125 / 10_000)
    exact = [SimpleNamespace(mean=0.5, stderr=stderr)] * n
    assert all(c.ok for c in checks.check_disc(exact))
    high = [SimpleNamespace(mean=0.5 * 1.02, stderr=stderr)] * n
    assert _failed(checks.check_disc(high), "disc.mean")


def test_scan_column_made_non_monotone_fails():
    scan = _toy_outputs("brownian-exit")["shrinking-ball-scan"]
    ns = np.array([5.0, 50.0, 500.0, 5000.0])
    assert all(c.ok for c in checks.check_scan([scan], ns))
    for col, name in ((0, "scan.exit_decreasing"), (1, "scan.r1_decreasing")):
        bad = [list(pair) for pair in scan]
        bad[2][col], bad[3][col] = bad[3][col], bad[2][col]
        assert _failed(checks.check_scan([bad], ns), name)


def test_killed_oscillator_levels_shifted_fail():
    # At the benchmark's grid: on coarse toy grids the O(delta^2) allowance
    # exceeds a 1e-3 shift.
    import stablelab as sl
    delta = 0.02
    gen = sl.killed_generator(sl.dirichlet_laplacian(sl.Grid1D.symmetric(20.0, delta)),
                              sl.KillingPotential.power(1.0, 2.0, offset=1.0))
    lowest = gen.eigenvalues[:5]
    norms = np.zeros(5)
    assert all(c.ok for c in checks.check_killed_diagnostic([(norms, lowest)], delta))
    shifted = [(norms, lowest * (1.0 + 1e-3))]
    assert _failed(checks.check_killed_diagnostic(shifted, delta), "killed.oscillator_levels")


def test_control_spectrum_shifted_fails():
    norms, eigenvalues = _toy_outputs("spectral-killed")["control-diagnostic"]
    assert all(c.ok for c in checks.check_control_diagnostic([(norms, eigenvalues)], 0.1))
    shifted = [(norms, eigenvalues), (norms, eigenvalues * (1.0 + 1e-3))]
    assert _failed(checks.check_control_diagnostic(shifted, 0.1), "control.sine_spectrum")


def test_weighted_beta0_spectrum_shifted_fails():
    study = _toy_outputs("spectral-weighted")["beta-transition"]
    assert all(c.ok for c in checks.check_weighted_study([study], 0.25))
    shifted = {**study, "eigenvalues": {**study["eigenvalues"], 0.0: [
        [v * (1.0 + 1e-3) for v in row] for row in study["eigenvalues"][0.0]]}}
    assert _failed(checks.check_weighted_study([shifted], 0.25), "weighted.beta0_sine_spectrum")


def test_other_perturbations_fail():
    a, t = 1.0, 0.5
    mean, _ = checks.gaussian_heat_at_zero(a, t)
    ok = SimpleNamespace(residual=0.0, stderr=1e-3, full_semigroup=mean, n_paths=25_000)
    assert all(c.ok for c in checks.check_dynkin([ok], a, t))
    off = SimpleNamespace(residual=5e-3, stderr=1e-3, full_semigroup=mean * 1.02,
                          n_paths=25_000)
    assert _failed(checks.check_dynkin([off], a, t), "dynkin.residual")
    assert _failed(checks.check_dynkin([off], a, t), "dynkin.full_space")
    ref = checks.stable_interval_mean_exit(0.5, 1.0, 0.0)
    high = [SimpleNamespace(mean=ref * 1.02, stderr=1e-3)]
    assert _failed(checks.check_stable_exit(high, 0.5, 1.0, 0.0), "stable_exit.mean")
    rates = SimpleNamespace(rate_at=lambda p, _t: {1: 1.0, 2: 1.0, "inf": 1.0 + 1e-15}[p])
    assert _failed(checks.check_lp_rates([rates], 8.0), "lp.one_equals_inf")


def test_pooled_passes_match_one_large_sample():
    rng = np.random.default_rng(0)
    parts = rng.exponential(size=(4, 1000))
    results = [SimpleNamespace(mean=p.mean(), stderr=p.std() / math.sqrt(p.size)) for p in parts]
    mean, se = checks.pool(results)
    assert mean == pytest.approx(parts.mean())
    assert se == pytest.approx(parts.std() / math.sqrt(parts.size), rel=0.05)


def test_references_match_known_values():
    assert checks.stable_interval_mean_exit(1.0, 1.0, 0.0) == pytest.approx(1.0)
    assert checks.stable_interval_mean_exit(0.5, 1.0, 0.0) == pytest.approx(2.0 / math.sqrt(math.pi))
    assert checks.gaussian_heat_at_zero(1.0, 0.5)[0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert checks.grid_size(20.0, 0.02) == 1999
    # E[1 - e^{-tau}] <= 1 - e^{-E tau} (Jensen), so the planar ball values
    # sit below 1 - exp(-r^2 / 2).
    r = np.array([0.5, 1.0, 2.0])
    assert np.all(checks.ball_r1_planar(r) < 1.0 - np.exp(-r**2 / 2.0))


# -- passes ---------------------------------------------------------------


def test_pass_count_does_not_depend_on_host_speed():
    calls = []
    slow = SimpleNamespace(name="slow", call=lambda p: calls.append(p) or time.sleep(0.02),
                           check=lambda outs: [])
    gaps = []
    times, attempted, failed, _ = run.run_passes([slow], 4, between=gaps.append)
    assert (len(times), attempted, failed, calls, gaps) == (4, 4, 0, [0, 1, 2, 3], [0, 1, 2])
    for w in workloads.WORKLOADS:
        assert workloads.passes(w, SPEC["run_seconds"]) >= workloads.MIN_PASSES


# -- every workload runs at toy size --------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_at_toy_size(workload, trace):
    t0 = time.perf_counter()
    rec = run.measure(workload, seed=5, seconds=0.01, trace=trace, threads=2, toy=True)
    assert time.perf_counter() - t0 < 60.0
    bad = [c for c in rec["checks"] if not c["ok"]]
    assert rec["correct"], bad
    assert rec["failed"] == 0
    assert rec["attempted"] == (4 if trace else 1) * len(workloads.setup(workload, 5, 2, toy=True))
    expected = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(rec["metrics"]) == expected
    values = {k: v["value"] for k, v in rec["metrics"].items()}
    if not trace:
        assert all(v > 0.0 for v in values.values())
        return
    used = {
        "brownian-exit": ("process.draws", "geometry.ball.ns_per_point",
                          "geometry.union_balls.ns_per_point", "functionals.self_s",
                          "functionals.steps", "functionals.useful_step_ratio",
                          "functionals.cpu_per_wall", "identities.self_s", "identities.steps"),
        "stable-killed": ("process.draws", "geometry.interval.ns_per_point",
                          "functionals.potential_s", "functionals.us_per_step.rows_lt_1k",
                          "functionals.us_per_step.rows_1k_10k",
                          "functionals.useful_step_ratio"),
        "spectral-killed": ("spectral.eigh.calls", "spectral.eigh.n3_computed",
                            "spectral.product.busy_s", "spectral.self_s"),
        "spectral-weighted": ("spectral.eigh.calls", "spectral.product.busy_s"),
    }[workload]
    assert all(values[k] > 0 for k in used), {k: values[k] for k in used}
    if workload.startswith("spectral"):
        assert values["process.calls"] == 0 and values["functionals.steps"] == 0
    else:
        assert values["spectral.eigh.calls"] == 0
        assert 0.0 < values["functionals.useful_step_ratio"] <= 1.0


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "brownian-exit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
