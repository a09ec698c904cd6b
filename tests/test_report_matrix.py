"""Every experiment in both report formats, through the one report writer."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablelab import Interval, ProcessSpec, analytics, estimate_mean_exit_time, spectral
from stablelab.config import EXPERIMENTS, parse_config
from stablelab.experiments import _RUNNERS, _decreasing, _records, report_summary, run

# toy sizes: seconds for the whole matrix, not statistically meaningful
_TOY = {
    "sample-paths": "n_paths = 2\nt_max = 0.1",
    "exit-time": "n_paths = 200\nt_max = 2",
    "tightness-scan": "n_paths = 200\nprobes = 3, 6\ndomain.n_max = 8\nt_max = 4\nh = 0.01",
    "theorem4-scan": "n_paths = 200\nprobes = 3, 6\ndomain.n_max = 8\nt_max = 4\nh = 0.01",
    "dynkin-check": "n_paths = 500",
    "t-norm-check": "n_paths = 20\nh = 0.01",
    "spectra": "grid.radius = 3\ngrid.delta = 0.1",
    "trace-study": "n_list = 4, 8\ngrid.delta = 0.05",
    "beta-transition": "radii = 4, 8\ngrid.delta = 0.2",
    "resolvent-bounds": "probes = 1, 2",
}


def _read_report(path):
    """(config lines, assertion names, columns, rows) of a CSV or JSON report."""
    if path.endswith(".json"):
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["schema_version"] == "2" and payload["claim"] and payload["generated_at"]
        names = [a["name"] for a in payload["assertions"]]
        return payload["config"], names, payload.get("columns"), payload.get("rows")
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = [ln for ln in lines if ln.startswith("# ")]
    assert header[0] == "# schema_version: 2"
    assert header[1].startswith("# claim: ") and header[2].startswith("# generated_at: ")
    config = [ln[len("# config: "):] for ln in header if ln.startswith("# config: ")]
    names = [json.loads(ln[len("# assert "):])["name"] for ln in header if ln.startswith("# assert ")]
    table = list(csv.reader(lines[len(header):]))
    return config, names, table[0], table[1:]


def test_every_experiment_has_a_runner():
    assert set(_RUNNERS) == set(EXPERIMENTS) == set(_TOY)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_report_matrix(experiment, fmt, tmp_path):
    cfg = parse_config(_TOY[experiment], experiment=experiment)
    result = run(cfg, str(tmp_path), fmt=fmt)
    report = result.files[0]
    assert report.endswith(".json" if experiment == "spectra" else f".{fmt}")
    config, names, columns, rows = _read_report(report)
    assert config == cfg.resolved_lines()
    assert names == [a.name for a in result.assertions]
    # the summary reads back exactly the records the run made, floats and all
    records, _ = _records(report)
    assert records == [a.record() for a in result.assertions]
    if columns is not None:
        assert columns and all(len(row) == len(columns) for row in rows)
    summary = report_summary([report]).splitlines()
    if names:
        assert [ln.split()[1] for ln in summary[:-1] if not ln.startswith("WARN")] == names
    else:
        assert summary[0] == "no assertions recorded in the given reports"
    assert result.status == (0 if all(a.passed for a in result.assertions) else 1)


def test_scan_names_are_one_experiment(tmp_path):
    tables = []
    for name in ("tightness-scan", "theorem4-scan"):
        result = run(parse_config(_TOY[name], experiment=name), str(tmp_path / name))
        _, names, columns, rows = _read_report(result.files[0])
        tables.append((names, columns, rows))
    assert tables[0] == tables[1]
    assert tables[0][0] == ["exit_time_strictly_decreasing", "r1_strictly_decreasing"]
    assert tables[0][1] == ["probe", "mean_exit", "exit_stderr", "r1", "r1_stderr"]


_ENTRY = st.one_of(st.integers(-3, 3), st.floats(-1e300, 1e300))  # ties, and finite steps


@settings(deadline=None, database=None)
@given(st.lists(st.tuples(_ENTRY, _ENTRY), min_size=2, max_size=6))
def test_two_strict_records_give_the_three_record_scan_status(rows):
    # the scan once also recorded trend_agreement, min sign(diff et) sign(diff r1) >= 1,
    # beside max(diff) <= 0 for each column: two strict records decide every pair alike
    et, r1 = np.array(rows, dtype=float).T
    d_et, d_r1 = np.diff(et), np.diff(r1)
    three = d_et.max() <= 0 and d_r1.max() <= 0 and (np.sign(d_et) * np.sign(d_r1)).min() >= 1
    two = _decreasing("et", et).passed and _decreasing("r1", r1).passed
    assert two == three


def _flat_gap(study):
    def flat(*args):
        out = study(*args)
        return {**out, "gap": {b: [g[0]] * len(g) for b, g in out["gap"].items()}}
    return flat


def _flat_resolvent(check):
    def flat(*args):
        table = check(*args)
        flat_column = np.full_like(table.resolvent, table.resolvent[0])
        return dataclasses.replace(table, resolvent=flat_column)
    return flat


@pytest.mark.parametrize("experiment, mod, name, flatten, record", [
    ("beta-transition", spectral, "weighted_transition_study", _flat_gap, "gap_decreasing_beta_0.5"),
    ("resolvent-bounds", analytics, "r0_mu_bound_check", _flat_resolvent, "columns_decay"),
])
def test_flat_column_fails_its_order_record(experiment, mod, name, flatten, record, tmp_path,
                                            monkeypatch):
    monkeypatch.setattr(mod, name, flatten(getattr(mod, name)))
    result = run(parse_config(_TOY[experiment], experiment=experiment), str(tmp_path))
    (a,) = [a for a in result.assertions if a.name == record]
    assert (a.value, a.direction, a.passed) == (0.0, "<", False) and result.status == 1


@pytest.mark.parametrize("shape, extra, recorded", [
    ("ball", "dim = 2\nx0 = 0.3, 0", "domain.radius=1"),
    ("shrinking-balls", "dim = 2\nx0 = 5, 0", "domain.n_max=10000"),
], ids=["ball", "shrinking-balls"])
def test_shape_keys_are_recorded(shape, extra, recorded, tmp_path):
    cfg = parse_config(f"domain.shape = {shape}\n{extra}\nn_paths = 200\nt_max = 2",
                       experiment="exit-time")
    config, *_ = _read_report(run(cfg, str(tmp_path)).files[0])
    assert recorded in config


def test_survivor_warning_reaches_reports(tmp_path):
    # most paths outlive t_max = 0.5 on (-1, 1): survived_fraction 0.6915
    cfg = parse_config("n_paths = 2000\nt_max = 0.5", experiment="exit-time")
    warning = "survivor fraction 6.92e-01 exceeds 1e-3; raise t_max"
    for fmt in ("csv", "json"):
        report = run(cfg, str(tmp_path / fmt), fmt=fmt).files[0]
        with open(report) as fh:
            text = fh.read()
        if fmt == "json":
            assert json.loads(text)["warnings"] == [warning]
        else:
            lines = text.splitlines()
            assert f"# warning: {warning}" in lines
            assert lines.index(f"# warning: {warning}") < lines.index(
                "quantity,x0,mean,stderr,n_paths,h,seed,survived_fraction")
        summary = report_summary([report]).splitlines()
        assert summary[-2] == f"WARN  {warning}  [exit-time.{fmt}]"
        assert summary[-1] == "overall: FAIL"


def test_tail_corrected_mean_gets_its_own_row(tmp_path):
    # the survivor-warning config: the estimator extrapolates the censored
    # tail, and the report carries that figure in a second row
    cfg = parse_config("n_paths = 2000\nt_max = 0.5", experiment="exit-time")
    res = estimate_mean_exit_time(
        ProcessSpec(alpha=2.0, dim=1), [0.0], Interval(-1.0, 1.0), 0.5, cfg["h"], 2000,
        cfg["seed"],
    )
    assert res.tail_corrected_mean > res.mean
    for fmt in ("csv", "json"):
        _, _, columns, rows = _read_report(run(cfg, str(tmp_path / fmt), fmt=fmt).files[0])
        assert columns == ["quantity", "x0", "mean", "stderr", "n_paths", "h", "seed",
                           "survived_fraction"]
        assert [row[0] for row in rows] == ["mean_exit_time", "tail_corrected_mean"]
        assert [float(row[2]) for row in rows] == pytest.approx(
            [res.mean, res.tail_corrected_mean], rel=1e-11)
        assert rows[1][1] == rows[0][1] and rows[1][3:] == rows[0][3:]


def test_scan_warnings_name_their_probe(tmp_path):
    cfg = parse_config("n_paths = 200\nprobes = 3, 6\ndomain.n_max = 8\nt_max = 0.1\nh = 0.01",
                       experiment="tightness-scan")
    report = run(cfg, str(tmp_path)).files[0]
    with open(report) as fh:
        warnings = [ln for ln in fh.read().splitlines() if ln.startswith("# warning: ")]
    assert [w.split()[2:4] for w in warnings] == [["probe", "3:"], ["probe", "6:"]]


def test_report_without_warnings_has_no_warning_lines(tmp_path):
    cfg = parse_config(_TOY["dynkin-check"], experiment="dynkin-check")
    for fmt in ("csv", "json"):
        report = run(cfg, str(tmp_path / fmt), fmt=fmt).files[0]
        with open(report) as fh:
            text = fh.read()
        assert "warning" not in text
        assert not any(ln.startswith("WARN") for ln in report_summary([report]).splitlines())
