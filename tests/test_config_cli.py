"""Config schema, experiment runner and CLI contract tests."""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import stablelab as sl
from stablelab.cli import main
from stablelab.config import _SCHEMA, EXPERIMENTS, ConfigError, default_config, parse_config
from stablelab.experiments import report_summary, run


def _strip_timestamp(text: str) -> str:
    return "\n".join(
        ln for ln in text.splitlines() if not ln.startswith("# generated_at")
    )


class TestConfigSchema:
    def test_defaults_complete(self):
        cfg = default_config("dynkin-check")
        assert cfg["alpha"] == 2.0 and cfg["n_paths"] == 100_000

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config("bogus = 1", experiment="exit-time")

    def test_alpha_range_names_constraint(self):
        with pytest.raises(ConfigError, match=r"alpha ∈ \(0,2\]"):
            parse_config("alpha = 2.5", experiment="exit-time")

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("alpha = 2.0")

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("alpha = 2.0\nnot a kv pair")

    def test_transience_precondition_names_hypothesis(self):
        with pytest.raises(ConfigError, match="d > alpha"):
            parse_config("alpha = 2.0\ndim = 1", experiment="resolvent-bounds")

    def test_trace_doubling_guard(self):
        with pytest.raises(ConfigError, match="doubling"):
            parse_config("n_list = 8, 12, 16", experiment="trace-study")

    def test_comments_and_blanks_ok(self):
        cfg = parse_config("# a comment\n\nseed = 42\n", experiment="exit-time")
        assert cfg["seed"] == 42

    def test_resolved_lines_sorted_and_typed(self):
        cfg = parse_config("seed = 7", experiment="exit-time")
        lines = cfg.resolved_lines()
        assert lines[0] == "experiment=exit-time"
        assert lines[1:] == sorted(lines[1:])
        assert any(ln == "seed=7" for ln in lines)


class TestRunReports:
    def test_exit_time_report_and_reproducibility(self, tmp_path):
        cfg = parse_config("n_paths = 2000\nt_max = 8.0", experiment="exit-time")
        r1 = run(cfg, str(tmp_path / "a"))
        r2 = run(cfg, str(tmp_path / "b"))
        assert r1.status == 0
        t1 = Path(r1.files[0]).read_text()
        t2 = Path(r2.files[0]).read_text()
        assert _strip_timestamp(t1) == _strip_timestamp(t2)
        assert "# config: experiment=exit-time" in t1
        assert "# claim:" in t1

    def test_seed_changes_report(self, tmp_path):
        base = parse_config("n_paths = 2000\nt_max = 8.0", experiment="exit-time")
        other = parse_config(
            "n_paths = 2000\nt_max = 8.0\nseed = 99", experiment="exit-time"
        )
        ra = run(base, str(tmp_path / "a"))
        rb = run(other, str(tmp_path / "b"))
        assert _strip_timestamp(Path(ra.files[0]).read_text()) != _strip_timestamp(
            Path(rb.files[0]).read_text()
        )

    def test_threads_do_not_change_report(self, tmp_path):
        texts = []
        for threads, sub in ((1, "a"), (3, "b")):
            cfg = parse_config(
                f"n_paths = 3000\nthreads = {threads}\nprobes = 3, 6\ndomain.n_max = 8\nt_max = 10",
                experiment="tightness-scan",
            )
            r = run(cfg, str(tmp_path / sub))
            texts.append(_strip_timestamp(Path(r.files[0]).read_text()))
        a, b = texts
        # identical numbers; only the recorded threads value differs
        assert a.replace("threads=1", "threads=N") == b.replace("threads=3", "threads=N")

    def test_spectra_json_schema(self, tmp_path):
        cfg = parse_config(
            "grid.radius = 6\ngrid.delta = 0.05", experiment="spectra"
        )
        r = run(cfg, str(tmp_path))
        payload = json.loads(Path(r.files[0]).read_text())
        assert payload["schema_version"] == "1"
        assert payload["assertions"] and all(a["pass"] for a in payload["assertions"])
        assert len(payload["eigenvalues"]) > 0
        assert r.status == 0

    def test_trace_study_runs_small(self, tmp_path):
        cfg = parse_config(
            "n_list = 4, 8\ngrid.delta = 0.02", experiment="trace-study"
        )
        r = run(cfg, str(tmp_path))
        # growth assertions are calibrated for the doubling scan up to 64;
        # a tiny scan still writes well-formed rows
        text = Path(r.files[0]).read_text()
        assert "n_intervals,heat_trace,tail_half_length_sq" in text

    def test_dynkin_small_passes(self, tmp_path):
        cfg = parse_config("n_paths = 20000", experiment="dynkin-check")
        r = run(cfg, str(tmp_path))
        assert r.status == 0 and r.assertions[0].passed

    def test_json_format_for_tabular_experiment(self, tmp_path):
        cfg = parse_config("n_paths = 1500\nt_max = 8.0", experiment="exit-time")
        r = run(cfg, str(tmp_path), fmt="json")
        assert r.files[0].endswith("exit-time.json")
        payload = json.loads(Path(r.files[0]).read_text())
        assert payload["schema_version"] == "1"
        assert payload["columns"][0] == "quantity"
        assert "overall:" in report_summary([r.files[0]])


class TestRunnerBranches:
    """Runner branches that no other test reaches, at toy size.  Each run
    goes through the CLI and must exit with the status its recorded
    assertions give."""

    @staticmethod
    def _run(tmp_path, text):
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--format", "json"])
        (report,) = out.glob("*.json")
        payload = json.loads(report.read_text())
        assert code == (0 if all(a["pass"] for a in payload["assertions"]) else 1)
        return payload

    def test_exit_time_on_fullspace_has_no_oracle(self, tmp_path, capsys):
        payload = self._run(tmp_path, "experiment = exit-time\ndomain.shape = fullspace\n"
                                      "n_paths = 200\nt_max = 2\nh = 0.01\n")
        assert payload["assertions"] == []
        (row,) = payload["rows"]
        # no path leaves the whole space: the censored mean is the horizon
        assert row[0] == "mean_exit_time" and row[2] == 2.0 and row[-1] == 1.0
        assert payload["warnings"]

    def test_exit_time_stable_interval_oracle_bound(self, tmp_path, capsys):
        payload = self._run(tmp_path, "experiment = exit-time\nalpha = 0.5\nx0 = 0.3\n"
                                      "n_paths = 2000\nh = 0.01\n")
        (a,) = payload["assertions"]
        row = payload["rows"][0]
        assert row[0] == "mean_exit_time"
        mean, stderr = row[2], row[3]
        oracle = (1.0 - 0.3**2) ** 0.25 / math.gamma(1.5)
        assert a["name"] == "exit_time_matches_oracle"
        assert a["bound"] == pytest.approx(max(3.0 * stderr, 0.01 * oracle), rel=1e-12)
        assert a["value"] == pytest.approx(abs(mean - oracle), rel=1e-9)

    def test_disjoint_intervals_scan_in_dim_one(self, tmp_path, capsys):
        payload = self._run(tmp_path, "experiment = tightness-scan\n"
                                      "domain.shape = disjoint-intervals\ndim = 1\n"
                                      "probes = 2, 8, 32\nn_paths = 500\nt_max = 4\nh = 0.01\n")
        assert [row[0] for row in payload["rows"]] == ["2", "8", "32"]
        assert [a["name"] for a in payload["assertions"]] == [
            "exit_time_strictly_decreasing", "r1_strictly_decreasing", "trend_agreement"]

    def test_spectra_weighted_generator(self, tmp_path, capsys):
        # the weighted generator is killed by the potential the report records
        payload = self._run(tmp_path, "experiment = spectra\nalpha = 1\nweight.beta = 2\n"
                                      "grid.radius = 4\ngrid.delta = 0.1\n")
        grid, w = sl.Grid1D.symmetric(4.0, 0.1), sl.TimeChangeWeight(beta=2.0)
        gen = sl.killed_generator(sl.weighted_generator(grid, w, 1.0),
                                  sl.KillingPotential.power(1.0, 2.0, offset=1.0))
        assert payload["eigenvalues"] == [float(v) for v in gen.eigenvalues[:64]]
        assert len(payload["assertions"]) == 3

    def test_spectra_weighted_generator_without_potential(self, tmp_path, capsys):
        payload = self._run(tmp_path, "experiment = spectra\nalpha = 1\nweight.beta = 2\n"
                                      "grid.radius = 4\ngrid.delta = 0.1\npotential.kind = none\n")
        grid, w = sl.Grid1D.symmetric(4.0, 0.1), sl.TimeChangeWeight(beta=2.0)
        gen = sl.weighted_generator(grid, w, 1.0)
        assert payload["eigenvalues"] == [float(v) for v in gen.eigenvalues[:64]]
        assert len(payload["assertions"]) == 3

    def test_spectra_alpha_two_weight_doubles_the_clock(self, tmp_path, capsys):
        # W = 1 + |x|^0 = 2 runs (1/2)Delta's clock twice as fast
        text = "experiment = spectra\npotential.kind = none\ngrid.radius = 4\ngrid.delta = 0.1\n"
        (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
        plain = self._run(tmp_path / "a", text)
        weighted = self._run(tmp_path / "b", text + "weight.beta = 0\n")
        assert weighted["eigenvalues"] == [2.0 * v for v in plain["eigenvalues"]]

    def test_spectra_l1_check_needs_the_weights(self, tmp_path, capsys, monkeypatch):
        # column sums of P_t without the measure weights are not the L1 norm
        # of a weighted generator, and the check says so
        import stablelab.experiments as experiments

        def unweighted(gen, t):
            return -float(np.log(np.abs(sl.semigroup_matrix(gen, t)).sum(axis=0).max())) / t

        text = "experiment = spectra\nalpha = 1\nweight.beta = 2\ngrid.radius = 4\ngrid.delta = 0.1\n"
        (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
        checks = {a["name"]: a for a in self._run(tmp_path / "a", text)["assertions"]}
        assert checks["lp_one_matches_inf"]["pass"]
        monkeypatch.setattr(experiments, "_l1_rate", unweighted)
        checks = {a["name"]: a for a in self._run(tmp_path / "b", text)["assertions"]}
        assert not checks["lp_one_matches_inf"]["pass"]

    def test_spectra_without_potential(self, tmp_path, capsys):
        payload = self._run(tmp_path, "experiment = spectra\npotential.kind = none\n"
                                      "grid.radius = 4\ngrid.delta = 0.1\n")
        base = sl.dirichlet_laplacian(sl.Grid1D.symmetric(4.0, 0.1))
        assert payload["eigenvalues"] == [float(v) for v in base.eigenvalues[:64]]
        assert len(payload["assertions"]) == 3


class TestSummary:
    def test_no_assertions_note(self, tmp_path):
        cfg = parse_config("n_paths = 2", experiment="sample-paths")
        r = run(cfg, str(tmp_path))
        text = report_summary([r.files[0]])
        assert "no assertions" in text
        assert "PASS (vacuous)" in text

    def test_mixed_pass_fail_overall_fail(self, tmp_path):
        fp = tmp_path / "synthetic.csv"
        fp.write_text(
            "# schema_version: 1\n"
            "# assert good_one: value=1 bound=2 dir=<= pass=True\n"
            "# assert bad_one: value=3 bound=2 dir=<= pass=False\n"
            "a,b\n1,2\n"
        )
        text = report_summary([str(fp)])
        assert "overall: FAIL" in text
        assert "PASS  good_one" in text and "FAIL  bad_one" in text

    def test_byte_stable(self, tmp_path):
        cfg = parse_config("n_paths = 2000\nt_max = 8.0", experiment="exit-time")
        r = run(cfg, str(tmp_path))
        s1 = report_summary(list(r.files))
        s2 = report_summary(list(r.files))
        assert s1 == s2

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            report_summary(["/nonexistent/report.csv"])

    def test_corrupt_json(self, tmp_path):
        fp = tmp_path / "bad.json"
        fp.write_text("{not json")
        with pytest.raises(ValueError, match="corrupt"):
            report_summary([str(fp)])


class TestCli:
    def test_run_ok_exit_zero(self, tmp_path, capsys):
        code = main([
            "run", "exit-time", "--out", str(tmp_path), "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "wrote" in out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = exit-time\nalpha = 2.5\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "alpha" in err

    def test_missing_config_file_exit_two(self, tmp_path, capsys):
        code = main(["run", "exit-time", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_config_supplies_experiment(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("experiment = exit-time\nn_paths = 1500\nt_max = 8\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "exit-time.csv").exists()

    def test_summary_subcommand(self, tmp_path, capsys):
        main(["run", "exit-time", "--out", str(tmp_path), "--seed", "5"])
        capsys.readouterr()
        code = main(["summary", str(tmp_path / "exit-time.csv")])
        out = capsys.readouterr().out
        assert code == 0 and "overall:" in out

    def test_summary_missing_file_exit_two(self, capsys):
        assert main(["summary", "/nonexistent.csv"]) == 2

    def test_usage_error_exit_two(self, capsys):
        assert main(["run", "not-an-experiment"]) == 2

    @pytest.mark.parametrize("flag, value", [("--threads", "0"), ("--seed", "-5")])
    def test_out_of_range_override_exit_two(self, flag, value, tmp_path, capsys):
        code = main(["run", "exit-time", flag, value, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert flag.lstrip("-") in err
        assert not (tmp_path / "exit-time.csv").exists()

    def test_resolvent_bounds_needs_beta_above_alpha(self, tmp_path, capsys):
        cfg = tmp_path / "rb.cfg"
        cfg.write_text("experiment = resolvent-bounds\nweight.beta = 0.3\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "weight.beta" in err and "beta > alpha" in err

    @pytest.mark.parametrize("text, field", [
        ("experiment = exit-time\ndim = 2\nx0 = 0, 0\n", "domain.shape"),
        ("experiment = exit-time\ndomain.shape = ball\ndim = 2\nx0 = 0\n", "x0"),
        ("experiment = t-norm-check\ndim = 2\n", "dim"),
        ("experiment = tightness-scan\nprobes = 5\n", "probes"),
    ])
    def test_cross_field_error_exit_two_before_simulating(self, text, field, tmp_path,
                                                          capsys, monkeypatch):
        import stablelab.functionals as functionals
        import stablelab.identities as identities

        def no_paths(*args, **kwargs):
            raise AssertionError("a rejected config must not simulate")

        monkeypatch.setattr(functionals, "_fk_engine", no_paths)
        monkeypatch.setattr(identities, "_fk_engine", no_paths)
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: {field}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, field", [
        ("experiment = tightness-scan\ndim = 1\nx0 = 0\n", "domain.shape"),
        ("experiment = theorem4-scan\ndim = 1\n", "domain.shape"),
        ("experiment = tightness-scan\nprobes = 5, 50\ndomain.n_max = 20\n", "probes"),
        ("experiment = theorem4-scan\nprobes = 5, 20\ndomain.n_max = 20\n", "probes"),
        ("experiment = tightness-scan\ndomain.shape = disjoint-intervals\ndim = 1\n"
         "domain.n_max = 64\nprobes = 5, 64\n", "probes"),
        ("experiment = tightness-scan\nprobes = 50, 5\n", "probes"),
        ("experiment = theorem4-scan\nprobes = 5, 5, 50\n", "probes"),
        ("experiment = beta-transition\nradii = 80, 40, 20\n", "radii"),
        ("experiment = beta-transition\nradii = 20, 40, 40\n", "radii"),
        ("experiment = beta-transition\nradii = 20\n", "radii"),
        ("experiment = trace-study\nn_list = 8\n", "n_list"),
        ("experiment = exit-time\nt_max = 1.0005\n", "t_max"),
        ("experiment = exit-time\nt_max = 1e-13\n", "t_max"),
        ("experiment = dynkin-check\nh = 0.3\n", "t"),
        ("experiment = sample-paths\nh = 0.3\n", "t_max"),
        ("experiment = t-norm-check\nh = 0.3\n", "t"),
        ("experiment = t-norm-check\nh = 0.4\nt = 1.2\n", "h"),
        # configs that would fail inside the run: a quadrature wired for d = 1,
        # grids above the dense cap or below the 3-point minimum
        ("experiment = resolvent-bounds\ndim = 2\n", "dim"),
        ("experiment = spectra\ngrid.radius = 100\ngrid.delta = 0.02\n", "grid.radius"),
        ("experiment = spectra\ngrid.radius = 0.02\n", "grid.radius"),
        ("experiment = beta-transition\nradii = 20, 400\n", "radii"),
        ("experiment = trace-study\ngrid.delta = 0.2\n", "grid.delta"),
        # dynkin_residual's domain rule and its oracle's d = 1 condition
        ("experiment = dynkin-check\ndomain.shape = ball\n", "domain.shape"),
        ("experiment = dynkin-check\ndomain.shape = shrinking-balls\n", "domain.shape"),
        ("experiment = dynkin-check\nf.kind = cauchy\nalpha = 1\ndim = 2\n"
         "domain.shape = fullspace\nx0 = 0, 0\n", "f.kind"),
        # refused by the library object the runner builds, or by the list rule
        ("experiment = exit-time\ndomain.a = 1\ndomain.b = -1\n", "domain.a"),
        ("experiment = t-norm-check\npotential.c = 0\npotential.offset = 0\n", "potential.c"),
        ("experiment = dynkin-check\nx0 = 5\n", "x0"),
        # a start outside U exits at once, and U = the whole space has no boundary
        ("experiment = exit-time\nx0 = 5\n", "x0"),
        ("experiment = dynkin-check\ndomain.shape = fullspace\n", "domain.shape"),
        ("experiment = spectra\ntimes =\n", "times"),
        ("experiment = beta-transition\nbetas =\n", "betas"),
    ])
    def test_scan_and_order_rules_exit_two(self, text, field, tmp_path, capsys, monkeypatch):
        import stablelab.analytics as analytics
        import stablelab.experiments as experiments
        import stablelab.functionals as functionals
        import stablelab.identities as identities
        import stablelab.spectral as spectral

        def no_work(*args, **kwargs):
            raise AssertionError("a rejected config must not run")

        # every library entry the runners of these experiments call
        for mod, name in [(functionals, "_fk_engine"), (functionals, "estimate_mean_exit_time"),
                          (functionals, "exit_time_scan"), (identities, "dynkin_residual"),
                          (identities, "t_norm_bound_check"), (experiments, "sample_path"),
                          (spectral, "weighted_transition_study"),
                          (spectral, "union_interval_trace"), (spectral, "dirichlet_laplacian"),
                          (spectral, "fractional_power"), (analytics, "r0_mu_bound_check")]:
            monkeypatch.setattr(mod, name, no_work)
        cfg = tmp_path / "x.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: {field}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("probes", ["16, 8, 4, 2, 1", "1, -1", "4"])
    def test_resolvent_bounds_probe_order_exit_two(self, probes, tmp_path, capsys,
                                                   monkeypatch):
        import stablelab.analytics as analytics

        def no_work(*args, **kwargs):
            raise AssertionError("a rejected config must not run")

        monkeypatch.setattr(analytics, "r0_mu_bound_check", no_work)
        cfg = tmp_path / "rb.cfg"
        cfg.write_text(f"experiment = resolvent-bounds\nprobes = {probes}\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: probes:" in err
        assert not out.exists()
        ok = parse_config("probes = -1, 2, -4\n", experiment="resolvent-bounds")
        assert ok["probes"] == (-1.0, 2.0, -4.0)

    def test_spectra_underflowing_rate_time_exits_two(self, tmp_path, capsys, monkeypatch):
        # the rates are read at 4 and 8 times the last of ``times``; at t = 8e6
        # exp(-lambda_1 t) is 0, which the plan refuses from the generator's
        # lambda_1, before the output directory or any trace or semigroup
        import stablelab.spectral as spectral

        def no_work(*args, **kwargs):
            raise AssertionError("a rejected config must not run")

        monkeypatch.setattr(spectral, "heat_trace", no_work)
        monkeypatch.setattr(spectral.GeneratorMatrix, "semigroup_sym", no_work)
        cfg = tmp_path / "s.cfg"
        cfg.write_text("experiment = spectra\ntimes = 1, 1e6\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error: times: ||P_t|| underflows to 0 at t = 8e+06" in err
        assert not out.exists()

    def test_scan_and_order_rules_accept_what_can_show_the_claim(self):
        one_d = parse_config("domain.shape = disjoint-intervals\ndim = 1\ndomain.n_max = 64\n"
                             "probes = 2, 8, 32, 63\n", experiment="tightness-scan")
        assert one_d["probes"] == (2.0, 8.0, 32.0, 63.0)
        assert parse_config("radii = 10, 20\n", experiment="beta-transition")["radii"] == (10.0, 20.0)


class _Reached(Exception):
    """Raised by every compute entry point in the property test below."""


# Edge values for the keys each experiment reads: reversed and touching
# intervals, zero potentials, starts outside U, empty and one-entry lists,
# horizons that h does not divide or that overflow t / h, and grids at and
# beyond 3 and 4096 points.
_POOLS = {
    "alpha": ["2", "1", "0.5", "1.5"],
    "dim": ["1", "2", "3"],
    "h": ["1e-3", "0.01", "0.3", "0.4", "2", "1e-320"],
    "t": ["0.5", "1", "1.2", "1e-13", "1.0005"],
    "t_max": ["1", "4", "1.0005", "1e-13"],
    "x0": ["", "0", "0, 0", "5", "-1", "1", "0.5, 0, 0"],
    "domain.shape": ["fullspace", "ball", "interval", "shrinking-balls", "disjoint-intervals"],
    "domain.a": ["-1", "0", "1"],
    "domain.b": ["1", "0", "-1"],
    "domain.n_max": ["1", "8", "64"],
    "f.kind": ["gaussian", "cauchy"],
    "potential.kind": ["none", "power"],
    "potential.c": ["0", "1"],
    "potential.offset": ["0", "1"],
    "level.n": ["6", "3"],
    "level.m": ["3", "6", "2"],
    "probes": ["", "5", "3, 6", "6, 3", "5, 5", "1, -1", "5, 50", "2, 8, 32"],
    "weight.beta": ["0.3", "1", "2"],
    "times": ["", "0.5", "0.5, 1"],
    "betas": ["", "0.5", "2, 0.5"],
    "radii": ["", "20", "4, 8", "8, 4", "20, 20.485", "20, 20.49"],
    "n_list": ["", "8", "4, 8", "8, 12", "32, 64"],
    # spectra's box and beta-transition's boxes: 3, 2, 4096 and 4097 points at 0.01
    "grid.radius": ["0.02", "0.015", "3", "20.485", "20.49"],
    # trace-study's shortest segment at 3 and 2 points (n = 64); its longest at
    # 4096 and 4097 (n = 1); beta-transition's boxes at 0.01
    "grid.delta": ["0.01", "0.04", "0.05", "0.0002441", "0.000244", "0.2", "1e-320"],
}
_VARIED = {
    "sample-paths": ["alpha", "dim", "h", "t_max", "x0", "domain.shape", "domain.a", "domain.b"],
    "exit-time": ["alpha", "dim", "h", "t_max", "x0", "domain.shape", "domain.a", "domain.b",
                  "domain.n_max"],
    "tightness-scan": ["dim", "h", "t_max", "x0", "probes", "domain.shape", "domain.n_max"],
    "dynkin-check": ["alpha", "dim", "h", "t", "x0", "domain.shape", "domain.a", "domain.b",
                     "f.kind"],
    "t-norm-check": ["dim", "h", "t", "potential.kind", "potential.c", "potential.offset",
                     "level.n", "level.m"],
    "spectra": ["alpha", "grid.radius", "grid.delta", "weight.beta", "potential.kind",
                "potential.c", "potential.offset", "times"],
    "trace-study": ["n_list", "grid.delta"],
    "beta-transition": ["alpha", "radii", "betas", "grid.delta"],
    "theorem4-scan": ["dim", "h", "t_max", "probes", "domain.shape", "domain.n_max"],
    "resolvent-bounds": ["alpha", "dim", "weight.beta", "probes"],
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_config_exits_two_by_key_or_reaches_the_work(experiment, tmp_path, capsys,
                                                           monkeypatch):
    """A fixed, seeded sample of configs over edge values: each one exits 2
    naming a schema key and leaves no output directory, or gets through its
    plan to a compute entry point; nothing else escapes."""
    import stablelab.analytics as analytics
    import stablelab.experiments as experiments
    import stablelab.functionals as functionals
    import stablelab.identities as identities
    import stablelab.spectral as spectral

    def reach(*args, **kwargs):
        raise _Reached

    for mod, names in [
        (functionals, ["_fk_engine", "estimate_mean_exit_time", "exit_time_scan"]),
        (identities, ["_fk_engine", "dynkin_residual", "t_norm_bound_check"]),
        (experiments, ["sample_path"]),
        # spectra's plan builds its generator and reads lambda_1 (the underflow
        # rule for its rate times), so its work starts at the trace
        (spectral, ["heat_trace", "weighted_transition_study", "union_interval_trace"]),
        (analytics, ["r0_mu_bound_check"]),
    ]:
        for name in names:
            monkeypatch.setattr(mod, name, reach)
    rng = np.random.default_rng([20261019, EXPERIMENTS.index(experiment)])
    outcomes = []
    for i in range(40):
        keys = [k for k in _VARIED[experiment] if rng.random() < 0.5]
        text = f"experiment = {experiment}\n" + "".join(
            f"{k} = {_POOLS[k][rng.integers(len(_POOLS[k]))]}\n" for k in keys)
        cfg, out = tmp_path / f"{i}.cfg", tmp_path / f"out{i}"
        cfg.write_text(text)
        try:
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        except _Reached:
            assert out.exists(), text  # made after the plan, so no compute entry ran in it
            outcomes.append("reached")
            continue
        named = re.match(r"config error: ([\w.]+): ", capsys.readouterr().err)
        assert code == 2 and named and named.group(1) in _SCHEMA, text
        assert not out.exists(), text
        outcomes.append("refused")
    assert {"reached", "refused"} <= set(outcomes)
