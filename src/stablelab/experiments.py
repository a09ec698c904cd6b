"""Config-driven experiments with CSV/JSON reports.

Each experiment's runner plans first: it checks the rules under which its
assertions can show its claim (the only per-experiment rules; ``config``
checks the schema alone) and builds every library object it uses.  A broken
rule or a refusal is a ConfigError naming its key, raised before any work
and before the output directory exists.  The runner then computes a data table
(for ``spectra``, a set of JSON fields in its place), runs its hard
assertions and writes one report file through :func:`_write_report`.  Every report
carries the same header -- schema version, the mathematical claim being
exercised, the full resolved config, one ``Assertion.record()`` per
assertion and one ``warning`` per estimator warning -- as ``# ...`` lines
above a CSV table or as keys of a JSON object.  The record is the one
serialized verdict: a JSON report lists the records, a CSV report writes
each as ``# assert `` and one line of JSON.  A record's dir is a key of one
table, ``_DIRS``, which decides its verdict; every order claim (a column that
strictly decreases) is one record from :func:`_decreasing`, which a flat step
fails.  :func:`report_summary` reads both formats through one reader and
rebuilds each verdict from its value, bound and dir by the same table; it
re-runs nothing.  A report with JSON fields is always written
as JSON.  ``tightness-scan`` and ``theorem4-scan`` are two names for one scan.

Reports are byte-identical across reruns of the same (config, seed), except
for the ``generated_at`` line.
"""

from __future__ import annotations

import json
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import analytics, closedform, functionals, geometry, identities, spectral
from .config import _TEST_FUNCTIONS, ConfigError, ExperimentConfig, _fmt
from .process import ProcessSpec, _as_start, _checked_run, _n_steps, sample_path

__all__ = ["run", "report_summary", "RunResult"]

_SCHEMA_VERSION = "2"


_DIRS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}  # dir -> its comparison


@dataclass(frozen=True)
class Assertion:
    name: str
    value: float
    bound: float
    direction: str  # a key of _DIRS

    @property
    def passed(self) -> bool:
        return bool(_DIRS[self.direction](self.value, self.bound))

    def record(self) -> dict:
        """The one serialized form of the verdict, in JSON and CSV reports alike."""
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "dir": self.direction, "pass": self.passed}

    def line(self, width: int = 0) -> str:
        """The verdict as one row of ``stablelab run`` and ``stablelab summary``."""
        return (f"{'PASS' if self.passed else 'FAIL'}  {self.name:<{width}}  "
                f"value={self.value:.6g} {self.direction} bound={self.bound:.6g}")


@dataclass(frozen=True)
class RunResult:
    status: int  # 0 pass, 1 assertion failure
    files: tuple
    assertions: tuple


@dataclass(frozen=True)
class _Report:
    """What a runner hands to the writer."""

    claim: str
    assertions: Sequence[Assertion]
    columns: Sequence[str] = ()
    rows: Sequence[Sequence] = ()
    fields: dict | None = None  # JSON body in place of columns and rows
    files: Sequence[str] = ()  # companion files the runner wrote itself
    warnings: Sequence[str] = ()  # estimator warnings, one line each


def _checked(key: str, build, *args):
    """``build(*args)``; a library refusal becomes a ConfigError naming ``key``, which fed it."""
    try:
        return build(*args)
    except ValueError as exc:  # UnsupportedConfiguration is one
        raise ConfigError(f"{key}: {exc}") from None


def _named(cfg: ExperimentConfig) -> tuple:
    """The spec, and the domain and start wherever the config names them, read or not."""
    spec = ProcessSpec(alpha=cfg["alpha"], dim=cfg["dim"])
    domain = start = None
    if "domain.shape" in cfg.values:
        domain = _checked("domain.a", _domain, cfg)  # of the shapes, only an interval can refuse
        _checked("domain.shape", domain.depth, np.zeros((1, spec.dim)))  # refuses another dim
    if "x0" in cfg.values:
        start = _checked("x0", _as_start, cfg["x0"], spec.dim)
    return spec, domain, start


def _steps(key: str, cfg: ExperimentConfig, spec: ProcessSpec, starts) -> int:
    """Step count of a path loop from ``starts`` to the horizon ``cfg[key]`` in steps h."""
    return _checked(key, _checked_run, spec, starts, cfg["h"], cfg[key], cfg["n_paths"],
                    cfg["seed"])[1]


def _domain(cfg: ExperimentConfig) -> geometry.Domain:
    shape = cfg["domain.shape"]
    dim = cfg["dim"]
    if shape == "fullspace":
        return geometry.FullSpace(dim)
    if shape == "ball":
        return geometry.Ball((0.0,) * dim, cfg["domain.radius"])
    if shape == "interval":
        return geometry.Interval(cfg["domain.a"], cfg["domain.b"])
    if shape == "shrinking-balls":
        return geometry.shrinking_ball_domain(dim, cfg["domain.n_max"])
    return geometry.disjoint_shrinking_intervals(cfg["domain.n_max"])


def _potential(cfg: ExperimentConfig) -> functionals.KillingPotential:
    if cfg["potential.kind"] == "none":
        return functionals.KillingPotential.none()
    return functionals.KillingPotential.power(
        cfg["potential.c"], cfg["potential.gamma"], offset=cfg["potential.offset"]
    )


def _write_report(path: str, cfg: ExperimentConfig, report: _Report) -> None:
    """Write the shared header and the body, as JSON if ``path`` ends in .json, else CSV."""
    header = {
        "schema_version": _SCHEMA_VERSION,
        "claim": report.claim,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "config": cfg.resolved_lines(),
    }
    if path.endswith(".json"):
        body = report.fields
        if body is None:
            body = {
                "columns": list(report.columns),
                "rows": [[v.item() if isinstance(v, np.generic) else v for v in row]
                         for row in report.rows],
            }
        assertions = [a.record() for a in report.assertions]
        if report.warnings:
            body = {**body, "warnings": list(report.warnings)}
        text = json.dumps({**header, **body, "assertions": assertions}, indent=2, sort_keys=True)
    else:
        lines = [f"# {key}: {header[key]}" for key in ("schema_version", "claim", "generated_at")]
        lines += [f"# config: {ln}" for ln in header["config"]]
        lines += [f"# assert {json.dumps(a.record(), sort_keys=True)}" for a in report.assertions]
        lines += [f"# warning: {w}" for w in report.warnings]
        lines.append(",".join(report.columns))
        lines += [",".join(_fmt(v) for v in row) for row in report.rows]
        text = "\n".join(lines)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# experiments: generators that plan, checking the rules their assertions need
# and building every library object their run uses, then yield; sent the
# output directory, they solve and yield a _Report


def _decreasing(name: str, column) -> Assertion:
    """The one order record: every step of ``column`` falls, so a flat step fails."""
    return Assertion(name, float(np.max(np.diff(column))), 0.0, "<")


def _check_ordered(key: str, values: tuple, rule, description: str) -> None:
    """The assertions compare consecutive entries: at least two, every pair passing ``rule``."""
    if len(values) < 2 or not all(rule(a, b) for a, b in zip(values[:-1], values[1:])):
        raise ConfigError(
            f"{key}: the assertions compare consecutive entries in order; give at least "
            f"two, {description}, got {', '.join(f'{v:g}' for v in values)}"
        )


def _run_sample_paths(cfg, spec, domain, start):
    _steps("t_max", cfg, spec, start)
    out_dir = yield
    claim = "trajectories are replayable functions of (spec, x0, t_max, h, seed)"
    files = []
    rows = []
    for k in range(cfg["n_paths"]):
        path = sample_path(spec, start[0], cfg["t_max"], cfg["h"], cfg["seed"] + k)
        fp = os.path.join(out_dir, f"path_{k:03d}.csv")
        path.to_csv(fp)
        files.append(fp)
        rows.append((k, cfg["seed"] + k, float(np.linalg.norm(path.positions[-1] - path.positions[0]))))
    yield _Report(claim, [], ("path", "seed", "displacement"), rows, files=files)


def _run_exit_time(cfg, spec, domain, start):
    _steps("t_max", cfg, spec, start)
    _checked("x0", identities._start_inside, domain, start)
    x0 = start[0]
    yield
    res = functionals.estimate_mean_exit_time(
        spec, x0, domain, cfg["t_max"], cfg["h"], cfg["n_paths"],
        cfg["seed"], threads=cfg["threads"],
    )
    claim = "mean exit time estimator, cross-checked in closed form where one exists"
    assertions = []
    oracle = None
    if isinstance(domain, geometry.Interval) and spec.is_brownian:
        oracle = closedform.brownian_interval_mean_exit(domain.a, domain.b, float(x0[0]))
    elif isinstance(domain, geometry.Interval) and not spec.is_brownian:
        half = (domain.b - domain.a) / 2.0
        mid = (domain.a + domain.b) / 2.0
        oracle = closedform.stable_interval_mean_exit(spec.alpha, half, float(x0[0]) - mid)
    elif isinstance(domain, geometry.Ball) and spec.is_brownian:
        dist = float(np.linalg.norm(x0 - np.asarray(domain.center)))
        oracle = closedform.brownian_ball_mean_exit(domain.radius, dist, spec.dim)
    if oracle is not None and oracle > 0.0:
        tol = max(3.0 * res.stderr, 0.01 * oracle)
        assertions.append(Assertion("exit_time_matches_oracle", abs(res.mean - oracle), tol, "<="))
    x = _fmt(float(x0[0]))
    stats = (res.stderr, res.n_paths, res.step_h, res.seed, res.survived_fraction)
    rows = [("mean_exit_time", x, res.mean, *stats)]
    if res.tail_corrected_mean is not None:
        # the extrapolated tail has no stderr of its own; the censored mean's is repeated
        rows.append(("tail_corrected_mean", x, res.tail_corrected_mean, *stats))
    columns = ("quantity", "x0", "mean", "stderr", "n_paths", "h", "seed", "survived_fraction")
    yield _Report(claim, assertions, columns, rows, warnings=res.warnings)


def _run_scan(cfg, spec, domain, start):
    probes, shape = cfg["probes"], cfg["domain.shape"]
    _check_ordered("probes", probes, operator.lt, "each larger than the one before")
    if shape == "shrinking-balls" and spec.dim == 1:
        raise ConfigError(
            "domain.shape: in dim = 1 the shrinking balls merge into one interval, "
            "so the scan cannot show its claim; use disjoint-intervals"
        )
    if shape in ("shrinking-balls", "disjoint-intervals") and max(probes) >= cfg["domain.n_max"]:
        raise ConfigError(
            f"probes: every probe must lie below domain.n_max = {cfg['domain.n_max']}, "
            f"the truncated family's last member; got {max(probes):g}"
        )
    starts = np.zeros((len(probes), spec.dim))
    starts[:, 0] = probes
    for p, row in zip(probes, starts):  # a probe outside U exits at once, so its columns read 0
        _checked("probes", identities._start_inside, domain, row[None], f"probe {_fmt(p)}")
    _steps("t_max", cfg, spec, starts)
    yield
    scan = functionals.exit_time_scan(
        spec, starts, domain, cfg["t_max"], cfg["h"], cfg["n_paths"],
        cfg["seed"], threads=cfg["threads"],
    )
    et = np.array([m.mean for m, _ in scan])
    r1 = np.array([r.mean for _, r in scan])
    claim = "mean exit time and the 1-resolvent of 1 decrease together along the probe sequence"
    assertions = [_decreasing("exit_time_strictly_decreasing", et),
                  _decreasing("r1_strictly_decreasing", r1)]
    rows = [(_fmt(p), m.mean, m.stderr, r.mean, r.stderr) for p, (m, r) in zip(probes, scan)]
    columns = ("probe", "mean_exit", "exit_stderr", "r1", "r1_stderr")
    warnings = [f"probe {_fmt(p)}: {w}" for p, (m, _) in zip(probes, scan) for w in m.warnings]
    yield _Report(claim, assertions, columns, rows, warnings=warnings)


def _run_dynkin(cfg, spec, domain, start):
    _steps("t", cfg, spec, start)
    bump = _TEST_FUNCTIONS[cfg["f.kind"]](cfg["f.param"])
    _checked("f.kind", identities._heat_oracle, spec, bump)
    _checked("domain.shape", identities._residual_domain, spec, domain)
    _checked("x0", identities._start_inside, domain, start)
    yield
    res = identities.dynkin_residual(
        spec, start[0], bump, cfg["t"], domain, cfg["h"], cfg["n_paths"],
        cfg["seed"],
    )
    claim = "semigroup decomposition over U: full = part + boundary term, residual at noise level"
    assertions = [Assertion("dynkin_residual_within_noise", abs(res.residual), 3.0 * res.stderr, "<=")]
    rows = [(
        res.residual, res.stderr, res.full_semigroup, res.part_semigroup,
        res.boundary_term, res.n_paths,
    )]
    columns = ("residual", "stderr", "full", "part", "boundary", "n_paths")
    yield _Report(claim, assertions, columns, rows)


def _run_t_norm(cfg, spec, domain, start):
    pot, r_n, r_m, t = _potential(cfg), cfg["level.n"], cfg["level.m"], cfg["t"]
    if not r_m < r_n:
        raise ConfigError("level.m: must be smaller than level.n")
    level = geometry.Interval(-r_n, r_n)
    _checked("dim", level.depth, np.zeros((1, spec.dim)))  # the level lies on the line
    inner = np.linspace(-r_m, r_m, 13)[:, None]
    outer_abs = np.array([r_m * 1.05, r_m * 1.2, r_m * 1.5, r_m * 2.0, r_n])
    outer = np.concatenate([-outer_abs[::-1], outer_abs])[:, None]
    _steps("t", cfg, spec, np.vstack([inner, outer]))
    _checked("potential.kind" if cfg["potential.kind"] == "none" else "potential.c",
             identities._check_killing, pot)
    _checked("h", _n_steps, functionals._lifetime_capture(identities._ZETA_T_MAX), cfg["h"])
    yield
    bound = identities.t_norm_bound_check(
        spec, pot, level, inner, outer, t, cfg["h"],
        cfg["n_paths"], cfg["seed"], threads=cfg["threads"],
    )
    claim = "boundary-operator norm <= compact-part sup + (4/t) * exterior lifetime sup"
    assertions = [Assertion("t_norm_bound", bound.lhs, bound.rhs + bound.slack, "<=")]
    rows = [
        (r_n, r_m, t, float(x[0]), m, se, bound.lhs, bound.rhs, bound.passed)
        for x, m, se in zip(
            bound.probe_table.probes, bound.probe_table.means, bound.probe_table.stderrs
        )
    ]
    yield _Report(claim, assertions, ("n", "m", "t", "x", "boundary_mean", "boundary_stderr",
                                      "lhs", "rhs", "pass"), rows)


def _l1_rate(gen: spectral.GeneratorMatrix, t: float) -> float:
    """-log ||P_t||_{1->1} / t in the measure w_i delta, by weighted column sums of P_t."""
    p = spectral.semigroup_matrix(gen, t)
    np.abs(p, out=p)
    return -float(np.log(((gen.weight @ p) / gen.weight).max())) / t


def _run_spectra(cfg, *_):
    grid = _checked("grid.radius", spectral.Grid1D.symmetric, cfg["grid.radius"], cfg["grid.delta"])
    alpha, wbeta, pot, times = cfg["alpha"], cfg.get("weight.beta"), _potential(cfg), cfg["times"]
    if wbeta is not None:
        gen = spectral.weighted_generator(grid, functionals.TimeChangeWeight(beta=wbeta), alpha)
    else:
        gen = spectral.fractional_power(grid, alpha)
    if not pot.is_none:
        gen = spectral.killed_generator(gen, pot)
    rate_times = _checked("times", spectral._rate_times, gen, (times[-1] * 4, times[-1] * 8))
    out_dir = yield
    traces = [spectral.heat_trace(gen, t) for t in times]
    rates = spectral.lp_spectral_bound_compare(gen, rate_times)
    p = spectral.semigroup_matrix(gen, times[0])
    t1 = rates.t_grid[-1]  # t |rate gap|: the norms' relative gap, even where the rates near 0
    claim = "discretized generator yields a symmetric sub-Markov semigroup with discrete spectrum"
    assertions = [
        Assertion("semigroup_entries_nonnegative", float(p.min()), -1e-12, ">="),
        Assertion("semigroup_row_sums_submarkov", float(p.sum(axis=1).max()), 1.0 + 1e-10, "<="),
        Assertion("lp_one_matches_inf", t1 * abs(_l1_rate(gen, t1) - rates.rates_inf[-1]), 1e-12, "<="),
    ]
    eigenvalues = [float(v) for v in gen.eigenvalues[: min(64, gen.n)]]
    fields = {
        "eigenvalues": eigenvalues,
        "trace": {"t": list(times), "value": [float(tr) for tr in traces]},
        "lp_rates": {
            "t_grid": list(rates.t_grid),
            "p1": list(rates.rates_1),
            "p2": list(rates.rates_2),
            "pinf": list(rates.rates_inf),
        },
        "diagnostics": {"n": gen.n, "delta": gen.delta},
    }
    # plot-ready CSV companion to the JSON report
    eig_path = os.path.join(out_dir, "spectra_eigenvalues.csv")
    _write_report(eig_path, cfg, _Report(claim, [], ("k", "eigenvalue"),
                                         list(enumerate(eigenvalues, start=1))))
    yield _Report(claim, assertions, fields=fields, files=[eig_path])


def _run_trace_study(cfg, *_):
    delta = cfg["grid.delta"]
    t = cfg["trace.t"]
    _check_ordered("n_list", cfg["n_list"], lambda a, b: b == 2 * a,
                   "each double the one before (trace growth is measured per doubling)")
    domains = [geometry.disjoint_shrinking_intervals(n) for n in cfg["n_list"]]
    for a, b in domains[-1].segments:  # n_list doubles, so the last family holds every segment
        _checked("grid.delta", spectral.Grid1D, float(a), float(b), delta)
    yield
    rows = []
    for n, dom in zip(cfg["n_list"], domains):
        half = dom.segments[-1, 1] - dom.segments[-1, 0]
        rows.append((n, spectral.union_interval_trace(dom, delta, t), (half / 2.0) ** 2))
    growth_last = rows[-1][1] / rows[-2][1] - 1.0
    tail_ratio = rows[-1][2] / rows[0][2]
    claim = "heat trace grows per interval doubling while the tail exit-time bound shrinks"
    assertions = [
        Assertion("trace_growth_at_largest_doubling", growth_last, 0.20, ">="),
        Assertion("tail_exit_bound_ratio", tail_ratio, 0.20, "<="),
    ]
    yield _Report(claim, assertions, ("n_intervals", "heat_trace", "tail_half_length_sq"), rows)


def _run_beta_transition(cfg, *_):
    alpha = cfg["alpha"]
    radii = cfg["radii"]
    _check_ordered("radii", radii, operator.lt, "each larger than the one before")
    for r in radii:
        _checked("radii", spectral.Grid1D.symmetric, r, cfg["grid.delta"])
    yield
    rows = []
    assertions = []
    claim = "weighted-generator spectral gap stabilizes in R iff the weight exponent exceeds alpha"
    study = spectral.weighted_transition_study(alpha, cfg["betas"], radii, cfg["grid.delta"])
    for beta in study["betas"]:
        for r, eigs in zip(radii, study["eigenvalues"][beta]):
            rows.append((beta, r) + tuple(eigs))
        gap = study["gap"][beta]
        rel = abs(gap[-1] - gap[-2]) / gap[-2]
        if beta > alpha:
            assertions.append(Assertion(f"gap_stabilizes_beta_{beta:g}", rel, 0.01, "<="))
        else:
            assertions.append(Assertion(f"gap_decays_beta_{beta:g}", rel, 0.20, ">="))
            assertions.append(_decreasing(f"gap_decreasing_beta_{beta:g}", gap))
    yield _Report(claim, assertions, ("beta", "R", "eig0", "eig1"), rows)


def _run_resolvent_bounds(cfg, spec, *_):
    _checked("alpha", analytics._transient, spec.dim, spec.alpha)
    _check_ordered("probes", cfg["probes"], lambda a, b: abs(a) < abs(b),
                   "each larger than the one before in |x|")
    weight = functionals.TimeChangeWeight(beta=cfg["weight.beta"])
    _checked("weight.beta", analytics._finite_mass, weight.beta, spec.alpha)
    _checked("dim", analytics._quadrature_dim, spec.dim)
    yield
    table = analytics.r0_mu_bound_check(weight, spec.dim, spec.alpha, cfg["probes"])
    claim = "0-resolvent mass is dominated by the Green-weighted singular integral"
    assertions = [
        Assertion("resolvent_below_bound", float(np.max(table.resolvent - table.bound)), 1e-6, "<="),
        _decreasing("columns_decay", table.resolvent),
    ]
    rows = [
        (_fmt(float(x)), r, b)
        for x, r, b in zip(table.probes, table.resolvent, table.bound)
    ]
    yield _Report(claim, assertions, ("x", "r0_quadrature", "green_j_bound"), rows)


_RUNNERS = {
    "sample-paths": _run_sample_paths,
    "exit-time": _run_exit_time,
    "tightness-scan": _run_scan,
    "dynkin-check": _run_dynkin,
    "t-norm-check": _run_t_norm,
    "spectra": _run_spectra,
    "trace-study": _run_trace_study,
    "beta-transition": _run_beta_transition,
    "theorem4-scan": _run_scan,
    "resolvent-bounds": _run_resolvent_bounds,
}


def run(cfg: ExperimentConfig, out_dir: str, fmt: str = "csv") -> RunResult:
    """Execute one experiment; returns exit status and report files.  The runner's plan checks
    its rules and builds every library object it uses before any work or ``out_dir``; a broken
    rule or a refusal is a ConfigError naming its key."""
    runner = _RUNNERS[cfg.experiment](cfg, *_named(cfg))
    next(runner)  # the plan
    os.makedirs(out_dir, exist_ok=True)
    report = runner.send(out_dir)  # the solve
    ext = "json" if fmt == "json" or report.fields is not None else "csv"
    path = os.path.join(out_dir, f"{cfg.experiment}.{ext}")
    _write_report(path, cfg, report)
    status = 0 if all(a.passed for a in report.assertions) else 1
    return RunResult(
        status=status, files=(path, *report.files), assertions=tuple(report.assertions)
    )


def _records(path: str) -> tuple[list, list]:
    """(assertion records, warnings) of a report: a JSON report's two lists, or its CSV header's."""
    with open(path) as fh:
        text = fh.read()
    try:
        if path.endswith(".json"):
            payload = json.loads(text)
        else:  # "# tag rest" header lines as (tag, rest)
            head = [ln[2:].partition(" ")[::2] for ln in text.splitlines() if ln.startswith("# ")]
            payload = {"assertions": [json.loads(rest) for tag, rest in head if tag == "assert"],
                       "warnings": [rest for tag, rest in head if tag == "warning:"]}
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt report file {path}: {exc} in {exc.doc[:80]!r}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"corrupt report file {path}: not a JSON object")
    lists = payload.get("assertions", []), payload.get("warnings", [])
    if not all(isinstance(v, list) for v in lists):
        raise ValueError(f"corrupt report file {path}: assertions and warnings must be lists")
    return lists


def _checked_assertion(path: str, record) -> Assertion:
    """The Assertion a record holds, rebuilt from its name, value, bound and dir, whose
    verdict must be exactly the stored pass; anything else is a corrupt report (ValueError).
    Value and bound must be JSON numbers: a string or a bool is malformed."""
    try:
        a = Assertion(record["name"], record["value"], record["bound"], record["dir"])
        ok = (isinstance(a.name, str) and a.direction in _DIRS
              and type(record["pass"]) is bool
              and all(type(v) in (int, float) for v in (a.value, a.bound)))
    except (KeyError, TypeError):
        ok = False
    if not ok:
        raise ValueError(f"corrupt report file {path}: malformed assertion {record!r}")
    if record["pass"] is not a.passed:
        raise ValueError(f"corrupt report file {path}: the stored pass of {record!r} "
                         "contradicts its value, bound and dir")
    return a


def report_summary(paths) -> str:
    """Human-readable pass/fail table built from report files alone.

    Each verdict is rebuilt from its record and checked against the stored
    pass; nothing is re-run.  Estimator warnings follow the table, one
    ``WARN`` line each.  Each row is labelled by its report's path relative
    to the directory the given reports share, which is the basename when
    they all sit in one directory.  Output is byte-stable for the same
    inputs (the volatile generated_at header is ignored).
    """
    paths = list(paths)
    dirs = [os.path.dirname(os.path.abspath(p)) for p in paths]
    root = os.path.commonpath(dirs) if dirs else ""
    rows, notes = [], []
    for path in paths:
        label = os.path.relpath(os.path.abspath(path), root)
        records, warnings = _records(path)
        rows += [(_checked_assertion(path, r), label) for r in records]
        notes += [f"WARN  {w}  [{label}]" for w in warnings]
    width = max((len(a.name) for a, _ in rows), default=0)
    table = [f"{a.line(width)}  [{label}]" for a, label in rows]
    overall = "PASS" if all(a.passed for a, _ in rows) else "FAIL"
    if not rows:
        table, overall = ["no assertions recorded in the given reports"], "PASS (vacuous)"
    return "\n".join([*table, *notes, f"overall: {overall}"])
