"""Flat key = value experiment configuration.

The config format is a plain text file of ``key = value`` lines with ``#``
comments.  Every key is typed by the schema below; unknown keys and badly
typed values are reported with their field path.  Omitted keys fall back
to embedded defaults, first experiment-specific, then global, and then the
keys the chosen ``domain.shape`` needs, so a file containing only
``experiment = dynkin-check`` is a complete run.  Runners read only
resolved keys, so every report header records every value its run used.

This module holds the schema, the defaults, parsing and merging only; the
rules across keys live in each runner's plan in ``experiments.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .closedform import CauchyBump, GaussianBump

__all__ = ["ConfigError", "ExperimentConfig", "EXPERIMENTS", "parse_config", "default_config"]


class ConfigError(ValueError):
    """Schema violation, or a config a runner's plan refuses; the message names the key."""


def _floats(text: str, parse=float) -> tuple:
    """A comma- or space-separated list with at least one entry."""
    values = tuple(parse(p) for p in text.replace(",", " ").split())
    if not values:
        raise ValueError("empty list")
    return values


def _ints(text: str) -> tuple:
    return _floats(text, int)


# dynkin-check's f.kind -> its test function, built from f.param
_TEST_FUNCTIONS = {"gaussian": GaussianBump, "cauchy": CauchyBump}


# the keys each domain shape needs, merged under the user's values
_SHAPE_DEFAULTS = {
    "fullspace": {},
    "ball": {"domain.radius": 1.0},
    "interval": {"domain.a": -1.0, "domain.b": 1.0},
    "shrinking-balls": {"domain.n_max": 10_000},
    "disjoint-intervals": {"domain.n_max": 64},
}

_GLOBAL_DEFAULTS = {
    "alpha": 2.0,
    "dim": 1,
    "h": 1e-3,
    "n_paths": 10_000,
    "seed": 20_240_001,
    "threads": 1,
}

# tightness-scan and theorem4-scan are one experiment under two names
_SCAN_DEFAULTS = {
    "domain.shape": "shrinking-balls", "domain.n_max": 10_000, "dim": 2,
    "probes": (5.0, 50.0, 500.0, 5000.0), "t_max": 20.0, "n_paths": 5_000,
}

_EXPERIMENT_DEFAULTS = {
    "sample-paths": {"x0": (0.0,), "t_max": 1.0, "n_paths": 4},
    "exit-time": {"domain.shape": "interval", "x0": (0.0,), "t_max": 12.0},
    "tightness-scan": _SCAN_DEFAULTS,
    "dynkin-check": {
        "domain.shape": "interval", "x0": (0.0,), "t": 0.5,
        "f.kind": "gaussian", "f.param": 1.0, "n_paths": 100_000,
    },
    "t-norm-check": {
        "alpha": 1.0, "potential.kind": "power", "potential.c": 1.0,
        "potential.gamma": 2.0, "potential.offset": 1.0,
        "level.n": 6.0, "level.m": 3.0, "t": 1.0, "n_paths": 4_000,
    },
    "spectra": {
        "grid.delta": 0.02, "grid.radius": 12.0,
        "potential.kind": "power", "potential.c": 1.0,
        "potential.gamma": 2.0, "potential.offset": 1.0, "times": (0.5, 1.0),
    },
    "trace-study": {
        "n_list": (8, 16, 32, 64), "grid.delta": 0.01, "trace.t": 0.01,
    },
    "beta-transition": {
        "alpha": 1.0, "betas": (2.0, 0.5), "radii": (20.0, 40.0, 80.0),
        "grid.delta": 0.05,
    },
    "theorem4-scan": _SCAN_DEFAULTS,
    "resolvent-bounds": {
        "alpha": 0.5, "weight.beta": 1.0, "probes": (1.0, 2.0, 4.0, 8.0, 16.0),
    },
}

EXPERIMENTS = tuple(_EXPERIMENT_DEFAULTS)  # the CLI's choices, in this order

# key -> (parser, human-readable constraint, validator)
_SCHEMA = {
    "experiment": (str.strip, f"one of {', '.join(EXPERIMENTS)}", lambda v: v in EXPERIMENTS),
    "alpha": (float, "alpha ∈ (0,2]", lambda v: 0.0 < v <= 2.0),
    "dim": (int, "positive integer", lambda v: v >= 1),
    "h": (float, "positive real", lambda v: v > 0.0),
    "t": (float, "positive real", lambda v: v > 0.0),
    "t_max": (float, "positive real", lambda v: v > 0.0),
    "n_paths": (int, "integer >= 2", lambda v: v >= 2),
    "seed": (int, "unsigned 64-bit integer", lambda v: 0 <= v < 2**64),
    "threads": (int, "integer >= 1", lambda v: v >= 1),
    "domain.shape": (str.strip, f"one of {', '.join(_SHAPE_DEFAULTS)}", lambda v: v in _SHAPE_DEFAULTS),
    "domain.radius": (float, "positive real", lambda v: v > 0.0),
    "domain.a": (float, "real", lambda v: True),
    "domain.b": (float, "real", lambda v: True),
    "domain.n_max": (int, "integer >= 1", lambda v: v >= 1),
    "potential.kind": (str.strip, "none or power", lambda v: v in ("none", "power")),
    "potential.c": (float, "nonnegative real", lambda v: v >= 0.0),
    "potential.gamma": (float, "nonnegative real", lambda v: v >= 0.0),
    "potential.offset": (float, "nonnegative real", lambda v: v >= 0.0),
    "weight.beta": (float, "nonnegative real", lambda v: v >= 0.0),
    "grid.delta": (float, "positive real", lambda v: v > 0.0),
    "grid.radius": (float, "positive real", lambda v: v > 0.0),
    "probes": (_floats, "comma-separated reals", lambda v: True),
    "radii": (_floats, "comma-separated positive reals", lambda v: all(r > 0 for r in v)),
    "betas": (_floats, "comma-separated nonnegative reals", lambda v: all(b >= 0 for b in v)),
    "n_list": (_ints, "comma-separated integers >= 1", lambda v: all(n >= 1 for n in v)),
    "level.n": (float, "positive real (level radius)", lambda v: v > 0.0),
    "level.m": (float, "positive real (compact radius)", lambda v: v > 0.0),
    "f.kind": (str.strip, "gaussian or cauchy", lambda v: v in _TEST_FUNCTIONS),
    "f.param": (float, "positive real", lambda v: v > 0.0),
    "x0": (_floats, "comma-separated reals", lambda v: True),
    "trace.t": (float, "positive real", lambda v: v > 0.0),
    "times": (_floats, "comma-separated positive reals", lambda v: all(t > 0 for t in v)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration for one experiment run, each value checked against the schema."""

    experiment: str
    values: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.values[key]

    def get(self, key, default=None):
        return self.values.get(key, default)

    def resolved_lines(self) -> list[str]:
        """Sorted key=value lines of the full resolved config."""
        lines = [f"experiment={self.experiment}"]
        for k in sorted(self.values):
            v = self.values[k]
            lines.append(f"{k}={','.join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v)}")
        return lines


def _fmt(v) -> str:
    """A value as reports print it: floats to 12 significant digits."""
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _parse_value(key: str, raw: str):
    if key not in _SCHEMA:
        raise ConfigError(f"{key}: unknown configuration key")
    parser, constraint, validator = _SCHEMA[key]
    try:
        value = parser(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r}; expected {constraint}") from None
    if not validator(value):
        raise ConfigError(f"{key}: value {raw!r} violates constraint: {constraint}")
    return value


def parse_config(
    text: str, experiment: str | None = None, overrides: dict | None = None
) -> ExperimentConfig:
    """Parse config text, merge defaults and overrides, and check each value against the
    schema; rules across keys are checked by the runner's plan (``experiments.run``)."""
    raw: dict = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value', got {stripped!r}")
        key, _, val = stripped.partition("=")
        raw[key.strip()] = val.strip()
    values = {k: _parse_value(k, v) for k, v in raw.items()}
    exp = experiment or values.pop("experiment", None)
    values.pop("experiment", None)
    if exp is None:
        raise ConfigError("experiment: missing; set it in the config or on the command line")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"experiment: {exp!r} is not one of {', '.join(EXPERIMENTS)}")
    merged = dict(_GLOBAL_DEFAULTS)
    merged.update(_EXPERIMENT_DEFAULTS[exp])
    merged.update(values)
    for k, v in (overrides or {}).items():
        merged[k] = _parse_value(k, str(v))
    if "domain.shape" in merged:
        merged = {**_SHAPE_DEFAULTS[merged["domain.shape"]], **merged}
    return ExperimentConfig(experiment=exp, values=merged)


def default_config(experiment: str) -> ExperimentConfig:
    return parse_config("", experiment=experiment)

