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

import contextlib
import math
from dataclasses import dataclass, field

from .closedform import CauchyBump, GaussianBump
from .geometry import _number
from .process import _ALPHAS

__all__ = ["ConfigError", "ExperimentConfig", "EXPERIMENTS", "parse_config", "default_config"]


class ConfigError(ValueError):
    """Schema violation, or a config a runner's plan refuses; the message names the key."""


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

# Each key's rule: its words, or its number's range as geometry._number reads it,
# (lo, hi, ends, integer); a range in a list reads a list of one or more numbers
_REAL, _POSITIVE = (-math.inf, math.inf, "()", False), (0.0, math.inf, "()", False)
_NONNEGATIVE, _COUNT = (0.0, math.inf, "[)", False), (1, math.inf, "[)", True)
_SCHEMA = {
    "experiment": EXPERIMENTS,
    "domain.shape": tuple(_SHAPE_DEFAULTS),
    "potential.kind": ("none", "power"),
    "f.kind": tuple(_TEST_FUNCTIONS),
    "alpha": (*_ALPHAS, False),
    "n_paths": (2, math.inf, "[)", True),
    "seed": (0, 2**64, "[)", True),
    **dict.fromkeys(("dim", "threads", "domain.n_max"), _COUNT),
    **dict.fromkeys(("domain.a", "domain.b"), _REAL),
    **dict.fromkeys(("h", "t", "t_max", "trace.t", "domain.radius", "grid.delta", "grid.radius",
                     "level.n", "level.m", "f.param"), _POSITIVE),
    **dict.fromkeys(("potential.c", "potential.gamma", "potential.offset", "weight.beta"),
                    _NONNEGATIVE),
    **dict.fromkeys(("probes", "x0"), [_REAL]),
    **dict.fromkeys(("radii", "times"), [_POSITIVE]),
    "betas": [_NONNEGATIVE],
    "n_list": [_COUNT],
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
    """``raw`` as one of ``key``'s words, or as its number or list of numbers, each
    read by ``geometry._number``, whose refusal names the key."""
    if key not in _SCHEMA:
        raise ConfigError(f"{key}: unknown configuration key")
    rule, text = _SCHEMA[key], raw.strip()
    if isinstance(rule[0], str):
        if text not in rule:
            raise ConfigError(f"{key}: value {raw!r} violates constraint: one of {', '.join(rule)}")
        return text
    many = isinstance(rule, list)
    lo, hi, ends, integer = rule[0] if many else rule
    values = []
    try:  # an empty list reads as one empty entry, which the reader refuses
        for part in (text.replace(",", " ").split() if many else []) or [text]:
            with contextlib.suppress(ValueError):  # no number: the reader refuses the text
                part = int(part) if integer else float(part)
            values.append(_number(part, key, lo, hi, ends, integer))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return tuple(values) if many else values[0]


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

