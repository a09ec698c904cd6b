"""Command-line experiment runner.

    stablelab run EXPERIMENT [--config PATH] [--seed N] [--threads N]
                  [--out DIR] [--format {csv,json}]
    stablelab run --config PATH        # experiment named inside the config
    stablelab summary REPORT [REPORT ...]

Exit codes: 0 all assertions pass, 1 an assertion failed, 2 usage or config
error (a value outside the schema, such as an out-of-range --seed or
--threads; keys that do not fit together or cannot show the experiment's
claim, or a value a library object refuses, which the runner's plan refuses
before anything is simulated or --out is created), an --out or REPORT that
cannot be written or read, or a corrupt report: one whose value or bound is
not a number, or whose stored pass contradicts its value, bound and dir,
among them.  Both commands print one row per assertion in the same form.
tightness-scan and theorem4-scan are two names for one experiment.
Identical (config, seed) pairs produce identical report bytes apart from
the generated_at header line.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ConfigError, parse_config
from .experiments import report_summary, run

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stablelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one experiment and write its report")
    runp.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                      help="experiment name (optional if the config names one)")
    runp.add_argument("--config", help="path to a key = value config file")
    runp.add_argument("--seed", help="override the config seed (u64)")
    runp.add_argument("--threads", help="worker bound; results are independent of it")
    runp.add_argument("--out", default="reports", help="output directory (default: reports)")
    runp.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="report format; spectra has no table and always writes json, "
                           "plus a csv of its eigenvalues")

    sump = sub.add_parser("summary", help="summarize assertion outcomes of report files")
    sump.add_argument("files", nargs="+", help="report files produced by 'run'")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command == "summary":
        try:
            text = report_summary(args.files)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 1 if text.endswith("overall: FAIL") else 0

    text = ""
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    flags = {"seed": args.seed, "threads": args.threads}  # read as their config keys are
    overrides = {key: value for key, value in flags.items() if value is not None}
    try:
        result = run(parse_config(text, experiment=args.experiment, overrides=overrides),
                     args.out, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for a in result.assertions:
        print(a.line())
    for f in result.files:
        print(f"wrote {f}")
    return result.status


if __name__ == "__main__":
    sys.exit(main())
