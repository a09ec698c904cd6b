#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload brownian-exit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
One process calls the workload's operations one after another (a closed
loop with one caller), in whole passes.  The number of passes is fixed by
the workload and ``--seconds`` (``workloads.passes``).  ``threads=`` and
BLAS each use min(2, nproc) threads and never run at once.

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s`` (the
median pass), ``setup_s`` (the median of five set-ups, four of them in
fresh child interpreters) and ``peak_rss_mb``.  With ``--trace 1`` untraced
and traced passes alternate, two of each, and the per-layer metrics of the
last traced pass are printed.
The last line of standard output is the JSON result; the same result with
its provenance and checks goes to ``bench/out/``, and a traced run also
writes its spans there.  Exit code 2 means the run could not start (no
``src/stablelab`` beside the benchmark, an unknown workload or bad
arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
# One set-up in a fresh interpreter: argv is src, bench, workload, seed, threads.
SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import workloads
workloads.setup(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_passes(ops, n_passes, tracer=None, first_pass=0, between=None):
    """``n_passes`` whole passes over ``ops``.

    Returns (per-pass lists of call times, attempted, failed, checks).  Only
    the library calls are timed; ``between(g)``, if given, runs untimed
    after pass g for every pass but the last.  The checks run once all
    passes are done, on each operation's outputs over the passes.
    """
    times = []
    outputs = [[] for _ in ops]
    attempted = failed = 0
    for _ in range(n_passes):
        spent = []
        for op, outs in zip(ops, outputs):
            attempted += 1
            if tracer is not None:
                tracer.begin_op(op.name)
            t0 = time.perf_counter()
            try:
                outs.append(op.call(first_pass + len(times)))
            except Exception:
                failed += 1
                traceback.print_exc()
            finally:
                spent.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
        times.append(spent)
        if between is not None and len(times) < n_passes:
            between(len(times) - 1)
    checks = [(op.name, c) for op, outs in zip(ops, outputs) if outs for c in op.check(outs)]
    return times, attempted, failed, checks


def measure(workload, seed, seconds, trace, threads, toy=False):
    """Set up and run one workload; returns the result record.

    ``toy`` shrinks the workload (see workloads.py), makes one pass and
    takes one set-up sample; the benchmark's tests use it.
    """
    tracer = None
    t0 = time.perf_counter()
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install_lapack()
    import workloads
    ops = workloads.setup(workload, seed, threads, toy=toy)
    setup = [time.perf_counter() - t0]

    if trace:
        # Untraced and traced passes alternate on the same inputs; the first
        # pair warms up, the second is measured and keeps its spans.
        call_times = {"untraced": [], "traced": []}
        attempted = failed = 0
        checks = []
        try:
            for p in (0, 1):
                for kind in ("untraced", "traced"):
                    if kind == "traced":
                        tracer.spans.clear()
                        tracer.install()
                        tracer.enabled = True
                    times, a, f, c = run_passes(ops, 1, first_pass=p,
                                                tracer=tracer if kind == "traced" else None)
                    tracer.enabled = False
                    tracer.uninstall()
                    call_times[kind] += times
                    attempted, failed, checks = attempted + a, failed + f, checks + c
        finally:
            tracer.close()
        metrics = _with_units(tracing.layer_metrics(
            tracer.spans, sum(call_times["traced"][-1]), sum(call_times["untraced"][-1])))
    else:
        n_passes = 1 if toy else workloads.passes(workload, seconds)
        children = 0 if toy else SETUP_SAMPLES - 1

        def sample_setup(gap):
            # The child set-ups are spread over the gaps between passes, so
            # that they meet the host in as many states as the passes do.
            gaps = n_passes - 1
            for _ in range((gap + 1) * children // gaps - gap * children // gaps):
                setup.append(_setup_in_child(workload, seed, threads))

        times, attempted, failed, checks = run_passes(ops, n_passes, between=sample_setup)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (statistics.median(map(sum, times)), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        call_times = {"untraced": times}
    return {
        "correct": all(c.ok for _, c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "checks": [{"op": op, "name": c.name, "ok": c.ok, "detail": c.detail}
                   for op, c in checks],
        "call_s": call_times,
        "setup_samples_s": setup,
        "spans": tracer.spans if tracer is not None else None,
    }


def _with_units(values: dict) -> dict:
    """Attach the unit that BENCHMARK.json gives each per-layer metric."""
    units = {m["name"]: m["unit"] for m in _benchmark_spec()["per_layer"]}
    return {k: (v if units[k] in ("count", "n3") else float(v), units[k])
            for k, v in values.items()}


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _setup_in_child(workload, seed, threads) -> float:
    """Time of one set-up in a fresh interpreter, which imports everything anew."""
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), workload, str(seed),
           str(threads)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def provenance(workload, seed, seconds, trace, threads) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "src_sha256": _tree_hash(SRC / "stablelab"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "threads_arg": threads,
        "nproc": nproc(),
    }


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _tree_hash(path: Path) -> str:
    """sha256 over the library's source files, names and bytes, sorted."""
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "stablelab" / "__init__.py").is_file():
        print(f"run.py: no stablelab source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in _benchmark_spec()["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    threads = min(2, nproc())
    # Before numpy is imported, so BLAS starts with this many threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))

    rec = measure(args.workload, args.seed, args.seconds, args.trace, threads)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace, threads)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(prov))
    seen = set()
    for c in rec["checks"]:
        key = (c["op"], c["name"], c["ok"], c["detail"])
        if key not in seen:
            seen.add(key)
            print(f"check {c['op']}/{c['name']} {'ok' if c['ok'] else 'FAILED'}: {c['detail']}")
    print(f"attempted {rec['attempted']} failed {rec['failed']}")
    for name, m in rec["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = rec.pop("spans")
    if spans is not None:
        import tracing
        tracing.dump(spans, OUT / f"{stem}.spans.json")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, **rec}, fh, indent=1)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
