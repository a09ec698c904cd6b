"""Spans around the calls into each stablelab module, and the per-layer metrics.

The tracer wraps functions from outside the library: it replaces module and
class attributes with recording wrappers, so ``src/`` carries no tracing
code.  A span is (id, name, layer, start, end, parent, thread) plus a few
attributes (rows drawn, points tested, matrix size).  Spans are kept in
memory and written out when the run ends.  A module-internal call (say
``Domain.contains`` calling ``self.depth``) is traced when it goes through
a wrapped attribute, so it nests as a child span.

Layers are the modules: ``process`` (increment draws, as bound in
``functionals`` and ``identities``), ``geometry`` (``depth``/``contains``
of every ``Domain`` subclass), ``functionals`` (public estimators, the
Feynman-Kac engine as ``identities`` calls it, ``KillingPotential``),
``identities`` (public functions) and ``spectral`` (public functions,
``GeneratorMatrix.semigroup_sym`` and the LAPACK eigensolvers it reaches).
Self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

import numpy as np

PROCESS, GEOMETRY, FUNCTIONALS, IDENTITIES, SPECTRAL, LAPACK = (
    "process", "geometry", "functionals", "identities", "spectral", "lapack")

FUNCTIONALS_ESTIMATORS = (
    "exit_time", "estimate_mean_exit_time", "exit_time_scan", "estimate_survival",
    "estimate_resolvent_r1", "feynman_kac_weight", "estimate_killed_lifetime_mean",
    "time_change_clock",
)
IDENTITIES_PUBLIC = (
    "dynkin_residual", "boundary_term", "estimate_T_norm", "t_norm_bound_check",
    "subprocess_commute_check",
)
SPECTRAL_PUBLIC = (
    "dirichlet_laplacian", "killed_generator", "fractional_power", "weighted_generator",
    "semigroup_matrix", "heat_trace", "part_generator", "compactness_diagnostic",
    "lp_spectral_bound_compare", "weighted_transition_study", "union_interval_trace",
)
# Spans whose self time is a dense n x n product building a semigroup or a power.
PRODUCT_SPANS = ("spectral.GeneratorMatrix.semigroup_sym", "spectral.fractional_power")
# numpy/scipy eigensolvers; scipy's are traced if stablelab binds or calls them.
NUMPY_EIGEN = ("eigh", "eigvalsh")
SCIPY_EIGEN = ("eigh", "eigvalsh", "eigh_tridiagonal", "eigvalsh_tridiagonal", "eig", "eigvals")
# Exit estimators whose results give the useful path-steps, mean * n_paths / h.
EXIT_ESTIMATES = ("functionals.estimate_mean_exit_time", "functionals.exit_time_scan")
ROW_BUCKETS = (("rows_lt_1k", 0, 1_000), ("rows_1k_10k", 1_000, 10_000),
               ("rows_ge_10k", 10_000, float("inf")))

# Span tuple fields.
ID, NAME, LAYER, START, END, PARENT, THREAD, ATTR = range(8)


class Tracer:
    """Records spans while ``enabled``; otherwise wrappers call straight through."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._local = threading.local()
        self._op_stack: list = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        self._lapack = 0  # leading entries of _patched that install_lapack made

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, layer: str, fn, attrs=None, keep_result=None):
        """Return a wrapper of ``fn`` that records one span per call.

        ``attrs(args, kwargs)`` gives the span's attributes before the call,
        ``keep_result(result, attr)`` adds attributes from the result.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            # A worker thread's first span hangs off the span that the
            # operation's thread has open while it waits for the workers.
            parent = stack[-1] if stack else tracer._open_in_op_thread()
            outermost = parent is None or tracer.spans[parent][LAYER] == "op"
            attr = attrs(args, kwargs) if attrs is not None else {}
            with tracer._lock:
                sid = len(tracer.spans)
                span = [sid, name, layer, 0.0, 0.0, parent, threading.get_ident(), attr]
                tracer.spans.append(span)
            stack.append(sid)
            if outermost:
                cpu0 = time.process_time()
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                if outermost:
                    attr["cpu"] = time.process_time() - cpu0
                stack.pop()
            if keep_result is not None:
                keep_result(result, attr)
            return result

        return traced

    def _open_in_op_thread(self):
        return self._op_stack[-1] if self._op_stack else None

    def begin_op(self, name: str) -> None:
        """Open the root span of one operation, in the calling thread."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append([sid, name, "op", time.perf_counter(), 0.0, None,
                               threading.get_ident(), {}])
        self._op_stack = self._stack()
        self._op_stack.append(sid)

    def end_op(self) -> None:
        sid = self._op_stack.pop()
        self.spans[sid][END] = time.perf_counter()

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str, rebind=(), **kw) -> None:
        """Replace ``owner.attr`` by a traced wrapper, and every binding of
        the same object in the modules ``rebind`` (``from x import f``
        copies)."""
        original = getattr(owner, attr)
        traced = self.wrap(name, layer, original, **kw)
        for target in (owner, *rebind):
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patched.append((target, key, value))
                    setattr(target, key, traced)

    def install_lapack(self) -> None:
        """Trace the eigensolvers; call before stablelab is imported, so a
        ``from scipy.linalg import eigh`` binds the wrapper."""
        import scipy.linalg

        def n_of(args, kwargs):
            a = args[0] if args else next(iter(kwargs.values()))
            return {"n": int(np.shape(a)[-1])}

        for fname in NUMPY_EIGEN:
            self.patch(np.linalg, fname, f"numpy.linalg.{fname}", LAPACK, attrs=n_of)
        for fname in SCIPY_EIGEN:
            self.patch(scipy.linalg, fname, f"scipy.linalg.{fname}", LAPACK, attrs=n_of)
        self._lapack = len(self._patched)

    def install(self) -> None:
        """Wrap the layer boundaries of an imported stablelab."""
        import stablelab
        from stablelab import functionals, geometry, identities, spectral

        everywhere = (stablelab, functionals, identities, spectral)

        def rows(args, kwargs):
            size = args[3] if len(args) > 3 else kwargs["size"]
            return {"rows": int(size)}

        for mod in (functionals, identities):
            # Two bindings of one function: patch each module's own name only.
            self.patch(mod, "sample_increments", f"{mod.__name__.split('.')[-1]}.sample_increments",
                       PROCESS, attrs=rows)

        def points(args, kwargs):
            p = np.asarray(args[1] if len(args) > 1 else kwargs["points"])
            return {"points": int(p.shape[0]) if p.ndim > 1 else 1}

        shapes = [c for c in vars(geometry).values()
                  if isinstance(c, type) and issubclass(c, geometry.Domain)]
        for cls in shapes:
            for meth in ("depth", "contains"):
                if meth in vars(cls):
                    self.patch(cls, meth, f"geometry.{cls.__name__}.{meth}", GEOMETRY,
                               attrs=points)

        self.patch(functionals.KillingPotential, "__call__",
                   "functionals.KillingPotential.__call__", FUNCTIONALS)
        for fname in FUNCTIONALS_ESTIMATORS:
            keep = _keep_useful_steps if f"functionals.{fname}" in EXIT_ESTIMATES else None
            self.patch(functionals, fname, f"functionals.{fname}", FUNCTIONALS,
                       rebind=everywhere, keep_result=keep)
        # The Feynman-Kac path loop belongs to functionals, whoever drives it.
        self.patch(identities, "_fk_engine", "functionals._fk_engine", FUNCTIONALS)
        for fname in IDENTITIES_PUBLIC:
            self.patch(identities, fname, f"identities.{fname}", IDENTITIES, rebind=everywhere)
        for fname in SPECTRAL_PUBLIC:
            self.patch(spectral, fname, f"spectral.{fname}", SPECTRAL, rebind=everywhere)
        self.patch(spectral.GeneratorMatrix, "semigroup_sym",
                   "spectral.GeneratorMatrix.semigroup_sym", SPECTRAL)

    def uninstall(self) -> None:
        """Undo ``install``; the eigensolver wrappers stay until ``close``."""
        while len(self._patched) > self._lapack:
            target, key, value = self._patched.pop()
            setattr(target, key, value)

    def close(self) -> None:
        """Undo every patch, the eigensolver wrappers too."""
        self._lapack = 0
        self.uninstall()


def dump(spans: list[list], path) -> None:
    with open(path, "w") as fh:
        json.dump({"columns": ["id", "name", "layer", "start", "end", "parent", "thread",
                               "attrs"], "spans": spans}, fh)


def _keep_useful_steps(result, attr) -> None:
    pairs = result if isinstance(result, list) else [(result,)]
    attr["useful_steps"] = sum(r[0].mean * r[0].n_paths / r[0].step_h for r in pairs)


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(spans: list[list], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass; see README.md for definitions.

    A metric whose layer does no work on the workload reads 0.
    """
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += dur[s[ID]]
            children[s[PARENT]].append(s[ID])
    self_time = [d - c for d, c in zip(dur, child_time)]

    def parent_name(s):
        return None if s[PARENT] is None else spans[s[PARENT]][NAME]

    def layer_self(layer):
        return sum(self_time[s[ID]] for s in spans if s[LAYER] == layer)

    draws = [s for s in spans if s[LAYER] == PROCESS]
    n_draws = sum(s[ATTR]["rows"] for s in draws)
    busy_draw = sum(dur[s[ID]] for s in draws)

    geo = [s for s in spans if s[LAYER] == GEOMETRY]
    geo_top = [s for s in geo if s[PARENT] is None or spans[s[PARENT]][LAYER] != GEOMETRY]

    def ns_per_point(shape):
        own = [s for s in geo if s[NAME].split(".")[1] == shape]
        pts = sum(s[ATTR]["points"] for s in own
                  if parent_name(s) is None or parent_name(s).split(".")[1:2] != [shape])
        return 1e9 * sum(self_time[s[ID]] for s in own) / pts if pts else 0.0

    # Interval between successive draws of one path loop, minus the spans
    # the loop made in it, grouped by the rows drawn.
    loops = defaultdict(list)
    for s in draws:
        if s[NAME].startswith("functionals."):
            loops[(s[PARENT], s[THREAD])].append(s)
    bucket_sum = defaultdict(float)
    bucket_n = defaultdict(int)
    for (parent, thread), steps in loops.items():
        siblings = sorted((spans[c] for c in children[parent] if spans[c][THREAD] == thread),
                          key=lambda s: s[START])
        j = 0
        for a, b in zip(steps, steps[1:]):
            inside = 0.0
            while j < len(siblings) and siblings[j][START] < b[START]:
                if siblings[j][START] >= a[START]:
                    inside += dur[siblings[j][ID]]
                j += 1
            gap = b[START] - a[START] - inside
            for label, lo, hi in ROW_BUCKETS:
                if lo <= a[ATTR]["rows"] < hi:
                    bucket_sum[label] += gap
                    bucket_n[label] += 1

    # Useful path-steps of exit estimates against the rows their loops drew.
    def descendants_rows(sid):
        total, todo = 0, [sid]
        while todo:
            cur = todo.pop()
            for c in children[cur]:
                if spans[c][LAYER] == PROCESS:
                    total += spans[c][ATTR]["rows"]
                todo.append(c)
        return total

    exits = [s for s in spans if s[NAME] in EXIT_ESTIMATES and parent_name(s) not in EXIT_ESTIMATES]
    useful = sum(s[ATTR].get("useful_steps", 0.0) for s in exits)
    drawn = sum(descendants_rows(s[ID]) for s in exits)

    # CPU over wall of the outermost estimator calls.
    outer = [s for s in spans if s[LAYER] in (FUNCTIONALS, IDENTITIES)
             and s[PARENT] is not None and spans[s[PARENT]][LAYER] == "op"]
    outer_wall = sum(dur[s[ID]] for s in outer)
    outer_cpu = sum(s[ATTR]["cpu"] for s in outer)

    potential = sum(dur[s[ID]] for s in spans if s[NAME] == "functionals.KillingPotential.__call__")
    eig = [s for s in spans if s[LAYER] == LAPACK]
    return {
        "process.calls": len(draws),
        "process.draws": n_draws,
        "process.busy_s": busy_draw,
        "process.ns_per_draw": 1e9 * busy_draw / n_draws if n_draws else 0.0,
        "geometry.points": sum(s[ATTR]["points"] for s in geo_top),
        "geometry.busy_s": sum(self_time[s[ID]] for s in geo),
        "geometry.ball.ns_per_point": ns_per_point("Ball"),
        "geometry.union_balls.ns_per_point": ns_per_point("UnionOfBalls"),
        "geometry.interval.ns_per_point": ns_per_point("Interval"),
        "functionals.self_s": layer_self(FUNCTIONALS) - potential,
        "functionals.potential_s": potential,
        "functionals.steps": sum(1 for s in draws if s[NAME].startswith("functionals.")),
        **{f"functionals.us_per_step.{label}":
           1e6 * bucket_sum[label] / bucket_n[label] if bucket_n[label] else 0.0
           for label, _, _ in ROW_BUCKETS},
        "functionals.useful_step_ratio": useful / drawn if drawn else 0.0,
        "functionals.cpu_per_wall": outer_cpu / outer_wall if outer_wall else 0.0,
        "identities.self_s": layer_self(IDENTITIES),
        "identities.steps": sum(1 for s in draws if s[NAME].startswith("identities.")),
        "spectral.eigh.calls": len(eig),
        "spectral.eigh.n3_computed": sum(s[ATTR]["n"] ** 3 for s in eig),
        "spectral.eigh.busy_s": sum(dur[s[ID]] for s in eig),
        "spectral.product.busy_s": sum(self_time[s[ID]] for s in spans if s[NAME] in PRODUCT_SPANS),
        "spectral.self_s": layer_self(SPECTRAL),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
