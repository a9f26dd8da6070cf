"""Spans around the public function of each hgmda module, recorded from
outside the package.

Each wrapped function is replaced at the place its caller looks it up (for
example ``hgmda.pipeline.cg_solve``, which ``adapt`` calls, or
``hgmda.solver.admm_lp``, which ``cg_solve`` calls), so nothing under
``src/`` changes. Spans are kept in memory; ``Tracer.dump`` writes them out
when the run ends. A span's self time is its duration minus the durations of
its direct children. Work the tracer itself does after a wrapped call (the
counters, the exact-LP gap) is paused out of every open span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# (module whose global is replaced, attribute, span name). A function appears
# once per module that looks it up, since replacing the global in one module
# leaves the name imported into another untouched.
WRAP_SITES = (
    ("hgmda.evaluation", "run_task", "evaluation.task"),  # run_benchmark's lookup
    ("hgmda.evaluation", "knn_predict", "evaluation.knn"),
    ("hgmda.evaluation", "load_dataset", "data.load"),
    ("hgmda.evaluation", "load_features", "data.load"),
    ("hgmda.evaluation", "load_labels", "data.load"),
    ("hgmda.evaluation", "adapt", "pipeline.adapt"),  # run_task's lookup
    ("hgmda.pipeline", "adapt", "pipeline.adapt"),  # the benchmark's own lookup
    ("hgmda.pipeline", "select_exemplars", "exemplars.select"),
    ("hgmda.pipeline", "sigma_heuristic", "graphs.adjacency"),
    ("hgmda.pipeline", "adjacency_matrix", "graphs.adjacency"),
    ("hgmda.pipeline", "build_sparse_tensor", "graphs.tensor_build"),
    ("hgmda.pipeline", "cg_solve", "solver.cg"),
    ("hgmda.pipeline", "fit_ridge_mapping", "pipeline.ridge"),
    ("hgmda.solver", "total_objective", "objective.total"),
    ("hgmda.solver", "admm_lp", "solver.lp"),
    ("hgmda.objective", "f1_and_grad", "objective.f1"),
    ("hgmda.objective", "f2_and_grad", "objective.f2"),
    ("hgmda.objective", "f3_and_grad", "objective.f3"),
    ("hgmda.objective", "fg_and_grad", "objective.fg"),
)


class Span:
    __slots__ = ("name", "index", "parent", "start", "end", "paused", "attrs")

    def __init__(self, name, index, parent, start):
        self.name = name
        self.index = index
        self.parent = parent
        self.start = start
        self.end = start
        self.paused = 0.0
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start - self.paused


def exact_fw_gap(C, ctx, weights):
    """Frank-Wolfe gap Tr(G^T (C - C_lp)) at C, with G from the public
    total_objective and C_lp the exact LP minimizer over the matching
    polytope found by HiGHS. None when scipy is not importable."""
    try:
        from scipy.optimize import linprog
        from scipy.sparse import csr_matrix, eye, hstack, kron, vstack
    except ImportError:
        return None
    from hgmda.objective import marginals, total_objective

    _, G = total_objective(C, ctx, weights)
    ns, nt = C.shape
    a, b = marginals(ns, nt)
    row_sums = kron(eye(ns), csr_matrix(np.ones((1, nt))))
    col_sums = hstack([eye(nt)] * ns)
    res = linprog(
        G.ravel(),
        A_eq=vstack([row_sums, col_sums]).tocsr(),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"exact LP failed: {res.message}")
    return float(np.vdot(G.ravel(), C.ravel() - res.x))


def _lp_before(args, kwargs):
    state = kwargs.get("state", args[4] if len(args) > 4 else None)
    return 0 if state is None else state.iterations


def _lp_after(span, args, kwargs, out, before):
    cap = kwargs.get("iters", args[3] if len(args) > 3 else None)
    sweeps = out[1].iterations - before
    span.attrs.update(sweeps=sweeps, capped=int(cap is not None and sweeps >= cap))


def _cg_after(span, args, kwargs, out, before):
    C, diag = out
    ctx = kwargs.get("ctx", args[0] if args else None)
    weights = kwargs.get("weights", args[1] if len(args) > 1 else None)
    span.attrs.update(
        fw_gap=float(diag.final_gap),
        iterate_resid=float(max(max(diag.row_residuals), max(diag.col_residuals))),
        fw_gap_exact=exact_fw_gap(C, ctx, weights),
    )


def _tensor_after(span, args, kwargs, out, before):
    # every array the tensor object holds, whatever its layout
    arrays = [v for v in vars(out).values() if isinstance(v, np.ndarray)]
    span.attrs.update(entries=int(out.m), nbytes=int(sum(a.nbytes for a in arrays)))


def _exemplars_after(span, args, kwargs, out, before):
    span.attrs["converged"] = int(bool(out.converged))


def _adapt_after(span, args, kwargs, out, before):
    span.attrs["rounds"] = len(out.rounds)


# span name -> (hook run before the call or None, hook run after it)
COUNTERS = {
    "solver.lp": (_lp_before, _lp_after),
    "solver.cg": (None, _cg_after),
    "graphs.tensor_build": (None, _tensor_after),
    "exemplars.select": (None, _exemplars_after),
    "pipeline.adapt": (None, _adapt_after),
}


class Tracer:
    """Records nested spans while installed; uninstall restores every
    wrapped global."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._muted = False

    def open(self, name):
        parent = self._stack[-1].index if self._stack else None
        sp = Span(name, len(self.spans), parent, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def close(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()

    def _pause(self, seconds):
        for sp in self._stack:
            sp.paused += seconds

    def _wrap(self, fn, name):
        before_hook, after_hook = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._muted:
                return fn(*args, **kwargs)
            before = before_hook(args, kwargs) if before_hook else None
            sp = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sp)
            if after_hook:
                t0 = time.perf_counter()
                self._muted = True
                try:
                    after_hook(sp, args, kwargs, out, before)
                finally:
                    self._muted = False
                self._pause(time.perf_counter() - t0)
            return out

        return traced

    def install(self):
        for module_name, attr, name in WRAP_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def self_times(self, spans):
        """Self seconds per span name, summed over the given spans."""
        child_time = {}
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] = child_time.get(sp.parent, 0.0) + sp.duration
        out = {}
        for sp in spans:
            out[sp.name] = out.get(sp.name, 0.0) + sp.duration - child_time.get(sp.index, 0.0)
        return out

    def dump(self, path):
        rows = [
            {"name": sp.name, "parent": sp.parent, "start": sp.start, "end": sp.end,
             "paused": sp.paused, **sp.attrs}
            for sp in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def layer_metrics(tracer, op_spans, n_ops):
    """Per-layer metrics of the traced operations: totals and counts are per
    operation, gaps and residuals the largest seen. A layer the workload
    never reaches reads 0."""
    own = tracer.self_times(op_spans)
    per = 1.0 / n_ops

    def named(name):
        return [sp for sp in op_spans if sp.name == name]

    def attr_sum(name, key):
        return sum(sp.attrs[key] for sp in named(name))

    def attr_max(name, key):
        return max((sp.attrs[key] for sp in named(name)), default=0.0)

    lp_s = own.get("solver.lp", 0.0)
    sweeps = attr_sum("solver.lp", "sweeps")
    by_index = {sp.index: sp for sp in op_spans}
    task_adapts = [
        sp for sp in named("pipeline.adapt")
        if sp.parent in by_index and by_index[sp.parent].name == "evaluation.task"
    ]
    metrics = {
        "data.load_s": (own.get("data.load", 0.0) * per, "s"),
        "exemplars.select_s": (own.get("exemplars.select", 0.0) * per, "s"),
        "exemplars.select_calls": (len(named("exemplars.select")) * per, "count"),
        "exemplars.converged": (attr_sum("exemplars.select", "converged") * per, "count"),
        "graphs.adjacency_s": (own.get("graphs.adjacency", 0.0) * per, "s"),
        "graphs.tensor_build_s": (own.get("graphs.tensor_build", 0.0) * per, "s"),
        "graphs.tensor_entries": (attr_max("graphs.tensor_build", "entries"), "count"),
        "graphs.tensor_mb": (attr_max("graphs.tensor_build", "nbytes") / 2**20, "MB"),
        "objective.calls": (len(named("objective.total")) * per, "count"),
        "objective.total_s": (sum(sp.duration for sp in named("objective.total")) * per, "s"),
        "objective.f1_s": (own.get("objective.f1", 0.0) * per, "s"),
        "objective.f2_s": (own.get("objective.f2", 0.0) * per, "s"),
        "objective.f3_s": (own.get("objective.f3", 0.0) * per, "s"),
        "objective.fg_s": (own.get("objective.fg", 0.0) * per, "s"),
        "solver.cg_s": (own.get("solver.cg", 0.0) * per, "s"),
        "solver.lp_s": (lp_s * per, "s"),
        "solver.lp_calls": (len(named("solver.lp")) * per, "count"),
        "solver.lp_sweeps": (sweeps * per, "count"),
        "solver.sweep_us": (1e6 * lp_s / sweeps if sweeps else 0.0, "us"),
        "solver.lp_capped": (attr_sum("solver.lp", "capped") * per, "count"),
        "solver.fw_gap": (attr_max("solver.cg", "fw_gap"), "objective"),
        "solver.iterate_resid_max": (attr_max("solver.cg", "iterate_resid"), "marginal"),
        "pipeline.adapt_s": (own.get("pipeline.adapt", 0.0) * per, "s"),
        "pipeline.rounds": (attr_sum("pipeline.adapt", "rounds") * per, "count"),
        "pipeline.ridge_s": (own.get("pipeline.ridge", 0.0) * per, "s"),
        "evaluation.task_s": (own.get("evaluation.task", 0.0) * per, "s"),
        "evaluation.adapt_calls": (len(task_adapts) * per, "count"),
        "evaluation.knn_s": (own.get("evaluation.knn", 0.0) * per, "s"),
    }
    exact = [sp.attrs["fw_gap_exact"] for sp in named("solver.cg")]
    if exact and None not in exact:
        metrics["solver.fw_gap_exact"] = (max(exact), "objective")
    return metrics
