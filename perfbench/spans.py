"""Span tracing of netate's layers from outside the library.

`traced(tracer)` swaps each layer entry point for a timing wrapper at the
module attribute its caller looks it up by (for example the harness calls
`harness.sample_graph`, the kernel estimator calls
`estimators.weights_matrix`), and restores the originals on exit.  Spans are
kept in memory as [name, start, end, parent index, replicate key]; self time
is a span's duration minus the time covered by its children.

With `probe=True` the tracer also records each span's peak traced memory
above its start (tracemalloc, which sees numpy's buffers) and per-call
checks that cost real work: eigenpair residuals, kernel-matrix sparsity and
the pickled size of each replicate task.  Probe timings are not reported.
"""

from __future__ import annotations

import pickle
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# span name (defining module.function) -> the (module, attribute) pairs it is called through
LAYERS = {
    "harness._run_replicate": (("harness", "_run_replicate"),),
    "harness._estimate_once": (("harness", "_estimate_once"),),
    "graphon.sample_graph": (("harness", "sample_graph"),),
    "trial.assign_treatments": (("harness", "assign_treatments"),),
    "trial.sample_covariates": (("harness", "sample_covariates"),),
    "trial.exposure_fractions": (("harness", "exposure_fractions"),),
    "trial.simulate_outcomes": (("harness", "simulate_outcomes"),),
    "trial.TrialData": (("harness", "TrialData"),),
    "variance.estimate_b": (("harness", "estimate_b"),),
    "variance.leading_eigenpairs": (("harness", "leading_eigenpairs"),),
    "variance.pc_balancing_weights": (("harness", "pc_balancing_weights"),),
    "estimators.difference_in_means": (("harness", "difference_in_means"),),
    "estimators.linear_adjusted": (("harness", "linear_adjusted"), ("variance", "linear_adjusted")),
    "estimators._np_tuning": (("harness", "_np_tuning"),),
    "kernels.weights_matrix": (("estimators", "weights_matrix"),),
    "estimators.nonparametric": (("harness", "nonparametric"),),
    "variance.variance_np_polyseq": (("harness", "variance_np_polyseq"),),
    "variance.variance_reg": (("harness", "variance_reg"), ("variance", "variance_reg")),
    "variance.confidence_interval": (("harness", "confidence_interval"),),
}
ROOT = "harness.run_scenario"
# spans that only structure the trace; their self time is the untraced remainder
STRUCTURAL = (ROOT, "harness._run_replicate", "harness._estimate_once")
TRIAL_LAYERS = (
    "trial.assign_treatments",
    "trial.sample_covariates",
    "trial.exposure_fractions",
    "trial.simulate_outcomes",
)
MB = float(1 << 20)


class Tracer:
    def __init__(self, probe: bool = False):
        self.probe = probe
        self.spans: list[list] = []
        self.rep = None  # key of the replicate being run, None outside one
        self.batch = -1
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._mem: list[list[int]] = []  # per open span: [traced bytes at start, peak seen]

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [name, 0.0, 0.0, parent, self.rep]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            if self.probe:
                self._mem_enter()
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if self.probe:
                    self._mem_exit(name)
            if after is not None:
                after(self, args, out)
            return out

        return wrapper

    def _mem_enter(self):
        cur, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([cur, cur])

    def _mem_exit(self, name: str):
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._mem.pop()
        seen = max(seen, peak)
        self.peak_mb[name] = max(self.peak_mb[name], (seen - base) / MB)
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], seen)
        tracemalloc.reset_peak()

    def run(self, fn, *args, **kwargs):
        """Call fn (one run_scenario batch) under a root span."""
        self.batch += 1
        return self.span(ROOT, fn)(*args, **kwargs)


# -- counts recorded at the layer boundaries --------------------------------

def _after_replicate(tracer: Tracer, args, out):
    if tracer.probe:
        tracer.counts["task_bytes"].append(len(pickle.dumps(args[0])))


def _after_sample_graph(tracer: Tracer, args, net):
    tracer.counts["edges"].append(net.adjacency.nnz / 2)
    tracer.counts["candidates"].append(net.n * (net.n - 1) / 2)


def _after_eigenpairs(tracer: Tracer, args, spectral):
    if tracer.probe:
        residual = float(np.max(spectral.residual_norms(args[0])))
        tracer.counts["eig_residual"].append(residual / spectral.operator_norm())


def _after_weights_matrix(tracer: Tracer, args, kmat):
    tracer.counts["kmat_mb"].append(kmat.nbytes / MB)
    if tracer.probe:
        tracer.counts["kmat_nonzero"].append(np.count_nonzero(kmat) / kmat.size)


def _after_nonparametric(tracer: Tracer, args, result):
    tracer.counts["kept"].append(result.diagnostics["kept"])
    tracer.counts["kept_of"].append(args[0].n)


_AFTER = {
    "graphon.sample_graph": _after_sample_graph,
    "variance.leading_eigenpairs": _after_eigenpairs,
    "kernels.weights_matrix": _after_weights_matrix,
    "estimators.nonparametric": _after_nonparametric,
}


def _replicate_wrapper(tracer: Tracer, fn):
    inner = tracer.span("harness._run_replicate", fn, after=_after_replicate)

    def wrapper(task):
        tracer.rep = (tracer.batch, task.rep)
        try:
            return inner(task)
        finally:
            tracer.rep = None

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers on netate's modules; yields the names not found."""
    import importlib

    saved, missing = [], []
    for name, sites in LAYERS.items():
        for module_name, attr in sites:
            module = importlib.import_module(f"netate.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if name == "harness._run_replicate":
                wrapped = _replicate_wrapper(tracer, fn)
            else:
                wrapped = tracer.span(name, fn, after=_AFTER.get(name))
            saved.append((module, attr, fn))
            setattr(module, attr, wrapped)
    if tracer.probe:
        tracemalloc.start()
    try:
        yield missing
    finally:
        if tracer.probe:
            tracemalloc.stop()
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# -- analysis -----------------------------------------------------------------

def durations(spans) -> tuple[dict, dict]:
    """Total and self time per span name, in seconds."""
    total: dict[str, float] = defaultdict(float)
    child: list[float] = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        own[name] += end - start - child[i]
    return total, own


def coverage_errors(spans, per_rep: dict, per_batch: dict) -> list[str]:
    """Mismatches between the span counts seen and the workload's expectations."""
    reps: dict = defaultdict(lambda: defaultdict(int))
    batches: dict = defaultdict(lambda: defaultdict(int))
    batch_of_root = {}
    for i, (name, _, _, parent, rep) in enumerate(spans):
        if name == ROOT:
            batch_of_root[i] = len(batch_of_root)
            batches[batch_of_root[i]]  # every batch is checked, even one with no spans of its own
        elif rep is not None:
            reps[rep][name] += 1
        else:
            root = i
            while spans[root][3] >= 0:
                root = spans[root][3]
            batches[batch_of_root.get(root, "outside")][name] += 1
    errors = []
    for label, seen, expected in (("replicate", reps, per_rep), ("batch", batches, per_batch)):
        names = set(expected) | {n for counts in seen.values() for n in counts}
        for key, counts in seen.items():
            for name in sorted(names):
                lo, hi = expected.get(name, (0, 0))
                if not lo <= counts.get(name, 0) <= hi:
                    errors.append(f"{label} {key}: {name} fired {counts.get(name, 0)} times, expected {lo}..{hi}")
                    break
    if not reps and per_rep:
        errors.append("no replicate spans recorded")
    return errors[:20]


def layer_metrics(timing: Tracer, probe: Tracer) -> dict:
    """The per-layer metrics of a traced timing pass plus its memory probe."""
    spans, counts = timing.spans, timing.counts
    total, own = durations(spans)
    reps = max(1, sum(1 for s in spans if s[0] == "harness._run_replicate"))
    run_time = total.get(ROOT, 0.0) or 1.0

    def ms(name):
        return 1e3 * total.get(name, 0.0) / reps

    def ratio(num, den):
        a, b = sum(counts.get(num, ())), sum(counts.get(den, ()))
        return a / b if b else 0.0

    def mean(key):
        vals = counts.get(key) or probe.counts.get(key) or ()
        return float(np.mean(vals)) if len(vals) else 0.0

    rep_ms = np.array([1e3 * (e - s) for n, s, e, _, _ in spans if n == "harness._run_replicate"])
    polyseq = [i for i, s in enumerate(spans) if s[0] == "variance.variance_np_polyseq"]
    polyseq_set = set(polyseq)
    fits = sum(1 for s in spans if s[0] == "estimators.linear_adjusted" and s[3] in polyseq_set)
    eig = probe.counts.get("eig_residual", ())
    return {
        "graphon.sample_graph.ms": ms("graphon.sample_graph"),
        "graphon.sample_graph.peak_mb": probe.peak_mb.get("graphon.sample_graph", 0.0),
        "graphon.edge_yield": ratio("edges", "candidates"),
        "variance.leading_eigenpairs.ms": ms("variance.leading_eigenpairs"),
        "variance.leading_eigenpairs.share": own.get("variance.leading_eigenpairs", 0.0) / run_time,
        "variance.leading_eigenpairs.peak_mb": probe.peak_mb.get("variance.leading_eigenpairs", 0.0),
        "variance.eig_residual": max(eig) if eig else 0.0,
        "kernels.weights_matrix.ms": ms("kernels.weights_matrix"),
        "kernels.weights_matrix.share": own.get("kernels.weights_matrix", 0.0) / run_time,
        "kernels.weights_matrix.peak_mb": probe.peak_mb.get("kernels.weights_matrix", 0.0),
        "kernels.weights_matrix.computed_mb": mean("kmat_mb"),
        "kernels.nonzero_fraction": mean("kmat_nonzero"),
        "estimators._np_tuning.self_ms": 1e3 * own.get("estimators._np_tuning", 0.0) / reps,
        "estimators.nonparametric.ms": ms("estimators.nonparametric"),
        "estimators.linear_adjusted.ms": ms("estimators.linear_adjusted"),
        "estimators.kept_fraction": ratio("kept", "kept_of"),
        "variance.variance_np_polyseq.ms": ms("variance.variance_np_polyseq"),
        "variance.polyseq_fits": fits / len(polyseq) if polyseq else 0.0,
        "variance.estimate_b.ms": ms("variance.estimate_b"),
        "variance.pc_balancing_weights.ms": ms("variance.pc_balancing_weights"),
        "variance.variance_reg.ms": ms("variance.variance_reg"),
        "trial.ms": sum(ms(name) for name in TRIAL_LAYERS),
        "harness.replicate_ms.p50": float(np.percentile(rep_ms, 50)) if rep_ms.size else 0.0,
        "harness.replicate_ms.p90": float(np.percentile(rep_ms, 90)) if rep_ms.size else 0.0,
        "harness.task_bytes": mean("task_bytes"),
    }


def mean_replicate_s(spans) -> float:
    times = [e - s for n, s, e, _, _ in spans if n == "harness._run_replicate"]
    return sum(times) / len(times) if times else 0.0


def top_layers(spans, k: int = 5) -> list[tuple[str, float]]:
    """The k non-structural layers with the largest self time, with their share."""
    total, own = durations(spans)
    run_time = total.get(ROOT, 0.0) or 1.0
    ranked = sorted(
        ((name, t / run_time) for name, t in own.items() if name not in STRUCTURAL),
        key=lambda item: -item[1],
    )
    return ranked[:k]
