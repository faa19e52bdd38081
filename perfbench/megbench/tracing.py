"""Per-module spans around the package's public functions.

The traced run wraps each layer's entry points (see `SPANS`) in a timer
that keeps a stack of open spans, so a span's self time is its duration
minus the time of the spans it encloses. Counts are taken at the same
boundaries. Spans are aggregated per name in memory; nothing is written
until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from megmc import experiments, inductive, quasidim, sideinfo, spectral, synth, transductive

from .rebind import Rebinder


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self):
        self.stats = defaultdict(SpanStats)
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name: str, fn, on_return=None):
        """fn timed as span `name`; on_return(counts, parent, args, result) after it."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats = self.stats[name]
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(self.counts, parent, args, result)
            return result

        return wrapper

    def install(self, rebinder: Rebinder):
        for name, owner, attr, on_return in SPANS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, on_return)
            if isinstance(owner, type):
                rebinder.method(owner, attr, wrapper)
            else:
                rebinder.function(original, wrapper)

    @property
    def wrapped_calls(self) -> int:
        return sum(s.calls for s in self.stats.values())


def _count_eig(counts, parent, args, result):
    counts["eig_q3"] += int(np.shape(args[0])[0]) ** 3
    if parent == "transductive.predict":
        counts["eig_refreshes"] += 1


def _count_update(counts, parent, args, result):
    counts["transductive.updates"] += bool(result)


def _count_step(counts, parent, args, result):
    counts["inductive.replayed_terms"] += len(args[0].update_log)


def _count_commit(counts, parent, args, result):
    rows = len(args[0].row_registry)
    counts["inductive.registry_rows_final"] = max(counts["inductive.registry_rows_final"], rows)


def _count_gram(counts, parent, args, result):
    q = len(args[1])
    counts["sideinfo.kernel_evals"] += q * (q + 1) // 2


# (span name, owner, attribute, counter hook); a class owner means a method
SPANS = (
    ("spectral.eig_sym", spectral, "eig_sym", _count_eig),
    ("transductive.predict", transductive.MatrixExpGradPredictor, "predict", None),
    ("transductive.update", transductive.MatrixExpGradPredictor, "update", _count_update),
    ("inductive.step", inductive.InductivePredictor, "step", _count_step),
    ("inductive.commit", inductive.InductivePredictor, "commit", _count_commit),
    ("sideinfo.gram_matrix", sideinfo, "gram_matrix", _count_gram),
    ("sideinfo.pd_laplacian", sideinfo, "pd_laplacian", None),
    ("sideinfo.embedding_from_pd", sideinfo, "embedding_from_pd", None),
    ("synth.perturb_graph", synth, "perturb_graph", None),
    ("synth.clique_star_graph", synth, "clique_star_graph", None),
    ("synth.apply_label_noise", synth, "apply_label_noise", None),
    ("quasidim.dqd_upper_pdlap", quasidim, "dqd_upper_pdlap", None),
    ("experiments.table1_cell", experiments, "table1_cell", None),
    ("experiments.run_single", experiments, "run_single", None),
    ("experiments.equivalence_sweep", experiments, "equivalence_sweep", None),
    ("experiments.build_cell_instance", experiments, "build_cell_instance", None),
    ("experiments.trace_io", transductive.Trace, "to_csv", None),
)

# the orchestration spans; every other span times work of a layer, and the
# self times of those make up the layer split that split_coverage measures
EXPERIMENT_SPANS = ("experiments.table1_cell", "experiments.run_single",
                    "experiments.equivalence_sweep", "experiments.build_cell_instance")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_seconds: float, per_call_cost: float) -> dict:
    """Per-layer metrics of one traced pass, keyed by BENCHMARK.json name."""
    s, c = tracer.stats, tracer.counts
    eig, pred = s["spectral.eig_sym"], s["transductive.predict"]
    step = s["inductive.step"]
    updates = c["transductive.updates"]
    m = {
        "spectral.eig_sym_calls": eig.calls,
        "spectral.eig_sym_s": eig.total,
        "spectral.eig_sym_q3_sum": c["eig_q3"],
        "spectral.eig_per_update": _ratio(c["eig_refreshes"], updates),
        "transductive.predict_calls": pred.calls,
        "transductive.predict_s": pred.total,
        "transductive.predict_self_s": pred.self_time,
        "transductive.update_s": s["transductive.update"].total,
        "transductive.updates": updates,
        "transductive.update_ratio": _ratio(updates, pred.calls),
        "inductive.step_calls": step.calls,
        "inductive.step_s": step.total,
        "inductive.step_self_s": step.self_time,
        "inductive.commit_s": s["inductive.commit"].total,
        "inductive.replayed_terms": c["inductive.replayed_terms"],
        "inductive.registry_rows_final": c["inductive.registry_rows_final"],
        "sideinfo.gram_matrix_calls": s["sideinfo.gram_matrix"].calls,
        "sideinfo.gram_matrix_s": s["sideinfo.gram_matrix"].total,
        "sideinfo.kernel_evals": c["sideinfo.kernel_evals"],
    }
    for name in ("synth.perturb_graph", "synth.clique_star_graph",
                 "synth.apply_label_noise", "sideinfo.pd_laplacian",
                 "sideinfo.embedding_from_pd", "quasidim.dqd_upper_pdlap",
                 *EXPERIMENT_SPANS, "experiments.trace_io"):
        m[name + "_s"] = s[name].total
    m["experiments.self_s"] = sum(s[name].self_time for name in EXPERIMENT_SPANS)
    m["trace.pass_s"] = pass_seconds
    layer_self = sum(stats.self_time for name, stats in s.items()
                     if name not in EXPERIMENT_SPANS)
    m["trace.split_coverage"] = _ratio(layer_self, pass_seconds)
    m["trace.overhead_est_pct"] = 100.0 * _ratio(tracer.wrapped_calls * per_call_cost,
                                                 pass_seconds)
    return m


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one span wrapper adds to a call, measured on a no-op."""
    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("probe", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - start
    return max(traced - plain, 0.0) / calls
