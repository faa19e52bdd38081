"""One benchmark run: set-up repeats, timed passes, checks and metrics.

A run first repeats the workload's set-up (at least `SETUP_MIN_REPS`
times and for at least `SETUP_MIN_S` seconds) and takes the median as
`setup_s`. On the grids and inductive one set-up calls `table1_cell` or
`run_single` for every cell of a pass and stops each at its entry into
the learner, so it times the package's own set-up path. The run then
runs whole passes until the next one would end after the deadline;
there is always at least one. With tracing off the metrics are the
end-to-end ones; with tracing on they are the per-layer ones, each the
median over the traced passes.
"""

from __future__ import annotations

import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .capture import Capture
from .rebind import Rebinder
from .tracing import Tracer, layer_metrics, wrapper_cost
from .workloads import Workload, check_against_reference

SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50


@dataclass
class RunResult:
    metrics: dict
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    passes: int = 0

    @property
    def correct(self) -> bool:
        return self.attempted >= 1 and not self.problems


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            recorded: dict | None, scratch_root: Path) -> RunResult:
    """Run workload at master seed `seed` for about `seconds` seconds.

    recorded holds the reference outputs of this workload and seed; None
    skips the comparison with them.
    """
    deadline = time.perf_counter() + seconds
    per_call = wrapper_cost() if trace else 0.0
    passes = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=scratch_root) as tmp, \
            Rebinder() as rebinder:
        capture = Capture()
        capture.install(rebinder)
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPS or (
                sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS):
            setup_times.append(workload.setup(seed, capture))
        tracer = Tracer()
        if trace:
            tracer.install(rebinder)
        while True:
            tracer.reset()
            elapsed, result = _timed(workload.run_pass, seed, Path(tmp), capture)
            layers = layer_metrics(tracer, elapsed, per_call) if trace else None
            passes.append((elapsed, result, layers))
            if time.perf_counter() + elapsed > deadline:
                break

    first = passes[0][1]
    for _, result, _ in passes:
        check_against_reference(result.ops, recorded)
        for op, op0 in zip(result.ops, first.ops):
            if op.values != op0.values:
                op.problems.append(f"outputs differ between passes: {op.values} vs {op0.values}")
    ops = [op for _, result, _ in passes for op in result.ops]
    problems = [f"{op.kind} {op.key}: {'; '.join(op.problems)}" for op in ops if op.failed]

    if trace:
        names = passes[0][2].keys()
        metrics = {name: statistics.median(p[2][name] for p in passes) for name in names}
    else:
        metrics = {
            "wall_s": statistics.median(p[0] for p in passes),
            "ops_per_s": statistics.median(p[1].work / p[0] for p in passes),
            "setup_s": statistics.median(setup_times),
            "mean_error": first.err_num / first.err_den if first.err_den else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return RunResult(metrics=metrics, attempted=len(ops),
                     failed=sum(op.failed for op in ops), problems=problems,
                     passes=len(passes))
