"""The benchmark workloads and the correctness checks on their outputs.

Every workload takes the master seed and hands the package only what
`table1_cell`, `run_single`, `equivalence_sweep` and
`build_cell_instance` generate from it. Calls go through module
attributes (`experiments.table1_cell`, not an imported name) so that the
tracer's rebinding also sees the calls made from here.

A pass is one complete run of a workload. It returns one `Op` per
checked operation: a grid cell, a `run_single` run, an equivalence
instance or a cell build. An operation fails when it raises, when a
margin it produced is not finite, or when an output leaves the band
around the value recorded for it in `reference.json`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from megmc import experiments, quasidim, sideinfo, transductive

from .capture import Capture

# instance parameters of the paper's grid
P, K, L = 0.10, 9, 9

GRID_CELLS = ((40, 0.5), (40, 0.0), (100, 0.5), (100, 0.0))
INDUCTIVE_CELLS = ((30, 0.5), (30, 0.0))
# run_single instances per inductive cell: at n=30 one instance's update
# count, and with it the term-replay work, varies by about 10% from seed
# to seed, so a pass averages over three
INDUCTIVE_RUNS = 3
BUILD_CELLS = ((200, 0.5), (200, 0.0), (400, 0.5), (400, 0.0))
SWEEP_INSTANCES = 50

# The master seed handed to the package is the benchmark seed modulo the
# pool size, so every seed has recorded reference outputs. HELD_OUT_SEED
# was not used while the benchmark was tuned; keep it for checking claims.
SEED_POOL = 32
HELD_OUT_SEED = 31

ERROR_BAND = 0.05
EQUIVALENCE_TOL = 1e-6
D_HAT_RTOL = 1e-6


def master_seed(seed: int) -> int:
    return seed % SEED_POOL


def cell_key(n: int, beta: float) -> str:
    return f"n={n},beta={beta:g}"


@dataclass
class Op:
    """One checked operation: its outputs and the reasons it failed, if any."""

    kind: str
    key: str
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class PassResult:
    """Operations of one pass, its work for ops_per_s and its error counts.

    The work unit is the one that sets a pass's cost: an update on the
    grids (each costs an eigendecomposition of size 2n), a trial of either
    predictor on inductive, a cell build on build.
    """

    ops: list = field(default_factory=list)
    work: int = 0
    err_num: float = 0.0
    err_den: float = 0.0


@dataclass(frozen=True)
class Workload:
    """setup returns the seconds of one set-up of every cell of a pass."""

    setup: Callable[[int, Capture], float]
    run_pass: Callable[[int, Path, Capture], PassResult]


def _attempt(op: Op, fn, *args, **kwargs):
    """Run fn; an exception marks op failed instead of ending the run."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
        return None


def _check_trace(op: Op, trace, expected_trials: int):
    if len(trace) != expected_trials:
        op.problems.append(f"trace has {len(trace)} trials, expected {expected_trials}")
    ybar = np.fromiter((r.ybar for r in trace), dtype=float, count=len(trace))
    if not np.all(np.isfinite(ybar)):
        op.problems.append(f"{int(np.sum(~np.isfinite(ybar)))} non-finite margins")


# ---------------------------------------------------------------------------
# grid and grid_conservative


def grid_setup(seed: int, capture: Capture, cells=GRID_CELLS,
               conservative: bool = False) -> float:
    """Seconds table1_cell spends before its first trial, summed over the cells."""
    return sum(capture.time_setup(experiments.table1_cell, seed, n, beta, 0, P, K, L,
                                  conservative=conservative)
               for n, beta in cells)


def grid_pass(seed: int, out: Path, capture: Capture, cells=GRID_CELLS,
              conservative: bool = False) -> PassResult:
    res = PassResult()
    for n, beta in cells:
        op = Op("cell", cell_key(n, beta))
        capture.clear()
        row = _attempt(op, experiments.table1_cell, seed, n, beta, 0, P, K, L,
                       conservative=conservative)
        res.ops.append(op)
        if row is None:
            continue
        if len(capture.traces) != 1:
            op.problems.append(f"expected one trace, captured {len(capture.traces)}")
        else:
            _check_trace(op, capture.traces[0], n * n)
        op.values = {"error": row["error"], "updates": row["updates"]}
        res.work += row["updates"]
        res.err_num += row["mistakes"]
        res.err_den += row["T"]
    return res


# ---------------------------------------------------------------------------
# inductive


def _inductive_runs(seed: int, cells, runs: int):
    """(package seed, n, beta) of each run_single; disjoint across seeds."""
    return [(seed * runs + k, n, beta) for k in range(runs) for n, beta in cells]


def _inductive_config(run_seed: int, n: int, beta: float, out=None):
    return experiments.ExperimentConfig(
        mode="inductive", n_values=(n,), betas=(beta,), seed=run_seed, out=out,
    )


def inductive_setup(seed: int, capture: Capture, cells=INDUCTIVE_CELLS,
                    runs: int = INDUCTIVE_RUNS) -> float:
    """Seconds run_single spends before its first trial, summed over the runs."""
    return sum(capture.time_setup(experiments.run_single,
                                  _inductive_config(run_seed, n, beta))
               for run_seed, n, beta in _inductive_runs(seed, cells, runs))


def inductive_pass(seed: int, out: Path, capture: Capture, cells=INDUCTIVE_CELLS,
                   runs: int = INDUCTIVE_RUNS,
                   sweep_instances: int = SWEEP_INSTANCES) -> PassResult:
    res = PassResult()
    for run_seed, n, beta in _inductive_runs(seed, cells, runs):
        op = Op("run", f"seed={run_seed},{cell_key(n, beta)}")
        res.ops.append(op)
        run_dir = out / f"inductive_s{run_seed}_n{n}_b{beta:g}"
        result = _attempt(op, experiments.run_single,
                          _inductive_config(run_seed, n, beta, str(run_dir)))
        if result is None:
            continue
        trace = result["trace"]
        _check_trace(op, trace, n * n)
        on_disk = _attempt(op, experiments.summarize_trace, run_dir / "trace.csv")
        if on_disk is not None and on_disk != trace.summary():
            op.problems.append(f"trace.csv reads back as {on_disk}, not {trace.summary()}")
        summary = result["summary"]
        op.values = {"error": summary["mistake_rate"], "updates": summary["updates"]}
        res.work += len(trace)
        res.err_num += summary["mistakes"]
        res.err_den += len(trace)

    capture.clear()
    sweep_op = Op("sweep", "equivalence_sweep")
    res.ops.append(sweep_op)
    sweep = _attempt(sweep_op, experiments.equivalence_sweep,
                     instances=sweep_instances, seed=seed, tol=EQUIVALENCE_TOL)
    if sweep is None:
        return res
    if len(capture.equivalence) != sweep_instances:
        sweep_op.problems.append(
            f"captured {len(capture.equivalence)} instances, expected {sweep_instances}"
        )
    for idx, eq in enumerate(capture.equivalence):
        op = Op("equiv", f"instance={idx}")
        res.ops.append(op)
        gap = eq["max_gap"]
        if not (math.isfinite(gap) and gap <= EQUIVALENCE_TOL):
            op.problems.append(f"margin gap {gap!r} exceeds {EQUIVALENCE_TOL}")
        if not eq["predictions_equal"]:
            op.problems.append("predictions disagree")
        if not eq["updates_equal"]:
            op.problems.append("updates disagree")
        for trace in (eq["trace_transductive"], eq["trace_inductive"]):
            _check_trace(op, trace, len(eq["trace_transductive"]))
            res.work += len(trace)
        op.values = {"max_gap": gap}
    if sweep["failures"] != sum(op.failed for op in res.ops if op.kind == "equiv"):
        sweep_op.problems.append(f"sweep reports {sweep['failures']} failures")
    return res


# ---------------------------------------------------------------------------
# build


def _build_cell(seed: int, n: int, beta: float):
    """table1_cell's set-up composed from its parts: the instance, both side
    embeddings, eta and gamma."""
    inst, m_side, n_side, d_hat, _, _ = experiments.build_cell_instance(
        seed, n, beta, 0, P, K, L
    )
    row = sideinfo.embedding_from_pd(m_side)
    col = sideinfo.embedding_from_pd(n_side)
    gamma = 1.0 / quasidim.maxnorm_bound_biclustered(K, L)
    eta = experiments.BENCHMARK_ETA_SCALE * transductive.derive_eta(d_hat, n, n, n * n)
    return inst, d_hat, row, col, eta, gamma


def build_setup(seed: int, capture: Capture, cells=BUILD_CELLS) -> float:
    """Seconds of the cell builds, which are the whole of a build pass."""
    start = time.perf_counter()
    for n, beta in cells:
        _build_cell(seed, n, beta)
    return time.perf_counter() - start


def build_pass(seed: int, out: Path, capture: Capture, cells=BUILD_CELLS) -> PassResult:
    res = PassResult()
    for n, beta in cells:
        op = Op("build", cell_key(n, beta))
        res.ops.append(op)
        built = _attempt(op, _build_cell, seed, n, beta)
        if built is None:
            continue
        inst, d_hat, row, col, eta, gamma = built
        if not (math.isfinite(d_hat) and d_hat >= 1):
            op.problems.append(f"d_hat {d_hat!r} is not finite and >= 1")
        if not (math.isfinite(eta) and eta > 0):
            op.problems.append(f"eta {eta!r} is not finite and positive")
        for side in (row, col):
            if not np.all(np.isfinite(side.factor)):
                op.problems.append("embedding factor has non-finite entries")
            elif np.max(np.sum(side.factor ** 2, axis=0)) > 0.5 + 1e-9:
                op.problems.append("an embedding column has squared norm above 1/2")
        flips = int(inst.noise_mask.sum())
        op.values = {"d_hat": d_hat, "noise_flips": flips}
        res.work += 1
        res.err_num += flips
        res.err_den += inst.u.size
    return res


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "grid": Workload(grid_setup, grid_pass),
    "grid_conservative": Workload(partial(grid_setup, conservative=True),
                                  partial(grid_pass, conservative=True)),
    "inductive": Workload(inductive_setup, inductive_pass),
    "build": Workload(build_setup, build_pass),
}


# ---------------------------------------------------------------------------
# reference comparison


def check_against_reference(ops, recorded: dict | None):
    """Compare each op's outputs with the values recorded for its key.

    recorded maps op keys to their reference values for one workload and
    master seed; an op without an entry fails. recorded None skips the
    comparison (reduced-size runs have no reference).
    """
    if recorded is None:
        return
    for op in ops:
        if op.kind not in ("cell", "run", "build") or op.failed:
            continue
        ref = recorded.get(op.key)
        if ref is None:
            op.problems.append("no recorded reference value")
            continue
        if "error" in ref and abs(op.values["error"] - ref["error"]) > ERROR_BAND:
            op.problems.append(
                f"error {op.values['error']:.4f} leaves {ref['error']:.4f} +- {ERROR_BAND}"
            )
        if "d_hat" in ref and not math.isclose(op.values["d_hat"], ref["d_hat"],
                                               rel_tol=D_HAT_RTOL):
            op.problems.append(f"d_hat {op.values['d_hat']!r} is not {ref['d_hat']!r}")
        if "noise_flips" in ref and op.values["noise_flips"] != ref["noise_flips"]:
            op.problems.append(
                f"{op.values['noise_flips']} label flips, recorded {ref['noise_flips']}"
            )
