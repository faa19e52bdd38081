"""Experiment orchestration: benchmark grid, single runs, equivalence sweeps.

The benchmark predicts every entry of a noisy biclustered square matrix
once, in uniformly random order, with clique-star graph side information
degraded by edge-flip noise. Replicate streams are derived from
(master seed, n, beta, replicate) so any cell can be recomputed alone
and grid cells can run in a worker pool without sharing state. A grid
cell (`table1_cell`) and a single run (`run_single`) share one set-up
and run path, `_run_cell`; they differ only in the eta scale and in
which learner runs.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .inductive import InductivePredictor, equivalence_check, run_inductive
from .quasidim import BlockDecomposition, dqd_upper_pdlap, maxnorm_bound_biclustered
from .sideinfo import (
    LinearKernel,
    MinKernel,
    PrecomputedKernel,
    embedding_from_pd,
    laplacian_from_graph,
    pd_laplacian,
)
from .spectral import pinv_psd
from .synth import Instance, apply_label_noise, clique_star_graph, perturb_graph
from .transductive import Trace, TransductiveParams, derive_eta, run as run_transductive

# dimensions and noise levels with published reference errors; the desk
# grid stops at 100 because per-update cost is cubic in 2n
TABLE1_N_VALUES = (20, 40, 60, 80, 100, 120, 140, 160, 180, 200, 250, 300, 400)
TABLE1_BETAS = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.0)
DESK_N_VALUES = (20, 40, 60, 80, 100)


@dataclass
class ExperimentConfig:
    mode: str = "table1"
    n_values: tuple = DESK_N_VALUES
    betas: tuple = (0.0, 0.5)
    p: float = 0.10
    k: int = 9
    l: int = 9
    reps: int = 10
    seed: int = 0
    out: str | None = None
    eta: float | None = None
    gamma: float | None = None
    conservative: bool = False
    jobs: int = 1
    big_n: bool = False

    def __post_init__(self):
        self.n_values = tuple(int(v) for v in np.atleast_1d(self.n_values))
        self.betas = tuple(float(b) for b in np.atleast_1d(self.betas))
        if self.mode not in ("table1", "transductive", "inductive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.n_values or not self.betas:
            raise ValueError("n_values and betas must be non-empty")
        if not 0 <= self.p < 1:
            raise ValueError("p must lie in [0, 1)")
        if self.k < 1 or self.l < 1:
            raise ValueError(f"k and l must be >= 1, got k={self.k}, l={self.l}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.mode == "table1":
            for n in self.n_values:
                if n not in TABLE1_N_VALUES:
                    raise ValueError(
                        f"n={n} is not a benchmark dimension {TABLE1_N_VALUES}"
                    )
                if n > 100 and not self.big_n:
                    raise ValueError(
                        f"n={n} exceeds the desk-scale cap of 100; pass big_n "
                        "to opt in to the cubic-cost large grid"
                    )
            for b in self.betas:
                if not any(abs(b - ref) < 1e-12 for ref in TABLE1_BETAS):
                    raise ValueError(f"beta={b} is not a benchmark level {TABLE1_BETAS}")
        for n in self.n_values:
            if n < max(self.k, self.l):
                raise ValueError("n must be at least max(k, l)")


def _beta_key(beta: float) -> int:
    return int(round(beta * (1 << 20)))


def _cell_streams(master_seed: int, n: int, beta: float, rep: int):
    """Six independent generators for one replicate, recomputable alone."""
    ss = np.random.SeedSequence(entropy=(int(master_seed), int(n),
                                         _beta_key(beta), int(rep)))
    return [np.random.default_rng(child) for child in ss.spawn(6)]


def _benchmark_instance(n: int, k: int, l: int, rng) -> Instance:
    """Square biclustered instance with class assignments drawn uniformly.

    Unlike gen_biclustered, the draw is not conditioned on every class
    being occupied, so at n = 20 with k = 9 most instances have an empty
    row or column class. The stored decomposition covers the occupied
    classes only, which leaves the matrix itself unchanged. The
    benchmark's reference error rates depend on this unconditioned
    sampling; conditioning shifts the n = 20 cells up by several points.
    """
    raw_rows = rng.integers(0, k, size=n)
    raw_cols = rng.integers(0, l, size=n)
    u_star = rng.choice((-1, 1), size=(k, l))
    present_r, rows = np.unique(raw_rows, return_inverse=True)
    present_c, cols = np.unique(raw_cols, return_inverse=True)
    dec = BlockDecomposition(row_classes=rows, col_classes=cols,
                             u_star=u_star[np.ix_(present_r, present_c)])
    u = dec.matrix()
    return Instance(u=u, labels=u.copy(), dec=dec,
                    meta={"kind": "biclustered", "m": n, "n": n,
                          "k": int(dec.k), "l": int(dec.l),
                          "k_nominal": int(k), "l_nominal": int(l)})


def build_cell_instance(master_seed: int, n: int, beta: float, rep: int,
                        p: float, k: int, l: int):
    """Instance plus side matrices for one benchmark replicate.

    Returns (instance, m_side, n_side, d_hat, order_rng, y_rng). The
    side graphs are ideal clique-stars over the occupied class
    assignments, perturbed at level beta, and d_hat is the closed-form
    bound computed from the perturbed side matrices. Its additive term
    uses the nominal k and l even when a class came up empty, matching
    how the predictor is tuned on the reference grid.
    """
    gen_r, noise_r, prow_r, pcol_r, order_r, y_r = _cell_streams(
        master_seed, n, beta, rep
    )
    inst = _benchmark_instance(n, k, l, gen_r)
    if p > 0:
        inst = apply_label_noise(inst, p, seed=noise_r)
    row_graph = perturb_graph(clique_star_graph(inst.dec.row_classes), beta, prow_r)
    col_graph = perturb_graph(clique_star_graph(inst.dec.col_classes), beta, pcol_r)
    inst.row_graph = row_graph
    inst.col_graph = col_graph
    m_side = pd_laplacian(laplacian_from_graph(row_graph))
    n_side = pd_laplacian(laplacian_from_graph(col_graph))
    d_hat = (dqd_upper_pdlap(inst.dec, m_side, n_side)
             + 2.0 * (k - inst.dec.k) + 2.0 * (l - inst.dec.l))
    return inst, m_side, n_side, d_hat, order_r, y_r


# the reference grid was produced with twice the horizon-tuned rate;
# the theoretical rate loses several points in the heavily perturbed
# cells, where faster memorization is all that is left
BENCHMARK_ETA_SCALE = 2.0


def _run_cell(master_seed: int, n: int, beta: float, rep: int, p: float,
              k: int, l: int, conservative: bool, eta: float | None,
              gamma: float | None, eta_scale: float, inductive: bool = False):
    """Set up one replicate and run one learner on it.

    Builds the replicate, derives gamma and eta (eta_scale times the
    horizon-tuned rate unless eta is given), draws the trial order and
    runs the transductive or the inductive learner. Returns the trace and
    the fields that grid rows and single-run summaries share; an inductive
    run adds its Lanczos step counts (the total and the most in one trial).
    """
    inst, m_side, n_side, d_hat, order_r, y_r = build_cell_instance(
        master_seed, n, beta, rep, p, k, l
    )
    t_horizon = n * n
    gamma = gamma if gamma is not None else 1.0 / maxnorm_bound_biclustered(k, l)
    eta = eta if eta is not None else eta_scale * derive_eta(d_hat, n, n, t_horizon)
    params = TransductiveParams(
        eta=eta, gamma=gamma, d_hat=d_hat, m=n, n=n,
        non_conservative=not conservative,
    )
    trials = inst.trials(order_r)
    oracle = {}
    if inductive:
        pred = InductivePredictor(PrecomputedKernel(pinv_psd(m_side)),
                                  PrecomputedKernel(pinv_psd(n_side)), params)
        trace = run_inductive(trials, pred, y_r)
        oracle = {"lanczos_steps": pred.lanczos_steps,
                  "lanczos_max_steps": pred.lanczos_max_steps}
    else:
        trace = run_transductive(
            trials, embedding_from_pd(m_side), embedding_from_pd(n_side), params, y_r
        )
    return trace, {
        "n": n,
        "beta": beta,
        "T": t_horizon,
        "mistakes": trace.mistakes,
        "updates": trace.updates,
        "noise_flips": int(inst.noise_mask.sum()) if inst.noise_mask is not None else 0,
        "d_hat": d_hat,
        "eta": eta,
        "gamma": gamma,
        "regret_bound": regret_bound(d_hat, gamma, n, n, t_horizon),
        **oracle,
    }


def table1_cell(master_seed: int, n: int, beta: float, rep: int,
                p: float = 0.10, k: int = 9, l: int = 9,
                conservative: bool = False,
                eta: float | None = None, gamma: float | None = None) -> dict:
    """One replicate of one grid cell; fully determined by its arguments.

    The transductive learner runs at BENCHMARK_ETA_SCALE times the
    horizon-tuned rate unless eta is given. The row holds the ROW_FIELDS.
    """
    start = time.perf_counter()
    trace, fields = _run_cell(master_seed, n, beta, rep, p, k, l, conservative,
                              eta, gamma, BENCHMARK_ETA_SCALE)
    return {**fields, "rep": rep, "error": trace.mistakes / fields["T"],
            "seconds": time.perf_counter() - start}


def realizable_bound(d_hat: float, gamma: float, m: int, n: int) -> float:
    return 3.6 * (d_hat / gamma**2) * math.log(m + n)


def regret_bound(d_hat: float, gamma: float, m: int, n: int, t: float) -> float:
    return 4.0 * math.sqrt(2.0 * (d_hat / gamma**2) * math.log(m + n) * t)


ROW_FIELDS = ["n", "beta", "rep", "T", "mistakes", "updates", "error",
              "noise_flips", "d_hat", "eta", "gamma", "regret_bound", "seconds"]


def run_table1(config: ExperimentConfig, progress=None) -> dict:
    """Run the full grid; returns {rows, cells} and writes the out dir.

    With jobs > 1 the cells run in a worker pool. Either way, progress (if
    given) receives each row as it is collected, in job order. Cells
    aggregate to mean and sample standard deviation over the replicates.
    Output files: rows.csv (full precision per replicate), table.txt
    (2-decimal human table), summary.json.
    """
    if config.mode != "table1":
        raise ValueError("run_table1 requires a table1-mode config")
    jobs = []
    for n in sorted(config.n_values):
        for beta in sorted(config.betas, reverse=True):
            for rep in range(config.reps):
                jobs.append((config.seed, n, beta, rep, config.p, config.k,
                             config.l, config.conservative, config.eta,
                             config.gamma))
    rows = []
    with (ProcessPoolExecutor(max_workers=config.jobs) if config.jobs > 1
          else nullcontext()) as pool:
        for row in (pool.map if pool else map)(table1_cell, *zip(*jobs)):
            rows.append(row)
            if progress is not None:
                progress(row)
    cells = {}
    for n in sorted(config.n_values):
        for beta in sorted(config.betas, reverse=True):
            errs = [r["error"] for r in rows if r["n"] == n and r["beta"] == beta]
            cells[(n, beta)] = {
                "mean": float(np.mean(errs)),
                "std": float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0,
                "reps": len(errs),
            }
    result = {"rows": rows, "cells": cells}
    if config.out:
        _write_table1_outputs(config, result)
    return result


def format_table(config: ExperimentConfig, cells: dict) -> str:
    betas = sorted(config.betas, reverse=True)
    header = "n".ljust(6) + "".join(f"beta={b:<11g}" for b in betas)
    lines = [header]
    for n in sorted(config.n_values):
        row = f"{n:<6d}"
        for b in betas:
            cell = cells[(n, b)]
            row += f"{cell['mean']:.2f}+-{cell['std']:.2f}   "
        lines.append(row.rstrip())
    return "\n".join(lines) + "\n"


def _write_table1_outputs(config: ExperimentConfig, result: dict):
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "rows.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
        writer.writeheader()
        for row in result["rows"]:
            writer.writerow({key: repr(row[key]) if isinstance(row[key], float)
                             else row[key] for key in ROW_FIELDS})
    (out / "table.txt").write_text(format_table(config, result["cells"]))
    summary = {
        "config": asdict(config),
        "cells": {
            f"n={n},beta={beta:g}": stats
            for (n, beta), stats in result["cells"].items()
        },
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_single(config: ExperimentConfig) -> dict:
    """One full run (transductive or inductive) with bound reporting.

    Runs replicate 0 of the first n and beta of the config through the
    same path as a grid cell, at the horizon-tuned eta (scale 1) unless
    the config sets eta. Writes trace.csv and summary.json when out is set.
    """
    if config.mode not in ("transductive", "inductive"):
        raise ValueError("run_single requires mode transductive or inductive")
    trace, fields = _run_cell(
        config.seed, config.n_values[0], config.betas[0], 0, config.p, config.k,
        config.l, config.conservative, config.eta, config.gamma, 1.0,
        inductive=config.mode == "inductive",
    )
    n = fields["n"]
    r_bound = realizable_bound(fields["d_hat"], fields["gamma"], n, n)
    summary = {
        **fields,
        "mode": config.mode,
        "p": config.p,
        "k": config.k,
        "l": config.l,
        "seed": config.seed,
        "conservative": config.conservative,
        "mistake_rate": trace.summary()["mistake_rate"],
        "realizable_bound": r_bound,
        "realizable_satisfied": trace.mistakes <= r_bound,
        "mistakes_minus_noise": trace.mistakes - fields["noise_flips"],
    }
    if config.out:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        trace.to_csv(out / "trace.csv")
        with open(out / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return {"trace": trace, "summary": summary}


def summarize_trace(path) -> dict:
    """Recompute the counting part of a run summary from its trace file."""
    trace = Trace.from_csv(path)
    return trace.summary()


def equivalence_sweep(instances: int = 50, seed: int = 0, tol: float = 1e-6) -> dict:
    """Random small instances through both predictors; reports the worst gap.

    Alternates min-kernel and jittered-linear-kernel side information on
    2 to 8 rows and columns over 5 to 40 trials.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    worst = 0.0
    per_kind = {"min": 0, "linear": 0}
    failures = 0
    for idx in range(instances):
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        t = int(rng.integers(5, 41))
        kind = "min" if idx % 2 == 0 else "linear"
        per_kind[kind] += 1
        if kind == "min":
            d = int(rng.integers(1, 3))
            r = float(rng.uniform(2.0, 5.0))
            row_pts = [rng.uniform(-r, r, d) for _ in range(m)]
            col_pts = [rng.uniform(-r, r, d) for _ in range(n)]
            row_kernel = col_kernel = MinKernel(radius=r, dim=d)
        else:
            d = int(rng.integers(1, 4))
            row_pts = [rng.standard_normal(d) for _ in range(m)]
            col_pts = [rng.standard_normal(d) for _ in range(n)]
            row_kernel = col_kernel = LinearKernel(epsilon=float(rng.uniform(0.5, 2.0)))
        params = TransductiveParams(
            eta=float(rng.uniform(0.2, 1.0)),
            gamma=float(rng.uniform(0.1, 1.0)),
            d_hat=float(m + n),
            m=m, n=n,
        )
        trials = [(int(rng.integers(m)), int(rng.integers(n)),
                   int(rng.choice((-1, 1)))) for _ in range(t)]
        res = equivalence_check(row_pts, col_pts, row_kernel, col_kernel,
                                trials, params, seed=int(rng.integers(2**31)))
        gap = res["max_gap"]
        worst = max(worst, gap)
        if gap > tol or not res["predictions_equal"] or not res["updates_equal"]:
            failures += 1
    return {
        "instances": instances,
        "per_kind": per_kind,
        "max_gap": worst,
        "tol": tol,
        "failures": failures,
        "passed": failures == 0,
    }
