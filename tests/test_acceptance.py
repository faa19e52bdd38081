"""Acceptance gate: one test per shipping criterion.

Each test prints a single CRITERION line (visible under pytest -s) and
asserts it. The benchmark grid is computed once per session; the whole
file is sized to finish in well under half an hour on one core; the
grid runs spread their cells over up to JOBS worker processes.
"""

import math
import os

import numpy as np
import pytest

from megmc.experiments import (
    ExperimentConfig,
    equivalence_sweep,
    realizable_bound,
    run_table1,
)
from megmc.props import run_property_suite
from megmc.quasidim import dqd_upper_pdlap
from megmc.sideinfo import embedding_from_pd, laplacian_from_graph, pd_laplacian
from megmc.synth import clique_star_graph, gen_biclustered
from megmc.transductive import TransductiveParams, run as run_transductive

# reference mean error (beta=0.5, beta=0.0) per dimension, gated at +/-0.05
REFERENCE_ERRORS = {
    20: (0.39, 0.31),
    40: (0.37, 0.22),
    60: (0.37, 0.18),
    80: (0.36, 0.16),
    100: (0.36, 0.15),
}
ERROR_TOLERANCE = 0.05
# each grid cell is seeded by its own arguments, so rows do not depend on
# the number of workers
JOBS = min(2, os.cpu_count() or 1)


def _report(idx: int, name: str, ok: bool, detail: str) -> bool:
    print(f"CRITERION {idx} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def desk_grid():
    config = ExperimentConfig(n_values=tuple(REFERENCE_ERRORS), betas=(0.0, 0.5),
                              reps=10, seed=0, jobs=JOBS)
    return run_table1(config)["cells"]


def test_criterion_1_benchmark_grid_reproduction(desk_grid):
    failures = []
    worst = 0.0
    for n, (ref_half, ref_zero) in REFERENCE_ERRORS.items():
        for beta, ref in ((0.5, ref_half), (0.0, ref_zero)):
            mean = desk_grid[(n, beta)]["mean"]
            dev = mean - ref
            worst = max(worst, abs(dev))
            line = f"  n={n:3d} beta={beta}: mean={mean:.4f} ref={ref:.2f} dev={dev:+.4f}"
            if abs(dev) > ERROR_TOLERANCE:
                failures.append(line)
                print(line + "  OUT OF BAND")
            else:
                print(line)
    ok = _report(1, "benchmark grid within 0.05 of reference", not failures,
                 f"10 cells, 10 reps each, worst |dev|={worst:.4f}")
    assert ok, "cells out of band:\n" + "\n".join(failures)


def _realizable_run(k: int, n: int, seed: int):
    inst = gen_biclustered(m=n, n=n, k=k, l=k, seed=seed)
    m_side = pd_laplacian(laplacian_from_graph(clique_star_graph(inst.dec.row_classes)))
    n_side = pd_laplacian(laplacian_from_graph(clique_star_graph(inst.dec.col_classes)))
    d_hat = dqd_upper_pdlap(inst.dec, m_side, n_side)
    rate = 1.0 / math.sqrt(k)
    params = TransductiveParams(eta=rate, gamma=rate, d_hat=d_hat, m=n, n=n,
                                non_conservative=False)
    rng = np.random.default_rng(seed + 1)
    trace = run_transductive(inst.trials(rng), embedding_from_pd(m_side),
                             embedding_from_pd(n_side), params, rng)
    return trace.mistakes, realizable_bound(d_hat, rate, n, n)


def test_criterion_2_realizable_mistake_bound():
    combos = []
    for k in range(2, 10):
        combos += [(k, 20, s) for s in range(5)]
        combos += [(k, 40, s) for s in range(4)]
        combos += [(k, 60, s) for s in range(2)]
        combos += [(k, 80, 0), (k, 100, 0)]
    assert len(combos) >= 100
    violations = []
    worst_ratio = 0.0
    for k, n, seed in combos:
        mistakes, bound = _realizable_run(k, n, seed)
        worst_ratio = max(worst_ratio, mistakes / bound)
        if mistakes > bound:
            violations.append((k, n, seed, mistakes, bound))
    ok = _report(2, "realizable mistake bound, zero violations", not violations,
                 f"{len(combos)} runs, worst mistakes/bound={worst_ratio:.4f}")
    assert ok, f"bound violated: {violations}"


def test_criterion_3_transductive_inductive_equivalence():
    result = equivalence_sweep(instances=50, seed=0)
    ok = _report(3, "transductive/inductive margins agree", result["passed"],
                 f"{result['instances']} instances, max gap={result['max_gap']:.3e}"
                 f" <= {result['tol']:.0e}")
    assert ok, f"equivalence failures: {result['failures']}"


def test_criterion_4_invariant_suites():
    report = run_property_suite(seed=0)
    counts = {f["name"]: f["checks"] for f in report["families"]}
    fails = {f["name"]: f["failures"] for f in report["families"] if f["failures"]}
    # headline sample sizes promised by the gate
    assert counts["pdlaplacian_inequalities"] >= 2000  # 1000 u, both inequalities
    assert counts["minkernel_trace_bound"] >= 100
    assert counts["community_factor_product"] >= 10  # k = 1..10
    ok = _report(4, "invariant property suites", report["passed"],
                 f"{report['total_checks']} checks across {len(report['families'])}"
                 f" families, failures={report['total_failures']}")
    assert ok, f"failing families: {fails}"


def test_criterion_5_regret_within_theoretical_bound():
    config = ExperimentConfig(n_values=(40, 80), betas=(0.0,), reps=20, seed=0,
                              jobs=JOBS)
    all_rows = run_table1(config)["rows"]
    for n in (40, 80):
        rows = [r for r in all_rows if r["n"] == n]
        assert len(rows) == 20
        excess = np.mean([r["mistakes"] for r in rows]) - np.mean(
            [r["noise_flips"] for r in rows])
        bound = np.mean([r["regret_bound"] for r in rows])
        ok = _report(5, f"mean regret below bound at n={n}", excess < bound,
                     f"20 seeds, excess mistakes={excess:.1f} < bound={bound:.1f}")
        assert ok


def test_criterion_6_large_grid_not_gated():
    # n > 100 rows are opt-in: the config refuses them unless big_n is set
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(200,), betas=(0.0,))
    config = ExperimentConfig(n_values=(200,), betas=(0.0,), big_n=True)
    assert config.n_values == (200,)
    _report(6, "large dimensions opt-in only, not gated", True,
            "n>100 requires big_n; property suites stand in for the long rows")
