"""Executable invariant families with a machine-readable report.

Each family runs a seeded sweep of one structural guarantee the library
leans on and counts violations at the documented tolerance. The suite
doubles as a self-test harness: corrupt mode deliberately mis-scales
the Laplacian shift (the heavier all-ones shift) and the comparison
inequalities family must then report failures; a harness that stays
green under corruption is broken.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .quasidim import FactorPair, community_factors, minkernel_trace_bound_check, quasi_dim_factored
from .sideinfo import (
    Graph,
    MinKernel,
    box_separation,
    delta_star_transformed,
    embedding_from_pd,
    gram_matrix,
    laplacian_from_graph,
    pd_laplacian,
    squared_radius,
)
from .spectral import pinv_psd, quad_form, sqrt_psd
from .synth import box_instance, gen_biclustered
from .transductive import MatrixExpGradPredictor, TransductiveParams


@dataclass
class FamilyResult:
    name: str
    checks: int
    failures: int
    worst: float  # largest violation margin seen (<= 0 when all pass)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def random_connected_graph(rng, n, p=0.35) -> Graph:
    """A spanning path, which keeps the graph connected, plus random edges."""
    iu, ju = np.triu_indices(n, k=1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu, ju] = (rng.random(len(iu)) < p) | (ju == iu + 1)
    return Graph(adj | adj.T)


def _tally(name, violations):
    """Fold (ok, margin) pairs into a FamilyResult."""
    checks = len(violations)
    margins = [m for _, m in violations]
    failures = sum(1 for ok, _ in violations if not ok)
    worst = max(margins) if margins else 0.0
    return FamilyResult(name=name, checks=checks, failures=failures, worst=worst)


def moore_penrose_family(seed=0, cases=25, tol=1e-8) -> FamilyResult:
    rng = np.random.default_rng(seed)
    out = []
    for c in range(cases):
        n = int(rng.integers(2, 10))
        rank = n if c % 3 else max(1, n - 2)
        b = rng.standard_normal((n, rank))
        a = b @ b.T
        pinv = pinv_psd(a)
        for lhs, rhs in (
            (a @ pinv @ a, a),
            (pinv @ a @ pinv, pinv),
            ((a @ pinv).T, a @ pinv),
            ((pinv @ a).T, pinv @ a),
        ):
            gap = float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max()))
            out.append((gap <= tol, gap - tol))
    return _tally("moore_penrose", out)


def pdlaplacian_inequality_family(seed=0, vectors=1000, corrupt=False) -> FamilyResult:
    """Both Laplacian-shift comparison inequalities over random u in [-1,1]^m.

    corrupt=True swaps in a shift m times heavier, which breaks both
    inequalities; used as the suite's negative control.
    """
    rng = np.random.default_rng(seed)
    out = []
    graphs = 10
    per_graph = max(1, vectors // graphs)
    for _ in range(graphs):
        m = int(rng.integers(3, 25))
        lap = laplacian_from_graph(random_connected_graph(rng, m))
        shifted = pd_laplacian(lap)
        if corrupt:
            r_l = squared_radius(lap)
            shifted = lap + np.ones((m, m)) / (m * r_l)
        r_l = squared_radius(lap)
        r_shift = squared_radius(shifted)
        probes = [rng.uniform(-1.0, 1.0, m) for _ in range(per_graph - 1)]
        probes.append(np.ones(m))
        for u in probes:
            lhs_a = quad_form(shifted, u) * r_shift
            rhs_a = 2.0 * (quad_form(lap, u) * r_l + 1.0)
            gap_a = lhs_a - rhs_a - 1e-9 * max(1.0, abs(rhs_a))
            out.append((gap_a <= 0, gap_a))
            lhs_b = quad_form(lap, u) * r_l
            rhs_b = 0.5 * quad_form(shifted, u) * r_shift
            gap_b = lhs_b - rhs_b - 1e-9 * max(1.0, abs(rhs_b))
            out.append((gap_b <= 0, gap_b))
    return _tally("pdlaplacian_inequalities", out)


def laplacian_quadratic_family(seed=0, cases=20, tol=1e-8) -> FamilyResult:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cases):
        n = int(rng.integers(3, 15))
        g = random_connected_graph(rng, n)
        lap = laplacian_from_graph(g)
        x = rng.standard_normal((n, int(rng.integers(1, 5))))
        direct = float(np.trace(x.T @ lap @ x))
        edge_sum = sum(w * float(((x[i] - x[j]) ** 2).sum()) for i, j, w in g.edges)
        gap = abs(direct - edge_sum) / max(1.0, abs(edge_sum))
        out.append((gap <= tol, gap - tol))
    return _tally("laplacian_quadratic_identity", out)


def embedding_norm_family(seed=0, cases=15, tol=1e-10) -> FamilyResult:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cases):
        m = int(rng.integers(2, 12))
        lap = laplacian_from_graph(random_connected_graph(rng, m))
        emb = embedding_from_pd(pd_laplacian(lap))
        for i in range(m):
            norm_sq = float(emb.column(i) @ emb.column(i))
            gap = norm_sq - 1.0 - tol
            out.append((gap <= 0, gap))
    return _tally("embedding_norm_capped", out)


def comparator_family(seed=0, cases=8, tol=1e-8) -> FamilyResult:
    """Stacked-factor comparator: margin recovers the scaled sign matrix
    and its trace equals the factored quasi-dimension objective."""
    rng = np.random.default_rng(seed)
    out = []
    for case in range(cases):
        m = int(rng.integers(4, 8))
        n = int(rng.integers(4, 8))
        k = int(rng.integers(1, 4))
        l = int(rng.integers(1, 4))
        inst = gen_biclustered(m, n, k, l, rng)
        dec = inst.dec
        p_hat = (dec.r_matrix() @ dec.u_star) / math.sqrt(dec.l)
        q_hat = dec.c_matrix()
        m_side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, m)))
        n_side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, n)))
        zm = math.sqrt(squared_radius(m_side)) * (sqrt_psd(m_side) @ p_hat)
        zn = math.sqrt(squared_radius(n_side)) * (sqrt_psd(n_side) @ q_hat)
        z = np.vstack((zm, zn))
        w_star = z @ z.T
        params = TransductiveParams(
            eta=1.0, gamma=1.0 / math.sqrt(dec.l), d_hat=float(m + n), m=m, n=n
        )
        pred = MatrixExpGradPredictor(
            embedding_from_pd(m_side), embedding_from_pd(n_side), params
        )
        u = dec.matrix()
        for i in range(m):
            for j in range(n):
                x = pred.embed(i, j)
                margin = float(x @ w_star @ x) - 1.0
                gap = abs(margin - u[i, j] / math.sqrt(dec.l)) - tol
                out.append((gap <= 0, gap))
        pair = FactorPair(p_hat, q_hat)
        trace_gap = abs(
            float(np.trace(w_star)) - quasi_dim_factored(pair, m_side, n_side)
        ) - tol
        out.append((trace_gap <= 0, trace_gap))
    return _tally("comparator_identities", out)


def initial_trace_family(seed=0, cases=12) -> FamilyResult:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(cases):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(2, 10))
        d_hat = float(rng.uniform(1.0, 50.0))
        params = TransductiveParams(eta=1.0, gamma=0.5, d_hat=d_hat, m=m, n=n)
        from .sideinfo import identity_embedding

        pred = MatrixExpGradPredictor(
            identity_embedding(m), identity_embedding(n), params
        )
        rel = abs(float(np.trace(pred.density_matrix())) - d_hat) / d_hat
        out.append((rel <= 1e-13, rel - 1e-13))
    return _tally("initial_trace_equals_d_hat", out)


def minkernel_bound_family(seed=0, instances=100) -> FamilyResult:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(instances):
        k = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        r = float(rng.uniform(2.0, 6.0))
        pts, assignment, boxes = box_instance(
            k=k, d=d, r=r, delta_min=0.4, points_per_box=int(rng.integers(1, 4)),
            seed=rng,
        )
        gram = gram_matrix(MinKernel(radius=r, dim=d), list(pts))
        sep = box_separation(boxes)
        strict = delta_star_transformed(sep.delta, r) if k > 1 else sep.delta_star
        lhs, bound = minkernel_trace_bound_check(assignment, gram, strict, d)
        gap = lhs - bound * (1.0 + 1e-9)
        out.append((gap <= 0, gap))
    return _tally("minkernel_trace_bound", out)


def community_family(max_k=10) -> FamilyResult:
    out = []
    for k in range(1, max_k + 1):
        p, q = community_factors(k)
        target = 2.0 * np.eye(k) - np.ones((k, k))
        gap = float(np.abs(p @ q.T - target).max()) - 1e-12
        out.append((gap <= 0, gap))
        norm_gap = float(
            np.abs(np.linalg.norm(np.vstack((p, q)), axis=1) - math.sqrt(3.0)).max()
        ) - 1e-12
        out.append((norm_gap <= 0, norm_gap))
    return _tally("community_factor_product", out)


ALL_FAMILIES = (
    "moore_penrose",
    "pdlaplacian_inequalities",
    "laplacian_quadratic_identity",
    "embedding_norm_capped",
    "comparator_identities",
    "initial_trace_equals_d_hat",
    "minkernel_trace_bound",
    "community_factor_product",
)


def run_property_suite(seed: int = 0, corrupt: bool = False) -> dict:
    """Run every family; returns a JSON-ready report.

    corrupt=True is the negative control: only the Laplacian-shift
    family receives the corrupted construction and is expected to fail.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    results = [
        moore_penrose_family(seed),
        pdlaplacian_inequality_family(seed, corrupt=corrupt),
        laplacian_quadratic_family(seed),
        embedding_norm_family(seed),
        comparator_family(seed),
        initial_trace_family(seed),
        minkernel_bound_family(seed),
        community_family(),
    ]
    report = {
        "seed": seed,
        "corrupt_mode": corrupt,
        "families": [asdict(r) for r in results],
        "total_checks": sum(r.checks for r in results),
        "total_failures": sum(r.failures for r in results),
    }
    report["passed"] = report["total_failures"] == 0
    return report
