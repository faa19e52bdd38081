"""Shared helpers for the test suite."""

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from megmc.inductive import InductivePredictor, _side_factor
from megmc.sideinfo import Graph, LinearKernel, MinKernel, box_transform
from megmc.spectral import eig_sym
from megmc.transductive import count_exponent, exp_margin, should_update, sign_predict


def path_graph(n, w=1.0):
    return Graph.from_edges(n, [(i, i + 1, w) for i in range(n - 1)])


def min_kernel_eval(x, t) -> float:
    """Product of coordinatewise minima; points must lie in [0, r]^d."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if x.shape != t.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {t.shape}")
    if (x < 0).any() or (t < 0).any():
        raise ValueError("min kernel points must have nonnegative coordinates")
    return float(np.prod(np.minimum(x, t)))


def scalar_gram(kernel, points):
    """Gram of a package kernel built entry by entry from its scalar definition.

    Min kernel: min_kernel_eval on box-transformed points. Linear kernel:
    x @ t + epsilon [a == b] over list positions a, b. Precomputed kernel:
    gram[i, j]. Independent of the kernels' own Gram code.
    """
    if isinstance(kernel, MinKernel):
        def entry(a, b, x, t):
            return min_kernel_eval(box_transform(np.atleast_1d(x), kernel.radius),
                                   box_transform(np.atleast_1d(t), kernel.radius))
    elif isinstance(kernel, LinearKernel):
        def entry(a, b, x, t):
            return float(np.atleast_1d(x) @ np.atleast_1d(t)) + kernel.epsilon * (a == b)
    else:
        def entry(a, b, x, t):
            return float(kernel.gram[x, t])
    q = len(points)
    return np.array([[entry(a, b, points[a], points[b]) for b in range(q)]
                     for a in range(q)])


# ---------------------------------------------------------------------------
# edge-list graph producers, frozen as the reference for the array-based
# synth.clique_star_graph and synth.perturb_graph (same draws, same order)


def reference_clique_star_edges(assignment) -> list:
    """Unit-weight clique per class plus the star edges, built pair by pair."""
    assignment = np.asarray(assignment, dtype=int)
    classes = np.unique(assignment)
    members = {c: np.flatnonzero(assignment == c) for c in classes}
    edges = []
    for c in classes:
        idx = members[c]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                edges.append((int(idx[a]), int(idx[b])))
    central_vertex = int(members[classes[0]][0])
    for c in classes[1:]:
        edges.append((central_vertex, int(members[c][0])))
    return edges


def _edge_components(m, edges):
    rows = [i for i, _ in edges]
    cols = [j for _, j in edges]
    adj = coo_matrix(([1.0] * len(edges), (rows, cols)), shape=(m, m))
    return connected_components(adj, directed=False)


def reference_perturb_edges(m, present, beta, rng) -> tuple:
    """Per-pair edge flips, then connectivity repair on an edge list.

    present is a set of (i, j) pairs with i < j. Returns the sorted flipped
    edges and the repair edges in the order they were drawn.
    """
    edges = set()
    if beta > 0:
        iu, ju = np.triu_indices(m, k=1)
        flips = rng.random(len(iu)) < beta
        for i, j, flip in zip(iu, ju, flips):
            pair = (int(i), int(j))
            if (pair in present) != bool(flip):
                edges.add(pair)
    else:
        edges = set(present)
    flipped = sorted(edges)
    repairs = []
    while True:
        n_comp, labels = _edge_components(m, flipped + repairs)
        if n_comp == 1:
            return flipped, repairs
        comp_ids = np.unique(labels)
        pick = rng.choice(len(comp_ids), size=2, replace=False)
        ca, cb = comp_ids[pick[0]], comp_ids[pick[1]]
        va = int(rng.choice(np.flatnonzero(labels == ca)))
        vb = int(rng.choice(np.flatnonzero(labels == cb)))
        repairs.append((min(va, vb), max(va, vb)))


def unit_weights(m, edges) -> np.ndarray:
    w = np.zeros((m, m))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0
    return w


# ---------------------------------------------------------------------------
# per-entry trial order, frozen as the reference for the array-based
# synth.Instance.trials (same single permutation draw)


def reference_trials(instance, rng) -> list:
    """All m*n entries as (i, j, y) triples, built one flat index at a time."""
    order = rng.permutation(instance.m * instance.n)
    out = []
    for flat in order:
        i, j = int(flat) // instance.n, int(flat) % instance.n
        out.append((i, j, int(instance.labels[i, j])))
    return out


# ---------------------------------------------------------------------------
# rebuild-every-trial inductive step, frozen as the reference for the
# kept-state InductivePredictor (same factors, same exponent builder)


class RebuildingInductivePredictor(InductivePredictor):
    """InductivePredictor that rebuilds both side factors, the exponent and
    its eigendecomposition from the registries and update log every trial."""

    def step(self, i, j, y_rand: float = 0.0):
        if self._pending is not None:
            raise RuntimeError("previous step was never committed")
        self._trial += 1
        sq_row, pos_i = _side_factor(self.row_kernel, self.row_identity,
                                     self.row_registry, i, self.r_tilde_row)
        sq_col, pos_j = _side_factor(self.col_kernel, self.col_identity,
                                     self.col_registry, j, self.r_tilde_col)
        exponent = count_exponent(self.kappa, self.params.eta, self.update_log,
                                  sq_row, sq_col)
        w, v = eig_sym(exponent)
        x_t = np.concatenate((sq_row[:, pos_i], sq_col[:, pos_j]))
        ybar = exp_margin(w, v, x_t, self.params.eta)
        self._pending = (self._trial, i, j, ybar)
        return ybar, sign_predict(ybar, y_rand)

    def commit(self, y: int) -> bool:
        if self._pending is None:
            raise RuntimeError("no pending step to commit")
        if y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {y}")
        trial, i, j, ybar = self._pending
        self._pending = None
        if not should_update(y, ybar, self.params):
            return False
        pos_i = self.row_registry.setdefault(i, len(self.row_registry))
        pos_j = self.col_registry.setdefault(j, len(self.col_registry))
        self.update_log.append((trial, int(y), pos_i, pos_j))
        return True
