"""Synthetic instance generators for the experiments.

Biclustered sign matrices with optional label noise, ideal clique-star
side graphs and their edge-flip perturbation with connectivity repair
(both built as weight matrices), and box-separated point clouds for the
min kernel setting. All generators are deterministic functions of their
seed / rng argument.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import connected_components

from .quasidim import BlockDecomposition
from .sideinfo import Graph, box_separation, read_graph, write_graph


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


@dataclass
class Instance:
    """One synthetic completion problem.

    u is the noise-free sign matrix R U* C^T; labels is the presented
    table (u with noise flips applied, if any). Side information per
    side is either None (identity) or a Graph; kernel-based sides are
    assembled by the callers that need them and are not serialized here.
    """

    u: np.ndarray
    labels: np.ndarray
    dec: BlockDecomposition
    row_graph: Graph | None = None
    col_graph: Graph | None = None
    noise_mask: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.u.shape[0]

    @property
    def n(self) -> int:
        return self.u.shape[1]

    def trials(self, rng) -> list:
        """All m*n entries in uniform random order without replacement.

        One permutation of the row-major flat indices gives the order;
        returns (i, j, y) triples of Python ints.
        """
        i, j = np.divmod(_as_rng(rng).permutation(self.m * self.n), self.n)
        return list(zip(i.tolist(), j.tolist(), self.labels[i, j].tolist()))

    def save(self, directory):
        """Write manifest.json, labels.csv, u.csv and any graph files."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "m": self.m,
            "n": self.n,
            "k": self.dec.k,
            "l": self.dec.l,
            "row_classes": self.dec.row_classes.tolist(),
            "col_classes": self.dec.col_classes.tolist(),
            "u_star": self.dec.u_star.tolist(),
            "meta": self.meta,
            "row_graph": None,
            "col_graph": None,
            "has_noise_mask": self.noise_mask is not None,
        }
        np.savetxt(directory / "labels.csv", self.labels, fmt="%d", delimiter=",")
        np.savetxt(directory / "u.csv", self.u, fmt="%d", delimiter=",")
        if self.noise_mask is not None:
            np.savetxt(directory / "noise_mask.csv", self.noise_mask.astype(int),
                       fmt="%d", delimiter=",")
        if self.row_graph is not None:
            manifest["row_graph"] = "row_graph.txt"
            write_graph(directory / "row_graph.txt", self.row_graph)
        if self.col_graph is not None:
            manifest["col_graph"] = "col_graph.txt"
            write_graph(directory / "col_graph.txt", self.col_graph)
        with open(directory / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, directory) -> "Instance":
        directory = Path(directory)
        with open(directory / "manifest.json") as fh:
            manifest = json.load(fh)
        dec = BlockDecomposition(
            row_classes=np.array(manifest["row_classes"], dtype=int),
            col_classes=np.array(manifest["col_classes"], dtype=int),
            u_star=np.array(manifest["u_star"], dtype=int),
        )
        labels = np.loadtxt(directory / "labels.csv", dtype=int, delimiter=",", ndmin=2)
        u = np.loadtxt(directory / "u.csv", dtype=int, delimiter=",", ndmin=2)
        mask = None
        if manifest.get("has_noise_mask"):
            mask = np.loadtxt(directory / "noise_mask.csv", dtype=int,
                              delimiter=",", ndmin=2).astype(bool)
        row_graph = (read_graph(directory / manifest["row_graph"])
                     if manifest.get("row_graph") else None)
        col_graph = (read_graph(directory / manifest["col_graph"])
                     if manifest.get("col_graph") else None)
        return cls(u=u, labels=labels, dec=dec, row_graph=row_graph,
                   col_graph=col_graph, noise_mask=mask, meta=manifest.get("meta", {}))


def _surjective_assignment(size: int, n_classes: int, rng) -> np.ndarray:
    # first n_classes slots get distinct classes (random order), the rest
    # are i.i.d. uniform; guarantees every class is occupied
    head = rng.permutation(n_classes)
    tail = rng.integers(0, n_classes, size=size - n_classes)
    return np.concatenate((head, tail))


def gen_biclustered(m: int, n: int, k: int, l: int, seed) -> Instance:
    """Random (k, l)-biclustered sign matrix with surjective class maps."""
    if not (m >= k >= 1 and n >= l >= 1):
        raise ValueError("need m >= k >= 1 and n >= l >= 1")
    rng = _as_rng(seed)
    row_classes = _surjective_assignment(m, k, rng)
    col_classes = _surjective_assignment(n, l, rng)
    u_star = rng.choice((-1, 1), size=(k, l))
    dec = BlockDecomposition(row_classes=row_classes, col_classes=col_classes,
                             u_star=u_star)
    u = dec.matrix()
    return Instance(u=u, labels=u.copy(), dec=dec,
                    meta={"kind": "biclustered", "m": m, "n": n, "k": k, "l": l})


def apply_label_noise(instance: Instance, p: float, seed) -> Instance:
    """Flip each label independently with probability p; mask recorded."""
    if not 0 <= p < 1:
        raise ValueError("noise rate p must lie in [0, 1)")
    rng = _as_rng(seed)
    mask = rng.random(instance.u.shape) < p
    labels = np.where(mask, -instance.u, instance.u)
    meta = dict(instance.meta)
    meta["p"] = p
    meta["flips"] = int(mask.sum())
    return Instance(u=instance.u, labels=labels, dec=instance.dec,
                    row_graph=instance.row_graph, col_graph=instance.col_graph,
                    noise_mask=mask, meta=meta)


def clique_star_graph(assignment) -> Graph:
    """Ideal side graph for a class assignment: cliques joined as a star.

    Every class becomes a unit-weight clique. The class of lowest index
    is the center; its lowest-index member is the central vertex, which
    gets one edge to the lowest-index member of each other class. The
    result is connected with diameter at most 4.
    """
    assignment = np.asarray(assignment, dtype=int)
    adj = assignment[:, None] == assignment[None, :]
    np.fill_diagonal(adj, False)
    first = np.unique(assignment, return_index=True)[1]
    adj[first[0], first[1:]] = adj[first[1:], first[0]] = True
    return Graph(adj)


def perturb_graph(g: Graph, beta: float, seed) -> Graph:
    """Flip each vertex pair between edge and non-edge with probability beta.

    Afterwards the graph is repaired to connectivity: a uniformly random
    pair of components is joined by an edge between uniformly random
    vertices of each, repeatedly until one component remains. All output
    edges have unit weight.
    """
    if not 0 <= beta <= 0.5:
        raise ValueError("beta must lie in [0, 0.5]")
    rng = _as_rng(seed)
    m = g.n_vertices
    adj = g.weights > 0
    if beta > 0:
        iu, ju = np.triu_indices(m, k=1)
        flips = np.zeros((m, m), dtype=bool)
        flips[iu, ju] = rng.random(len(iu)) < beta
        adj ^= flips | flips.T
    while True:
        n_comp, labels = connected_components(adj, directed=False)
        if n_comp == 1:
            return Graph(adj)
        ca, cb = rng.choice(n_comp, size=2, replace=False)
        va = rng.choice(np.flatnonzero(labels == ca))
        vb = rng.choice(np.flatnonzero(labels == cb))
        adj[va, vb] = adj[vb, va] = True


def box_instance(k: int, d: int, r: float, delta_min: float,
                 points_per_box: int, seed, max_attempts: int = 500):
    """Sample k separated boxes in [-r, r]^d and uniform points inside them.

    Returns (points, assignment, boxes) where assignment is the m x k
    one-hot matrix mapping each point to its box. Boxes are rejection
    sampled until every pair is at least delta_min apart in l-infinity
    box distance; an infeasible request raises ValueError after max_attempts.
    """
    if not r >= 2:
        raise ValueError("domain radius must be >= 2")
    if k < 1 or d < 1 or points_per_box < 1:
        raise ValueError("k, d and points_per_box must be >= 1")
    if delta_min <= 0:
        raise ValueError("delta_min must be positive")
    rng = _as_rng(seed)
    width_cap = max(min(2.0 * r / (3.0 * k), r / 2.0), 1e-3)
    boxes = None
    for _ in range(max_attempts):
        candidate = []
        for _ in range(k):
            widths = rng.uniform(1e-3, width_cap, size=d)
            lo = rng.uniform(-r, r - widths)
            candidate.append((lo, lo + widths))
        try:
            sep = box_separation(candidate)
        except ValueError:
            continue
        if k == 1 or sep.delta >= delta_min:
            boxes = candidate
            break
    if boxes is None:
        raise ValueError(
            f"could not place {k} boxes with separation >= {delta_min} "
            f"in [-{r},{r}]^{d} after {max_attempts} attempts"
        )
    points = []
    assignment = np.zeros((k * points_per_box, k))
    for b, (lo, hi) in enumerate(boxes):
        for s in range(points_per_box):
            points.append(rng.uniform(lo, hi))
            assignment[b * points_per_box + s, b] = 1.0
    return np.array(points), assignment, boxes
