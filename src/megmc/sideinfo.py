"""Side information objects: graphs, PDLaplacians, kernels, embeddings.

Both predictors consume a side matrix only through per-identity
embedding columns b_i with b_i^T b_j = M^-1_ij / (2 R_M), where R_M is the
largest diagonal entry of M^-1. This module builds those embeddings from
graph Laplacians (shifted to strict positive definiteness) or from
kernel Gram matrices, and provides the box-separation geometry used by
the min kernel analysis. A graph is its symmetric weight matrix. The
Laplacian shift and the embedding each take one Cholesky factorization
M = C C^T of a PD matrix (the shift's is L/s + 11^T/m, the embedding's
its input): the squared column norms of C^-1 are the diagonal of M^-1,
and the embedding is C^-1 scaled. No eigendecomposition is made on that
path; squared_radius keeps the general PSD form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from .spectral import eig_psd, eig_sym, symmetrize


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph held as its symmetric weight matrix.

    weights[i, j] = weights[j, i] is the weight of the edge {i, j}, and 0
    means no edge. The matrix must be square with at least one vertex,
    finite, exactly symmetric, non-negative and zero on the diagonal; the
    graph keeps a read-only copy.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 1:
            raise ValueError(f"weights must be a square matrix with at least one vertex, "
                             f"got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contain non-finite entries")
        if not np.array_equal(w, w.T):
            raise ValueError("weights are not symmetric")
        if (w < 0).any():
            raise ValueError("weights contain negative entries")
        if np.diagonal(w).any():
            raise ValueError("weights put a self loop on the diagonal")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> "Graph":
        """Graph on vertices 0..n_vertices-1 from (i, j, weight) triples.

        Either orientation of a pair is accepted. A self loop, a vertex out
        of range, a pair given twice and a weight that is not positive and
        finite raise.
        """
        if n_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        w = np.zeros((n_vertices, n_vertices))
        for e in edges:
            i, j, wt = int(e[0]), int(e[1]), float(e[2])
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            i, j = min(i, j), max(i, j)
            if not (0 <= i < j < n_vertices):
                raise ValueError(f"edge ({i},{j}) out of range for {n_vertices} vertices")
            if w[i, j]:
                raise ValueError(f"duplicate edge ({i},{j})")
            if not (wt > 0 and np.isfinite(wt)):
                raise ValueError(f"edge ({i},{j}) needs a positive finite weight, got {wt}")
            w[i, j] = w[j, i] = wt
        return cls(w)

    @property
    def n_vertices(self) -> int:
        return self.weights.shape[0]

    @property
    def edges(self) -> tuple:
        """(i, j, weight) for every edge, i < j, in row-major order."""
        iu, ju = np.nonzero(np.triu(self.weights))
        return tuple((int(i), int(j), float(self.weights[i, j])) for i, j in zip(iu, ju))

    def is_connected(self) -> bool:
        return connected_components(self.weights, directed=False)[0] == 1


def laplacian_from_graph(g: Graph) -> np.ndarray:
    """Graph Laplacian L = diag(W 1) - W."""
    return np.diag(g.weights.sum(axis=1)) - g.weights


def squared_radius(m_psd) -> float:
    """Largest diagonal entry of the pseudoinverse of a PSD matrix."""
    _, v, inv = eig_psd(m_psd)
    # the diagonal of v diag(inv) v^T, read in O(q^2) without the product
    return float(np.max((v * v) @ inv))


def _pd_inverse_factor(side: np.ndarray, name: str):
    """(C^-1, diag(M^-1)) for a PD matrix M = C C^T, C its lower Cholesky factor.

    diag(M^-1) holds the squared column norms of C^-1. M counts as PD only
    if 1/tr(M^-1), a lower bound on its smallest eigenvalue, stays above
    dim * 2^-52 * ||M||_1, the PSD rank threshold at an upper bound on its
    largest eigenvalue; otherwise, and when the factorization breaks down,
    a ValueError names the matrix.
    """
    q = side.shape[0]
    c, info = lapack.dpotrf(side, lower=1)
    if info == 0:
        c_inv, info = lapack.dtrtri(c, lower=1)
    if info != 0:
        raise ValueError(f"{name} is not positive definite (LAPACK info {info})")
    diag_inv = np.einsum("ij,ij->j", c_inv, c_inv)
    norm_1 = float(np.abs(side).sum(axis=0).max())
    if not float(diag_inv.sum()) * q * 2.0 ** -52 * norm_1 < 1.0:
        raise ValueError(f"{name} is not positive definite within the rank tolerance")
    return c_inv, diag_inv


def pd_laplacian(l) -> np.ndarray:
    """Strictly PD shift of a connected-graph Laplacian.

    Returns L + u u^T / R_L with u = 1/m, so L° 1 = 1 / (m R_L) and the
    squared radius of the result is exactly 2 R_L. This normalisation is
    the one under which the two comparison inequalities hold for every
    u in [-1, 1]^m:

        (u^T L° u) R_L°  <=  2 ((u^T L u) R_L + 1)
        (u^T L u) R_L    <=  (u^T L° u) R_L° / 2

    (a heavier shift, e.g. scaling u by sqrt(m), breaks both). The input
    must be the Laplacian of a connected graph: rank m-1 with L 1 = 0.
    Rank deficiency of 2 or more (a disconnected graph) is an error; the
    synth module's connectivity repair is the sanctioned way to feed
    this function. R_L, the largest diagonal entry of L^+, comes from one
    Cholesky factorization: for a connected graph and s = max(max|L|, 1),
    (L/s + 11^T/m)^-1 = s L^+ + 11^T/m, so R_L = (max diag - 1/m) / s. If
    that matrix is not PD within the rank tolerance, the graph is not
    connected (or L is not a Laplacian) and a ValueError says so.
    """
    l = symmetrize(l)
    m = l.shape[0]
    if m < 2:
        raise ValueError("a single vertex has L^+ = 0, so R_L = 0 and no shift exists")
    ones = np.ones(m)
    scale = max(np.abs(l).max(), 1.0)
    if np.abs(l @ ones).max() > 1e-8 * scale:
        raise ValueError("input is not a graph Laplacian: rows do not sum to zero")
    try:
        _, diag_inv = _pd_inverse_factor(l / scale + 1.0 / m, "L/s + 11^T/m")
    except ValueError as exc:
        raise ValueError(f"{exc}; L must be the Laplacian of a connected graph") from exc
    r_l = (float(diag_inv.max()) - 1.0 / m) / scale
    return l + np.outer(ones, ones) / (m * m * r_l)


@dataclass(frozen=True)
class SideEmbedding:
    """Per-identity embedding columns for one side of the matrix.

    factor is an m x m matrix B with B^T B = M^+ / (2 R_M), R_M the
    largest diagonal entry of M^+ (M^-1 for the PD sides embedding_from_pd
    takes), so column i is the embedded half-vector for identity i, with
    squared norm M^+_{ii} / (2 R_M) <= 1/2. B need not be symmetric: any B
    with that Gram gives the predictors the same margins, since two such
    square factors differ by an orthogonal map on the left.
    """

    factor: np.ndarray
    squared_radius: float

    def __post_init__(self):
        if not self.squared_radius > 0:
            raise ValueError("squared radius must be positive")

    @property
    def dim(self) -> int:
        return self.factor.shape[0]

    def column(self, i: int) -> np.ndarray:
        if not 0 <= i < self.dim:
            raise IndexError(f"identity {i} out of range for side of dim {self.dim}")
        return self.factor[:, i]


def embedding_from_pd(m_pd) -> SideEmbedding:
    """Embedding factor C^-1 / sqrt(2 R_M) for a PD side matrix M = C C^T.

    C is the lower Cholesky factor, so the factor is lower-triangular with
    factor^T factor = M^-1 / (2 R_M), and R_M, the largest diagonal entry
    of M^-1, is the largest squared column norm of C^-1. A singular or
    indefinite side raises a ValueError.
    """
    c_inv, diag_inv = _pd_inverse_factor(symmetrize(m_pd), "side matrix")
    r = float(diag_inv.max())
    return SideEmbedding(factor=c_inv / np.sqrt(2.0 * r), squared_radius=r)


def identity_embedding(dim: int) -> SideEmbedding:
    """Embedding for vacuous (identity) side information: B = I / sqrt(2)."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    return SideEmbedding(factor=np.eye(dim) / np.sqrt(2.0), squared_radius=1.0)


# ---------------------------------------------------------------------------
# kernels


def box_transform(x, r: float):
    """Affine map s(x) = (r-1)/(2r) x + (r+1)/2 taking [-r,r]^d to [1,r]^d."""
    if not r >= 2:
        raise ValueError(f"domain radius must be >= 2, got {r}")
    x = np.asarray(x, dtype=float)
    if (np.abs(x) > r + 1e-12).any():
        raise ValueError(f"coordinate outside [-{r}, {r}]")
    return (r - 1.0) / (2.0 * r) * x + (r + 1.0) / 2.0


@dataclass(frozen=True)
class MinKernel:
    """Min kernel over raw points in [-r,r]^d.

    The Gram of q points (scalars are 1-d) is the product of coordinatewise
    minima after the box transform into [1,r]^d; points of a dimension other
    than dim raise. The domain supremum of K(x,x) is r^d, which serves as
    the default r_tilde for the inductive predictor.
    """

    radius: float
    dim: int

    def __post_init__(self):
        if not self.radius >= 2:
            raise ValueError("min kernel domain radius must be >= 2")
        if self.dim < 1:
            raise ValueError("min kernel dimension must be >= 1")

    def __call__(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=float).reshape(len(points), -1)
        if x.shape[1] != self.dim:
            raise ValueError(f"points have dimension {x.shape[1]}, "
                             f"min kernel has dimension {self.dim}")
        s = box_transform(x, self.radius)
        return np.prod(np.minimum(s[:, None, :], s[None, :, :]), axis=2)

    def default_r_tilde(self) -> float:
        return self.radius ** self.dim


@dataclass(frozen=True)
class LinearKernel:
    """Linear kernel: the Gram of q points is X X^T + epsilon I.

    The jitter makes the Gram strictly PD. It sits on the diagonal, so
    "the same point" means the same list position: two positions with
    equal coordinates stay un-jittered against each other. There is no
    finite domain supremum in general, so r_tilde must be supplied
    explicitly when this kernel feeds the inductive predictor.
    """

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("linear kernel jitter must be positive")

    def __call__(self, points) -> np.ndarray:
        x = np.asarray(points, dtype=float).reshape(len(points), -1)
        return x @ x.T + self.epsilon * np.eye(len(x))

    def default_r_tilde(self):
        return None


@dataclass(frozen=True)
class PrecomputedKernel:
    """Kernel given by a fixed Gram: identities are integer indices into it,
    the Gram of a list of them is the sub-Gram, and other indices raise KeyError."""

    gram: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gram", symmetrize(self.gram))

    def __call__(self, points) -> np.ndarray:
        idx = np.asarray(points, dtype=int)
        q = self.gram.shape[0]
        unknown = idx[(idx < 0) | (idx >= q)]
        if unknown.size:
            raise KeyError(f"identities {unknown.tolist()} unknown to a Gram of size {q}")
        return self.gram[np.ix_(idx, idx)]

    def default_r_tilde(self) -> float:
        return float(np.max(np.diag(self.gram)))


def gram_matrix(kernel, points) -> np.ndarray:
    """Gram matrix kernel(points), symmetrized and PSD-checked.

    A minimum eigenvalue below -tol * lambda_max (shared rank tolerance)
    means the kernel or the point list is invalid and raises.
    """
    q = len(points)
    if q == 0:
        raise ValueError("need at least one point")
    k = symmetrize(kernel(points))
    w, _ = eig_sym(k)
    thr = q * (2.0 ** -52) * max(float(w[-1]), 0.0)
    if w[0] < -max(thr, 1e-8 * max(float(w[-1]), 1.0)):
        raise ValueError(f"Gram matrix is not PSD: min eigenvalue {w[0]:.3e}")
    return k


# ---------------------------------------------------------------------------
# boxes


@dataclass(frozen=True)
class BoxSeparation:
    """Pairwise box separation delta and the capped margin scale delta_star."""

    delta: float
    delta_star: float


def _box_pair_distance(lo1, hi1, lo2, hi2) -> float:
    # l-infinity distance between two axis-aligned boxes: the largest
    # per-dimension gap (0 where the projections overlap)
    gaps = np.maximum(np.maximum(lo2 - hi1, lo1 - hi2), 0.0)
    return float(gaps.max())


def box_separation(boxes) -> BoxSeparation:
    """Minimum pairwise l-infinity distance among disjoint boxes.

    Boxes are (a, b) corner pairs with a <= b coordinatewise, membership
    closed-interval. Overlapping (or touching) boxes raise. A single box
    has no pair distance: delta is +inf and delta_star falls to its cap
    of 2 by convention.
    """
    parsed = []
    for a, b in boxes:
        lo = np.atleast_1d(np.asarray(a, dtype=float))
        hi = np.atleast_1d(np.asarray(b, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box corners must share a shape")
        if (lo > hi).any():
            raise ValueError("box corners must satisfy a <= b coordinatewise")
        parsed.append((lo, hi))
    if not parsed:
        raise ValueError("need at least one box")
    delta = np.inf
    for a in range(len(parsed)):
        for b in range(a + 1, len(parsed)):
            lo1, hi1 = parsed[a]
            lo2, hi2 = parsed[b]
            overlap = bool(((lo1 <= hi2) & (lo2 <= hi1)).all())
            if overlap:
                raise ValueError(f"boxes {a} and {b} overlap")
            delta = min(delta, _box_pair_distance(lo1, hi1, lo2, hi2))
    return BoxSeparation(delta=float(delta), delta_star=float(min(2.0, delta / 4.0)))


def delta_star_transformed(delta: float, r: float) -> float:
    """Tighter margin scale min(2, (r-1) delta / (2r)).

    The box transform contracts distances by (r-1)/(2r), so this is the
    separation cap in the transformed domain. For r >= 2 it dominates
    the plain min(2, delta/4), and bound checks use it as the stricter
    variant.
    """
    if not r >= 2:
        raise ValueError("domain radius must be >= 2")
    return float(min(2.0, (r - 1.0) * delta / (2.0 * r)))


# ---------------------------------------------------------------------------
# file formats


def write_graph(path, g: Graph):
    """Text edge list: first line the vertex count, then 'i j w' lines (0-based)."""
    with open(path, "w") as fh:
        fh.write(f"{g.n_vertices}\n")
        for i, j, w in g.edges:
            fh.write(f"{i} {j} {w!r}\n")


def read_graph(path) -> Graph:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty graph file {path}")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return Graph.from_edges(n, edges)

