"""Quasi-dimension quantities and analytic complexity bounds.

The quasi-dimension of a comparator matrix measures how predictive the
side information is of its factor structure; it equals m + n when both
sides are vacuous (identity matrices). For biclustered comparators the
infimum over factorizations is not computed here; instead we evaluate
the factored objective for given factors and the closed-form upper
bound for PDLaplacian sides that sets d_hat in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sideinfo import _pd_inverse_factor, squared_radius
from .spectral import symmetrize


@dataclass(frozen=True)
class BlockDecomposition:
    """Latent structure of a (k, l)-biclustered sign matrix.

    row_classes[i] in [0, k) and col_classes[j] in [0, l) give the block
    of each row/column; u_star is the k x l sign table. Every class must
    be occupied, which makes the one-hot expansion matrices full column
    rank.
    """

    row_classes: np.ndarray
    col_classes: np.ndarray
    u_star: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.row_classes, dtype=int)
        c = np.asarray(self.col_classes, dtype=int)
        u = np.asarray(self.u_star, dtype=int)
        if u.ndim != 2:
            raise ValueError("u_star must be a 2-d sign table")
        k, l = u.shape
        if not np.isin(u, (-1, 1)).all():
            raise ValueError("u_star entries must be -1 or +1")
        if r.ndim != 1 or c.ndim != 1:
            raise ValueError("class assignments must be 1-d")
        if r.min(initial=0) < 0 or (len(r) and r.max() >= k):
            raise ValueError("row class out of range")
        if c.min(initial=0) < 0 or (len(c) and c.max() >= l):
            raise ValueError("col class out of range")
        if len(np.unique(r)) != k:
            raise ValueError(f"all {k} row classes must be occupied")
        if len(np.unique(c)) != l:
            raise ValueError(f"all {l} col classes must be occupied")
        object.__setattr__(self, "row_classes", r)
        object.__setattr__(self, "col_classes", c)
        object.__setattr__(self, "u_star", u)

    @property
    def k(self) -> int:
        return self.u_star.shape[0]

    @property
    def l(self) -> int:
        return self.u_star.shape[1]

    @property
    def m(self) -> int:
        return len(self.row_classes)

    @property
    def n(self) -> int:
        return len(self.col_classes)

    def r_matrix(self) -> np.ndarray:
        """m x k one-hot block expansion matrix for rows."""
        r = np.zeros((self.m, self.k))
        r[np.arange(self.m), self.row_classes] = 1.0
        return r

    def c_matrix(self) -> np.ndarray:
        c = np.zeros((self.n, self.l))
        c[np.arange(self.n), self.col_classes] = 1.0
        return c

    def matrix(self) -> np.ndarray:
        """The full sign matrix R U* C^T, evaluated by indexing."""
        return self.u_star[np.ix_(self.row_classes, self.col_classes)].astype(int)


@dataclass(frozen=True)
class FactorPair:
    """Row-normalized factor matrices P_hat (m x d) and Q_hat (n x d)."""

    p_hat: np.ndarray
    q_hat: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_hat, dtype=float)
        q = np.asarray(self.q_hat, dtype=float)
        if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[1]:
            raise ValueError("factors must be 2-d with a shared inner dimension")
        for name, f in (("p_hat", p), ("q_hat", q)):
            norms = np.linalg.norm(f, axis=1)
            if np.abs(norms - 1.0).max() > 1e-10:
                raise ValueError(f"{name} rows must have unit norm within 1e-10")
        object.__setattr__(self, "p_hat", p)
        object.__setattr__(self, "q_hat", q)


def quasi_dim_factored(pair: FactorPair, m_side, n_side) -> float:
    """R_M tr(P^T M P) + R_N tr(Q^T N Q) for the given factor pair.

    No optimization over factorizations happens here; callers supply the
    factors. Identity sides give m + n for any row-normalized pair.
    """
    m_side = symmetrize(m_side)
    n_side = symmetrize(n_side)
    p, q = pair.p_hat, pair.q_hat
    if p.shape[0] != m_side.shape[0] or q.shape[0] != n_side.shape[0]:
        raise ValueError("factor and side matrix dimensions do not match")
    r_m = squared_radius(m_side)
    r_n = squared_radius(n_side)
    return float(r_m * np.trace(p.T @ m_side @ p) + r_n * np.trace(q.T @ n_side @ q))


def dqd_upper_pdlap(dec: BlockDecomposition, m_lap_pd, n_lap_pd) -> float:
    """Quasi-dimension upper bound for PDLaplacian sides.

    2 tr(R^T M R) R_M + 2 tr(C^T N C) R_N + 2k + 2l, where R and C are
    the one-hot block expansions of the decomposition. Both sides must be
    positive definite (a `pd_laplacian` output or an identity): R_M and
    R_N, the largest diagonal entries of the inverses, come from one
    Cholesky factor of each side, and a singular or indefinite side
    raises a ValueError naming it.
    """
    m_side = symmetrize(m_lap_pd)
    n_side = symmetrize(n_lap_pd)
    r = dec.r_matrix()
    c = dec.c_matrix()
    if r.shape[0] != m_side.shape[0] or c.shape[0] != n_side.shape[0]:
        raise ValueError("decomposition and side matrix dimensions do not match")
    r_m = float(_pd_inverse_factor(m_side, "row side m_lap_pd")[1].max())
    r_n = float(_pd_inverse_factor(n_side, "column side n_lap_pd")[1].max())
    row_term = 2.0 * np.trace(r.T @ m_side @ r) * r_m
    col_term = 2.0 * np.trace(c.T @ n_side @ c) * r_n
    return float(row_term + col_term + 2.0 * dec.k + 2.0 * dec.l)


def maxnorm_bound_biclustered(k: int, l: int) -> float:
    """Max-norm bound min(sqrt(k), sqrt(l)) for a (k, l)-biclustered sign matrix.

    The margin used in the experiments is the reciprocal of this value.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    return float(min(np.sqrt(k), np.sqrt(l)))


def community_factors(k: int):
    """Explicit factors (P, Q), each k x (k+1), with P Q^T = 2I - 11^T.

    P = sqrt(2)[i=j] + [j=k+1] and Q = sqrt(2)[i=j] - [j=k+1]. Rows of
    both have norm sqrt(3), so the max-norm of the same-class comparator
    2I - 11^T is at most 3.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p = np.zeros((k, k + 1))
    q = np.zeros((k, k + 1))
    idx = np.arange(k)
    p[idx, idx] = np.sqrt(2.0)
    q[idx, idx] = np.sqrt(2.0)
    p[:, k] = 1.0
    q[:, k] = -1.0
    return p, q


def minkernel_trace_bound_check(dec_rows, gram, delta_star: float, d: int):
    """Evaluate tr(R^T K^-1 R) against its bound k (4/delta_star)^d.

    Returns (lhs, bound). The contract lhs <= bound holds whenever the
    Gram comes from min-kernel points grouped into boxes whose pairwise
    separation yields delta_star.
    """
    r = np.asarray(dec_rows, dtype=float)
    if r.ndim == 1:
        r = r[:, None]
    k = symmetrize(gram)
    if r.shape[0] != k.shape[0]:
        raise ValueError("one-hot matrix and Gram dimensions do not match")
    if not delta_star > 0:
        raise ValueError("delta_star must be positive")
    try:
        solved = np.linalg.solve(k, r)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is singular") from exc
    lhs = float(np.trace(r.T @ solved))
    bound = float(r.shape[1] * (4.0 / delta_star) ** d)
    return lhs, bound
