from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from megmc.props import random_connected_graph
from megmc.sideinfo import (
    BoxSeparation,
    Graph,
    LinearKernel,
    MinKernel,
    PrecomputedKernel,
    box_separation,
    box_transform,
    delta_star_transformed,
    embedding_from_pd,
    gram_matrix,
    identity_embedding,
    laplacian_from_graph,
    min_kernel_eval,
    pd_laplacian,
    read_graph,
    read_points,
    squared_radius,
    write_graph,
    write_points,
)
from megmc.spectral import eig_sym, pinv_psd, quad_form
from tests_support import path_graph


# ---------------------------------------------------------------------------
# graphs and Laplacians


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0, 1.0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1, 0.0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2, 1.0),))
    # edges given as (j, i) are canonicalized to i < j
    g = Graph(3, ((2, 0, 1.5),))
    assert g.edges == ((0, 2, 1.5),)


def test_laplacian_examples():
    assert_allclose(laplacian_from_graph(path_graph(2)), [[1.0, -1.0], [-1.0, 1.0]])
    tri = Graph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
    assert_allclose(laplacian_from_graph(tri),
                    2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))
    weighted = Graph(2, ((0, 1, 2.0),))
    assert_allclose(laplacian_from_graph(weighted), [[2.0, -2.0], [-2.0, 2.0]])


def test_laplacian_nullspace_and_psd():
    rng = np.random.default_rng(0)
    g = random_connected_graph(rng, 9)
    lap = laplacian_from_graph(g)
    assert np.abs(lap @ np.ones(9)).max() <= 1e-12
    w, _ = eig_sym(lap)
    assert w[0] >= -1e-10


def test_squared_radius_examples():
    assert squared_radius(np.eye(5)) == pytest.approx(1.0)
    assert squared_radius([[1.0, -1.0], [-1.0, 1.0]]) == pytest.approx(0.25)
    assert squared_radius([[3.0, 1.0], [1.0, 3.0]]) == pytest.approx(0.375)


def test_pd_laplacian_two_path():
    # L = [[1,-1],[-1,1]], R_L = 1/4; shift adds 11'/(m^2 R_L) = 11', so
    # L° = [[2,0],[0,2]] with L° 1 = 1/(m R_L) = 2*1 and R_L° = 2 R_L = 1/2
    lap = laplacian_from_graph(path_graph(2))
    shifted = pd_laplacian(lap)
    assert_allclose(shifted, [[2.0, 0.0], [0.0, 2.0]], atol=1e-12)
    r_l = squared_radius(lap)
    assert_allclose(shifted @ np.ones(2), np.ones(2) / (2 * r_l), atol=1e-12)
    assert squared_radius(shifted) == pytest.approx(2 * r_l)


def test_pd_laplacian_doubles_squared_radius():
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(3, 20)))
        lap = laplacian_from_graph(g)
        shifted = pd_laplacian(lap)
        assert squared_radius(shifted) == pytest.approx(2 * squared_radius(lap))


def test_pd_laplacian_rejects_disconnected():
    empty = Graph(2, ())
    with pytest.raises(ValueError, match="connected"):
        pd_laplacian(laplacian_from_graph(empty))
    two_comp = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(ValueError, match="connected"):
        pd_laplacian(laplacian_from_graph(two_comp))


def test_pd_laplacian_rejects_non_laplacian():
    with pytest.raises(ValueError, match="sum to zero"):
        pd_laplacian(np.eye(3))


def test_pd_laplacian_strictly_pd():
    rng = np.random.default_rng(1)
    for _ in range(5):
        g = random_connected_graph(rng, 8)
        shifted = pd_laplacian(laplacian_from_graph(g))
        w, _ = eig_sym(shifted)
        assert w[0] > 0


def test_pd_laplacian_inequalities():
    # for u in [-1,1]^m:
    #   (u' L° u) R_L° <= 2 (u' L u R_L + 1)   and
    #   (u' L u) R_L <= (u' L° u) R_L° / 2
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = int(rng.integers(3, 31))
        g = random_connected_graph(rng, m)
        lap = laplacian_from_graph(g)
        shifted = pd_laplacian(lap)
        r_l = squared_radius(lap)
        r_shift = squared_radius(shifted)
        # all-ones makes the first inequality tight; a mean-zero vector
        # makes the second tight
        mean_zero = rng.uniform(-1.0, 1.0, size=m)
        mean_zero = np.clip(mean_zero - mean_zero.mean(), -1.0, 1.0)
        probes = [rng.uniform(-1.0, 1.0, size=m) for _ in range(200)]
        probes += [np.ones(m), -np.ones(m), mean_zero]
        for u in probes:
            lhs_a = quad_form(shifted, u) * r_shift
            rhs_a = 2.0 * (quad_form(lap, u) * r_l + 1.0)
            assert lhs_a <= rhs_a + 1e-9 * max(1.0, abs(rhs_a))
            lhs_b = quad_form(lap, u) * r_l
            rhs_b = 0.5 * quad_form(shifted, u) * r_shift
            assert lhs_b <= rhs_b + 1e-9 * max(1.0, abs(rhs_b))
        ones = np.ones(m)
        lhs_tight = quad_form(shifted, ones) * r_shift
        rhs_tight = 2.0 * (quad_form(lap, ones) * r_l + 1.0)
        assert lhs_tight == pytest.approx(rhs_tight, rel=1e-9)


def test_laplacian_quadratic_form_identity():
    # trace(X' L X) = sum over edges of w_ij ||X_i - X_j||^2
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 12)
    lap = laplacian_from_graph(g)
    x = rng.standard_normal((12, 4))
    direct = float(np.trace(x.T @ lap @ x))
    edge_sum = sum(w * float(((x[i] - x[j]) ** 2).sum()) for i, j, w in g.edges)
    assert abs(direct - edge_sum) <= 1e-8 * max(1.0, abs(edge_sum))


# ---------------------------------------------------------------------------
# embeddings


def test_identity_embedding():
    emb = identity_embedding(4)
    assert_allclose(emb.factor, np.eye(4) / np.sqrt(2.0))
    assert emb.squared_radius == 1.0


def test_embedding_from_identity_matrix():
    emb = embedding_from_pd(np.eye(3))
    assert_allclose(emb.factor, np.eye(3) / np.sqrt(2.0), atol=1e-12)
    assert emb.squared_radius == pytest.approx(1.0)


def test_embedding_two_path_pd_laplacian():
    emb = embedding_from_pd(np.array([[3.0, 1.0], [1.0, 3.0]]))
    norms_sq = (emb.factor ** 2).sum(axis=0)
    # pseudoinverse diagonal is 3/8 on both entries and R = 3/8, so each
    # column squared norm is exactly (3/8)/(2*3/8) = 1/2
    assert_allclose(norms_sq, [0.5, 0.5], atol=1e-12)
    assert norms_sq.max() <= 0.5 + 1e-10


def test_embedding_column_norm_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        b = rng.standard_normal((6, 6))
        m_pd = b @ b.T + 0.5 * np.eye(6)
        emb = embedding_from_pd(m_pd)
        pinv = pinv_psd(m_pd)
        r = np.diag(pinv).max()
        assert emb.squared_radius == pytest.approx(r)
        for i in range(6):
            got = float(emb.column(i) @ emb.column(i))
            assert abs(got - pinv[i, i] / (2 * r)) <= 1e-10
        assert (emb.factor ** 2).sum(axis=0).max() <= 0.5 + 1e-10


def test_embedding_column_out_of_range():
    with pytest.raises(IndexError):
        identity_embedding(3).column(3)


# ---------------------------------------------------------------------------
# kernels


def test_min_kernel_eval_examples():
    assert min_kernel_eval([2.0], [3.0]) == 2.0
    assert min_kernel_eval([2.0, 5.0], [3.0, 4.0]) == 8.0
    x = np.array([1.5, 2.5, 0.5])
    assert min_kernel_eval(x, x) == pytest.approx(float(np.prod(x)))
    with pytest.raises(ValueError):
        min_kernel_eval([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        min_kernel_eval([-1.0], [1.0])


def test_box_transform():
    r = 3.0
    assert_allclose(box_transform(np.full(4, -r), r), np.ones(4))
    assert_allclose(box_transform(np.full(4, r), r), np.full(4, r))
    assert_allclose(box_transform(np.zeros(2), 2.0), [1.5, 1.5])
    with pytest.raises(ValueError):
        box_transform([3.1], 3.0)
    with pytest.raises(ValueError):
        box_transform([0.0], 1.5)


def test_min_kernel_class_transforms_raw_points():
    kern = MinKernel(radius=2.0, dim=2)
    x = np.array([-2.0, 0.0])
    t = np.array([2.0, 1.0])
    expected = min_kernel_eval(box_transform(x, 2.0), box_transform(t, 2.0))
    assert kern(x, t) == pytest.approx(expected)
    assert kern.default_r_tilde() == pytest.approx(4.0)


def test_linear_kernel_jitter_on_identity_only():
    kern = LinearKernel(epsilon=1.0)
    p0 = np.zeros(2)
    p1 = np.zeros(2)
    gram = gram_matrix(kern, [p0, p1])
    assert_allclose(gram, np.eye(2), atol=1e-12)
    assert kern.default_r_tilde() is None


def test_precomputed_kernel():
    kern = PrecomputedKernel(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert kern(0, 1) == 1.0
    assert kern.default_r_tilde() == 3.0
    with pytest.raises(KeyError):
        kern(0, 2)


def test_gram_matrix_min_kernel_frozen():
    pts = [np.array([2.0]), np.array([3.0])]
    gram = gram_matrix(min_kernel_eval, pts)
    assert_allclose(gram, [[2.0, 2.0], [2.0, 3.0]])


def test_gram_matrix_single_point():
    p = np.array([1.5, 2.0])
    gram = gram_matrix(min_kernel_eval, [p])
    assert_allclose(gram, [[3.0]])


def test_gram_matrix_rejects_indefinite():
    fake = lambda x, t: 1.0 if x is t else 2.0
    with pytest.raises(ValueError, match="not PSD"):
        gram_matrix(fake, [0, 1])


def test_gram_psd_for_random_min_kernel_points():
    rng = np.random.default_rng(5)
    kern = MinKernel(radius=4.0, dim=3)
    pts = [rng.uniform(-4.0, 4.0, size=3) for _ in range(12)]
    gram = gram_matrix(kern, pts)
    w, _ = eig_sym(gram)
    assert w[0] >= -1e-8 * max(w[-1], 1.0)


# ---------------------------------------------------------------------------
# boxes


def brute_force_box_distance(lo1, hi1, lo2, hi2, rng, samples=10000):
    a = rng.uniform(lo1, hi1, size=(samples, len(lo1)))
    b = rng.uniform(lo2, hi2, size=(samples, len(lo2)))
    return float(np.abs(a - b).max(axis=1).min())


def test_box_separation_one_dim():
    sep = box_separation([([-4.0], [-2.0]), ([2.0], [4.0])])
    assert sep.delta == pytest.approx(4.0)
    assert sep.delta_star == pytest.approx(1.0)
    rng = np.random.default_rng(6)
    sampled = brute_force_box_distance(np.array([-4.0]), np.array([-2.0]),
                                       np.array([2.0]), np.array([4.0]), rng)
    assert sep.delta <= sampled <= sep.delta + 0.3


def test_box_separation_two_dim():
    boxes = [([0.0, 0.0], [1.0, 1.0]), ([3.0, 0.0], [4.0, 1.0])]
    sep = box_separation(boxes)
    assert sep.delta == pytest.approx(2.0)
    assert sep.delta_star == pytest.approx(0.5)
    rng = np.random.default_rng(7)
    sampled = brute_force_box_distance(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                                       np.array([3.0, 0.0]), np.array([4.0, 1.0]), rng)
    assert sep.delta <= sampled <= sep.delta + 0.3


def test_box_separation_single_box_convention():
    sep = box_separation([([0.0], [1.0])])
    assert sep.delta == np.inf
    assert sep.delta_star == 2.0


def test_box_separation_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        box_separation([([0.0], [2.0]), ([1.0], [3.0])])
    # touching closed boxes intersect at the shared face
    with pytest.raises(ValueError, match="overlap"):
        box_separation([([0.0], [1.0]), ([1.0], [2.0])])


def test_delta_star_transformed_dominates_statement_variant():
    # (r-1)/(2r) >= 1/4 for r >= 2, so the transformed-domain cap is the
    # larger (stricter-in-bound) of the two
    for r in (2.0, 3.0, 8.0):
        for delta in (0.5, 2.0, 11.0):
            assert delta_star_transformed(delta, r) >= min(2.0, delta / 4.0) - 1e-12


# ---------------------------------------------------------------------------
# file formats


def test_graph_round_trip(tmp_path):
    g = Graph(5, ((0, 1, 1.0), (1, 4, 0.25), (2, 3, 2.0)))
    path = tmp_path / "graph.txt"
    write_graph(path, g)
    back = read_graph(path)
    assert back.n_vertices == 5
    assert back.edges == g.edges


def test_points_round_trip(tmp_path):
    pts = np.array([[0.5, -1.25], [2.0, 3.5], [-4.0, 0.0]])
    path = tmp_path / "points.csv"
    write_points(path, pts)
    assert_allclose(read_points(path), pts)


def test_points_round_trip_one_dim(tmp_path):
    pts = np.array([[1.5]])
    path = tmp_path / "p.csv"
    write_points(path, pts)
    assert_allclose(read_points(path), pts)
