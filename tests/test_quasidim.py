import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from megmc.quasidim import (
    BlockDecomposition,
    FactorPair,
    community_factors,
    dqd_upper_pdlap,
    maxnorm_bound_biclustered,
    minkernel_trace_bound_check,
    quasi_dim_factored,
)
from megmc.props import random_connected_graph
from megmc.sideinfo import (
    MinKernel,
    box_separation,
    delta_star_transformed,
    gram_matrix,
    laplacian_from_graph,
    pd_laplacian,
    squared_radius,
)
from megmc.synth import box_instance, clique_star_graph, perturb_graph
from tests_support import min_kernel_eval


def trace_quad_oracle(f, s):
    # tr(F' S F) expanded entry by entry
    total = 0.0
    for col in range(f.shape[1]):
        for i in range(s.shape[0]):
            for j in range(s.shape[0]):
                total += f[i, col] * s[i, j] * f[j, col]
    return total


def normalized_rows(rng, m, d):
    f = rng.standard_normal((m, d))
    return f / np.linalg.norm(f, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# decomposition and factor-pair types


def test_block_decomposition_matrix():
    dec = BlockDecomposition(
        row_classes=[0, 1, 0],
        col_classes=[0, 1],
        u_star=[[1, -1], [-1, 1]],
    )
    assert dec.k == 2 and dec.l == 2 and dec.m == 3 and dec.n == 2
    assert_allclose(dec.matrix(), [[1, -1], [-1, 1], [1, -1]])
    rebuilt = dec.r_matrix() @ np.asarray(dec.u_star, dtype=float) @ dec.c_matrix().T
    assert_allclose(dec.matrix(), rebuilt)


def test_block_decomposition_validation():
    with pytest.raises(ValueError, match="occupied"):
        BlockDecomposition([0, 0], [0], [[1], [-1]])
    with pytest.raises(ValueError, match="out of range"):
        BlockDecomposition([0, 2], [0], [[1], [-1]])
    with pytest.raises(ValueError, match="-1 or \\+1"):
        BlockDecomposition([0], [0], [[0]])


def test_factor_pair_validation():
    with pytest.raises(ValueError, match="unit norm"):
        FactorPair([[1.0, 1.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError, match="inner dimension"):
        FactorPair([[1.0]], [[1.0, 0.0]])
    pair = FactorPair([[0.6, 0.8]], [[1.0, 0.0]])
    assert_allclose(pair.p_hat @ pair.q_hat.T, [[0.6]])


# ---------------------------------------------------------------------------
# factored quasi-dimension


def test_quasi_dim_identity_sides_gives_m_plus_n():
    rng = np.random.default_rng(0)
    for m, n, d in ((4, 7, 3), (2, 2, 1), (9, 5, 4)):
        pair = FactorPair(normalized_rows(rng, m, d), normalized_rows(rng, n, d))
        val = quasi_dim_factored(pair, np.eye(m), np.eye(n))
        assert val == pytest.approx(m + n, abs=1e-10)


def test_quasi_dim_scalar_case():
    pair = FactorPair([[1.0]], [[1.0]])
    assert quasi_dim_factored(pair, [[1.0]], [[1.0]]) == pytest.approx(2.0)


def test_quasi_dim_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    m, n, k, l = 5, 6, 2, 3
    p = np.zeros((m, k))
    p[np.arange(m), rng.integers(0, k, m)] = 1.0
    q = np.zeros((n, l))
    q[np.arange(n), rng.integers(0, l, n)] = 1.0
    # pad inner dims to match
    d = max(k, l)
    p = np.pad(p, ((0, 0), (0, d - k)))
    q = np.pad(q, ((0, 0), (0, d - l)))
    a = rng.standard_normal((m, m))
    b = rng.standard_normal((n, n))
    m_side = a @ a.T + 0.3 * np.eye(m)
    n_side = b @ b.T + 0.3 * np.eye(n)
    pair = FactorPair(p, q)
    expected = squared_radius(m_side) * trace_quad_oracle(p, m_side)
    expected += squared_radius(n_side) * trace_quad_oracle(q, n_side)
    assert quasi_dim_factored(pair, m_side, n_side) == pytest.approx(expected, rel=1e-10)


def test_quasi_dim_dimension_mismatch():
    pair = FactorPair([[1.0]], [[1.0]])
    with pytest.raises(ValueError, match="do not match"):
        quasi_dim_factored(pair, np.eye(2), np.eye(1))


# ---------------------------------------------------------------------------
# closed-form upper bounds


def test_dqd_upper_pdlap_two_path_example():
    # both sides get the PD matrix [[3,1],[1,3]]: trace of 1' L 1 = 8,
    # squared radius 3/8, so each term is 2*8*(3/8) = 6 and the additive
    # part is 2k + 2l = 4; an identity column side has the term 2n = 4
    dec = BlockDecomposition([0, 0], [0, 0], [[1]])
    side = np.array([[3.0, 1.0], [1.0, 3.0]])
    assert dqd_upper_pdlap(dec, side, side) == pytest.approx(6.0 + 6.0 + 4.0)
    assert dqd_upper_pdlap(dec, side, np.eye(2)) == pytest.approx(6.0 + 4.0 + 4.0)


def test_dqd_upper_pdlap_symmetric_in_sides():
    # swapping the sides and transposing u_star leaves the bound unchanged
    rng = np.random.default_rng(2)
    m_side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, 9)))
    n_side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, 7)))
    rows = rng.integers(0, 3, 9)
    rows[:3] = [0, 1, 2]
    cols = rng.integers(0, 2, 7)
    cols[:2] = [0, 1]
    u = rng.choice((-1, 1), size=(3, 2))
    dec = BlockDecomposition(rows, cols, u)
    swapped = BlockDecomposition(cols, rows, u.T)
    assert dqd_upper_pdlap(swapped, n_side, m_side) == pytest.approx(
        dqd_upper_pdlap(dec, m_side, n_side), rel=1e-12)


def test_dqd_upper_pdlap_additive_term_is_4k_when_square():
    # identity sides give 2m + 2n + 2k + 2l, and 2k + 2l = 4k when k = l
    dec = BlockDecomposition([0, 1, 0], [1, 0, 1], [[1, -1], [-1, 1]])
    total = dqd_upper_pdlap(dec, np.eye(3), np.eye(3))
    assert total == pytest.approx(2 * 3 + 2 * 3 + 4 * dec.k)


def test_dqd_pdlap_term_stable_under_edge_weight_scaling():
    # L° is degree-1 homogeneous in L, so the term 2 tr(R' L° R) R_L° is
    # invariant when all edge weights double; the contract only promises
    # a factor-2 band, the construction delivers exact invariance
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 8)
    doubled = type(g)(2.0 * g.weights)
    classes = rng.integers(0, 2, 8)
    classes[:2] = [0, 1]
    dec = BlockDecomposition(classes, classes, [[1, -1], [-1, 1]])
    terms = []
    for graph in (g, doubled):
        side = pd_laplacian(laplacian_from_graph(graph))
        # an identity column side adds the fixed 2n + 2k + 2l
        terms.append(dqd_upper_pdlap(dec, side, np.eye(8)) - 2 * 8 - 2 * dec.k - 2 * dec.l)
    assert terms[1] <= 2.0 * terms[0] and terms[0] <= 2.0 * terms[1]
    assert terms[0] == pytest.approx(terms[1], rel=1e-9)


def eig_reference_dqd(dec, m_side, n_side):
    # the bound with both radii read off the pseudoinverse by eig_psd
    r, c = dec.r_matrix(), dec.c_matrix()
    return (2.0 * np.trace(r.T @ m_side @ r) * squared_radius(m_side)
            + 2.0 * np.trace(c.T @ n_side @ c) * squared_radius(n_side)
            + 2.0 * dec.k + 2.0 * dec.l)


def random_decomposition(rng, m, n, k, l):
    rows = rng.integers(0, k, m)
    rows[:k] = np.arange(k)
    cols = rng.integers(0, l, n)
    cols[:l] = np.arange(l)
    return BlockDecomposition(rows, cols, rng.choice((-1, 1), size=(k, l)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(2, 60), st.integers(2, 60),
       st.sampled_from(("random", "clique_star")))
def test_dqd_upper_pdlap_matches_the_eig_reference(seed, m, n, family):
    # the Cholesky radii equal squared_radius's eigenpair radii on the PD
    # Laplacians the experiments build, and R_M = 2 R_L on every shift
    rng = np.random.default_rng(seed)
    k, l = min(3, m), min(2, n)
    dec = random_decomposition(rng, m, n, k, l)
    if family == "random":
        graphs = (random_connected_graph(rng, m), random_connected_graph(rng, n))
    else:
        graphs = (perturb_graph(clique_star_graph(dec.row_classes), 0.3, rng),
                  perturb_graph(clique_star_graph(dec.col_classes), 0.3, rng))
    laps = [laplacian_from_graph(g) for g in graphs]
    m_side, n_side = (pd_laplacian(lap) for lap in laps)
    for lap, side in zip(laps, (m_side, n_side)):
        assert squared_radius(side) == pytest.approx(2.0 * squared_radius(lap), rel=1e-10)
    assert dqd_upper_pdlap(dec, m_side, n_side) == pytest.approx(
        eig_reference_dqd(dec, m_side, n_side), rel=1e-10)
    assert dqd_upper_pdlap(dec, m_side, np.eye(n)) == pytest.approx(
        eig_reference_dqd(dec, m_side, np.eye(n)), rel=1e-10)


def test_dqd_upper_pdlap_on_identity_sides_matches_the_eig_reference():
    rng = np.random.default_rng(4)
    for m, n in ((1, 1), (5, 3), (40, 70)):
        dec = random_decomposition(rng, m, n, 1, 1)
        assert dqd_upper_pdlap(dec, np.eye(m), np.eye(n)) == pytest.approx(
            eig_reference_dqd(dec, np.eye(m), np.eye(n)), rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_dqd_upper_pdlap_rejects_an_unshifted_laplacian(seed):
    # a connected graph's Laplacian is PSD and singular: the bound names the
    # side in a ValueError instead of a LinAlgError or a huge radius
    rng = np.random.default_rng(seed)
    m = 5 + 40 * seed
    lap = laplacian_from_graph(random_connected_graph(rng, m))
    dec = random_decomposition(rng, m, 4, 2, 2)
    with pytest.raises(ValueError, match="row side m_lap_pd is not positive definite"):
        dqd_upper_pdlap(dec, lap, np.eye(4))
    dec_t = BlockDecomposition(dec.col_classes, dec.row_classes, dec.u_star.T)
    with pytest.raises(ValueError, match="column side n_lap_pd is not positive definite"):
        dqd_upper_pdlap(dec_t, np.eye(4), lap)


@pytest.mark.parametrize("side", [
    np.zeros((3, 3)),
    -np.eye(3),
    np.diag([1.0, 1.0, -1e-3]),
    np.diag([1.0, 1.0, 1e-17]),
    1e-310 * np.eye(3),
])
def test_dqd_upper_pdlap_rejects_sides_that_are_not_pd(side):
    dec = BlockDecomposition([0, 1, 0], [0, 1, 1], [[1, -1], [-1, 1]])
    with pytest.raises(ValueError, match="not positive definite"):
        dqd_upper_pdlap(dec, side, np.eye(3))


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_dqd_upper_pdlap_is_finite_and_scale_free(scale):
    # the bound is degree-0 homogeneous in each side, with no inf or NaN at
    # extreme but representable scales
    rng = np.random.default_rng(11)
    side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, 9)))
    dec = random_decomposition(rng, 9, 3, 2, 1)
    value = dqd_upper_pdlap(dec, scale * side, np.eye(3))
    assert np.isfinite(value)
    assert value == pytest.approx(dqd_upper_pdlap(dec, side, np.eye(3)), rel=1e-10)


# ---------------------------------------------------------------------------
# max-norm bound and community factorization


def test_maxnorm_bound_values():
    assert maxnorm_bound_biclustered(9, 9) == pytest.approx(3.0)
    assert maxnorm_bound_biclustered(1, 5) == pytest.approx(1.0)
    assert maxnorm_bound_biclustered(4, 9) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        maxnorm_bound_biclustered(0, 3)


def test_community_factors_k2_frozen():
    p, q = community_factors(2)
    s = np.sqrt(2.0)
    assert_allclose(p, [[s, 0, 1], [0, s, 1]])
    assert_allclose(q, [[s, 0, -1], [0, s, -1]])
    assert_allclose(p @ q.T, [[1, -1], [-1, 1]], atol=1e-12)


def test_community_factors_k1():
    p, q = community_factors(1)
    assert_allclose(p @ q.T, [[1.0]], atol=1e-12)


def test_community_factors_product_identity():
    for k in range(1, 11):
        p, q = community_factors(k)
        target = 2.0 * np.eye(k) - np.ones((k, k))
        assert_allclose(p @ q.T, target, atol=1e-12)
        assert_allclose(np.linalg.norm(p, axis=1), np.sqrt(3.0))
        assert_allclose(np.linalg.norm(q, axis=1), np.sqrt(3.0))


def test_community_sign_structure():
    # expanding u* = 2I - 11' over any assignment marks same-class pairs +1
    rng = np.random.default_rng(4)
    for _ in range(5):
        k = int(rng.integers(1, 5))
        m = int(rng.integers(k, 3 * k + 1))
        classes = np.concatenate([np.arange(k), rng.integers(0, k, m - k)])
        u_star = 2 * np.eye(k, dtype=int) - np.ones((k, k), dtype=int)
        dec = BlockDecomposition(classes, classes, u_star)
        u = dec.matrix()
        same = classes[:, None] == classes[None, :]
        assert_allclose(u, np.where(same, 1, -1))


# ---------------------------------------------------------------------------
# min-kernel trace bound


def test_minkernel_check_two_point_example():
    pts = [2.0, 3.0]
    gram = np.array([[min_kernel_eval([a], [b]) for b in pts] for a in pts])
    assert_allclose(gram, [[2.0, 2.0], [2.0, 3.0]])
    lhs, bound = minkernel_trace_bound_check(np.ones(2), gram, delta_star=2.0, d=1)
    assert lhs == pytest.approx(0.5)
    assert bound == pytest.approx(2.0)


def test_minkernel_check_single_point():
    lhs, bound = minkernel_trace_bound_check([1.0], [[1.7]], delta_star=2.0, d=1)
    assert lhs == pytest.approx(1.0 / 1.7)
    assert bound == pytest.approx(2.0)


def test_minkernel_check_errors():
    with pytest.raises(ValueError, match="singular"):
        minkernel_trace_bound_check(np.ones(2), np.ones((2, 2)), 2.0, 1)
    with pytest.raises(ValueError, match="delta_star"):
        minkernel_trace_bound_check([1.0], [[1.0]], 0.0, 1)
    with pytest.raises(ValueError, match="do not match"):
        minkernel_trace_bound_check(np.ones(3), [[1.0]], 1.0, 1)


def test_minkernel_bound_on_random_boxes():
    for seed in range(8):
        d = 1 + seed % 2
        points, assignment, boxes = box_instance(
            k=2, d=d, r=4.0, delta_min=0.8, points_per_box=3, seed=seed
        )
        kern = MinKernel(radius=4.0, dim=d)
        gram = gram_matrix(kern, list(points))
        sep = box_separation(boxes)
        strict = delta_star_transformed(sep.delta, 4.0)
        lhs, bound = minkernel_trace_bound_check(assignment, gram, strict, d)
        assert lhs <= bound * (1.0 + 1e-9)
        # the looser statement value can only enlarge the bound
        _, loose = minkernel_trace_bound_check(assignment, gram, sep.delta_star, d)
        assert bound <= loose * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# clique-star side graphs feeding the bounds


def test_clique_star_trace_and_radius():
    for k in (1, 2, 5):
        classes = np.repeat(np.arange(k), 3)
        g = clique_star_graph(classes)
        lap = laplacian_from_graph(g)
        r = np.zeros((len(classes), k))
        r[np.arange(len(classes)), classes] = 1.0
        direct = float(np.trace(r.T @ lap @ r))
        edge_sum = sum(w * float(((r[i] - r[j]) ** 2).sum()) for i, j, w in g.edges)
        assert direct == pytest.approx(edge_sum, abs=1e-10)
        assert direct == pytest.approx(2.0 * (k - 1), abs=1e-10)
        assert squared_radius(lap) <= 4.0 + 1e-9
