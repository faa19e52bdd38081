import numpy as np
import pytest
from numpy.testing import assert_allclose

from megmc.experiments import build_cell_instance
from megmc.sideinfo import Graph, box_separation
from megmc.synth import (
    Instance,
    apply_label_noise,
    box_instance,
    clique_star_graph,
    gen_biclustered,
    perturb_graph,
)
from tests_support import (
    reference_clique_star_edges,
    reference_perturb_edges,
    reference_trials,
    unit_weights,
)


def bfs_eccentricity(adj, start):
    m = adj.shape[0]
    dist = np.full(m, -1)
    dist[start] = 0
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in np.flatnonzero(adj[v] > 0):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    nxt.append(int(u))
        frontier = nxt
    assert dist.min() >= 0, "graph is not connected"
    return dist.max()


def diameter(g: Graph) -> int:
    adj = g.weights
    return max(bfs_eccentricity(adj, v) for v in range(g.n_vertices))


# ---------------------------------------------------------------------------
# biclustered generation


def test_gen_biclustered_structure():
    inst = gen_biclustered(m=12, n=10, k=3, l=4, seed=0)
    dec = inst.dec
    assert inst.u.shape == (12, 10)
    assert np.isin(inst.u, (-1, 1)).all()
    assert_allclose(inst.labels, inst.u)
    rebuilt = dec.r_matrix() @ dec.u_star.astype(float) @ dec.c_matrix().T
    assert_allclose(inst.u, rebuilt)
    assert set(dec.row_classes) == set(range(3))
    assert set(dec.col_classes) == set(range(4))


def test_gen_biclustered_square_case_is_permutation():
    inst = gen_biclustered(m=4, n=3, k=4, l=3, seed=1)
    assert sorted(inst.dec.row_classes) == list(range(4))
    assert sorted(inst.dec.col_classes) == list(range(3))
    for i in range(4):
        for j in range(3):
            assert inst.u[i, j] == inst.dec.u_star[
                inst.dec.row_classes[i], inst.dec.col_classes[j]
            ]


def test_gen_biclustered_single_class_is_constant():
    inst = gen_biclustered(m=5, n=6, k=1, l=1, seed=2)
    assert len(np.unique(inst.u)) == 1


def test_gen_biclustered_validates_sizes():
    with pytest.raises(ValueError):
        gen_biclustered(m=2, n=5, k=3, l=1, seed=0)


def test_gen_biclustered_deterministic_per_seed():
    a = gen_biclustered(m=30, n=30, k=9, l=9, seed=7)
    b = gen_biclustered(m=30, n=30, k=9, l=9, seed=7)
    c = gen_biclustered(m=30, n=30, k=9, l=9, seed=8)
    assert_allclose(a.u, b.u)
    assert_allclose(a.dec.row_classes, b.dec.row_classes)
    assert not np.array_equal(a.u, c.u)


# ---------------------------------------------------------------------------
# label noise


def test_label_noise_off():
    inst = gen_biclustered(m=6, n=6, k=2, l=2, seed=3)
    noisy = apply_label_noise(inst, 0.0, seed=0)
    assert_allclose(noisy.labels, inst.u)
    assert noisy.meta["flips"] == 0


def test_label_noise_rejects_p_one():
    inst = gen_biclustered(m=3, n=3, k=1, l=1, seed=0)
    with pytest.raises(ValueError):
        apply_label_noise(inst, 1.0, seed=0)
    near_total = apply_label_noise(inst, 0.999, seed=0)
    assert near_total.noise_mask.mean() > 0.9


def test_label_noise_fraction_concentrates():
    inst = gen_biclustered(m=400, n=400, k=9, l=9, seed=4)
    for seed in (0, 1, 2):
        noisy = apply_label_noise(inst, 0.10, seed=seed)
        frac = noisy.noise_mask.mean()
        assert abs(frac - 0.10) <= 0.01
        assert_allclose(noisy.labels, np.where(noisy.noise_mask, -inst.u, inst.u))
        assert noisy.meta["flips"] == int(noisy.noise_mask.sum())
    # the source instance is never mutated
    assert_allclose(inst.labels, inst.u)


# ---------------------------------------------------------------------------
# clique-star graphs


def test_clique_star_single_class():
    g = clique_star_graph([0, 0, 0, 0])
    assert g.edges == tuple((i, j, 1.0) for i in range(4) for j in range(i + 1, 4))


def test_clique_star_two_classes_frozen():
    g = clique_star_graph([0, 0, 1, 1])
    assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0))


def test_clique_star_interclass_edges_form_star():
    rng = np.random.default_rng(5)
    for _ in range(5):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k, 4 * k + 1))
        classes = np.concatenate([np.arange(k), rng.integers(0, k, m - k)])
        rng.shuffle(classes)
        g = clique_star_graph(classes)
        inter = [(i, j) for i, j, _ in g.edges if classes[i] != classes[j]]
        assert len(inter) == k - 1
        assert g.is_connected()
        assert diameter(g) <= 4


def test_clique_star_skips_absent_class_labels():
    # class indices don't have to be contiguous; absent labels simply
    # don't form cliques
    g = clique_star_graph([0, 2, 2])
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))
    assert g.is_connected()


def test_clique_star_matches_edge_list_reference():
    rng = np.random.default_rng(11)
    for m in (1, 2, 9, 40):
        for k in (1, 3, 9):
            assignment = rng.integers(0, k, m)
            g = clique_star_graph(assignment)
            expected = unit_weights(m, reference_clique_star_edges(assignment))
            assert np.array_equal(g.weights, expected)


# ---------------------------------------------------------------------------
# graph perturbation


def test_perturb_beta_zero_is_identity_on_connected():
    g = clique_star_graph([0, 0, 1, 1, 2])
    out = perturb_graph(g, 0.0, seed=0)
    assert np.array_equal(out.weights, g.weights)


def test_perturb_repairs_disconnected_input():
    g = Graph.from_edges(6, ((0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)))
    out = perturb_graph(g, 0.0, seed=1)
    assert out.is_connected()
    assert (out.weights[g.weights > 0] == 1.0).all()


def test_perturb_output_always_connected():
    base = clique_star_graph(np.repeat(np.arange(5), 4))
    for seed in range(6):
        out = perturb_graph(base, 0.4, seed=seed)
        assert out.is_connected()
        assert all(w == 1.0 for _, _, w in out.edges)


def test_perturb_half_beta_gives_fair_coin_density():
    m = 40
    base = clique_star_graph(np.repeat(np.arange(4), 10))
    pairs = m * (m - 1) / 2
    densities = []
    for seed in range(4):
        out = perturb_graph(base, 0.5, seed=seed)
        densities.append(len(out.edges) / pairs)
    assert abs(np.mean(densities) - 0.5) <= 0.06


def test_perturb_validates_beta():
    g = clique_star_graph([0, 0])
    with pytest.raises(ValueError):
        perturb_graph(g, 0.6, seed=0)
    with pytest.raises(ValueError):
        perturb_graph(g, -0.1, seed=0)


def test_perturb_deterministic_per_seed():
    base = clique_star_graph(np.repeat(np.arange(3), 5))
    a = perturb_graph(base, 0.3, seed=9)
    b = perturb_graph(base, 0.3, seed=9)
    assert a.edges == b.edges


def _assert_matches_reference(g, beta, seed):
    # same weights and same generator state afterwards as the edge-list code
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    out = perturb_graph(g, beta, ours)
    present = {(i, j) for i, j, _ in g.edges}
    flipped, repairs = reference_perturb_edges(g.n_vertices, present, beta, theirs)
    assert np.array_equal(out.weights, unit_weights(g.n_vertices, flipped + repairs))
    assert ours.bit_generator.state == theirs.bit_generator.state
    return len(repairs)


@pytest.mark.parametrize("beta", [0.0, 0.03125, 0.125, 0.25, 0.5])
def test_perturb_matches_edge_list_reference(beta):
    for seed in range(6):
        for m in (20, 45):
            assignment = np.random.default_rng(seed).integers(0, 9, m)
            _assert_matches_reference(clique_star_graph(assignment), beta, seed)


def test_perturb_repair_matches_edge_list_reference():
    # a sparse start leaves several components, so the repair loop draws
    repairs = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        pairs = {tuple(sorted(p)) for p in rng.choice(30, size=(8, 2)) if p[0] != p[1]}
        g = Graph.from_edges(30, [(i, j, 1.0) for i, j in pairs])
        for beta in (0.0, 0.01):
            repairs += _assert_matches_reference(g, beta, seed)
    assert repairs > 100


# ---------------------------------------------------------------------------
# box instances


def test_box_instance_membership_and_separation():
    points, assignment, boxes = box_instance(
        k=3, d=2, r=4.0, delta_min=0.5, points_per_box=4, seed=0
    )
    assert points.shape == (12, 2)
    assert assignment.shape == (12, 3)
    assert_allclose(assignment.sum(axis=1), np.ones(12))
    for idx, point in enumerate(points):
        lo, hi = boxes[int(np.argmax(assignment[idx]))]
        assert (point >= lo - 1e-12).all() and (point <= hi + 1e-12).all()
    assert box_separation(boxes).delta >= 0.5


def test_box_instance_single_box():
    points, assignment, boxes = box_instance(
        k=1, d=1, r=2.0, delta_min=0.1, points_per_box=3, seed=1
    )
    assert len(boxes) == 1
    sep = box_separation(boxes)
    assert sep.delta == np.inf and sep.delta_star == 2.0


def test_box_instance_infeasible_packing():
    with pytest.raises(ValueError, match="could not place"):
        box_instance(k=12, d=1, r=2.0, delta_min=3.9, points_per_box=1,
                     seed=2, max_attempts=30)


def test_box_instance_validation():
    with pytest.raises(ValueError):
        box_instance(k=2, d=1, r=1.5, delta_min=0.5, points_per_box=1, seed=0)
    with pytest.raises(ValueError):
        box_instance(k=2, d=1, r=4.0, delta_min=0.0, points_per_box=1, seed=0)


# ---------------------------------------------------------------------------
# trial streams and serialization


def test_trials_cover_every_entry_once():
    inst = gen_biclustered(m=5, n=4, k=2, l=2, seed=10)
    trials = inst.trials(rng=3)
    assert len(trials) == 20
    assert {(i, j) for i, j, _ in trials} == {(i, j) for i in range(5) for j in range(4)}
    for i, j, y in trials:
        assert y == inst.labels[i, j]
    assert trials == inst.trials(rng=3)
    assert trials != inst.trials(rng=4)


@pytest.mark.parametrize("make", [
    # square noisy benchmark instance, and a non-square one (m != n)
    lambda: build_cell_instance(3, 40, 0.5, 0, p=0.1, k=9, l=9)[0],
    lambda: gen_biclustered(m=13, n=7, k=3, l=2, seed=5),
], ids=["benchmark_40", "biclustered_13x7"])
@pytest.mark.parametrize("seed", [0, 1, 17, 31])
def test_trials_match_per_entry_reference(make, seed):
    inst = make()
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    trials = inst.trials(rng)
    expected = reference_trials(inst, ref_rng)
    assert trials == expected
    assert all(type(v) is int for triple in trials for v in triple)
    # the same single draw: both generators are left in the same state
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def full_pipeline_instance(seed):
    inst = gen_biclustered(m=8, n=7, k=3, l=2, seed=seed)
    inst.row_graph = perturb_graph(
        clique_star_graph(inst.dec.row_classes), 0.3, seed=seed + 1
    )
    inst.col_graph = perturb_graph(
        clique_star_graph(inst.dec.col_classes), 0.3, seed=seed + 2
    )
    return apply_label_noise(inst, 0.1, seed=seed + 3)


def test_instance_save_load_round_trip(tmp_path):
    inst = full_pipeline_instance(20)
    inst.save(tmp_path / "a")
    loaded = Instance.load(tmp_path / "a")
    assert_allclose(loaded.u, inst.u)
    assert_allclose(loaded.labels, inst.labels)
    assert_allclose(loaded.noise_mask, inst.noise_mask)
    assert_allclose(loaded.dec.row_classes, inst.dec.row_classes)
    assert_allclose(loaded.dec.u_star, inst.dec.u_star)
    assert loaded.row_graph.edges == inst.row_graph.edges
    assert loaded.col_graph.edges == inst.col_graph.edges
    assert loaded.meta["p"] == 0.1


def test_serialized_instances_are_byte_identical(tmp_path):
    for name, seed in (("x", 30), ("y", 30)):
        full_pipeline_instance(seed).save(tmp_path / name)
    for fname in ("manifest.json", "labels.csv", "u.csv", "noise_mask.csv",
                  "row_graph.txt", "col_graph.txt"):
        a = (tmp_path / "x" / fname).read_bytes()
        b = (tmp_path / "y" / fname).read_bytes()
        assert a == b, f"{fname} differs between identical seeds"
