from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from megmc import experiments
from megmc.inductive import (
    InductivePredictor,
    equivalence_check,
    run_inductive,
)
from megmc.props import random_connected_graph
from megmc.sideinfo import (
    LinearKernel,
    MinKernel,
    PrecomputedKernel,
    embedding_from_pd,
    gram_matrix,
    identity_embedding,
    laplacian_from_graph,
    pd_laplacian,
)
from megmc.spectral import sqrt_psd
from megmc.transductive import (
    MatrixExpGradPredictor,
    Trace,
    TransductiveParams,
    count_exponent,
    run as run_transductive,
)
from tests_support import RebuildingInductivePredictor, scalar_gram


def make_params(m, n, **kw):
    defaults = dict(eta=0.5, gamma=0.5, d_hat=float(m + n), m=m, n=n)
    defaults.update(kw)
    return TransductiveParams(**defaults)


def never_cached_ybar(predictor, rows, cols, log, pair, kernels, r_tildes, params):
    """Independent margin computation: scalar kernel definitions and numpy only."""
    row_kernel, col_kernel = kernels
    rt_row, rt_col = r_tildes

    def gram(kernel, pts):
        g = scalar_gram(kernel, pts)
        return (g + g.T) / 2.0

    def msqrt(g):
        w, v = np.linalg.eigh(g)
        return (v * np.sqrt(np.clip(w, 0.0, None))[None, :]) @ v.T

    sq_r = msqrt(gram(row_kernel, rows)) / np.sqrt(2.0 * rt_row)
    sq_c = msqrt(gram(col_kernel, cols)) / np.sqrt(2.0 * rt_col)
    q = len(rows) + len(cols)

    def embed(rp, cp):
        return np.concatenate((sq_r[:, rp], sq_c[:, cp]))

    s = np.log(params.d_hat / (params.m + params.n)) * np.eye(q)
    for _, y, rp, cp in log:
        x = embed(rp, cp)
        s += params.eta * y * np.outer(x, x)
    w, v = np.linalg.eigh((s + s.T) / 2.0)
    x_t = embed(*pair)
    z = v.T @ x_t
    return float(np.exp(w) @ (z * z)) - 1.0


# ---------------------------------------------------------------------------
# first-trial closed forms


def test_first_trial_formula_min_kernel():
    kern = MinKernel(radius=4.0, dim=1)
    params = make_params(3, 3, d_hat=6.0)
    rows, cols = [np.array([2.0])], [np.array([-1.0])]
    pred = InductivePredictor(kern, kern, params,
                              row_identity=rows.__getitem__, col_identity=cols.__getitem__)
    ybar, _ = pred.step(0, 0)
    # transformed diagonals are 3.25 and 2.125; r_tilde defaults to r^d = 4
    expected = (6.0 / 6.0) * (3.25 / 8.0 + 2.125 / 8.0) - 1.0
    assert ybar == pytest.approx(expected, rel=1e-12)
    assert pred.registry_sizes == (0, 0)  # nothing registered before commit


def test_first_trial_zero_when_diagonal_matches_r_tilde():
    gram = np.array([[2.0, 0.3], [0.3, 1.5]])
    kern = PrecomputedKernel(gram)
    params = make_params(2, 2)
    pred = InductivePredictor(kern, kern, params)
    ybar, _ = pred.step(0, 0)  # K(0,0) = 2 equals the default r_tilde
    assert ybar == pytest.approx(0.0, abs=1e-12)


def test_r_tilde_resolution():
    kern = PrecomputedKernel(np.eye(3) * 1.5)
    pred = InductivePredictor(kern, kern, make_params(3, 3))
    assert pred.r_tilde_row == pytest.approx(1.5)
    lin = LinearKernel(epsilon=1.0)
    with pytest.raises(ValueError, match="r_tilde"):
        InductivePredictor(lin, lin, make_params(3, 3))
    pred2 = InductivePredictor(lin, lin, make_params(3, 3),
                               r_tilde_row=2.0, r_tilde_col=2.0)
    assert pred2.r_tilde_col == pytest.approx(2.0)
    with pytest.raises(ValueError, match="positive"):
        InductivePredictor(kern, kern, make_params(3, 3), r_tilde_row=-1.0)


# ---------------------------------------------------------------------------
# registry protocol


def test_registry_grows_only_on_update():
    gram = 2.0 * np.eye(4)
    kern = PrecomputedKernel(gram)
    # d_hat = 3(m+n) pushes the initial margin to +2, so a +1 label is
    # confidently correct and conservative mode skips the update
    quiet = make_params(4, 4, d_hat=24.0, non_conservative=False)
    pred = InductivePredictor(kern, kern, quiet)
    ybar, _ = pred.step(1, 2)
    assert ybar == pytest.approx(2.0, rel=1e-12)
    assert pred.commit(1) is False
    assert pred.registry_sizes == (0, 0)
    assert pred.row_registry == {} and pred.col_registry == {}
    assert pred.update_log == []
    # a -1 label at the same margin is a sign error and must register
    pred.step(1, 2)
    assert pred.commit(-1) is True
    assert pred.registry_sizes == (1, 1)
    assert pred.row_registry == {1: 0} and pred.col_registry == {2: 0}
    assert pred.update_log == [(2, -1, 0, 0)]


def test_duplicate_row_identity_reuses_position():
    kern = PrecomputedKernel(np.eye(4))
    params = make_params(4, 4, gamma=1.0)  # margin 1 - 1 = 0 < 1: always update
    pred = InductivePredictor(kern, kern, params)
    pred.step(2, 0)
    assert pred.commit(1)
    pred.step(2, 3)
    assert pred.commit(1)
    assert pred.registry_sizes == (1, 2)
    assert pred.row_registry == {2: 0}
    assert list(pred.col_registry.items()) == [(0, 0), (3, 1)]
    assert pred.update_log == [(1, 1, 0, 0), (2, 1, 0, 1)]


def test_step_commit_protocol_errors():
    kern = PrecomputedKernel(np.eye(2))
    pred = InductivePredictor(kern, kern, make_params(2, 2))
    with pytest.raises(RuntimeError, match="no pending"):
        pred.commit(1)
    pred.step(0, 0)
    with pytest.raises(RuntimeError, match="never committed"):
        pred.step(0, 1)
    with pytest.raises(ValueError, match="label"):
        pred.commit(0)


def test_unknown_identity_rejected():
    kern = PrecomputedKernel(np.eye(2))
    pred = InductivePredictor(kern, kern, make_params(2, 2))
    with pytest.raises(KeyError, match="unknown"):
        pred.step(5, 0)


def test_registries_are_append_only():
    rng = np.random.default_rng(0)
    kern = MinKernel(radius=3.0, dim=1)
    params = make_params(5, 5, gamma=1.0)
    pts = [np.array([v]) for v in rng.uniform(-3, 3, 5)]
    pred = InductivePredictor(kern, kern, params,
                              row_identity=pts.__getitem__, col_identity=pts.__getitem__)
    seen_rows = []
    for t in range(15):
        i, j = int(rng.integers(5)), int(rng.integers(5))
        pred.step(i, j)
        pred.commit(int(rng.choice((-1, 1))))
        # previously registered prefix never changes, and positions follow
        # insertion order
        rows = list(pred.row_registry.items())
        assert rows[: len(seen_rows)] == seen_rows
        assert [pos for _, pos in rows] == list(range(len(rows)))
        seen_rows = rows
    assert seen_rows


# ---------------------------------------------------------------------------
# replay identity against an independent non-caching oracle


def test_step_matches_never_cached_oracle():
    rng = np.random.default_rng(1)
    kern_r = MinKernel(radius=4.0, dim=2)
    kern_c = MinKernel(radius=4.0, dim=1)
    params = make_params(6, 6, eta=0.4, gamma=0.8)
    row_pts = [rng.uniform(-4, 4, 2) for _ in range(6)]
    col_pts = [rng.uniform(-4, 4, 1) for _ in range(6)]
    pred = InductivePredictor(kern_r, kern_c, params, row_identity=row_pts.__getitem__,
                              col_identity=col_pts.__getitem__)
    for t in range(12):
        i, j = int(rng.integers(6)), int(rng.integers(6))
        row_keys = list(pred.row_registry)
        col_keys = list(pred.col_registry)
        log = list(pred.update_log)

        def position(keys, key):
            if key not in keys:
                keys.append(key)
            return keys.index(key)

        pos_i = position(row_keys, i)
        pos_j = position(col_keys, j)
        expected = never_cached_ybar(
            pred, [row_pts[k] for k in row_keys], [col_pts[k] for k in col_keys],
            log, (pos_i, pos_j),
            (kern_r, kern_c), (pred.r_tilde_row, pred.r_tilde_col), params,
        )
        ybar, _ = pred.step(i, j)
        assert ybar == pytest.approx(expected, abs=1e-10)
        pred.commit(int(rng.choice((-1, 1))))


# ---------------------------------------------------------------------------
# kept state against the rebuild-every-trial reference


def assert_same_state(pred, ref):
    assert pred.update_log == ref.update_log
    assert list(pred.row_registry.items()) == list(ref.row_registry.items())
    assert list(pred.col_registry.items()) == list(ref.col_registry.items())


def test_kept_state_matches_rebuilding_reference_on_scripted_stream():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5))
    row_kernel = PrecomputedKernel(a @ a.T + 0.5 * np.eye(5))
    b = rng.standard_normal((4, 4))
    col_kernel = PrecomputedKernel(b @ b.T + 0.5 * np.eye(4))
    params = make_params(5, 4, eta=0.6, gamma=0.05)
    pred = InductivePredictor(row_kernel, col_kernel, params)
    ref = RebuildingInductivePredictor(row_kernel, col_kernel, params)
    # (row, col, update?): both keys new; a repeated registered pair after an
    # update; one key new with no update; the same pair with no update in
    # between; a new key that updates; more registered and new pairs
    script = [(0, 0, True), (0, 0, False), (1, 0, False), (0, 0, False),
              (1, 0, True), (0, 0, True), (1, 0, False), (2, 3, True),
              (0, 3, True), (4, 1, False), (0, 3, False), (2, 0, True),
              (1, 3, False), (1, 3, False)]
    margins = []
    for i, j, update in script:
        ybar_ref, yhat_ref = ref.step(i, j)
        ybar, yhat = pred.step(i, j)
        assert abs(ybar - ybar_ref) <= 1e-12
        assert yhat == yhat_ref
        if not update:
            assert abs(ybar_ref) >= params.gamma  # a correct label skips the update
        sign = 1 if ybar_ref > 0 else -1
        y = -sign if update else sign
        assert ref.commit(y) is update
        assert pred.commit(y) is update
        assert_same_state(pred, ref)
        margins.append(ybar)
    # the new-key step (1, 0) between them left the kept state as it was
    assert margins[3] == margins[1]


def run_cell_with(monkeypatch, predictor_class):
    made = []

    def make(*args, **kwargs):
        made.append(predictor_class(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(experiments, "InductivePredictor", make)
    config = experiments.ExperimentConfig(mode="inductive", n_values=(20,),
                                          betas=(0.5,), seed=1)
    return experiments.run_single(config)["trace"], made[0]


def test_kept_state_matches_rebuilding_reference_on_benchmark_cell(monkeypatch):
    trace, pred = run_cell_with(monkeypatch, InductivePredictor)
    trace_ref, ref = run_cell_with(monkeypatch, RebuildingInductivePredictor)
    assert 0 < trace.updates < len(trace) == 400
    assert max(abs(a.ybar - b.ybar) for a, b in zip(trace, trace_ref)) <= 1e-12
    assert [(a.yhat, a.updated) for a in trace] == [(b.yhat, b.updated) for b in trace_ref]
    assert_same_state(pred, ref)


# ---------------------------------------------------------------------------
# equivalence with the transductive predictor


def test_equivalence_zero_update_run_has_zero_gap():
    gram = 2.0 * np.eye(3)
    kern = PrecomputedKernel(gram)
    params = make_params(3, 3, d_hat=18.0, non_conservative=False)
    trials = [(i, j, 1) for i in range(3) for j in range(3)]
    result = equivalence_check(range(3), range(3), kern, kern, trials, params, seed=0)
    assert result["trace_inductive"].updates == 0
    assert result["max_gap"] <= 1e-12


def test_equivalence_min_kernel_instance():
    rng = np.random.default_rng(2)
    row_pts = [rng.uniform(-4, 4, 2) for _ in range(4)]
    col_pts = [rng.uniform(-4, 4, 2) for _ in range(4)]
    kern = MinKernel(radius=4.0, dim=2)
    params = make_params(4, 4, eta=0.5, gamma=0.5)
    trials = [(int(rng.integers(4)), int(rng.integers(4)),
               int(rng.choice((-1, 1)))) for _ in range(20)]
    result = equivalence_check(row_pts, col_pts, kern, kern, trials, params, seed=3)
    assert result["trace_inductive"].updates > 0
    assert result["max_gap"] <= 1e-6
    assert result["predictions_equal"]
    assert result["updates_equal"]


@pytest.mark.parametrize("kind", ["linear", "min"])
def test_equivalence_with_duplicate_features(kind):
    # row 3 copies row 0's features but is its own identity on both sides
    rng = np.random.default_rng(8)
    if kind == "linear":
        kern = LinearKernel(epsilon=1.0)
        row_pts = [rng.standard_normal(2) for _ in range(3)]
        col_pts = [rng.standard_normal(2) for _ in range(3)]
    else:
        kern = MinKernel(radius=4.0, dim=2)
        row_pts = [rng.uniform(-4, 4, 2) for _ in range(3)]
        col_pts = [rng.uniform(-4, 4, 2) for _ in range(3)]
    row_pts.append(row_pts[0].copy())
    params = make_params(4, 3, eta=0.5, gamma=0.5)
    trials = [(int(rng.integers(4)), int(rng.integers(3)),
               int(rng.choice((-1, 1)))) for _ in range(30)]
    result = equivalence_check(row_pts, col_pts, kern, kern, trials, params, seed=9)
    updated_rows = {r.i for r in result["trace_inductive"] if r.updated}
    assert {0, 3} <= updated_rows
    assert result["max_gap"] <= 1e-6
    assert result["predictions_equal"]
    assert result["updates_equal"]


def test_equivalence_linear_kernel_reduces_to_identity_sides():
    # orthogonal unit identities with jitter 1 give Gram 2I; the matched
    # transductive side is I/2 whose embedding is the identity embedding
    m, n = 3, 4
    eye_m, eye_n = np.eye(m), np.eye(n)
    row_pts = [eye_m[i] for i in range(m)]
    col_pts = [eye_n[j] for j in range(n)]
    kern = LinearKernel(epsilon=1.0)
    params = make_params(m, n, eta=0.6, gamma=0.5)
    rng = np.random.default_rng(4)
    trials = [(int(rng.integers(m)), int(rng.integers(n)),
               int(rng.choice((-1, 1)))) for _ in range(25)]
    result = equivalence_check(row_pts, col_pts, kern, kern, trials, params, seed=5)
    assert result["max_gap"] <= 1e-6
    reference = run_transductive(trials, identity_embedding(m),
                                 identity_embedding(n), params,
                                 np.random.default_rng(5))
    for rec_i, rec_r in zip(result["trace_inductive"], reference):
        assert rec_i.ybar == pytest.approx(rec_r.ybar, abs=1e-8)


@st.composite
def equivalence_instances(draw):
    """A small equivalence_check instance; two row keys may share one point."""
    kind = draw(st.sampled_from(["min", "linear"]))
    m, n, d = draw(st.integers(2, 5)), draw(st.integers(2, 5)), draw(st.integers(1, 2))
    coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    point = st.lists(coord, min_size=d, max_size=d).map(np.array)
    row_pts = draw(st.lists(point, min_size=m, max_size=m))
    col_pts = draw(st.lists(point, min_size=n, max_size=n))
    if draw(st.booleans()):
        row_pts[-1] = row_pts[0].copy()  # with the min kernel the Gram is singular
    if kind == "min":
        kernel = MinKernel(radius=3.0, dim=d)
        # distinct points closer than this make the Gram nearly singular, where
        # equivalence_check itself loses precision (see the near-duplicate test)
        assume(all(np.array_equal(a, b) or np.abs(a - b).max() >= 1e-3
                   for pts in (row_pts, col_pts) for a, b in combinations(pts, 2)))
    else:
        kernel = LinearKernel(epsilon=draw(st.floats(0.5, 2.0)))
    params = make_params(m, n, eta=draw(st.floats(0.05, 3.0)),
                         gamma=draw(st.floats(0.05, 1.0)),
                         non_conservative=draw(st.booleans()))
    trials = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                                     st.sampled_from([-1, 1])),
                           min_size=1, max_size=20))
    return row_pts, col_pts, kernel, trials, params


@settings(derandomize=True, deadline=None, max_examples=200)
@given(equivalence_instances(), st.integers(0, 2**31 - 1))
def test_equivalence_on_generated_instances(instance, seed):
    row_pts, col_pts, kernel, trials, params = instance
    result = equivalence_check(row_pts, col_pts, kernel, kernel, trials, params, seed)
    threshold = params.gamma if params.non_conservative else 0.0
    for a, b in zip(result["trace_transductive"], result["trace_inductive"]):
        assert abs(a.ybar - b.ybar) <= 1e-6
        # equal points can put a margin exactly on a decision threshold in
        # exact arithmetic (all points at one spot give ybar = 0), where
        # rounding alone picks the side; decisions must agree everywhere else
        if a.yhat != b.yhat:
            assert abs(a.ybar - a.y_rand) <= 1e-9
        if a.updated != b.updated:
            assert abs(a.y * a.ybar - threshold) <= 1e-9
            break  # the two states part at a tied update


@pytest.mark.xfail(strict=True, reason="equivalence_check passes an ill-conditioned "
                   "Gram through two pseudoinverses on the transductive side")
def test_equivalence_with_near_duplicate_min_kernel_points():
    # two column points 1e-10 apart: cond(K) near 1e10 costs the transductive
    # side about cond(K) * 2^-52 of the Gram, and the runs part after one trial
    kern = MinKernel(radius=3.0, dim=1)
    params = make_params(2, 2, eta=1.0, gamma=1.0, non_conservative=False)
    row_pts = [np.array([0.0]), np.array([0.0])]
    col_pts = [np.array([0.0]), np.array([1e-10])]
    trials = [(0, 0, -1), (0, 1, 1), (1, 1, -1)]
    result = equivalence_check(row_pts, col_pts, kern, kern, trials, params, seed=0)
    assert result["max_gap"] <= 1e-6


def outer_replay_exponent(kappa, eta, log, row_factor, col_factor):
    """Reference exponent: one np.outer per logged update."""
    q = row_factor.shape[0] + col_factor.shape[0]
    s = kappa * np.eye(q)
    for _, y, rp, cp in log:
        x = np.concatenate((row_factor[:, rp], col_factor[:, cp]))
        s += eta * y * np.outer(x, x)
    return s


# (row, col, label) updates; the two at (0, 1) cancel to a zero count
CANCELLING_UPDATES = [(0, 1, 1), (1, 0, -1), (0, 1, -1), (2, 1, 1), (1, 1, 1), (2, 0, -1)]


def transductive_count_case(params):
    rng = np.random.default_rng(6)
    row_emb, col_emb = (
        embedding_from_pd(pd_laplacian(laplacian_from_graph(random_connected_graph(rng, size))))
        for size in (params.m, params.n)
    )
    pred = MatrixExpGradPredictor(row_emb, col_emb, params)
    for t, (i, j, y) in enumerate(CANCELLING_UPDATES, start=1):
        assert pred.update(t, i, j, y, ybar=0.0)
    factors = (row_emb.factor, col_emb.factor)
    ybar, _ = pred.predict(0, 1)
    return pred, factors, pred.rebuilt_exponent(), ybar, np.concatenate(
        (row_emb.column(0), col_emb.column(1)))


def inductive_count_case(params):
    row_kernel = PrecomputedKernel(np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3],
                                             [0.2, 0.3, 1.0]]))
    col_kernel = PrecomputedKernel(np.array([[2.0, 0.5], [0.5, 2.0]]))
    pred = InductivePredictor(row_kernel, col_kernel, params)
    for i, j, y in CANCELLING_UPDATES:
        pred.step(i, j)
        assert pred.commit(y)
    # registry positions follow first-update order, not the indices
    factors = (
        sqrt_psd(gram_matrix(row_kernel, list(pred.row_registry)))
        / np.sqrt(2.0 * pred.r_tilde_row),
        sqrt_psd(gram_matrix(col_kernel, list(pred.col_registry)))
        / np.sqrt(2.0 * pred.r_tilde_col),
    )
    exponent = count_exponent(pred.kappa, params.eta, pred.update_log, *factors)
    ybar, _ = pred.step(0, 1)
    assert list(pred.row_registry) == [0, 1, 2] and list(pred.col_registry) == [1, 0]
    pos_i, pos_j = pred.row_registry[0], pred.col_registry[1]
    return pred, factors, exponent, ybar, np.concatenate(
        (factors[0][:, pos_i], factors[1][:, pos_j]))


@pytest.mark.parametrize("case", [transductive_count_case, inductive_count_case],
                         ids=["transductive", "inductive"])
def test_count_exponent_matches_outer_replay(case):
    params = make_params(3, 2, eta=0.7, gamma=1.0)
    pred, factors, exponent, ybar, x = case(params)
    assert len(pred.update_log) == len(CANCELLING_UPDATES)
    reference = outer_replay_exponent(pred.kappa, params.eta, pred.update_log, *factors)
    assert_allclose(exponent, reference, atol=1e-12)
    # the cancelled pair leaves the same exponent as never updating there
    cancelled = pred.update_log[0][2:]
    kept = [entry for entry in pred.update_log if entry[2:] != cancelled]
    assert len(kept) == len(CANCELLING_UPDATES) - 2
    assert_allclose(exponent, outer_replay_exponent(pred.kappa, params.eta, kept, *factors),
                    atol=1e-12)
    # and the predictor reads its margin off that exponent
    w, v = np.linalg.eigh(reference)
    z = v.T @ x
    assert ybar == pytest.approx(float(np.exp(w) @ (z * z)) - 1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# trace output


def test_inductive_trace_has_registry_columns(tmp_path):
    kern = PrecomputedKernel(np.eye(3))
    params = make_params(3, 3, gamma=1.0)
    pred = InductivePredictor(kern, kern, params)
    trials = [(0, 0, 1), (1, 1, -1), (0, 2, 1)]
    trace = run_inductive(trials, pred, rng=8)
    sizes = [(r.registry_rows, r.registry_cols) for r in trace]
    assert sizes == sorted(sizes)  # registry growth is monotone
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header.endswith("registry_rows,registry_cols")
    loaded = Trace.from_csv(path)
    for a, b in zip(trace, loaded):
        assert a == b
