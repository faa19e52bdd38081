import numpy as np
import pytest
from numpy.testing import assert_allclose

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


def make_params(m, n, **kw):
    defaults = dict(eta=0.5, gamma=0.5, d_hat=float(m + n), m=m, n=n)
    defaults.update(kw)
    return TransductiveParams(**defaults)


def never_cached_ybar(predictor, rows, cols, log, pair, kernels, r_tildes, params):
    """Independent margin computation: raw kernel loops and numpy only."""
    row_kernel, col_kernel = kernels
    rt_row, rt_col = r_tildes

    def gram(kernel, pts):
        g = np.empty((len(pts), len(pts)))
        for a in range(len(pts)):
            for b in range(len(pts)):
                g[a, b] = kernel(pts[a], pts[b]) if a != b else kernel(pts[a], pts[a])
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
    pred = InductivePredictor(kern, kern, params)
    ybar, _ = pred.step(np.array([2.0]), np.array([-1.0]))
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
    assert pred.update_log == []
    # a -1 label at the same margin is a sign error and must register
    pred.step(1, 2)
    assert pred.commit(-1) is True
    assert pred.registry_sizes == (1, 1)
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
    assert pred.row_registry == [2]
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
    pred = InductivePredictor(kern, kern, params)
    pts = [np.array([v]) for v in rng.uniform(-3, 3, 5)]
    seen_rows = []
    for t in range(15):
        i, j = int(rng.integers(5)), int(rng.integers(5))
        pred.step(pts[i], pts[j])
        pred.commit(int(rng.choice((-1, 1))))
        # previously registered prefix never changes
        assert pred.row_registry[: len(seen_rows)] == seen_rows
        seen_rows = list(pred.row_registry)


# ---------------------------------------------------------------------------
# replay identity against an independent non-caching oracle


def test_step_matches_never_cached_oracle():
    rng = np.random.default_rng(1)
    kern_r = MinKernel(radius=4.0, dim=2)
    kern_c = MinKernel(radius=4.0, dim=1)
    params = make_params(6, 6, eta=0.4, gamma=0.8)
    pred = InductivePredictor(kern_r, kern_c, params)
    row_pts = [rng.uniform(-4, 4, 2) for _ in range(6)]
    col_pts = [rng.uniform(-4, 4, 1) for _ in range(6)]
    for t in range(12):
        i, j = int(rng.integers(6)), int(rng.integers(6))
        rows = list(pred.row_registry)
        cols = list(pred.col_registry)
        log = list(pred.update_log)

        def position(registry, ident):
            for pos, existing in enumerate(registry):
                if np.array_equal(existing, ident):
                    return pos, False
            registry.append(ident)
            return len(registry) - 1, True

        pos_i, _ = position(rows, row_pts[i])
        pos_j, _ = position(cols, col_pts[j])
        expected = never_cached_ybar(
            pred, rows, cols, log, (pos_i, pos_j),
            (kern_r, kern_c), (pred.r_tilde_row, pred.r_tilde_col), params,
        )
        ybar, _ = pred.step(row_pts[i], col_pts[j])
        assert ybar == pytest.approx(expected, abs=1e-10)
        pred.commit(int(rng.choice((-1, 1))))


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
        sqrt_psd(gram_matrix(row_kernel, pred.row_registry)) / np.sqrt(2.0 * pred.r_tilde_row),
        sqrt_psd(gram_matrix(col_kernel, pred.col_registry)) / np.sqrt(2.0 * pred.r_tilde_col),
    )
    exponent = count_exponent(pred.kappa, params.eta, pred.update_log, *factors)
    ybar, _ = pred.step(0, 1)
    pos_i, pos_j = pred.row_registry.index(0), pred.col_registry.index(1)
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
