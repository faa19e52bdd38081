import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from megmc.inductive import InductivePredictor, run_inductive
from megmc.props import random_connected_graph
from megmc.quasidim import FactorPair, quasi_dim_factored
from megmc.sideinfo import (
    PrecomputedKernel,
    embedding_from_pd,
    identity_embedding,
    laplacian_from_graph,
    pd_laplacian,
)
from megmc.spectral import exp_sym
from megmc.synth import gen_biclustered
from megmc.transductive import (
    MatrixExpGradPredictor,
    Trace,
    TransductiveParams,
    TrialRecord,
    derive_eta,
    lanczos_margin,
    run,
    should_update,
    sign_predict,
)


def identity_params(m, n, **kw):
    defaults = dict(eta=1.0, gamma=1.0, d_hat=float(m + n), m=m, n=n)
    defaults.update(kw)
    return TransductiveParams(**defaults)


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError, match="eta"):
        TransductiveParams(eta=0.0, gamma=0.5, d_hat=4.0, m=2, n=2)
    with pytest.raises(ValueError, match="gamma"):
        TransductiveParams(eta=1.0, gamma=1.5, d_hat=4.0, m=2, n=2)
    with pytest.raises(ValueError, match="d_hat"):
        TransductiveParams(eta=1.0, gamma=0.5, d_hat=0.5, m=2, n=2)
    with pytest.raises(ValueError, match="m \\+ n"):
        TransductiveParams(eta=1.0, gamma=0.5, d_hat=4.0, m=1, n=1)


def test_derive_eta_values():
    # d_hat = 2 with log(m+n) = 2 and T = 4 gives sqrt(4/8)
    assert derive_eta(2.0, np.e**2 - 1.0, 1.0, 4.0) == pytest.approx(math.sqrt(0.5))
    n = 30
    assert derive_eta(5.0, n, n, n * n) == pytest.approx(
        math.sqrt(5.0 * math.log(2 * n) / (2.0 * n * n))
    )
    etas = [derive_eta(3.0, 4, 4, t) for t in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    with pytest.raises(ValueError):
        derive_eta(1.0, 2, 2, 0.0)


# ---------------------------------------------------------------------------
# decision rules


def test_sign_predict_tie_falls_to_minus_one():
    assert sign_predict(0.3, 0.3) == -1
    assert sign_predict(0.0, 0.0) == -1
    assert sign_predict(0.5, 0.2) == 1
    assert sign_predict(-0.1, -0.2) == 1


def test_should_update_conditions():
    nc = identity_params(2, 2, gamma=0.5)
    cons = identity_params(2, 2, gamma=0.5, non_conservative=False)
    # margin violation below gamma updates in non-conservative mode
    assert should_update(1, 0.25, nc)
    # equality at the threshold does not (strict inequality)
    assert not should_update(1, 0.5, nc)
    # conservative: only sign errors update; a confident correct answer never
    assert not should_update(1, 0.25, cons)
    assert should_update(1, -0.25, cons)
    # zero margin with a positive label: mistake (tie predicts -1) but no update
    assert sign_predict(0.0, 0.0) == -1
    assert not should_update(1, 0.0, cons)


# ---------------------------------------------------------------------------
# predictor state


def test_initial_density_trace_equals_d_hat():
    for d_hat, m, n in ((4.0, 2, 2), (7.3, 3, 2), (36.0, 10, 10)):
        params = identity_params(m, n, d_hat=d_hat)
        pred = MatrixExpGradPredictor(
            identity_embedding(m), identity_embedding(n), params
        )
        assert np.trace(pred.density_matrix()) == pytest.approx(d_hat, rel=1e-14)


def test_first_prediction_identity_sides():
    pred = MatrixExpGradPredictor(
        identity_embedding(2), identity_embedding(2), identity_params(2, 2)
    )
    ybar, yhat = pred.predict(0, 1, y_rand=0.0)
    assert ybar == pytest.approx(0.0, abs=1e-12)
    assert yhat == -1  # tie at zero falls to -1


def test_first_prediction_scaled_d_hat():
    params = identity_params(2, 2, d_hat=6.0)
    pred = MatrixExpGradPredictor(
        identity_embedding(2), identity_embedding(2), params
    )
    ybar, _ = pred.predict(1, 0)
    assert ybar == pytest.approx(6.0 / 4.0 - 1.0, rel=1e-12)


def test_first_prediction_general_sides():
    rng = np.random.default_rng(0)
    m, n = 4, 3
    a = rng.standard_normal((m, m))
    b = rng.standard_normal((n, n))
    m_side = a @ a.T + 0.4 * np.eye(m)
    n_side = b @ b.T + 0.4 * np.eye(n)
    params = identity_params(m, n, d_hat=9.0, gamma=0.5)
    pred = MatrixExpGradPredictor(
        embedding_from_pd(m_side), embedding_from_pd(n_side), params
    )
    for i in range(m):
        for j in range(n):
            x = pred.embed(i, j)
            ybar, _ = pred.predict(i, j)
            expected = 9.0 / (m + n) * float(x @ x) - 1.0
            assert ybar == pytest.approx(expected, rel=1e-12)


def test_margin_after_one_update_rank_one_closed_form():
    # kappa = 0 and a unit-norm embedding make the updated margin e^eta - 1
    eta = 0.7
    params = identity_params(2, 2, eta=eta)
    pred = MatrixExpGradPredictor(
        identity_embedding(2), identity_embedding(2), params
    )
    ybar, _ = pred.predict(0, 1)
    assert pred.update(1, 0, 1, 1, ybar)
    ybar2, yhat2 = pred.predict(0, 1)
    assert ybar2 == pytest.approx(math.exp(eta) - 1.0, rel=1e-12)
    assert yhat2 == 1


def test_margin_matches_dense_exponential():
    rng = np.random.default_rng(1)
    m, n = 3, 4
    params = identity_params(m, n, eta=0.3, gamma=0.5, d_hat=5.0)
    pred = MatrixExpGradPredictor(
        identity_embedding(m), identity_embedding(n), params
    )
    for t in range(1, 9):
        i = int(rng.integers(m))
        j = int(rng.integers(n))
        y = int(rng.choice((-1, 1)))
        ybar, _ = pred.predict(i, j)
        pred.update(t, i, j, y, ybar)
        x = pred.embed(i, j)
        dense = float(x @ exp_sym(pred.rebuilt_exponent()) @ x) - 1.0
        assert pred.margin(x) == pytest.approx(dense, abs=1e-10)


def test_replay_determinism():
    rng = np.random.default_rng(2)
    m, n = 4, 4
    params = identity_params(m, n, eta=0.4, gamma=0.5, d_hat=6.0)
    pred = MatrixExpGradPredictor(
        identity_embedding(m), identity_embedding(n), params
    )
    for t in range(1, 25):
        i, j = int(rng.integers(m)), int(rng.integers(n))
        y = int(rng.choice((-1, 1)))
        ybar, _ = pred.predict(i, j, float(rng.uniform(-0.5, 0.5)))
        pred.update(t, i, j, y, ybar)
    assert pred.update_log  # the loop must have produced updates to replay
    assert_allclose(pred._exponent, pred.rebuilt_exponent(), atol=1e-12)
    assert_allclose(
        pred.density_matrix(), pred.rebuilt_density_matrix(), atol=1e-10
    )


def test_update_rejects_bad_label():
    pred = MatrixExpGradPredictor(
        identity_embedding(2), identity_embedding(2), identity_params(2, 2)
    )
    with pytest.raises(ValueError, match="label"):
        pred.update(1, 0, 0, 0, 0.0)


def test_embedding_dimension_mismatch():
    with pytest.raises(ValueError, match="do not match"):
        MatrixExpGradPredictor(
            identity_embedding(3), identity_embedding(2), identity_params(2, 2)
        )


# ---------------------------------------------------------------------------
# Lanczos margin against the dense exponential


def random_symmetric(rng, q, spread):
    """Symmetric q x q matrix with spectrum roughly in [-spread, spread]."""
    a = rng.standard_normal((q, q))
    return spread * (a + a.T) / (2.0 * math.sqrt(q))


@pytest.mark.parametrize("q", [1, 2, 3, 60, 200])
@pytest.mark.parametrize("spread", [0.5, 4.0])
def test_lanczos_margin_matches_dense_exponential(q, spread):
    rng = np.random.default_rng(q)
    for _ in range(5):
        s = random_symmetric(rng, q, spread) + rng.uniform(-3.0, 0.0) * np.eye(q)
        x = rng.standard_normal(q)
        x *= rng.uniform(0.05, 1.0) / np.linalg.norm(x)  # |x| <= 1
        ybar, steps = lanczos_margin(s, x, eta=1.0)
        dense = float(x @ exp_sym(s) @ x) - 1.0
        assert abs(ybar - dense) <= 1e-12 * (1.0 + abs(dense))
        assert 1 <= steps <= q


def test_lanczos_margin_of_zero_vector_is_minus_one():
    s = random_symmetric(np.random.default_rng(3), 5, 2.0)
    assert lanczos_margin(s, np.zeros(5), eta=1.0) == (-1.0, 0)


def test_lanczos_margin_stops_at_step_one_on_an_invariant_start():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(30)
    x /= 2.0 * np.linalg.norm(x)
    # S = kappa I: every vector spans an invariant subspace
    kappa = math.log(7.0 / 30.0)
    ybar, steps = lanczos_margin(kappa * np.eye(30), x, eta=1.0)
    assert steps == 1
    assert ybar == pytest.approx(math.exp(kappa) / 4.0 - 1.0, rel=1e-14)
    # x an eigenvector, with eigenvalue 1.5, of a general S: the first
    # column of v is x / |x| up to sign
    v, _ = np.linalg.qr(np.column_stack([x, rng.standard_normal((30, 29))]))
    w = np.linspace(-2.0, 2.0, 30)
    w[0] = 1.5
    s = (v * w) @ v.T
    ybar, steps = lanczos_margin(s, x, eta=1.0)
    assert steps == 1
    assert ybar == pytest.approx(math.exp(1.5) / 4.0 - 1.0, rel=1e-13)


def test_lanczos_margin_overflow_names_ritz_value_and_eta():
    # exp(1e5) is not representable; from a start that is not an eigenvector
    # the Krylov space of this rank-one-plus-shift S closes at step 2, where
    # the overflowing Ritz value appears
    rng = np.random.default_rng(5)
    u = rng.standard_normal(8)
    u /= np.linalg.norm(u)
    s = 1e5 * np.outer(u, u) - 0.5 * np.eye(8)
    x = np.full(8, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"Ritz value 1e\+05 overflows exp; eta=100000.0 is too large"):
            lanczos_margin(s, x, eta=1e5)


# ---------------------------------------------------------------------------
# embedding norms (the eigenvalue-range guarantee)


def test_embedding_norms_capped_at_one():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        m_side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, m)))
        n_side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, n)))
        params = identity_params(m, n, gamma=0.5)
        pred = MatrixExpGradPredictor(
            embedding_from_pd(m_side), embedding_from_pd(n_side), params
        )
        for i in range(m):
            for j in range(n):
                x = pred.embed(i, j)
                # x x^T has one eigenvalue |x|^2, rest zero, so |x|^2 <= 1
                # pins the whole spectrum into [0, 1]
                assert float(x @ x) <= 1.0 + 1e-10


# ---------------------------------------------------------------------------
# comparator identities


def comparator_factor(p_hat, q_hat, row_emb, col_emb):
    # stacked factor Z with Z Z^T the comparator density matrix: B^T Z =
    # P_hat / sqrt(2) for each side's lower-triangular embedding factor B
    return np.vstack([solve_triangular(emb.factor, f, trans="T", lower=True)
                      for emb, f in ((row_emb, p_hat), (col_emb, q_hat))]) / math.sqrt(2.0)


def test_comparator_margin_and_trace_identities():
    rng = np.random.default_rng(4)
    for seed in range(3):
        inst = gen_biclustered(m=6, n=5, k=2, l=3, seed=seed)
        dec = inst.dec
        m, n, l = dec.m, dec.n, dec.l
        p_hat = (dec.r_matrix() @ dec.u_star) / math.sqrt(l)
        q_hat = dec.c_matrix()
        m_side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, m)))
        n_side = pd_laplacian(laplacian_from_graph(random_connected_graph(rng, n)))
        row_emb, col_emb = embedding_from_pd(m_side), embedding_from_pd(n_side)
        z = comparator_factor(p_hat, q_hat, row_emb, col_emb)
        w_star = z @ z.T
        pred = MatrixExpGradPredictor(
            row_emb, col_emb, identity_params(m, n, gamma=1.0 / math.sqrt(l))
        )
        u = dec.matrix()
        for i in range(m):
            for j in range(n):
                x = pred.embed(i, j)
                margin = float(x @ w_star @ x) - 1.0
                assert margin == pytest.approx(u[i, j] / math.sqrt(l), abs=1e-8)
        pair = FactorPair(p_hat, q_hat)
        assert np.trace(w_star) == pytest.approx(
            quasi_dim_factored(pair, m_side, n_side), abs=1e-8
        )


# ---------------------------------------------------------------------------
# runs


def all_ones_trials(m, n, repeats):
    trials = [(i, j, 1) for i in range(m) for j in range(n)]
    return trials * repeats


def test_run_empty():
    trace = run([], identity_embedding(2), identity_embedding(2),
                identity_params(2, 2), rng=0)
    assert len(trace) == 0
    assert trace.summary() == {
        "T": 0, "mistakes": 0, "updates": 0, "mistake_rate": 0.0
    }


def test_run_realizable_all_ones_bound():
    params = identity_params(2, 2, non_conservative=False)
    trace = run(all_ones_trials(2, 2, 2), identity_embedding(2),
                identity_embedding(2), params, rng=0)
    bound = 3.6 * 4.0 * math.log(4.0)
    assert trace.mistakes <= bound
    # every mistake here violates the conservative threshold, so it updates
    for rec in trace:
        assert rec.updated == (rec.y * rec.ybar < 0)


def test_run_rejects_bad_label():
    with pytest.raises(ValueError, match="label"):
        run([(0, 0, 2)], identity_embedding(2), identity_embedding(2),
            identity_params(2, 2), rng=0)


def run_identity_transductive(trials, params, rng):
    return run(trials, identity_embedding(params.m), identity_embedding(params.n),
               params, rng)


def run_identity_inductive(trials, params, rng):
    # a Gram of 2I over the registry embeds each identity as a column of
    # I / sqrt(2), as identity_embedding does
    pred = InductivePredictor(PrecomputedKernel(2.0 * np.eye(params.m)),
                              PrecomputedKernel(2.0 * np.eye(params.n)), params)
    return run_inductive(trials, pred, rng)


both_predictors = pytest.mark.parametrize(
    "drive", [run_identity_transductive, run_identity_inductive],
    ids=["transductive", "inductive"],
)


@both_predictors
def test_run_is_deterministic_given_seed(drive):
    rng = np.random.default_rng(5)
    trials = [(int(rng.integers(3)), int(rng.integers(3)),
               int(rng.choice((-1, 1)))) for _ in range(30)]
    params = identity_params(3, 3, eta=0.5, gamma=0.5)
    t1 = drive(trials, params, rng=42)
    t2 = drive(trials, params, rng=42)
    assert t1.updates > 0
    for a, b in zip(t1, t2):
        assert (a.ybar, a.y_rand, a.yhat, a.updated) == (b.ybar, b.y_rand, b.yhat, b.updated)


@both_predictors
def test_conservative_consumes_rng_like_nonconservative(drive):
    # the threshold draw is zeroed, not skipped, so both modes advance the
    # stream identically
    trials = [(0, 0, 1), (1, 1, -1), (0, 1, 1)]
    g1 = np.random.default_rng(7)
    drive(trials, identity_params(2, 2, non_conservative=False), rng=g1)
    g2 = np.random.default_rng(7)
    for _ in trials:
        g2.uniform(-1.0, 1.0)
    assert g1.uniform() == g2.uniform()


@both_predictors
def test_overflowing_margin_raises_naming_eta(drive):
    # the first update puts eta |x|^2 = 1e5 into the exponent, which exp
    # cannot represent, so the second margin would be inf
    params = identity_params(2, 2, eta=1e5)
    with pytest.raises(ValueError, match="eta=100000.0 is too large"):
        drive([(0, 0, 1), (0, 0, 1)], params, rng=0)


def test_conservative_never_updates_when_confidently_correct():
    rng = np.random.default_rng(6)
    trials = [(int(rng.integers(4)), int(rng.integers(4)),
               int(rng.choice((-1, 1)))) for _ in range(60)]
    params = identity_params(4, 4, eta=0.8, non_conservative=False)
    trace = run(trials, identity_embedding(4), identity_embedding(4), params, rng=8)
    for rec in trace:
        assert rec.y_rand == 0.0
        assert rec.mistake == (rec.yhat != rec.y)
        if not rec.mistake and rec.y * rec.ybar > 0:
            assert not rec.updated


# ---------------------------------------------------------------------------
# trace serialization


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    trials = [(int(rng.integers(3)), int(rng.integers(3)),
               int(rng.choice((-1, 1)))) for _ in range(12)]
    params = identity_params(3, 3, eta=0.3, gamma=0.5)
    trace = run(trials, identity_embedding(3), identity_embedding(3), params, rng=1)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,i,j,ybar,Y,yhat,y,updated,mistake"
    loaded = Trace.from_csv(path)
    assert len(loaded) == len(trace)
    for a, b in zip(trace, loaded):
        assert a == b


def test_trace_counts():
    trace = Trace([
        TrialRecord(1, 0, 0, 0.2, 0.0, 1, 1, True, False),
        TrialRecord(2, 0, 1, -0.4, 0.1, -1, 1, True, True),
        TrialRecord(3, 1, 0, 0.9, -0.1, 1, 1, False, False),
    ])
    assert trace.mistakes == 1
    assert trace.updates == 2
    assert trace.summary()["mistake_rate"] == pytest.approx(1 / 3)
