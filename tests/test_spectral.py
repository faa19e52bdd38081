from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning
from numpy.testing import assert_allclose

from megmc.spectral import (
    eig_sym,
    exp_sym,
    pinv_psd,
    quad_form,
    sqrt_psd,
    symmetrize,
)


def random_sym(rng, dim):
    a = rng.standard_normal((dim, dim))
    return (a + a.T) / 2


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    b = rng.standard_normal((dim, rank))
    return b @ b.T


def test_eig_identity():
    w, _ = eig_sym(np.eye(3))
    assert_allclose(w, [1.0, 1.0, 1.0])


def test_eig_two_by_two_laplacian():
    w, _ = eig_sym([[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose(w, [0.0, 2.0], atol=1e-12)


def test_eig_diagonal():
    w, v = eig_sym(np.diag([5.0, -2.0]))
    assert_allclose(w, [-2.0, 5.0])
    assert_allclose(np.abs(v), np.eye(2)[:, ::-1], atol=1e-12)


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = random_sym(rng, 50)
        w, v = eig_sym(a)
        scale = max(1.0, np.abs(a).max())
        assert np.abs((v * w) @ v.T - a).max() <= 1e-10 * scale
        assert np.abs(v.T @ v - np.eye(50)).max() <= 1e-10
        assert (np.diff(w) >= 0).all()


def test_eig_sign_convention_deterministic():
    rng = np.random.default_rng(1)
    a = random_sym(rng, 12)
    w1, v1 = eig_sym(a)
    w2, v2 = eig_sym(a.copy())
    assert np.array_equal(v1, v2)
    # first component of non-negligible size is positive
    for c in range(12):
        col = v1[:, c]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        assert col[nz[0]] > 0


def test_eig_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.zeros((2, 3)))


def test_pinv_frozen_example():
    got = pinv_psd([[1.0, -1.0], [-1.0, 1.0]])
    assert_allclose(got, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


def test_pinv_identity_and_zero():
    assert_allclose(pinv_psd(np.eye(4)), np.eye(4), atol=1e-12)
    assert_allclose(pinv_psd(np.zeros((2, 2))), np.zeros((2, 2)))


def test_pinv_involution_on_stable_input():
    rng = np.random.default_rng(2)
    a = random_psd(rng, 8)
    assert_allclose(pinv_psd(pinv_psd(a)), a, atol=1e-8 * np.abs(a).max())


def test_pinv_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        pinv_psd(np.diag([1.0, -1.0]))


def test_moore_penrose_identities():
    rng = np.random.default_rng(3)
    for dim, rank in [(6, 6), (10, 4), (15, 15), (12, 7)]:
        a = random_psd(rng, dim, rank)
        ap = pinv_psd(a)
        scale = max(1.0, np.abs(a).max())
        assert np.abs(a @ ap @ a - a).max() <= 1e-8 * scale
        assert np.abs(ap @ a @ ap - ap).max() <= 1e-8 * max(1.0, np.abs(ap).max())
        assert np.abs(ap - ap.T).max() <= 1e-12 * max(1.0, np.abs(ap).max())


def test_sqrt_examples():
    assert_allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)
    assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)
    a = np.array([[2.0, 2.0], [2.0, 3.0]])
    r = sqrt_psd(a)
    assert np.abs(r @ r - a).max() <= 1e-10


def test_sqrt_output_is_psd():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = sqrt_psd(random_psd(rng, 9, rank=5))
        w, _ = eig_sym(r)
        assert w[0] >= -1e-10


def test_exp_examples():
    assert_allclose(exp_sym(np.zeros((2, 2))), np.eye(2), atol=1e-12)
    assert_allclose(exp_sym(np.diag([np.log(2.0), np.log(3.0)])),
                    np.diag([2.0, 3.0]), atol=1e-12)


def test_exp_rank_one_closed_form():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6)
    a = float(x @ x)
    kappa, c = -0.4, 0.7
    expected = np.exp(kappa) * (np.eye(6) + (np.expm1(c * a) / a) * np.outer(x, x))
    got = exp_sym(kappa * np.eye(6) + c * np.outer(x, x))
    assert_allclose(got, expected, atol=1e-10)


def test_exp_trace_matches_eigenvalue_sum():
    rng = np.random.default_rng(7)
    a = random_sym(rng, 20)
    w, _ = eig_sym(a)
    tr = np.trace(exp_sym(a))
    assert abs(tr - np.exp(w).sum()) <= 1e-10 * abs(tr)


def test_quad_form():
    assert quad_form(np.eye(2), [3.0, 4.0]) == 25.0
    lap = [[1.0, -1.0], [-1.0, 1.0]]
    assert abs(quad_form(lap, [1.0, 1.0])) <= 1e-15
    assert quad_form(lap, [1.0, -1.0]) == 4.0
    with pytest.raises(ValueError):
        quad_form(np.eye(2), [1.0, 2.0, 3.0])


def test_symmetrize():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert_allclose(symmetrize(a), [[1.0, 1.0], [1.0, 1.0]])


def test_blas_thread_variables_precede_numpy(request):
    # the root conftest pins BLAS to one thread; that binds only if nothing
    # loaded numpy first, or each grid worker process runs several threads
    conftest = request.config.pluginmanager.get_plugin(
        str(request.config.rootpath / "conftest.py"))
    assert conftest is not None
    assert conftest.NUMPY_IMPORTED_FIRST is False


def test_linalg_warning_is_an_error():
    with pytest.raises(LinAlgWarning):
        warnings.warn("ill-conditioned matrix", LinAlgWarning)
