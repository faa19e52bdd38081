"""Dense symmetric eigendecomposition and spectral matrix functions.

Every matrix function in the package routes through the single
eigendecomposition path in this module so that all consumers share
identical numerics. Inputs are symmetrized as (A + A^T)/2 before
decomposition.
"""

from __future__ import annotations

import numpy as np

# Relative rank tolerance factor: dim * 2^-52. Eigenvalues <= factor * lambda_max
# are treated as zero by eig_psd and its callers.
_EPS = 2.0 ** -52


def symmetrize(a) -> np.ndarray:
    """Return (A + A^T)/2 after validating a finite square 2-d array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return (a + a.T) / 2.0


def eig_sym(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a symmetric matrix.

    Eigenvalues w come back ascending, eigenvectors as the columns of v.
    Eigenvector signs are fixed so the first component of non-negligible
    magnitude is positive, which makes decompositions reproducible across
    runs on the same build.
    """
    s = symmetrize(a)
    w, v = np.linalg.eigh(s)
    # sign convention: first nonzero component of each eigenvector positive
    mags = np.abs(v)
    thresholds = 1e-12 * mags.max(axis=0)
    first_nz = (mags > thresholds[None, :]).argmax(axis=0)
    signs = v[first_nz, np.arange(v.shape[1])]
    v = v * np.where(signs < 0.0, -1.0, 1.0)[None, :]
    return w, v


def recompose(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The symmetric matrix v diag(w) v^T."""
    out = (v * w[None, :]) @ v.T
    return (out + out.T) / 2.0


def eig_psd(a):
    """Eigendecomposition of a PSD matrix with its pseudo-inverted spectrum.

    Returns (w, v, inv): eig_sym's ascending eigenvalues and eigenvectors,
    and inv, which holds 1/w for eigenvalues above the rank threshold and
    0 for those at or below it. An eigenvalue below -threshold means the
    input is not PSD within tolerance and raises.
    """
    w, v = eig_sym(a)
    thr = len(w) * _EPS * max(float(w[-1]), 0.0)
    if w[0] < -thr:
        raise ValueError(f"matrix is not PSD within tolerance: min eigenvalue {w[0]:.3e}")
    inv = np.where(w > thr, 1.0, 0.0) / np.where(w > thr, w, 1.0)
    return w, v, inv


def pinv_psd(a) -> np.ndarray:
    """Spectral pseudoinverse of a PSD matrix (see eig_psd for the threshold)."""
    _, v, inv = eig_psd(a)
    return recompose(inv, v)


def sqrt_psd(a) -> np.ndarray:
    """Unique PSD square root, with eigenvalues clipped at 0 first."""
    w, v, _ = eig_psd(a)
    return recompose(np.sqrt(np.clip(w, 0.0, None)), v)


def exp_sym(a) -> np.ndarray:
    """Spectral matrix exponential of a symmetric matrix."""
    w, v = eig_sym(a)
    return recompose(np.exp(w), v)


def quad_form(a, u) -> float:
    """The scalar u^T A u with A symmetrized first."""
    s = symmetrize(a)
    u = np.asarray(u, dtype=float)
    if u.shape != (s.shape[0],):
        raise ValueError(f"vector shape {u.shape} does not match matrix dim {s.shape[0]}")
    return float(u @ s @ u)
