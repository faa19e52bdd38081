"""Inductive kernelized predictor and the transductive-equivalence harness.

Side information arrives as kernel evaluations over row/column
identities revealed online. Identities from update trials enter
append-only registries, and the update log records each update as
(trial, y_s, row position, col position) over them. Each trial rebuilds
the Gram matrices over the registered identities (plus the current
pair), takes PSD square roots, and forms the log-state exponent

    log(W) = log(d_hat/(m+n)) I + sum_s eta y_s x(s) x(s)^T

from the update log with transductive.count_exponent. Nothing else is
kept between trials: the per-trial cost is cubic in the registry sizes,
which matches the stated budget of the method. When the full identity universes are
finite and the transductive side matrices are the pseudoinverses of the
full Grams (with matched r_tilde values), the two predictors produce
identical outputs; equivalence_check drives both on shared trial and
threshold streams and reports the largest prediction gap.
"""

from __future__ import annotations

import numpy as np

from .sideinfo import embedding_from_pd, gram_matrix, squared_radius
from .spectral import eig_sym, pinv_psd, sqrt_psd
from .transductive import (
    Trace,
    TransductiveParams,
    _run_protocol,
    count_exponent,
    exp_margin,
    run as run_transductive,
    should_update,
    sign_predict,
)


def _resolve_r_tilde(kernel, override):
    if override is not None:
        val = float(override)
    else:
        default = kernel.default_r_tilde() if hasattr(kernel, "default_r_tilde") else None
        if default is None:
            raise ValueError(
                "kernel has no default r_tilde (domain supremum of K(x,x)); "
                "pass one explicitly"
            )
        val = float(default)
    if not val > 0:
        raise ValueError("r_tilde must be positive")
    return val


def _with_identity(registry, ident):
    """(points, position): the registry plus ident if it is new, and its position."""
    for pos, existing in enumerate(registry):
        if np.array_equal(existing, ident):
            return registry, pos
    return registry + [ident], len(registry)


class InductivePredictor:
    """Kernelized online predictor with append-only identity registries."""

    def __init__(self, row_kernel, col_kernel, params: TransductiveParams,
                 r_tilde_row=None, r_tilde_col=None):
        self.row_kernel = row_kernel
        self.col_kernel = col_kernel
        self.params = params
        self.r_tilde_row = _resolve_r_tilde(row_kernel, r_tilde_row)
        self.r_tilde_col = _resolve_r_tilde(col_kernel, r_tilde_col)
        self.kappa = float(np.log(params.d_hat / (params.m + params.n)))
        self.row_registry: list = []
        self.col_registry: list = []
        # update log entries: (trial, y_s, row position, col position);
        # positions index the registries, which only ever append
        self.update_log: list[tuple[int, int, int, int]] = []
        self._trial = 0
        self._pending = None

    @property
    def registry_sizes(self) -> tuple[int, int]:
        return len(self.row_registry), len(self.col_registry)

    def step(self, i_t, j_t, y_rand: float = 0.0):
        """Predict for identities (i_t, j_t); returns (ybar, yhat).

        The update decision is made afterwards by commit; until then the
        trial is held pending.
        """
        if self._pending is not None:
            raise RuntimeError("previous step was never committed")
        self._trial += 1
        rows, pos_i = _with_identity(self.row_registry, i_t)
        cols, pos_j = _with_identity(self.col_registry, j_t)
        row_gram = gram_matrix(self.row_kernel, rows)
        col_gram = gram_matrix(self.col_kernel, cols)
        sq_row = sqrt_psd(row_gram) / np.sqrt(2.0 * self.r_tilde_row)
        sq_col = sqrt_psd(col_gram) / np.sqrt(2.0 * self.r_tilde_col)
        exponent = count_exponent(self.kappa, self.params.eta, self.update_log,
                                  sq_row, sq_col)
        w, v = eig_sym(exponent)
        x_t = np.concatenate((sq_row[:, pos_i], sq_col[:, pos_j]))
        ybar = exp_margin(w, v, x_t, self.params.eta)
        self._pending = (self._trial, i_t, j_t, pos_i, pos_j, ybar)
        return ybar, sign_predict(ybar, y_rand)

    def commit(self, y: int) -> bool:
        """Settle the pending trial: registry/log growth on margin violation."""
        if self._pending is None:
            raise RuntimeError("no pending step to commit")
        if y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {y}")
        trial, i_t, j_t, pos_i, pos_j, ybar = self._pending
        self._pending = None
        if not should_update(y, ybar, self.params):
            return False
        # a position equal to the registry size marks an identity that was
        # new at step; only commit appends, so that still holds here
        if pos_i == len(self.row_registry):
            self.row_registry.append(i_t)
        if pos_j == len(self.col_registry):
            self.col_registry.append(j_t)
        self.update_log.append((trial, int(y), pos_i, pos_j))
        return True


def run_inductive(trials, predictor: InductivePredictor, rng,
                  row_identity=None, col_identity=None) -> Trace:
    """Online protocol driver for the inductive predictor.

    Trials carry integer indices (i, j, y); row_identity/col_identity
    map an index to the kernel identity (defaults to the index itself,
    which suits precomputed-Gram kernels). One threshold draw is
    consumed per trial regardless of mode.
    """
    row_identity = row_identity or (lambda i: i)
    col_identity = col_identity or (lambda j: j)
    return _run_protocol(
        trials, predictor.params, rng,
        lambda i, j, y_rand: predictor.step(row_identity(i), col_identity(j), y_rand),
        lambda t, i, j, y, ybar: predictor.commit(y),
        lambda: predictor.registry_sizes,
    )


def equivalence_check(row_points, col_points, row_kernel, col_kernel,
                      trials, params: TransductiveParams, seed: int) -> dict:
    """Drive both predictors on shared streams and report the prediction gap.

    The transductive side matrices are the pseudoinverses of the full
    Grams over the identity universes, and the inductive r_tilde values
    are pinned to the matching squared radii, which is exactly the
    regime where the two algorithms coincide. Returns a dict with the
    max per-trial |ybar| gap and agreement flags.
    """
    row_gram_full = gram_matrix(row_kernel, list(row_points))
    col_gram_full = gram_matrix(col_kernel, list(col_points))
    m_side = pinv_psd(row_gram_full)
    n_side = pinv_psd(col_gram_full)
    r_m = squared_radius(m_side)
    r_n = squared_radius(n_side)

    row_emb = embedding_from_pd(m_side)
    col_emb = embedding_from_pd(n_side)
    ind_pred = InductivePredictor(row_kernel, col_kernel, params,
                                  r_tilde_row=r_m, r_tilde_col=r_n)

    # identical seeds give identical threshold streams: both drivers
    # consume exactly one uniform draw per trial
    trials = list(trials)
    trace_t = run_transductive(trials, row_emb, col_emb, params,
                               np.random.default_rng(seed))
    trace_i = run_inductive(trials, ind_pred, np.random.default_rng(seed),
                            row_identity=lambda i: row_points[i],
                            col_identity=lambda j: col_points[j])

    gaps = [abs(a.ybar - b.ybar) for a, b in zip(trace_t, trace_i)]
    return {
        "max_gap": max(gaps) if gaps else 0.0,
        "predictions_equal": all(a.yhat == b.yhat for a, b in zip(trace_t, trace_i)),
        "updates_equal": all(a.updated == b.updated for a, b in zip(trace_t, trace_i)),
        "trace_transductive": trace_t,
        "trace_inductive": trace_i,
    }
