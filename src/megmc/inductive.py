"""Inductive kernelized predictor and the transductive-equivalence harness.

Side information arrives as kernel evaluations over row/column
identities revealed online. Trials name rows and columns by keys, which
the predictor's identity maps turn into kernel identities. Keys from
update trials enter append-only registries (dicts from key to position),
and the update log records each update as (trial, y_s, row position,
col position) over them. Between trials the predictor keeps the side
factors sqrt(K)/sqrt(2 r_tilde) of the registered Grams and the
log-state exponent over them

    log(W) = log(d_hat/(m+n)) I + sum_s eta y_s x(s) x(s)^T.

Every margin comes from transductive.lanczos_margin, Gauss quadrature
from a Lanczos run on the exponent started at the trial's x, so no step
eigendecomposes the exponent. A trial whose keys are registered runs it
on the kept exponent. A new key costs one kernel call, the PSD square
root of its side's Gram with the key appended (the one eigendecomposition
left in a step), and an exponent rebuilt from the update log with
transductive.count_exponent, which the margin is then read from. An
update adopts the trial's factors and adds its rank-one term; a trial
without one leaves the kept state as it was.

When the full identity universes are finite and the transductive side
matrices are the pseudoinverses of the full Grams (with matched r_tilde
values), the two predictors produce identical outputs; equivalence_check
drives both on shared trial and threshold streams and reports the
largest prediction gap.
"""

from __future__ import annotations

import numpy as np

from .sideinfo import embedding_from_pd, gram_matrix
# no step calls eig_sym; it stays bound here because the benchmark's tracer
# (perfbench/megbench) rebinds it in every predictor module and checks that
from .spectral import eig_sym, pinv_psd, sqrt_psd  # noqa: F401
from .transductive import (
    Trace,
    TransductiveParams,
    _run_protocol,
    count_exponent,
    lanczos_margin,
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


def _side_factor(kernel, identity, registry, key, r_tilde):
    """(sqrt(K) / sqrt(2 r_tilde), position of key), K the Gram over the
    registered keys plus key if it is new."""
    pos = registry.get(key, len(registry))
    gram = kernel([identity(k) for k in {**registry, key: pos}])
    return sqrt_psd(gram) / np.sqrt(2.0 * r_tilde), pos


class InductivePredictor:
    """Kernelized online predictor with append-only key registries.

    row_identity/col_identity map a row/column key to its kernel identity
    (default: the key itself); row_registry/col_registry map each key
    registered by an update to its position, in insertion order.
    """

    def __init__(self, row_kernel, col_kernel, params: TransductiveParams,
                 r_tilde_row=None, r_tilde_col=None,
                 row_identity=None, col_identity=None):
        self.row_kernel = row_kernel
        self.col_kernel = col_kernel
        self.params = params
        self.r_tilde_row = _resolve_r_tilde(row_kernel, r_tilde_row)
        self.r_tilde_col = _resolve_r_tilde(col_kernel, r_tilde_col)
        self.row_identity = row_identity or (lambda key: key)
        self.col_identity = col_identity or (lambda key: key)
        self.kappa = float(np.log(params.d_hat / (params.m + params.n)))
        self.row_registry: dict = {}
        self.col_registry: dict = {}
        # update log entries: (trial, y_s, row position, col position);
        # positions index the registries, which only ever append
        self.update_log: list[tuple[int, int, int, int]] = []
        self._trial = 0
        self._pending = None
        # side factors over the registries and the exponent built on them,
        # which a step on registered keys reads its margin off by Lanczos
        self._sq_row = self._sq_col = np.zeros((0, 0))
        self._exponent = np.zeros((0, 0))
        # Lanczos steps over all trials, and the most any one trial took
        self.lanczos_steps = 0
        self.lanczos_max_steps = 0

    @property
    def registry_sizes(self) -> tuple[int, int]:
        return len(self.row_registry), len(self.col_registry)

    def step(self, i, j, y_rand: float = 0.0):
        """Predict for row key i and column key j; returns (ybar, yhat).

        The update decision is made afterwards by commit; until then the
        trial is held pending.
        """
        if self._pending is not None:
            raise RuntimeError("previous step was never committed")
        self._trial += 1
        sq_row, pos_i = ((self._sq_row, self.row_registry[i]) if i in self.row_registry
                         else _side_factor(self.row_kernel, self.row_identity,
                                           self.row_registry, i, self.r_tilde_row))
        sq_col, pos_j = ((self._sq_col, self.col_registry[j]) if j in self.col_registry
                         else _side_factor(self.col_kernel, self.col_identity,
                                           self.col_registry, j, self.r_tilde_col))
        if i in self.row_registry and j in self.col_registry:
            exponent = self._exponent
        else:
            exponent = count_exponent(self.kappa, self.params.eta, self.update_log,
                                      sq_row, sq_col)
        x_t = np.concatenate((sq_row[:, pos_i], sq_col[:, pos_j]))
        ybar, steps = lanczos_margin(exponent, x_t, self.params.eta)
        self.lanczos_steps += steps
        if steps > self.lanczos_max_steps:
            self.lanczos_max_steps = steps
        self._pending = (self._trial, i, j, ybar, sq_row, sq_col, exponent, x_t)
        return ybar, sign_predict(ybar, y_rand)

    def commit(self, y: int) -> bool:
        """Settle the pending trial: on a margin violation the registries and
        log grow and the kept state adopts the trial's factors and update."""
        if self._pending is None:
            raise RuntimeError("no pending step to commit")
        if y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {y}")
        trial, i, j, ybar, sq_row, sq_col, exponent, x_t = self._pending
        self._pending = None
        if not should_update(y, ybar, self.params):
            return False
        # only commit registers keys, so a new key gets the position step gave it
        pos_i = self.row_registry.setdefault(i, len(self.row_registry))
        pos_j = self.col_registry.setdefault(j, len(self.col_registry))
        self.update_log.append((trial, int(y), pos_i, pos_j))
        self._sq_row, self._sq_col = sq_row, sq_col
        self._exponent = exponent + (self.params.eta * y) * np.outer(x_t, x_t)
        return True


def run_inductive(trials, predictor: InductivePredictor, rng) -> Trace:
    """Online protocol driver for the inductive predictor.

    Trials carry (i, j, y) with i and j the predictor's row and column
    keys. One threshold draw is consumed per trial regardless of mode.
    """
    return _run_protocol(
        trials, predictor.params, rng, predictor.step,
        lambda t, i, j, y, ybar: predictor.commit(y),
        lambda: predictor.registry_sizes,
    )


def equivalence_check(row_points, col_points, row_kernel, col_kernel,
                      trials, params: TransductiveParams, seed: int) -> dict:
    """Drive both predictors on shared streams and report the prediction gap.

    The transductive side matrices are the pseudoinverses of the full
    Grams over the identity universes, and the inductive r_tilde values
    are pinned to the matching squared radii, which is exactly the
    regime where the two algorithms coincide. Trial indices are the
    inductive keys and row_points[i], col_points[j] their identities, so
    equal points at two indices stay two identities on both sides.
    Returns a dict with the max per-trial |ybar| gap and agreement flags.
    """
    row_gram_full = gram_matrix(row_kernel, list(row_points))
    col_gram_full = gram_matrix(col_kernel, list(col_points))
    row_emb = embedding_from_pd(pinv_psd(row_gram_full))
    col_emb = embedding_from_pd(pinv_psd(col_gram_full))
    ind_pred = InductivePredictor(row_kernel, col_kernel, params,
                                  r_tilde_row=row_emb.squared_radius,
                                  r_tilde_col=col_emb.squared_radius,
                                  row_identity=lambda i: row_points[i],
                                  col_identity=lambda j: col_points[j])

    # identical seeds give identical threshold streams: both drivers
    # consume exactly one uniform draw per trial
    trials = list(trials)
    trace_t = run_transductive(trials, row_emb, col_emb, params,
                               np.random.default_rng(seed))
    trace_i = run_inductive(trials, ind_pred, np.random.default_rng(seed))

    gaps = [abs(a.ybar - b.ybar) for a, b in zip(trace_t, trace_i)]
    return {
        "max_gap": max(gaps) if gaps else 0.0,
        "predictions_equal": all(a.yhat == b.yhat for a, b in zip(trace_t, trace_i)),
        "updates_equal": all(a.updated == b.updated for a, b in zip(trace_t, trace_i)),
        "trace_transductive": trace_t,
        "trace_inductive": trace_i,
    }
