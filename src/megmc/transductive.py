"""Online matrix exponentiated gradient predictor, transductive form.

Side-information embeddings for every row and column identity are fixed
before learning starts. The predictor state lives in the log domain: a
scalar kappa = log(d_hat / (m+n)) on the diagonal plus the running sum
of eta * y_s * x_s x_s^T over update trials, and its history is the
update log of (trial, y_s, row, col) entries. The helpers shared with
the inductive predictor (count_exponent, the margin reads exp_margin and
lanczos_margin, and the protocol loop) live here. This predictor keeps
the exponent itself, adding one rank-one term per update, and
rematerializes its eigendecomposition only when an update has landed
since the last prediction, which is the dominant cost lever because
conservative runs update rarely. The inductive predictor reads its
margins by lanczos_margin instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .sideinfo import SideEmbedding
from .spectral import eig_sym, exp_sym, recompose


@dataclass(frozen=True)
class TransductiveParams:
    """Run parameters: learning rate, margin, quasi-dimension estimate, mode."""

    eta: float
    gamma: float
    d_hat: float
    m: int
    n: int
    non_conservative: bool = True

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must lie in (0, 1]")
        if not self.d_hat >= 1:
            raise ValueError("d_hat must be >= 1")
        if self.m < 1 or self.n < 1 or self.m + self.n < 3:
            raise ValueError("need m >= 1, n >= 1 and m + n >= 3")


def derive_eta(d_hat: float, m: float, n: float, t_horizon: float) -> float:
    """Learning rate sqrt(d_hat log(m+n) / (2 T)) for a known horizon."""
    if not (d_hat > 0 and m > 0 and n > 0 and t_horizon > 0):
        raise ValueError("all arguments must be positive")
    return float(np.sqrt(d_hat * np.log(m + n) / (2.0 * t_horizon)))


@dataclass
class TrialRecord:
    t: int
    i: int
    j: int
    ybar: float
    y_rand: float
    yhat: int
    y: int
    updated: bool
    mistake: bool
    registry_rows: int | None = None
    registry_cols: int | None = None


_BASE_COLUMNS = ["t", "i", "j", "ybar", "Y", "yhat", "y", "updated", "mistake"]
_REGISTRY_COLUMNS = ["registry_rows", "registry_cols"]


class Trace(list):
    """Per-trial records of one run plus cumulative mistake/update counts."""

    @property
    def mistakes(self) -> int:
        return sum(r.mistake for r in self)

    @property
    def updates(self) -> int:
        return sum(r.updated for r in self)

    def summary(self) -> dict:
        t = len(self)
        return {
            "T": t,
            "mistakes": self.mistakes,
            "updates": self.updates,
            "mistake_rate": self.mistakes / t if t else 0.0,
        }

    def _has_registry(self) -> bool:
        return any(r.registry_rows is not None for r in self)

    def to_csv(self, path):
        cols = _BASE_COLUMNS + (_REGISTRY_COLUMNS if self._has_registry() else [])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for r in self:
                row = [r.t, r.i, r.j, repr(r.ybar), repr(r.y_rand), r.yhat, r.y,
                       int(r.updated), int(r.mistake)]
                if len(cols) > len(_BASE_COLUMNS):
                    row += [r.registry_rows, r.registry_cols]
                writer.writerow(row)

    @classmethod
    def from_csv(cls, path) -> "Trace":
        trace = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[: len(_BASE_COLUMNS)] != _BASE_COLUMNS:
                raise ValueError(f"unexpected trace header in {path}: {header}")
            has_reg = len(header) > len(_BASE_COLUMNS)
            for row in reader:
                if not row:
                    continue
                rec = TrialRecord(
                    t=int(row[0]), i=int(row[1]), j=int(row[2]),
                    ybar=float(row[3]), y_rand=float(row[4]),
                    yhat=int(row[5]), y=int(row[6]),
                    updated=bool(int(row[7])), mistake=bool(int(row[8])),
                )
                if has_reg:
                    rec.registry_rows = int(row[9])
                    rec.registry_cols = int(row[10])
                trace.append(rec)
        return trace


def should_update(y: int, ybar: float, params: TransductiveParams) -> bool:
    """Margin-violation test y * ybar < gamma * [non-conservative], strict."""
    threshold = params.gamma if params.non_conservative else 0.0
    return y * ybar < threshold


def sign_predict(ybar: float, y_rand: float) -> int:
    """Prediction sign with ties falling to -1: +1 iff ybar - y_rand > 0."""
    return 1 if ybar - y_rand > 0 else -1


def count_exponent(kappa: float, eta: float, update_log, row_factor: np.ndarray,
                   col_factor: np.ndarray) -> np.ndarray:
    """kappa I + eta sum_s y_s x_s x_s^T from an update log, x_s stacking
    column r_s of row_factor (B_row) over column c_s of col_factor (B_col).

    The sum depends on the log only through the signed count matrix
    Y[r, c] = sum of y_s over updates at (r, c), with B = blockdiag(B_row, B_col):
    S = kappa I + eta B [[diag(Y 1), Y], [Y^T, diag(Y^T 1)]] B^T.
    """
    q_r, q_c = row_factor.shape[0], col_factor.shape[0]
    counts = np.zeros((row_factor.shape[1], col_factor.shape[1]))
    if update_log:
        _, ys, rows, cols = zip(*update_log)
        np.add.at(counts, (rows, cols), ys)
    s = np.empty((q_r + q_c, q_r + q_c))
    s[:q_r, :q_r] = (row_factor * counts.sum(axis=1)) @ row_factor.T
    s[:q_r, q_r:] = row_factor @ counts @ col_factor.T
    s[q_r:, :q_r] = s[:q_r, q_r:].T
    s[q_r:, q_r:] = (col_factor * counts.sum(axis=0)) @ col_factor.T
    s *= eta
    s[np.diag_indices_from(s)] += kappa
    return s


def exp_margin(w: np.ndarray, v: np.ndarray, x: np.ndarray, eta: float) -> float:
    """x^T exp(S) x - 1 from the eigendecomposition (w, v) of the exponent S.

    An overflow of exp raises ValueError rather than yield an inf or nan margin.
    """
    z = v.T @ x
    with np.errstate(over="ignore", invalid="ignore"):
        ybar = float(np.exp(w) @ (z * z)) - 1.0
    if not math.isfinite(ybar):
        raise ValueError(
            f"margin is not finite: the exponent's largest eigenvalue {w[-1]:.4g} "
            f"overflows exp; eta={eta!r} is too large for this run"
        )
    return ybar


# a Lanczos margin has converged when two successive quadrature estimates
# agree to this fraction of 1 + |ybar|; estimates start once the Gauss
# remainder bound falls to _LANCZOS_GATE, since each one costs a dstev call
# and two estimates agree only when the remainder is about that small
_LANCZOS_RTOL = 1e-12
_LANCZOS_GATE = 100 * _LANCZOS_RTOL
_EXP_MAX = math.log(np.finfo(float).max)


def lanczos_margin(s: np.ndarray, x: np.ndarray, eta: float) -> tuple[float, int]:
    """x^T exp(S) x - 1 by Gauss quadrature from Lanczos on S started at x.

    Step k extends the orthonormal Krylov basis by the three-term
    recurrence and one classical Gram-Schmidt pass against the basis. The
    k-point estimate is |x|^2 e_1^T exp(T_k) e_1, with the tridiagonal T_k
    decomposed by LAPACK dstev; its error is at most
    |x|^2 e^lambda_max (beta_1 ... beta_k)^2 / (2k)!, and estimates are
    taken only once that bound, with T_k's Gershgorin edge for lambda_max,
    is below _LANCZOS_GATE. The run stops when two successive estimates
    agree to _LANCZOS_RTOL (1 + |ybar|), when beta_k vanishes (the basis
    spans an invariant subspace, so the estimate is exact) or at k = dim S.
    Returns (ybar, k); a zero x gives (-1.0, 0). A Ritz value that
    overflows exp raises ValueError naming eta.
    """
    norm2 = float(x @ x)
    if norm2 == 0.0:
        return -1.0, 0
    q = x.shape[0]
    exp_limit = _EXP_MAX - math.log(norm2)
    basis = np.empty((q, q))
    alphas, betas = np.empty(q), np.zeros(q)
    basis[0] = x / math.sqrt(norm2)
    previous = math.inf
    beta, edge, remainder = 0.0, -math.inf, norm2
    for k in range(q):
        v = basis[k]
        w = s @ v
        alpha = float(v @ w)
        w -= beta * basis[k - 1] + alpha * v if k else alpha * v
        span = basis[: k + 1]
        w -= (span @ w) @ span
        beta_prev, beta = beta, math.sqrt(float(w @ w))
        alphas[k] = alpha
        if alpha + beta_prev + beta > edge:
            edge = alpha + beta_prev + beta
        remainder *= beta * beta / ((2 * k + 1) * (2 * k + 2))
        exact = k + 1 == q or beta <= 1e-12 * (abs(alpha) + beta_prev)
        if (exact or previous < math.inf
                or remainder * math.exp(min(edge, _EXP_MAX)) <= _LANCZOS_GATE):
            theta, z, info = lapack.dstev(alphas[: k + 1], betas[: max(k, 1)])
            if info:
                raise np.linalg.LinAlgError(f"dstev failed to converge (info={info})")
            if not theta[-1] <= exp_limit:  # a nan fails too
                raise ValueError(
                    f"margin is not finite: the exponent's largest Ritz value "
                    f"{theta[-1]:.4g} overflows exp; eta={eta!r} is too large for this run"
                )
            estimate = norm2 * float(np.exp(theta) @ (z[0] * z[0]))
            if exact or abs(estimate - previous) <= _LANCZOS_RTOL * (1.0 + abs(estimate - 1.0)):
                break
            previous = estimate
        betas[k] = beta
        basis[k + 1] = w / beta
    return estimate - 1.0, k + 1


class MatrixExpGradPredictor:
    """Transductive predictor over fixed row/column embeddings."""

    def __init__(self, row_embedding: SideEmbedding, col_embedding: SideEmbedding,
                 params: TransductiveParams):
        if row_embedding.dim != params.m or col_embedding.dim != params.n:
            raise ValueError("embedding dimensions do not match params (m, n)")
        self.row_embedding = row_embedding
        self.col_embedding = col_embedding
        self.params = params
        self.kappa = float(np.log(params.d_hat / (params.m + params.n)))
        q = params.m + params.n
        self._exponent = self.kappa * np.eye(q)
        # update log entries: (trial, y_s, i_s, j_s) for every committed update
        self.update_log: list[tuple[int, int, int, int]] = []
        # eigendecomposition cache of the exponent; valid while the update
        # log is unchanged
        self._cache_w = np.full(q, self.kappa)
        self._cache_v = np.eye(q)
        self._dirty = False

    def embed(self, i: int, j: int) -> np.ndarray:
        """Joint embedding: row column i stacked over col column j, norm <= 1."""
        return np.concatenate(
            (self.row_embedding.column(i), self.col_embedding.column(j))
        )

    def _refresh(self):
        if self._dirty:
            self._cache_w, self._cache_v = eig_sym(self._exponent)
            self._dirty = False

    def margin(self, x: np.ndarray) -> float:
        """x^T exp(S) x - 1 via the cached eigendecomposition of S."""
        self._refresh()
        return exp_margin(self._cache_w, self._cache_v, x, self.params.eta)

    def predict(self, i: int, j: int, y_rand: float = 0.0):
        """Return (ybar, yhat) for the queried entry."""
        ybar = self.margin(self.embed(i, j))
        return ybar, sign_predict(ybar, y_rand)

    def update(self, t: int, i: int, j: int, y: int, ybar: float) -> bool:
        """Apply the exponentiated gradient step if the margin is violated."""
        if y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {y}")
        if not should_update(y, ybar, self.params):
            return False
        x = self.embed(i, j)
        self._exponent += (self.params.eta * y) * np.outer(x, x)
        self.update_log.append((t, y, i, j))
        self._dirty = True
        return True

    def density_matrix(self) -> np.ndarray:
        """Materialized density matrix exp(kappa I + sum of update terms)."""
        self._refresh()
        return recompose(np.exp(self._cache_w), self._cache_v)

    def rebuilt_exponent(self) -> np.ndarray:
        """Exponent recomputed from the update log alone (replay check)."""
        return count_exponent(self.kappa, self.params.eta, self.update_log,
                              self.row_embedding.factor, self.col_embedding.factor)

    def rebuilt_density_matrix(self) -> np.ndarray:
        return exp_sym(self.rebuilt_exponent())


def _run_protocol(trials, params: TransductiveParams, rng, predict, settle,
                  registry_sizes=None) -> Trace:
    """The online protocol loop behind run and inductive.run_inductive.

    Each trial calls predict(i, j, y_rand) -> (ybar, yhat), then
    settle(t, i, j, y, ybar) -> updated, once each; registry_sizes(),
    if given, fills the registry columns. One uniform(-gamma, gamma)
    draw from rng is consumed per trial in both modes, so conservative
    and non-conservative runs, and the two predictors, see the same stream
    seed for seed (the draw is zeroed, not skipped, in conservative mode).
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    trace = Trace()
    for t, (i, j, y) in enumerate(trials, start=1):
        y = int(y)
        if y not in (-1, 1):
            raise ValueError(f"label at trial {t} must be -1 or +1, got {y}")
        draw = float(rng.uniform(-params.gamma, params.gamma))
        y_rand = draw if params.non_conservative else 0.0
        ybar, yhat = predict(i, j, y_rand)
        updated = settle(t, i, j, y, ybar)
        n_rows, n_cols = registry_sizes() if registry_sizes else (None, None)
        trace.append(TrialRecord(
            t=t, i=int(i), j=int(j), ybar=ybar, y_rand=y_rand, yhat=yhat,
            y=y, updated=updated, mistake=(yhat != y),
            registry_rows=n_rows, registry_cols=n_cols,
        ))
    return trace


def run(trials, row_embedding: SideEmbedding, col_embedding: SideEmbedding,
        params: TransductiveParams, rng) -> Trace:
    """Run the online protocol over a trial sequence of (i, j, y) triples.

    rng (a Generator or an integer seed) supplies one threshold draw per
    trial in both modes.
    """
    predictor = MatrixExpGradPredictor(row_embedding, col_embedding, params)
    return _run_protocol(trials, params, rng, predictor.predict, predictor.update)
