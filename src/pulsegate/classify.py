"""RBF-kernel SVMs for liveness classification, trained by an SMO dual solver.

Labels follow a fixed convention: LIVE = +1, ANOMALOUS = -1.  Decision values
at exactly zero resolve to ANOMALOUS (fail-safe).  Feature standardization is
fitted on the training data and stored inside the model; it can be disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError, check_positive, from_json

LIVE = 1
ANOMALOUS = -1

KKT_TOL = 1e-3
_SV_EPS = 1e-10


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Gram matrix exp(-gamma * ||a_i - b_j||^2), each element independent of the other rows."""
    sq = np.zeros((a.shape[0], b.shape[0]))
    for f in range(a.shape[1]):
        sq += (a[:, f, None] - b[None, :, f]) ** 2
    return np.exp(-gamma * sq)


@dataclass
class SvmModel:
    """A fitted RBF SVM; its fields are the keys of its JSON file.

    decision(x) = dual_coef . k(support_vectors, (x - scaler_mean) / scaler_std) + bias
    """

    kind: str  # "two_class" or "one_class"
    gamma: float
    support_vectors: np.ndarray  # already standardized rows
    dual_coef: np.ndarray        # alpha_i * y_i (two-class) or alpha_i (one-class)
    bias: float
    scaler_mean: np.ndarray
    scaler_std: np.ndarray       # identity (zeros, ones) when fitted unstandardized
    C: float = 1.0
    nu: float = 0.5

    def __post_init__(self):
        for name in ("support_vectors", "dual_coef", "scaler_mean", "scaler_std"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.support_vectors.ndim != 2 or self.support_vectors.size == 0:
            raise InvalidInputError("support_vectors must be a non-empty 2-D array")
        rows, columns = self.support_vectors.shape
        if self.dual_coef.shape != (rows,):
            raise InvalidInputError(f"dual_coef must hold one value per support vector ({rows})")
        for name in ("scaler_mean", "scaler_std"):
            if getattr(self, name).shape != (columns,):
                raise InvalidInputError(f"{name} must hold one value per column ({columns})")
        if self.kind not in ("two_class", "one_class"):
            raise InvalidInputError(f"kind {self.kind!r} must be 'two_class' or 'one_class'")
        check_positive(self.gamma, "gamma")
        for name in ("support_vectors", "dual_coef", "bias", "scaler_mean", "scaler_std"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvalidInputError(f"{name} must be finite")
        if np.any(self.scaler_std <= 0):
            raise InvalidInputError("scaler_std entries must be positive")

    def to_dict(self):
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in vars(self).items()}

    @classmethod
    def from_dict(cls, payload):
        return from_json(cls, payload, "SVM model")


def _smo(q, p, y, upper, alpha0, tol, max_iter, record_objective):
    """SMO with maximal-violating-pair selection for both SVM duals.

    Minimizes 0.5 a'Qa + p'a subject to 0 <= a <= upper, with y'a (y = +-1)
    held at its start value.  A pair step moves a_i by +y_i*s and a_j by
    -y_j*s; s is the second-order step gap / (Q_ii + Q_jj - 2 y_i y_j Q_ij)
    along that direction (Fan, Chen & Lin, JMLR 2005), clipped to the box.
    The bias is the mean of -y*grad over the free variables.  Returns (alpha,
    bias, n_iter, kkt_gap, objective_history); raises NumericalError
    when max_iter passes with the gap still above tol.
    """
    alpha = alpha0.copy()
    grad = np.sum(q * alpha, axis=1) + p
    history = []

    def violators():
        up = ((y > 0) & (alpha < upper - _SV_EPS)) | ((y < 0) & (alpha > _SV_EPS))
        lo = ((y < 0) & (alpha < upper - _SV_EPS)) | ((y > 0) & (alpha > _SV_EPS))
        return -y * grad, up, lo

    gap = np.inf
    for it in range(1, max_iter + 1):
        yg, up, lo = violators()
        if not up.any() or not lo.any():
            gap = 0.0
            break
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        j = int(np.argmin(np.where(lo, yg, np.inf)))
        gap = yg[i] - yg[j]
        if gap <= tol:
            break
        quad = max(q[i, i] + q[j, j] - 2.0 * y[i] * y[j] * q[i, j], 1e-12)
        step = gap / quad
        step = min(step, upper - alpha[i] if y[i] > 0 else alpha[i])
        step = min(step, alpha[j] if y[j] > 0 else upper - alpha[j])
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        grad += step * (q[:, i] * y[i] - q[:, j] * y[j])
        if record_objective:
            history.append(0.5 * float(np.sum(alpha * (grad + p))))
    else:
        raise NumericalError(
            f"SMO stopped at max_iter={max_iter} with KKT gap {gap:.3g} > tol {tol:.3g}")
    yg, up, lo = violators()
    free = (alpha > _SV_EPS) & (alpha < upper - _SV_EPS)
    if free.any():
        bias = float(np.mean(yg[free]))
    else:
        bias = float((np.where(up, yg, -np.inf).max() + np.where(lo, yg, np.inf).min()) / 2.0)
    return alpha, bias, it, float(gap), history


def smo_solve_two_class(kernel: np.ndarray, y: np.ndarray, C: float,
                        tol: float = KKT_TOL, max_iter: int = 200_000,
                        record_objective: bool = False):
    """SMO on the C-SVM dual: min 0.5 a'Qa - e'a, Q = yy'K, 0 <= a <= C, y'a = 0.

    Returns (alpha, bias, n_iter, kkt_gap, objective_history).
    """
    q = y[:, None] * y[None, :] * kernel
    return _smo(q, -np.ones(y.size), y, C, np.zeros(y.size), tol, max_iter,
                record_objective)


def smo_solve_one_class(kernel: np.ndarray, nu: float, tol: float = KKT_TOL,
                        max_iter: int = 200_000, record_objective: bool = False):
    """SMO on the one-class dual: min 0.5 a'Ka, 0 <= a <= 1, sum(a) = nu*n.

    Returns (alpha, rho, n_iter, kkt_gap, objective_history); the decision
    function is k(sv, x) . alpha - rho.
    """
    n = kernel.shape[0]
    # the first floor(nu*n) alphas at 1, the remainder of the budget on the next
    alpha0 = np.clip(nu * n - np.arange(n), 0.0, 1.0)
    alpha, bias, it, gap, history = _smo(kernel, 0.0, np.ones(n), 1.0, alpha0, tol,
                                         max_iter, record_objective)
    return alpha, -bias, it, gap, history


def _check_features(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidInputError("feature matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("features must be finite")
    return x


def _fit(x: np.ndarray, standardize: bool, dual, **hyper) -> SvmModel:
    """An RBF SVM on the rows `x`, the other `SvmModel` fields in `hyper`.

    `dual(kernel)` solves the SVM's dual on the Gram matrix of the
    standardized rows and returns (alpha, dual coefficients, bias); the rows
    with alpha above zero are the support vectors.
    """
    if standardize:
        std = x.std(axis=0)
        mean, std = x.mean(axis=0), np.where(std > 0, std, 1.0)  # constant dims pass through
    else:
        mean, std = np.zeros(x.shape[1]), np.ones(x.shape[1])
    xs = (x - mean) / std
    # gamma = 1 / (n_features * var(X)), the common 'scale' heuristic
    gamma = 1.0 / (x.shape[1] * (float(xs.var()) or 1.0))
    alpha, coef, bias = dual(rbf_kernel(xs, xs, gamma))
    keep = alpha > _SV_EPS
    return SvmModel(gamma=gamma, support_vectors=xs[keep], dual_coef=coef[keep],
                    bias=bias, scaler_mean=mean, scaler_std=std, **hyper)


def fit_two_class(x: np.ndarray, y: np.ndarray, C: float = 1.0,
                  tol: float = KKT_TOL, standardize: bool = True) -> SvmModel:
    """Train a two-class RBF SVM on labels {LIVE, ANOMALOUS}."""
    check_positive(C, "C")
    x = _check_features(x)
    y = np.asarray(y, dtype=float)
    if y.shape != (x.shape[0],):
        raise InvalidInputError("labels must be one per feature row")
    if not (np.any(y > 0) and np.any(y < 0)):
        raise InvalidInputError("two-class fit needs both classes present")

    def dual(kernel):
        alpha, bias, *_ = smo_solve_two_class(kernel, y, C, tol)
        return alpha, alpha * y, bias

    return _fit(x, standardize, dual, kind="two_class", C=C)


def fit_one_class(x: np.ndarray, nu: float = 0.5,
                  tol: float = KKT_TOL, standardize: bool = True) -> SvmModel:
    """Train a one-class RBF SVM on live-only feature rows."""
    if not 0.0 < nu <= 1.0:
        raise InvalidInputError("nu must be in (0, 1]")
    x = _check_features(x)
    if x.shape[0] < 2.0 / nu:
        raise InvalidInputError(
            f"one-class fit with nu={nu} needs at least {int(np.ceil(2 / nu))} rows")

    def dual(kernel):
        alpha, rho, *_ = smo_solve_one_class(kernel, nu, tol)
        return alpha, alpha, -rho

    return _fit(x, standardize, dual, kind="one_class", nu=nu)


def decision_values(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Signed decision values for feature rows (positive means LIVE).

    Each row is reduced on its own, so batch and single-row calls are bit-identical.
    """
    x = _check_features(np.atleast_2d(x))
    if x.shape[1] != model.scaler_mean.size:
        raise InvalidInputError(
            f"feature rows have {x.shape[1]} columns; the model takes {model.scaler_mean.size}")
    xs = (x - model.scaler_mean) / model.scaler_std
    kernel = rbf_kernel(xs, model.support_vectors, model.gamma)
    return np.sum(kernel * model.dual_coef, axis=1) + model.bias


def predict(model: SvmModel, x: np.ndarray):
    """Labels and decision values; zero decisions resolve to ANOMALOUS."""
    values = decision_values(model, x)
    labels = np.where(values > 0.0, LIVE, ANOMALOUS)
    return labels, values


def frame_accuracy(window_labels, window_centers_s, frame_labels, fps: float,
                   window_s: float = 10.0):
    """(correct, total): the frames whose nearest-window prediction matches
    the label, and all frames.

    Every frame must fall within half a window of some window center (full
    coverage); otherwise an InvalidInputError is raised.
    """
    window_labels = np.asarray(window_labels)
    centers = np.asarray(window_centers_s, dtype=float)
    frame_labels = np.asarray(frame_labels)
    if window_labels.size == 0:
        raise InvalidInputError("no windows to map frames onto")
    frame_times = np.arange(frame_labels.size) / fps
    low = centers.min() - window_s / 2.0
    high = centers.max() + window_s / 2.0
    uncovered = (frame_times < low - 1e-9) | (frame_times > high + 1e-9)
    if uncovered.any():
        raise InvalidInputError(f"{int(uncovered.sum())} frames outside window coverage")
    nearest = np.argmin(np.abs(frame_times[:, None] - centers[None, :]), axis=1)
    return int(np.sum(window_labels[nearest] == frame_labels)), frame_labels.size
