"""Per-example reference formulas and the numerical oracles that check them.

The package computes every loss and gradient a plan needs in batched
kernels. The one-example formulas here are what the kernel tests and the
acceptance battery compare those kernels against: the cross entropy, the
corrected loss's closed-form minimum over the label ball with its
envelope-rule gradient, and the mean of a loss over a dataset. No plan runs
them, so they live beside the tests rather than in the package, where a
kernel change could edit its own oracle. `fd_grad` and `ball_min_oracle`
check these formulas in turn, by finite differences and by projected
gradient descent over the ball.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from augbias.augment import PlantedParams
from augbias.core import LabeledSet, as_vec, softmax_rows
from augbias.losses import _P_NORM_FLOOR, _corrected_labels_t
from augbias.models import EvalSet, batch_scores, eval_scores, forward, label_grad


# ---------------------------------------------------------------------------
# numerical oracles


def fd_grad(fn, w, step=1e-5):
    """Central-difference gradient oracle."""
    g = np.empty_like(w)
    for i in range(w.size):
        up, dn = w.copy(), w.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (fn(up) - fn(dn)) / (2 * step)
    return g


def ball_min_oracle(y, p, delta, steps=3000, lr=0.02):
    """Projected-gradient minimizer of <z, p> over the ball ||z - y|| <= delta."""
    z = np.array(y, dtype=np.float64)
    for _ in range(steps):
        z = z - lr * p
        diff = z - y
        nrm = np.linalg.norm(diff)
        if nrm > delta:
            z = y + diff * (delta / nrm)
    return float(z @ p)


# ---------------------------------------------------------------------------
# cross entropy at one example


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class GradSample:
    loss: float
    grad: np.ndarray


def p_from_scores(scores) -> np.ndarray:
    """Negative log-softmax of a score vector: p_i = logsumexp(s) - s_i."""
    s = as_vec(scores, name="scores")
    if s.shape[0] < 2:
        raise ValueError("need at least 2 classes")
    m = np.max(s)
    lse = m + np.log(np.sum(np.exp(s - m)))
    return lse - s


def p_of(w: np.ndarray, x) -> np.ndarray:
    return p_from_scores(forward(w, x))


def _check_simplex_label(y: np.ndarray) -> None:
    # ce_loss accepts labels on the simplex within 1e-6; anything further off
    # is a caller bug rather than rounding.
    if abs(float(np.sum(y)) - 1.0) > 1e-6 or float(np.min(y)) < -1e-6:
        raise ValueError("label must lie on the probability simplex (tolerance 1e-6)")


def ce_loss(y, scores) -> float:
    """Cross entropy <y, p(scores)> for a simplex label y."""
    p = p_from_scores(scores)
    yv = as_vec(y, size=p.shape[0], name="y")
    _check_simplex_label(yv)
    return float(yv @ p)


def ce_grad(w: np.ndarray, x, y) -> GradSample:
    """Loss and exact parameter gradient of the cross entropy at one example.

    The label may be any finite vector, not just a simplex point: the gradient
    <y, grad p> is linear in y, and the corrected-loss envelope evaluates it at
    ball minimizers that sit strictly off the simplex.
    """
    yv = as_vec(y, name="y")
    xv = as_vec(x, size=w.size // yv.size, name="x")
    scores = forward(w, xv)
    loss = float(yv @ p_from_scores(scores))
    grad = label_grad(w, xv[None, :], yv[None, :])
    return GradSample(loss=loss, grad=check_finite(grad, "grad"))


# ---------------------------------------------------------------------------
# corrected loss at one example


@dataclass(frozen=True)
class CorrectedLossResult:
    value: float
    minimizer_z: np.ndarray
    grad: np.ndarray | None = None


def loss_a(y_tilde, scores, delta_y: float) -> CorrectedLossResult:
    """Closed-form minimum of the cross entropy over the label ball."""
    if not (delta_y >= 0 and np.isfinite(delta_y)):
        raise ValueError("delta_y must be nonnegative and finite")
    p = p_from_scores(scores)
    y = as_vec(y_tilde, size=p.shape[0], name="y_tilde")
    _check_simplex_label(y)
    pnorm = float(np.linalg.norm(p))
    if pnorm < _P_NORM_FLOOR:
        return CorrectedLossResult(value=float(y @ p), minimizer_z=y.copy())
    z = y - (delta_y / pnorm) * p
    return CorrectedLossResult(value=float(y @ p) - delta_y * pnorm, minimizer_z=z)


def corrected_label_rows(y: np.ndarray, p: np.ndarray, delta_y: float) -> np.ndarray:
    """Row-wise corrected-loss minimizers z* for an (n, k) batch."""
    return _corrected_labels_t(np.asarray(y, dtype=np.float64).T, np.asarray(p).T, delta_y).T


def grad_a(w: np.ndarray, x_tilde, y_tilde, delta_y: float) -> GradSample:
    """Envelope-rule gradient of the corrected loss at one example.

    The minimizer over the ball is unique whenever ||p|| > 0; the gradient of
    the minimum is then the label-linear gradient evaluated at that fixed
    minimizer.
    """
    xv = as_vec(x_tilde, size=w.size // np.size(y_tilde), name="x_tilde")
    scores = batch_scores(w, xv[None, :])[0]
    res = loss_a(y_tilde, scores, delta_y)
    grad = label_grad(w, xv[None, :], res.minimizer_z[None, :])
    return GradSample(loss=res.value, grad=grad)


# ---------------------------------------------------------------------------
# dataset means and teacher labels


def objective_value(w: np.ndarray, dataset: LabeledSet, kind: str, *,
                    delta_y: float = 0.0, lam: float | None = None,
                    aug: LabeledSet | None = None) -> float:
    """Empirical mean of a per-example loss over a dataset.

    kind "L": plain CE over an original set. "L_tilde": plain CE over an
    augmented set. "L_a": corrected loss at radius delta_y over an augmented
    set. "L_c": lam * L(dataset) + (1 - lam) * L_a(aug), with the
    original set as `dataset` and the augmented one passed as `aug`.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    if kind in ("L", "L_tilde", "L_a"):
        if kind == "L_a" and delta_y < 0:
            raise ValueError("delta_y must be nonnegative")
        ev = EvalSet.of(dataset.inputs, dataset.labels)
        st = eval_scores(w, ev, delta_y=delta_y if kind == "L_a" else None)
        return st.corrected if kind == "L_a" else st.loss
    if kind == "L_c":
        if lam is None or not (0.0 <= lam <= 1.0):
            raise ValueError("kind 'L_c' needs lam in [0, 1]")
        if aug is None:
            raise ValueError("kind 'L_c' needs the augmented set via `aug`")
        l_orig = objective_value(w, dataset, "L")
        l_corr = objective_value(w, aug, "L_a", delta_y=delta_y)
        return lam * l_orig + (1.0 - lam) * l_corr
    raise ValueError(f"unknown objective kind {kind!r}")


def clean_labels(planted: PlantedParams, inputs: np.ndarray) -> np.ndarray:
    """Teacher labels for given inputs; pairs with perturbed labels in tests."""
    return softmax_rows(np.asarray(inputs, dtype=np.float64) @ planted.w_star.T)
