"""Bias-corrected loss, its gradient, and the mixed objective.

The corrected loss minimizes the cross entropy over a Euclidean ball of
labels around the augmented label. Because the cross entropy is linear in
the label, the minimum over the ball has a closed form,

    value = <y~, p> - delta_y * ||p||,   minimizer z* = y~ - delta_y * p / ||p||,

and the gradient in the parameters follows by the envelope rule: evaluate the
label-linear gradient at the fixed minimizer z*. z* may leave the probability
simplex; the ball is the whole constraint, by design. The value may also go
negative for large delta_y; no flooring is applied, since only gaps relative
to a floor are ever consumed downstream.

The symbol delta_y here is the same label-ball radius everywhere; a separate
radius for the corrected loss ("delta_f" in some writeups) is treated as
synonymous with it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AUGMENTED, ORIGINAL, LabeledSet, as_vec, class_sum, softmax_parts
from .models import (
    EvalSet,
    GradSample,
    Predictor,
    _check_simplex_label,
    _grad_from_parts,
    batch_scores,
    eval_scores,
    label_grad,
    p_from_scores,
)

# Below this p-norm the corrected minimizer direction is numerically
# undefined; fall back to the plain CE gradient at the augmented label.
_P_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class CorrectedLossResult:
    value: float
    minimizer_z: np.ndarray
    grad: np.ndarray | None = None


@dataclass(frozen=True)
class MixWeights:
    """Mixing weight, label-ball radius, and augmented batch count per step.

    lam = 0 is accepted (pure corrected-loss gradient) so that the two-stage
    scheme's reduction identities can be exercised through the same code path.
    """

    lam: float
    delta_y: float
    m0: int

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lam must lie in [0, 1]")
        if not (self.delta_y >= 0 and np.isfinite(self.delta_y)):
            raise ValueError("delta_y must be nonnegative and finite")
        if self.m0 < 1:
            raise ValueError("m0 must be at least 1")


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


def _corrected_labels_t(y_t: np.ndarray, p_t: np.ndarray, delta_y: float) -> np.ndarray:
    """Corrected-loss minimizers z* from class-major (k, n) labels and p.

    The p-norms are per-example sums (core.class_sum), so they equal the
    row-major np.linalg.norm(p, axis=1) bit for bit.
    """
    norms = np.sqrt(class_sum(p_t * p_t))
    safe = np.where(norms < _P_NORM_FLOOR, 1.0, norms)
    scale = np.where(norms < _P_NORM_FLOOR, 0.0, delta_y / safe)
    return y_t - scale * p_t


def corrected_label_rows(y: np.ndarray, p: np.ndarray, delta_y: float) -> np.ndarray:
    """Row-wise corrected-loss minimizers z* for an (n, k) batch."""
    return _corrected_labels_t(np.asarray(y, dtype=np.float64).T, np.asarray(p).T, delta_y).T


def grad_a(model: Predictor, x_tilde, y_tilde, delta_y: float) -> GradSample:
    """Envelope-rule gradient of the corrected loss at one example.

    The minimizer over the ball is unique whenever ||p|| > 0; the gradient of
    the minimum is then the label-linear gradient evaluated at that fixed
    minimizer.
    """
    xv = as_vec(x_tilde, size=model.arch.d, name="x_tilde")
    scores = batch_scores(model, xv[None, :])[0]
    res = loss_a(y_tilde, scores, delta_y)
    grad = label_grad(model, xv[None, :], res.minimizer_z[None, :])
    return GradSample(loss=res.value, grad=grad)


def mean_grad_a(model: Predictor, x: np.ndarray, y: np.ndarray, delta_y: float) -> np.ndarray:
    """Mean corrected-loss gradient over a batch (hot path, no simplex check).

    One scores pass: the softmax parts give both p, for the minimizers z*,
    and the softmax the gradient at z* needs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    s_t, m, e_t, tot = softmax_parts(batch_scores(model, x))
    y_t = np.ascontiguousarray(np.asarray(y, dtype=np.float64).T)
    z_t = _corrected_labels_t(y_t, (m + np.log(tot)) - s_t, delta_y)
    return _grad_from_parts(model, x, e_t, tot, z_t, class_sum(z_t))


def combined_grad(model: Predictor, orig_batch, aug_batch, weights: MixWeights) -> np.ndarray:
    """lam * mean CE gradient on originals + (1 - lam) * mean corrected gradient.

    Batches are (inputs, labels) array pairs. The composition is the exact
    convex combination, so at lam = 1 the result is bitwise the original-data
    gradient and at lam = 0 the corrected-data gradient.
    """
    xo, yo = orig_batch
    xa, ya = aug_batch
    xo = np.asarray(xo, dtype=np.float64)
    xa = np.asarray(xa, dtype=np.float64)
    if xo.shape[0] == 0 or xa.shape[0] == 0:
        raise ValueError("empty batch")
    if xa.shape[0] != weights.m0:
        raise ValueError(f"augmented batch has {xa.shape[0]} rows, expected m0 = {weights.m0}")
    g_orig = label_grad(model, xo, np.asarray(yo, dtype=np.float64))
    g_aug = mean_grad_a(model, xa, ya, weights.delta_y)
    return weights.lam * g_orig + (1.0 - weights.lam) * g_aug


def objective_value(model: Predictor, dataset: LabeledSet, kind: str, *,
                    delta_y: float = 0.0, lam: float | None = None,
                    aug: LabeledSet | None = None) -> float:
    """Empirical mean of a per-example loss over a dataset.

    kind "L": plain CE over an original-provenance set. "L_tilde": plain CE
    over an augmented set. "L_a": corrected loss at radius delta_y over an
    augmented set. "L_c": lam * L(dataset) + (1 - lam) * L_a(aug), with the
    original set as `dataset` and the augmented one passed as `aug`.
    """
    if dataset.n == 0:
        raise ValueError("empty dataset")
    if kind in ("L", "L_tilde", "L_a"):
        want = ORIGINAL if kind == "L" else AUGMENTED
        if dataset.provenance != want:
            raise ValueError(f"kind {kind!r} needs an {want}-provenance dataset")
        if kind == "L_a" and delta_y < 0:
            raise ValueError("delta_y must be nonnegative")
        ev = EvalSet.of(dataset.inputs, dataset.labels)
        st = eval_scores(model, ev, delta_y=delta_y if kind == "L_a" else None)
        return st.corrected if kind == "L_a" else st.loss
    if kind == "L_c":
        if lam is None or not (0.0 <= lam <= 1.0):
            raise ValueError("kind 'L_c' needs lam in [0, 1]")
        if dataset.provenance != ORIGINAL:
            raise ValueError("kind 'L_c' takes the original set as `dataset`")
        if aug is None or aug.provenance != AUGMENTED:
            raise ValueError("kind 'L_c' needs the augmented set via `aug`")
        l_orig = objective_value(model, dataset, "L")
        l_corr = objective_value(model, aug, "L_a", delta_y=delta_y)
        return lam * l_orig + (1.0 - lam) * l_corr
    raise ValueError(f"unknown objective kind {kind!r}")
