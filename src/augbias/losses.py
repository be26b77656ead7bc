"""Batched gradients of the bias-corrected loss and of the mixed objective.

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

import numpy as np

from .core import class_sum, softmax_parts
from .models import Predictor, _grad_from_parts, batch_scores, label_grad

# Below this p-norm the corrected minimizer direction is numerically
# undefined; fall back to the plain CE gradient at the augmented label.
_P_NORM_FLOOR = 1e-12


def _corrected_labels_t(y_t: np.ndarray, p_t: np.ndarray, delta_y: float) -> np.ndarray:
    """Corrected-loss minimizers z* from class-major (k, n) labels and p.

    The p-norms are per-example sums (core.class_sum), so they equal the
    row-major np.linalg.norm(p, axis=1) bit for bit.
    """
    norms = np.sqrt(class_sum(p_t * p_t))
    safe = np.where(norms < _P_NORM_FLOOR, 1.0, norms)
    scale = np.where(norms < _P_NORM_FLOOR, 0.0, delta_y / safe)
    return y_t - scale * p_t


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


def combined_grad(model: Predictor, orig_batch, aug_batch, lam: float,
                  delta_y: float) -> np.ndarray:
    """lam * mean CE gradient on originals + (1 - lam) * mean corrected gradient
    at radius delta_y, for lam in [0, 1] and a finite delta_y >= 0 as a Scheme
    holds them.

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
    g_orig = label_grad(model, xo, np.asarray(yo, dtype=np.float64))
    g_aug = mean_grad_a(model, xa, ya, delta_y)
    return lam * g_orig + (1.0 - lam) * g_aug
