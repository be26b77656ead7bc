"""Synthetic tasks with exactly planted augmentation bias, and estimators
for the two bias measures.

Bias comes in two flavors. Label bias perturbs the conditional label law while
keeping the input marginal; its size is the largest Euclidean distance between
paired labels. Input shift keeps each example's label while translating the
input marginal; its size is the KL divergence between the input marginals,
which is closed-form for the Gaussian construction used here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .core import (
    AUGMENTED,
    ORIGINAL,
    DegenerateEstimateError,
    LabeledSet,
    Rng,
    softmax_rows,
)

# Largest possible distance between two points of a probability simplex.
_SIMPLEX_DIAMETER = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Synthetic tasks with exactly controllable bias


def perturb_labels(labels: np.ndarray, delta_y: float) -> np.ndarray:
    """Move every label row distance delta_y toward its least likely class vertex.

    The segment from a simplex point to a vertex stays inside the simplex, so
    the perturbed row needs no projection and the planted bias is an exact
    max, capped per row only when the row is closer than delta_y to that
    vertex.
    """
    if delta_y < 0:
        raise ValueError("delta_y must be nonnegative")
    if delta_y > _SIMPLEX_DIAMETER:
        raise ValueError(f"delta_y {delta_y} exceeds the simplex diameter {_SIMPLEX_DIAMETER:.6f}")
    y = np.asarray(labels, dtype=np.float64)
    if delta_y == 0.0:
        return y.copy()
    c = np.argmin(y, axis=1)
    dirs = -y.copy()
    dirs[np.arange(y.shape[0]), c] += 1.0
    room = np.linalg.norm(dirs, axis=1)
    step = np.minimum(delta_y, room)
    return y + (step / room)[:, None] * dirs


@dataclass(frozen=True)
class SyntheticTask:
    """Generator config for the planted-teacher classification tasks.

    mode "label_bias": same input law on both sides, augmented labels moved
    exactly delta_y from the teacher's labels. mode "input_shift": labels
    carried over from the source input, augmented inputs translated so that
    KL(P_x || P_x~) equals delta_p in closed form.
    """

    mode: str = "label_bias"
    n: int = 2000
    m: int = 4000
    d: int = 10
    k: int = 5
    delta_y: float = 0.0
    delta_p: float = 0.0
    teacher_scale: float = 1.0

    def __post_init__(self):
        if self.mode not in ("label_bias", "input_shift"):
            raise ValueError("mode must be 'label_bias' or 'input_shift'")
        if min(self.n, self.m) < 1 or self.d < 1 or self.k < 2:
            raise ValueError("need n, m >= 1, d >= 1, k >= 2")
        if not all(map(math.isfinite, (self.delta_y, self.delta_p, self.teacher_scale))):
            raise ValueError("delta_y, delta_p and teacher_scale must be finite")
        if self.delta_y < 0 or self.delta_p < 0:
            raise ValueError("bias targets must be nonnegative")
        if self.delta_y > _SIMPLEX_DIAMETER:
            raise ValueError("delta_y exceeds the simplex diameter")


@dataclass(frozen=True)
class PlantedParams:
    """Ground truth behind one synthetic task instance."""

    w_star: np.ndarray          # teacher weights, shape (k, d)
    shift: np.ndarray | None    # input translation for input_shift mode
    l_floor_planted: float      # mean CE of the original set at the teacher


def _teacher_labels(w_star: np.ndarray, x: np.ndarray) -> np.ndarray:
    return softmax_rows(x @ w_star.T)


def gen_synthetic(task: SyntheticTask, rng: Rng) -> tuple[LabeledSet, LabeledSet, PlantedParams]:
    """Original set, augmented set, and the planted ground truth.

    The teacher is a linear softmax map, so the original objective is
    minimized at the teacher weights up to the entropy floor of its own soft
    labels; gaps downstream are reported against that floor.
    """
    w_star = task.teacher_scale * rng.gen.standard_normal((task.k, task.d)) / math.sqrt(task.d)
    x = rng.gen.standard_normal((task.n, task.d))
    y = _teacher_labels(w_star, x)
    original = LabeledSet(x, y, ORIGINAL)

    if task.mode == "label_bias":
        shift = None
        xa = rng.gen.standard_normal((task.m, task.d))
        ya = perturb_labels(_teacher_labels(w_star, xa), task.delta_y)
        augmented = LabeledSet(xa, ya, AUGMENTED)
    else:
        direction = rng.gen.standard_normal(task.d)
        direction /= np.linalg.norm(direction)
        shift = math.sqrt(2.0 * task.delta_p) * direction
        src = rng.gen.standard_normal((task.m, task.d))
        augmented = LabeledSet(src + shift, _teacher_labels(w_star, src), AUGMENTED)

    p = y  # labels at the teacher equal its softmax outputs
    floor = float(np.mean(np.sum(-p * np.log(p), axis=1)))
    return original, augmented, PlantedParams(w_star, shift, floor)


def sample_original(planted: PlantedParams, rng: Rng, count: int) -> LabeledSet:
    """Fresh examples from the original law; used for held-out evaluation."""
    x = rng.gen.standard_normal((count, planted.w_star.shape[1]))
    return LabeledSet(x, _teacher_labels(planted.w_star, x), ORIGINAL)


def clean_labels(planted: PlantedParams, inputs: np.ndarray) -> np.ndarray:
    """Teacher labels for given inputs; pairs with perturbed labels in tests."""
    return _teacher_labels(planted.w_star, np.asarray(inputs, dtype=np.float64))


# ---------------------------------------------------------------------------
# Bias estimators


def estimate_delta_y(paired) -> float:
    """Exact maximum of ||y - y~|| over label pairs sharing an input."""
    pairs = list(paired)
    if len(pairs) == 0:
        raise ValueError("need at least one label pair")
    best = 0.0
    for y, yt in pairs:
        diff = np.asarray(y, dtype=np.float64) - np.asarray(yt, dtype=np.float64)
        best = max(best, float(np.linalg.norm(diff)))
    return best


def _as_sample_matrix(sample) -> np.ndarray:
    a = np.asarray(sample, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError("samples must be 1-d or 2-d arrays")
    return a


def estimate_delta_P(sample_p, sample_q) -> float:
    """KL divergence of input marginals estimated from two sample sets.

    Fits the two means and one pooled covariance, then evaluates the
    equal-covariance Gaussian closed form (difference of means, Mahalanobis
    norm over two).
    """
    p = _as_sample_matrix(sample_p)
    q = _as_sample_matrix(sample_q)
    if p.shape[0] < 2 or q.shape[0] < 2:
        raise ValueError("need at least 2 samples per side")
    if p.shape[1] != q.shape[1]:
        raise ValueError("sample dimensions differ")
    diff = p.mean(axis=0) - q.mean(axis=0)
    np_, nq = p.shape[0], q.shape[0]
    pooled = (np.cov(p, rowvar=False) * (np_ - 1) + np.cov(q, rowvar=False) * (nq - 1)) / (np_ + nq - 2)
    pooled = np.atleast_2d(pooled)
    try:
        factor = cho_factor(pooled)
    except LinAlgError as exc:
        raise DegenerateEstimateError("pooled covariance is singular") from exc
    return float(0.5 * diff @ cho_solve(factor, diff))
