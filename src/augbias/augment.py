"""Augmentation transforms, synthetic tasks with exactly planted bias, and
estimators for the two bias measures.

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
    as_vec,
    sample_dirichlet,
    softmax_rows,
)

# Largest possible distance between two points of a probability simplex.
_SIMPLEX_DIAMETER = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Augmentation specs and elementary transforms


@dataclass(frozen=True)
class MixupK:
    """Convex combination of k examples with Dirichlet(alpha, ..., alpha) weights."""

    k: int = 2
    alpha: float = 1.0
    stream: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("mixup needs k >= 2")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class Contrast:
    """Scale deviations about the per-example mean by a magnitude in [lo, hi]."""

    lo: float = 0.1
    hi: float = 1.9
    stream: int = 0

    def __post_init__(self):
        if not (0 < self.lo <= self.hi):
            raise ValueError("need 0 < lo <= hi")


@dataclass(frozen=True)
class SyntheticLabelBias:
    """Perturb labels by exactly delta_y toward each row's least likely class."""

    delta_y: float
    stream: int = 0

    def __post_init__(self):
        if self.delta_y < 0:
            raise ValueError("delta_y must be nonnegative")


@dataclass(frozen=True)
class SyntheticInputShift:
    """Translate inputs by a fixed vector, keeping each example's label."""

    shift: tuple
    stream: int = 0


AugSpec = MixupK | Contrast | SyntheticLabelBias | SyntheticInputShift


def mixup_k(examples, weights) -> tuple[np.ndarray, np.ndarray]:
    """Virtual example: the exact convex combination of inputs and labels."""
    if len(examples) == 0:
        raise ValueError("need at least one example")
    w = as_vec(weights, size=len(examples), name="weights")
    if abs(float(np.sum(w)) - 1.0) > 1e-9 or float(np.min(w)) < -1e-9:
        raise ValueError("weights must lie on the probability simplex")
    xs = [as_vec(x, name="x") for x, _ in examples]
    ys = [as_vec(y, name="y") for _, y in examples]
    if len({x.shape[0] for x in xs}) > 1 or len({y.shape[0] for y in ys}) > 1:
        raise ValueError("all inputs must share a dimension")
    return w @ np.stack(xs), w @ np.stack(ys)


def contrast(x, magnitude: float, lo: float = 0.1, hi: float = 1.9) -> np.ndarray:
    """x' = mean(x) + magnitude * (x - mean(x)); magnitude 1 is the identity."""
    if not (lo <= magnitude <= hi):
        raise ValueError(f"magnitude {magnitude} outside configured range [{lo}, {hi}]")
    xv = as_vec(x, name="x")
    mu = float(np.mean(xv))
    return mu + magnitude * (xv - mu)


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


def apply_augspec(spec: AugSpec, dataset: LabeledSet, rng: Rng, count: int) -> LabeledSet:
    """Materialize `count` augmented examples from a dataset under a spec."""
    if count < 1:
        raise ValueError("count must be positive")
    n = dataset.n
    xs = np.empty((count, dataset.d))
    ys = np.empty((count, dataset.k))
    if isinstance(spec, MixupK):
        for i in range(count):
            idx = rng.gen.choice(n, size=spec.k, replace=False)
            w = sample_dirichlet(spec.alpha, spec.k, rng)
            pairs = [(dataset.inputs[j], dataset.labels[j]) for j in idx]
            xs[i], ys[i] = mixup_k(pairs, w)
    elif isinstance(spec, Contrast):
        idx = rng.gen.integers(0, n, size=count)
        mags = rng.gen.uniform(spec.lo, spec.hi, size=count)
        for i in range(count):
            xs[i] = contrast(dataset.inputs[idx[i]], float(mags[i]), spec.lo, spec.hi)
            ys[i] = dataset.labels[idx[i]]
    elif isinstance(spec, SyntheticLabelBias):
        idx = rng.gen.integers(0, n, size=count)
        xs[:] = dataset.inputs[idx]
        ys[:] = perturb_labels(dataset.labels[idx], spec.delta_y)
    elif isinstance(spec, SyntheticInputShift):
        shift = as_vec(np.asarray(spec.shift), size=dataset.d, name="shift")
        idx = rng.gen.integers(0, n, size=count)
        xs[:] = dataset.inputs[idx] + shift
        ys[:] = dataset.labels[idx]
    else:
        raise ValueError(f"unknown augmentation spec {spec!r}")
    return LabeledSet(xs, ys, AUGMENTED)


# ---------------------------------------------------------------------------
# Synthetic tasks with exactly controllable bias


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
        if self.delta_y < 0 or self.delta_p < 0:
            raise ValueError("bias targets must be nonnegative")
        if self.delta_y > _SIMPLEX_DIAMETER:
            raise ValueError("delta_y exceeds the simplex diameter")


@dataclass(frozen=True)
class PlantedParams:
    """Ground truth behind one synthetic task instance."""

    w_star: np.ndarray          # teacher weights, shape (k, d)
    mode: str
    delta_y: float
    delta_p: float
    shift: np.ndarray | None    # input translation for input_shift mode
    l_floor_planted: float      # mean CE of the original set at the teacher


def _teacher_labels(w_star: np.ndarray, x: np.ndarray) -> np.ndarray:
    return softmax_rows(x @ w_star.T)


@dataclass(frozen=True)
class LabelBiasSampler:
    """Fresh augmented draws for a label-bias task; picklable for worker pools."""

    w_star: np.ndarray
    delta_y: float

    def __call__(self, rng: Rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.gen.standard_normal((count, self.w_star.shape[1]))
        y = perturb_labels(_teacher_labels(self.w_star, x), self.delta_y)
        return x, y


@dataclass(frozen=True)
class InputShiftSampler:
    """Fresh augmented draws for an input-shift task."""

    w_star: np.ndarray
    shift: np.ndarray

    def __call__(self, rng: Rng, count: int) -> tuple[np.ndarray, np.ndarray]:
        src = rng.gen.standard_normal((count, self.w_star.shape[1]))
        y = _teacher_labels(self.w_star, src)
        return src + self.shift, y


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
    planted = PlantedParams(
        w_star=w_star,
        mode=task.mode,
        delta_y=task.delta_y,
        delta_p=task.delta_p,
        shift=shift,
        l_floor_planted=floor,
    )
    return original, augmented, planted


def make_sampler(planted: PlantedParams):
    """Fresh-sample closure matching the augmented law of a synthetic task."""
    if planted.mode == "label_bias":
        return LabelBiasSampler(planted.w_star, planted.delta_y)
    return InputShiftSampler(planted.w_star, planted.shift)


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


def estimate_delta_P(sample_p, sample_q, family: str = "gaussian") -> float:
    """KL divergence of input marginals estimated from two sample sets.

    gaussian: fits the two means and one pooled covariance, then evaluates
    the equal-covariance closed form (difference of means, Mahalanobis
    norm over two). histogram: discrete support with add-one smoothing.
    """
    if family == "gaussian":
        p = _as_sample_matrix(sample_p)
        q = _as_sample_matrix(sample_q)
        if p.shape[0] < 2 or q.shape[0] < 2:
            raise ValueError("gaussian mode needs at least 2 samples per side")
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
    if family == "histogram":
        p = _as_sample_matrix(sample_p)
        q = _as_sample_matrix(sample_q)
        keys_p = [tuple(row) for row in p]
        keys_q = [tuple(row) for row in q]
        support = sorted(set(keys_p) | set(keys_q))
        counts_p = {s: 1.0 for s in support}  # add-one smoothing
        counts_q = {s: 1.0 for s in support}
        for s in keys_p:
            counts_p[s] += 1.0
        for s in keys_q:
            counts_q[s] += 1.0
        tot_p = sum(counts_p.values())
        tot_q = sum(counts_q.values())
        kl = 0.0
        for s in support:
            fp = counts_p[s] / tot_p
            fq = counts_q[s] / tot_q
            kl += fp * math.log(fp / fq)
        return kl
    raise ValueError("family must be 'gaussian' or 'histogram'")
