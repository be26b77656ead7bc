"""Shared numeric primitives: float64 arrays, seeded streams, labeled datasets.

Everything downstream works on plain numpy float64 arrays. The helpers here
pin the conventions (dtype, finiteness checks, simplex tolerance, stream
derivation) in one place rather than wrap numpy wholesale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Label rows must sum to 1 within this tolerance to count as simplex points.
SIMPLEX_ATOL = 1e-9


class DegenerateEstimateError(RuntimeError):
    """An estimator was asked for a value its inputs cannot support."""


def as_vec(x, size: int | None = None, name: str = "x") -> np.ndarray:
    """Coerce to a finite float64 1-d array, optionally checking its length."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if size is not None and v.shape[0] != size:
        raise ValueError(f"{name} must have length {size}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_mat(a, name: str = "a") -> np.ndarray:
    """Coerce to a finite float64 2-d array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def softmax(scores) -> np.ndarray:
    """Softmax of a score vector, computed with max-subtraction.

    Shift invariance holds to rounding: softmax(v + c) == softmax(v).
    """
    s = as_vec(scores, name="scores")
    if s.shape[0] < 2:
        raise ValueError("softmax needs at least 2 classes")
    shifted = s - np.max(s)
    e = np.exp(shifted)
    return e / np.sum(e)


# Numpy sums fewer than this many contiguous items strictly left to right and
# switches to a pairwise block from here on. Summing the rows of a class-major
# (k, n) array is also left to right, so it matches the row-major
# np.sum(axis=1) bit for bit only below this class count.
_PAIRWISE_BLOCK = 8


def class_sum(a_t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-example sums of a class-major (k, n) array, or of each array in a
    (B, k, n) stack, into `out` when given.

    Bit-identical to np.sum(a_t.T, axis=1) on a row-major copy at any k. Below
    the pairwise block the sum runs over the class axis, which reduces in
    full-length vector adds instead of numpy's slow k-wide inner loop.
    """
    if a_t.shape[-2] < _PAIRWISE_BLOCK:
        return np.add.reduce(a_t, axis=-2, out=out)
    return np.add.reduce(np.ascontiguousarray(np.swapaxes(a_t, -1, -2)), axis=-1, out=out)


def softmax_parts(scores: np.ndarray):
    """Class-major pieces of a row-wise softmax of an (n, k) score matrix.

    Returns (s_t, m, e_t, tot): the scores as a (k, n) array, the per-example
    max, e_t = exp(s_t - m) and its per-example sums. A max is exact in any
    order, so every piece equals its row-major counterpart bit for bit.
    """
    s_t = np.ascontiguousarray(np.asarray(scores, dtype=np.float64).T)
    m = s_t.max(axis=0)
    e_t = s_t - m
    np.exp(e_t, out=e_t)
    return s_t, m, e_t, class_sum(e_t)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an (n, K) score matrix, as a row-major array."""
    _, _, e_t, tot = softmax_parts(scores)
    return np.ascontiguousarray((e_t / tot).T)


class Rng:
    """Counter-based generator; (seed, stream) pins the sample stream exactly.

    Independent streams for one experiment come from the same seed with
    distinct stream ids, so parallel sweeps stay reproducible without any
    shared mutable state.
    """

    __slots__ = ("seed", "stream", "gen")

    def __init__(self, seed: int, stream: int = 0):
        seed = int(seed)
        stream = int(stream)
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be nonnegative")
        self.seed = seed
        self.stream = stream
        key = np.array([seed, stream], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"


def _validate_labels(labels: np.ndarray) -> None:
    sums = labels.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > SIMPLEX_ATOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ValueError(f"label rows must sum to 1 within {SIMPLEX_ATOL}, worst error {worst:g}")
    if np.any(labels < -SIMPLEX_ATOL):
        raise ValueError("label rows must be nonnegative")


@dataclass(frozen=True)
class LabeledSet:
    """Inputs paired with simplex label rows."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = as_mat(self.inputs, name="inputs")
        y = as_mat(self.labels, name="labels")
        if x.shape[0] != y.shape[0]:
            raise ValueError("inputs and labels must have the same number of rows")
        if x.shape[0] < 1:
            raise ValueError("need at least one example")
        if y.shape[1] < 2:
            raise ValueError("need at least 2 classes")
        _validate_labels(y)
        x = x.copy()
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def d(self) -> int:
        return self.inputs.shape[1]

    @property
    def k(self) -> int:
        return self.labels.shape[1]
