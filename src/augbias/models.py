"""A linear softmax classifier with exact cross-entropy gradients.

The classifier is the convex instance of the analysis, with sharp constant
estimates. A model is its flat float64 weight vector w, the row-major
entries of a (k, d) matrix W with scores f(x; w) = W x; every function takes
d from its inputs and k from its labels or from w.size // d. The
cross-entropy loss is written as the inner product of the label with the
negative-log-softmax vector p, so its gradient in the parameters is linear
in the label; several estimators downstream rely on exactly that structure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    LabeledSet,
    as_vec,
    class_sum,
    softmax,
    softmax_parts,
)


def batch_scores(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Scores for an (n, d) batch at the flat weights of a (k, d) matrix;
    returns (n, k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"batch must be 2-d, got shape {x.shape}")
    return x @ w.reshape(-1, x.shape[1]).T


def forward(w: np.ndarray, x) -> np.ndarray:
    """Score vector f(x; w) for a single input."""
    return batch_scores(w, as_vec(x, name="x")[None, :])[0]


def _grad_from_parts(x: np.ndarray, e_t, tot, z_t, z_sums) -> np.ndarray:
    """Mean parameter gradient of <z_i, p(x_i; w)> from class-major softmax
    parts (see core.softmax_parts), labels z_t (k, n) and their row sums."""
    # score-space gradient ((sum z) * softmax - z) / n, in place (a product
    # rounds the same in either order), made row-major so the products below
    # keep their memory layout (and so their BLAS rounding)
    q = e_t / tot
    q *= z_sums
    q -= z_t
    q /= x.shape[0]
    ds = np.ascontiguousarray(q.T)
    return (ds.T @ x).ravel()


def label_grad(w: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Mean over the batch of the parameter gradient of <z_i, p(x_i; w)>.

    Valid for arbitrary label rows z, on or off the simplex: the score-space
    gradient of <z, p(s)> is (sum z) * softmax(s) - z. Both the plain CE path
    and the corrected-loss path go through here so that their arithmetic is
    identical when they coincide.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    z_t = np.ascontiguousarray(np.asarray(z, dtype=np.float64).T)
    _, _, e_t, tot = softmax_parts(batch_scores(w, x))
    return _grad_from_parts(x, e_t, tot, z_t, class_sum(z_t))


@dataclass(frozen=True)
class EvalSet:
    """A fixed evaluation set with the per-set constants the evaluation kernel
    reuses on every call: class-major inputs (d, n) for the linear scores,
    class-major labels and label row sums."""

    inputs: np.ndarray
    inputs_t: np.ndarray
    labels_t: np.ndarray
    label_sums: np.ndarray

    @staticmethod
    def of(inputs, labels) -> "EvalSet":
        x = np.asarray(inputs, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        return EvalSet(x, np.ascontiguousarray(x.T), np.ascontiguousarray(y.T),
                       y.sum(axis=1))

    @property
    def n(self) -> int:
        return self.inputs.shape[0]


# Iterates the evaluation kernel scores per pass. Numpy's per-call cost is
# paid once per pass, and a pass's (STACK_BATCH, k, n) workspaces stay in the
# cache; chosen by measurement on the table1 benchmark workload.
STACK_BATCH = 4


class Workspace:
    """Scratch arrays for the evaluation kernel, one per thread: passes of up
    to `batch` iterates over sets of up to n examples and k classes, with
    gradients on sets of up to n_grad examples."""

    def __init__(self, batch: int, k: int, n: int, n_grad: int):
        self.batch = batch
        self._k = k
        self._buffers = (np.empty(batch * k * n), np.empty(batch * k * n),
                         np.empty(batch * k * n_grad), np.empty((5, batch * n)))
        self._views: dict = {}

    def views(self, b: int, n: int) -> tuple:
        """Contiguous views for a pass of b iterates over n examples: two
        (b, k, n) stacks, the (b, n, k) gradient stack and five (b, n) rows."""
        v = self._views.get((b, n))
        if v is None:
            stack, size = (b, self._k, n), b * self._k * n
            s, e, d, rows = self._buffers
            v = (s[:size].reshape(stack), e[:size].reshape(stack),
                 d[:size].reshape(b, n, self._k) if d.size >= size else None,
                 *(r[:b * n].reshape(b, n) for r in rows))
            self._views[(b, n)] = v
        return v


def scores_t(params: np.ndarray, ev: EvalSet, out: np.ndarray) -> np.ndarray:
    """Class-major (B, k, n) scores of a (B, P) stack of parameter vectors
    over an evaluation set, into the C-ordered `out`.

    This is W @ inputs_t for every W in the stack, which equals
    batch_scores(...).T bit for bit and needs no transposed copy.
    """
    return np.matmul(params.reshape(len(params), -1, len(ev.inputs_t)), ev.inputs_t, out=out)


# k entries of p below _P_FINITE_NORM / sqrt(k) have a finite squared norm:
# each square is below half the float range over k, so no rounding of their
# sum reaches inf. p is nonnegative, and NaN fails the comparison.
_P_FINITE_NORM = math.sqrt(np.finfo(np.float64).max / 2.0)


class StackStats(NamedTuple):
    loss: np.ndarray  # (B,) mean <y_i, p_i>
    corrected: np.ndarray | None  # (B,) mean <y_i, p_i> - delta_y * ||p_i||
    grad: np.ndarray | None  # (B, P) gradients of `loss` in the parameters


def stack_stats(params: np.ndarray, ev: EvalSet, delta_y: float | None = None,
                grad: bool = False, ws: Workspace | None = None) -> StackStats:
    """Mean cross entropy over an evaluation set at each of a (B, P) stack of
    parameter vectors: the evaluation kernel.

    The stack is scored ws.batch iterates per pass, class-major from the
    start (scores_t). The softmax max, exp and sum are computed once per pass
    and shared by p and by the gradient; the corrected loss at radius delta_y
    and the gradient are computed only on request. Every step writes into
    the workspace `ws` (a fresh one when None). Each value equals the
    row-major formula at one iterate bit for bit (core.class_sum).
    """
    params = np.ascontiguousarray(params, dtype=np.float64)
    total = len(params)
    if ws is None:
        batch = min(total, STACK_BATCH)
        ws = Workspace(batch, len(ev.labels_t), ev.n, ev.n if grad else 0)
    loss = np.empty(total)
    corrected = np.empty(total) if delta_y is not None else None
    grads = np.empty(params.shape) if grad else None
    for lo in range(0, total, ws.batch):
        hi = min(lo + ws.batch, total)
        _stack_pass(params[lo:hi], ev, delta_y, ws, loss[lo:hi],
                    None if corrected is None else corrected[lo:hi],
                    None if grads is None else grads[lo:hi])
    return StackStats(loss, corrected, grads)


def _stack_pass(params, ev, delta_y, ws, loss, corrected, grads) -> None:
    """stack_stats for at most ws.batch iterates, into loss, corrected and grads.

    The means are sums over the examples divided by n, which is what np.mean
    computes, without its Python wrapper. At delta_y = 0 the corrected loss
    is the loss, ce - 0 * ||p|| = ce, whenever every ||p|| is finite; the
    largest entry of p tells that without the norms (_P_FINITE_NORM).
    """
    n = ev.n
    p_t, e_t, ds, m, tot, lse, ce, norms = ws.views(len(params), n)
    scores_t(params, ev, out=p_t)
    np.maximum.reduce(p_t, axis=1, out=m)
    np.subtract(p_t, m[:, None, :], out=e_t)
    np.exp(e_t, out=e_t)
    class_sum(e_t, out=tot)
    np.log(tot, out=lse)
    lse += m
    np.subtract(lse[:, None, :], p_t, out=p_t)  # p = logsumexp(s) - s, over the scores
    if grads is not None:
        # score-space gradient ((sum y) * softmax - y) / n, made row-major
        # per iterate as in _grad_from_parts, so the products keep their
        # BLAS rounding
        np.divide(e_t, tot[:, None, :], out=e_t)
        e_t *= ev.label_sums
        e_t -= ev.labels_t
        np.divide(e_t.transpose(0, 2, 1), n, out=ds)
        np.matmul(ds.transpose(0, 2, 1), ev.inputs,
                  out=grads.reshape(p_t.shape[:2] + (-1,)))
    class_sum(np.multiply(ev.labels_t, p_t, out=e_t), out=ce)
    np.add.reduce(ce, axis=1, out=loss)
    loss /= n
    if corrected is not None and delta_y == 0.0 and \
            np.maximum.reduce(p_t, axis=None) < _P_FINITE_NORM / math.sqrt(p_t.shape[1]):
        corrected[:] = loss
    elif corrected is not None:
        class_sum(np.multiply(p_t, p_t, out=e_t), out=norms)
        np.sqrt(norms, out=norms)
        norms *= delta_y
        np.subtract(ce, norms, out=norms)
        np.add.reduce(norms, axis=1, out=corrected)
        corrected /= n


class ScoreStats(NamedTuple):
    loss: float  # mean <y_i, p_i>
    corrected: float | None  # mean <y_i, p_i> - delta_y * ||p_i||
    grad: np.ndarray | None  # gradient of `loss` in the parameters


def eval_scores(w: np.ndarray, ev: EvalSet, delta_y: float | None = None,
                grad: bool = False) -> ScoreStats:
    """Mean cross entropy over an evaluation set at one weight vector:
    stack_stats on a stack of one."""
    st = stack_stats(w[None, :], ev, delta_y, grad)
    return ScoreStats(float(st.loss[0]),
                      None if st.corrected is None else float(st.corrected[0]),
                      None if st.grad is None else st.grad[0])


def score_jacobian(w: np.ndarray, x) -> np.ndarray:
    """Jacobian of the score vector in the flat parameters, shape (k, D)."""
    xv = as_vec(x, name="x")
    return np.kron(np.eye(w.size // xv.size), xv)


def p_jacobian(w: np.ndarray, x) -> np.ndarray:
    """Jacobian of p(x; w) in the flat parameters, shape (k, D)."""
    scores = forward(w, x)
    sig = softmax(scores)
    j = score_jacobian(w, x)
    return (np.outer(np.ones(len(sig)), sig) - np.eye(len(sig))) @ j


# Relative slack of the screen in estimate_G. It covers the rounding of the
# closed form and of the SVD, each a few ulp.
_SCREEN_RTOL = 1e-9


def _screen_pairs(cloud: list, x: np.ndarray) -> np.ndarray | None:
    """(cloud index, input index) pairs that can hold the largest p-Jacobian
    norm, or None when the screen is not finite.

    For a linear model the p-Jacobian is (1 sigma^T - I) kron x^T, and
    1 sigma^T - I is an oblique projection (sigma sums to 1) of norm
    sqrt(k) * ||sigma||, so the Jacobian norm is sqrt(k) * ||sigma|| * ||x||.
    The screen evaluates that for every pair at once. Its scores can round
    differently from the one-row scores of p_jacobian, by at most `slack` per
    class; a score shift of at most `slack` scales ||sigma|| by a factor
    within exp(+-2 slack). So a pair is kept when its screen, widened by that
    factor and by _SCREEN_RTOL, reaches the largest narrowed screen.
    """
    d = x.shape[1]
    w = np.stack(cloud).reshape(-1, d)
    k = len(w) // len(cloud)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        s = (x @ w.T).reshape(len(x), len(cloud), k)
        e = np.exp(s - s.max(axis=2, keepdims=True))
        sig = e / e.sum(axis=2, keepdims=True)
        # ||x|| scaled by its largest entry, so it neither overflows nor
        # loses digits to subnormals
        top = np.abs(x).max(axis=1)
        xn = top * np.sqrt(np.sum((x / np.where(top > 0, top, 1.0)[:, None]) ** 2, axis=1))
        screen = np.sqrt(k) * np.sqrt(np.sum(sig * sig, axis=2)) * xn[:, None]
        # |x| @ |w| bounds every score; below half the float range no score
        # can overflow, whichever way it is rounded
        bound = (np.abs(x) @ np.abs(w).T).reshape(len(x), len(cloud), k).max(axis=2)
        if not (np.all(np.isfinite(screen)) and np.all(np.isfinite(2.0 * bound))):
            return None
        # twice the rounding bound of a length-d dot product, with margin
        slack = 2.0 * (d + 2) * np.finfo(np.float64).eps * bound
        hi = screen * np.exp(2.0 * slack) * (1.0 + _SCREEN_RTOL)
        lo = screen * np.exp(-2.0 * slack) * (1.0 - _SCREEN_RTOL)
    rows, cols = np.nonzero(hi >= lo.max())
    return np.stack([cols, rows], axis=1)


def estimate_G(dataset: LabeledSet, params_cloud) -> float:
    """Largest spectral norm of the p-Jacobian over (input, parameter) pairs.

    An empirical stand-in for the uniform gradient bound: the max never
    decreases as points are added. Reported over visited parameters only.

    A closed-form screen (_screen_pairs) picks the pairs that can hold the
    max, and only those get the exact SVD norm, so the result is the full
    scan's bit for bit. A plain closed form is not: it differs from the SVD
    by an ulp or two. A screen that is not finite scans every pair.
    """
    cloud = [as_vec(w, size=dataset.k * dataset.d, name="cloud point") for w in params_cloud]
    if dataset.n == 0 or len(cloud) == 0:
        raise ValueError("need a nonempty dataset and parameter cloud")
    pairs = _screen_pairs(cloud, dataset.inputs)
    if pairs is None:
        pairs = [(c, i) for c in range(len(cloud)) for i in range(dataset.n)]
    best = 0.0
    for c, i in pairs:
        jac = p_jacobian(cloud[c], dataset.inputs[i])
        best = max(best, float(np.linalg.norm(jac, 2)))
    return best
