"""A linear softmax classifier with exact cross-entropy gradients.

The classifier is the convex instance of the analysis, with sharp constant
estimates. The cross-entropy loss is written as the inner product
of the label with the negative-log-softmax vector p, so its gradient in the
parameters is linear in the label; several estimators downstream rely on
exactly that structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    LabeledSet,
    as_vec,
    check_finite,
    class_sum,
    softmax,
    softmax_parts,
)


@dataclass(frozen=True)
class SoftmaxLinear:
    """Scores f(x; w) = W x with W of shape (k, d), parameters flattened row-major."""

    d: int
    k: int

    def __post_init__(self):
        if self.d < 1 or self.k < 2:
            raise ValueError("SoftmaxLinear needs d >= 1 and k >= 2")

    @property
    def param_count(self) -> int:
        return self.k * self.d


@dataclass(frozen=True)
class Predictor:
    """A model shape plus one flat parameter vector."""

    arch: SoftmaxLinear
    params: np.ndarray

    def __post_init__(self):
        w = as_vec(self.params, size=self.arch.param_count, name="params")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "params", w)

    def with_params(self, w: np.ndarray) -> "Predictor":
        return Predictor(self.arch, w)


def _unchecked_predictor(arch: SoftmaxLinear, w: np.ndarray) -> Predictor:
    """A Predictor on `w` itself, for a caller that already knows it is a
    finite float64 vector of arch.param_count entries: no checks and no copy.
    `w` is made read-only, as Predictor's own copy is."""
    w.setflags(write=False)
    model = object.__new__(Predictor)
    object.__setattr__(model, "arch", arch)
    object.__setattr__(model, "params", w)
    return model


@dataclass(frozen=True)
class GradSample:
    loss: float
    grad: np.ndarray


def zeros_predictor(arch: SoftmaxLinear) -> Predictor:
    return Predictor(arch, np.zeros(arch.param_count))


def init_predictor(arch: SoftmaxLinear, rng, scale: float = 0.1) -> Predictor:
    """Gaussian init of the flat parameters."""
    return Predictor(arch, scale * rng.gen.standard_normal(arch.param_count))


def batch_scores(model: Predictor, x: np.ndarray) -> np.ndarray:
    """Scores for an (n, d) batch; returns (n, k)."""
    arch = model.arch
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != arch.d:
        raise ValueError(f"batch must have shape (n, {arch.d})")
    w = model.params.reshape(arch.k, arch.d)
    return x @ w.T


def forward(model: Predictor, x) -> np.ndarray:
    """Score vector f(x; w) for a single input."""
    xv = as_vec(x, size=model.arch.d, name="x")
    return batch_scores(model, xv[None, :])[0]


def p_from_scores(scores) -> np.ndarray:
    """Negative log-softmax of a score vector: p_i = logsumexp(s) - s_i."""
    s = as_vec(scores, name="scores")
    if s.shape[0] < 2:
        raise ValueError("need at least 2 classes")
    m = np.max(s)
    lse = m + np.log(np.sum(np.exp(s - m)))
    return lse - s


def p_of(model: Predictor, x) -> np.ndarray:
    return p_from_scores(forward(model, x))


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


def _grad_from_parts(model: Predictor, x: np.ndarray, e_t, tot, z_t, z_sums) -> np.ndarray:
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


def label_grad(model: Predictor, x: np.ndarray, z: np.ndarray) -> np.ndarray:
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
    _, _, e_t, tot = softmax_parts(batch_scores(model, x))
    return _grad_from_parts(model, x, e_t, tot, z_t, class_sum(z_t))


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


def scores_t(arch: SoftmaxLinear, params: np.ndarray, ev: EvalSet, out: np.ndarray) -> np.ndarray:
    """Class-major (B, k, n) scores of a (B, P) stack of parameter vectors
    over an evaluation set, into the C-ordered `out`.

    This is W @ inputs_t for every W in the stack, which equals
    batch_scores(...).T bit for bit and needs no transposed copy.
    """
    return np.matmul(params.reshape(len(params), arch.k, arch.d), ev.inputs_t, out=out)


class StackStats(NamedTuple):
    loss: np.ndarray  # (B,) mean <y_i, p_i>
    corrected: np.ndarray | None  # (B,) mean <y_i, p_i> - delta_y * ||p_i||
    grad: np.ndarray | None  # (B, P) gradients of `loss` in the parameters


def stack_stats(arch: SoftmaxLinear, params: np.ndarray, ev: EvalSet, delta_y: float | None = None,
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
        ws = Workspace(batch, arch.k, ev.n, ev.n if grad else 0)
    loss = np.empty(total)
    corrected = np.empty(total) if delta_y is not None else None
    grads = np.empty(params.shape) if grad else None
    for lo in range(0, total, ws.batch):
        hi = min(lo + ws.batch, total)
        _stack_pass(arch, params[lo:hi], ev, delta_y, ws, loss[lo:hi],
                    None if corrected is None else corrected[lo:hi],
                    None if grads is None else grads[lo:hi])
    return StackStats(loss, corrected, grads)


def _stack_pass(arch, params, ev, delta_y, ws, loss, corrected, grads) -> None:
    """stack_stats for at most ws.batch iterates, into loss, corrected and grads.

    The means are sums over the examples divided by n, which is what np.mean
    computes, without its Python wrapper.
    """
    n = ev.n
    p_t, e_t, ds, m, tot, lse, ce, norms = ws.views(len(params), n)
    scores_t(arch, params, ev, out=p_t)
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
                  out=grads.reshape(len(params), arch.k, arch.d))
    class_sum(np.multiply(ev.labels_t, p_t, out=e_t), out=ce)
    np.add.reduce(ce, axis=1, out=loss)
    loss /= n
    if corrected is not None:
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


def eval_scores(model: Predictor, ev: EvalSet, delta_y: float | None = None,
                grad: bool = False) -> ScoreStats:
    """Mean cross entropy over an evaluation set at one model: stack_stats
    on a stack of one."""
    st = stack_stats(model.arch, model.params[None, :], ev, delta_y, grad)
    return ScoreStats(float(st.loss[0]),
                      None if st.corrected is None else float(st.corrected[0]),
                      None if st.grad is None else st.grad[0])


def ce_grad(model: Predictor, x, y) -> GradSample:
    """Loss and exact parameter gradient of the cross entropy at one example.

    The label may be any finite vector, not just a simplex point: the gradient
    <y, grad p> is linear in y, and the corrected-loss envelope evaluates it at
    ball minimizers that sit strictly off the simplex.
    """
    xv = as_vec(x, size=model.arch.d, name="x")
    yv = as_vec(y, name="y")
    scores = forward(model, xv)
    loss = float(yv @ p_from_scores(scores))
    grad = label_grad(model, xv[None, :], yv[None, :])
    return GradSample(loss=loss, grad=check_finite(grad, "grad"))


def score_jacobian(model: Predictor, x) -> np.ndarray:
    """Jacobian of the score vector in the flat parameters, shape (k, D)."""
    arch = model.arch
    xv = as_vec(x, size=arch.d, name="x")
    return np.kron(np.eye(arch.k), xv)


def p_jacobian(model: Predictor, x) -> np.ndarray:
    """Jacobian of p(x; w) in the flat parameters, shape (k, D)."""
    scores = forward(model, x)
    sig = softmax(scores)
    j = score_jacobian(model, x)
    return (np.outer(np.ones(len(sig)), sig) - np.eye(len(sig))) @ j


# Relative slack of the screen in estimate_G. It covers the rounding of the
# closed form and of the SVD, each a few ulp.
_SCREEN_RTOL = 1e-9


def _screen_pairs(arch: SoftmaxLinear, cloud: list, x: np.ndarray) -> np.ndarray | None:
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
    k, d = arch.k, arch.d
    w = np.stack([m.params for m in cloud]).reshape(len(cloud) * k, d)
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


def estimate_G(model: Predictor, dataset: LabeledSet, params_cloud) -> float:
    """Largest spectral norm of the p-Jacobian over (input, parameter) pairs.

    An empirical stand-in for the uniform gradient bound: the max never
    decreases as points are added. Reported over visited parameters only.

    A closed-form screen (_screen_pairs) picks the pairs that can hold the
    max, and only those get the exact SVD norm, so the result is the full
    scan's bit for bit. A plain closed form is not: it differs from the SVD
    by an ulp or two. A screen that is not finite scans every pair.
    """
    cloud = [model.with_params(np.asarray(w, dtype=np.float64)) for w in params_cloud]
    if dataset.n == 0 or len(cloud) == 0:
        raise ValueError("need a nonempty dataset and parameter cloud")
    pairs = _screen_pairs(model.arch, cloud, dataset.inputs)
    if pairs is None:
        pairs = [(c, i) for c in range(len(cloud)) for i in range(dataset.n)]
    best = 0.0
    for c, i in pairs:
        jac = p_jacobian(cloud[c], dataset.inputs[i])
        best = max(best, float(np.linalg.norm(jac, 2)))
    return best
