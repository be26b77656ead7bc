"""Bit identity of the evaluation kernel against the row-major formulas.

The frozen_* functions below are the trace-record formulas as they stood
before the kernel: every reduction runs over the last axis of an (n, k)
array with np.max / np.sum(axis=1), and each evaluation set is scored once
per value. The kernel reorders those reductions to run over the class axis,
which is exact only because of how numpy orders small sums, so every check
here is ==, never a tolerance. The linear scores are computed class-major
by another BLAS call, which is checked the same way. k runs from 2 to 12 to
cross numpy's 8-item pairwise block, and parameter scales reach the range
where scores overflow.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augbias.trainers as trainers
from augbias.core import AUGMENTED, ORIGINAL, LabeledSet, softmax_rows
from augbias.losses import mean_grad_a, objective_value
from augbias.models import (
    EvalSet,
    Mlp,
    Predictor,
    SoftmaxLinear,
    batch_scores,
    label_grad,
    p_rows,
    scores_t,
)
from augbias.theory import CeObjective
from augbias.trainers import AugDrop, MixLoss, TrainConfig, run_scheme


def frozen_softmax_rows(s):
    shifted = s - np.max(s, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def frozen_p_rows(s):
    m = np.max(s, axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(s - m), axis=1, keepdims=True))
    return lse - s


def frozen_label_grad(model, x, z):
    arch = model.arch
    n = x.shape[0]
    sig = frozen_softmax_rows(batch_scores(model, x))
    ds = (z.sum(axis=1, keepdims=True) * sig - z) / n
    if isinstance(arch, SoftmaxLinear):
        return (ds.T @ x).ravel()
    w1, b1, w2, b2 = arch.unpack(model.params)
    h = np.tanh(x @ w1.T + b1)
    dw2 = ds.T @ h
    db2 = ds.sum(axis=0)
    dh = ds @ w2
    da = (1.0 - h * h) * dh
    dw1 = da.T @ x
    db1 = da.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def frozen_mean_grad_a(model, x, y, delta_y):
    """The corrected-loss batch gradient as two scores passes: one for p and
    the minimizers z*, one more inside the gradient."""
    p = frozen_p_rows(batch_scores(model, x))
    norms = np.linalg.norm(p, axis=1, keepdims=True)
    safe = np.where(norms < 1e-12, 1.0, norms)
    scale = np.where(norms < 1e-12, 0.0, delta_y / safe)
    return frozen_label_grad(model, x, y - scale * p)


def frozen_mean_ce(model, ds):
    p = frozen_p_rows(batch_scores(model, ds.inputs))
    return float(np.mean(np.sum(ds.labels * p, axis=1)))


def frozen_mean_corrected(model, ds, delta_y):
    p = frozen_p_rows(batch_scores(model, ds.inputs))
    vals = np.sum(ds.labels * p, axis=1) - delta_y * np.linalg.norm(p, axis=1)
    return float(np.mean(vals))


def as_labeled(ev, provenance):
    """The LabeledSet an EvalSet was built from (row-major labels)."""
    return LabeledSet(ev.inputs, np.ascontiguousarray(ev.labels_t.T), provenance)


def frozen_record(model, eval_orig, eval_aug, lam, delta_y, ltilde_ref):
    """The record's five values, one formula per value, as before the kernel."""
    if eval_orig is not None:
        eval_orig = as_labeled(eval_orig, ORIGINAL)
        l_val = frozen_mean_ce(model, eval_orig)
        gnorm = float(np.linalg.norm(frozen_label_grad(model, eval_orig.inputs, eval_orig.labels)))
    else:
        l_val, gnorm = 0.0, 0.0
    if eval_aug is not None:
        eval_aug = as_labeled(eval_aug, AUGMENTED)
        lt_val = frozen_mean_ce(model, eval_aug)
        la_val = frozen_mean_corrected(model, eval_aug, delta_y)
        cons = lt_val - ltilde_ref
    else:
        lt_val, la_val, cons = 0.0, 0.0, 0.0
    lc_val = lam * l_val + (1.0 - lam) * la_val
    return (l_val, lt_val, lc_val, gnorm, cons)


def same(a, b):
    """Equal element for element, NaN matching NaN: the abort check reads
    finiteness, so non-finite values must agree too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def random_labels(rng, n, k):
    y = rng.dirichlet(np.full(k, 0.5), size=n)
    hard = rng.random(n) < 0.3
    y[hard] = np.eye(k)[rng.integers(0, k, size=int(hard.sum()))]
    return y


def make_arch(kind, d, k):
    return SoftmaxLinear(d, k) if kind == "linear" else Mlp(d, 3, k)


classes = st.integers(2, 12)
rows = st.integers(1, 40)
# log10 of the parameter scale: from small weights to weights whose scores
# overflow exp and the squared p-norm
log_scales = st.floats(-3.0, 300.0)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(k=classes, n=rows, log_scale=log_scales, seed=seeds)
def test_row_helpers_match_row_major(k, n, log_scale, seed):
    rng = np.random.default_rng(seed)
    s = 10.0**log_scale * rng.standard_normal((n, k))
    with np.errstate(over="ignore", invalid="ignore"):
        sm, ref_sm = softmax_rows(s), frozen_softmax_rows(s)
        p, ref_p = p_rows(s), frozen_p_rows(s)
    assert same(sm, ref_sm)
    assert same(p, ref_p)
    # row-major outputs keep downstream products in their old memory layout
    assert sm.flags.c_contiguous and p.flags.c_contiguous


@settings(max_examples=150, deadline=None)
@given(k=classes, n=st.one_of(rows, st.sampled_from([2000, 4000])), d=st.integers(1, 12),
       log_scale=log_scales, seed=seeds)
def test_linear_class_major_scores_match_transposed_batch_scores(k, n, d, log_scale, seed):
    """W @ x.T is computed by another BLAS call than x @ W.T, yet it must
    round the same: the kernel takes the first in place of the second."""
    rng = np.random.default_rng(seed)
    arch = SoftmaxLinear(d, k)
    model = Predictor(arch, 10.0**log_scale * rng.standard_normal(arch.param_count))
    ev = EvalSet.of(rng.standard_normal((n, d)), random_labels(rng, n, k))
    with np.errstate(over="ignore", invalid="ignore"):
        got = scores_t(model, ev)
        want = batch_scores(model, ev.inputs).T
    assert same(got, want)
    assert got.flags.c_contiguous  # the class-major reductions need C order


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["linear", "mlp"]), k=classes, n=rows, m=rows,
       d=st.integers(1, 4), log_scale=log_scales, seed=seeds)
def test_record_matches_frozen_formulas(kind, k, n, m, d, log_scale, seed):
    rng = np.random.default_rng(seed)
    arch = make_arch(kind, d, k)
    model = Predictor(arch, 10.0**log_scale * rng.standard_normal(arch.param_count))
    orig = EvalSet.of(rng.standard_normal((n, d)), random_labels(rng, n, k))
    aug = EvalSet.of(rng.standard_normal((m, d)), random_labels(rng, m, k))
    lam, delta_y, ref = float(rng.random()), float(rng.random()), float(rng.random())
    for eo, ea in ((orig, aug), (orig, None), (None, aug)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = trainers._record_values(model, eo, ea, lam, delta_y, ref)
            want = frozen_record(model, eo, ea, lam, delta_y, ref)
        assert same(got, want)
        assert all(np.isfinite(got)) == all(np.isfinite(want))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["linear", "mlp"]), k=classes, n=rows, d=st.integers(1, 4),
       log_scale=st.floats(-3.0, 2.0), seed=seeds)
def test_gradient_and_objectives_match_frozen_formulas(kind, k, n, d, log_scale, seed):
    rng = np.random.default_rng(seed)
    arch = make_arch(kind, d, k)
    w = 10.0**log_scale * rng.standard_normal(arch.param_count)
    model = Predictor(arch, w)
    x, y = rng.standard_normal((n, d)), random_labels(rng, n, k)
    # off-simplex rows, as the corrected loss feeds its minimizers
    z = y - 0.3 * rng.random((n, k))
    assert same(label_grad(model, x, z), frozen_label_grad(model, x, z))
    orig, aug = LabeledSet(x, y, ORIGINAL), LabeledSet(x, y, AUGMENTED)
    assert CeObjective.over(arch, orig).loss(w) == frozen_mean_ce(model, orig)
    assert objective_value(model, orig, "L") == frozen_mean_ce(model, orig)
    assert objective_value(model, aug, "L_tilde") == frozen_mean_ce(model, aug)
    assert objective_value(model, aug, "L_a", delta_y=0.3) == frozen_mean_corrected(model, aug, 0.3)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["linear", "mlp"]), k=classes, n=rows, d=st.integers(1, 4),
       log_scale=log_scales, delta_y=st.floats(0.0, 2.0), seed=seeds)
def test_single_pass_gradients_match_two_pass(kind, k, n, d, log_scale, delta_y, seed):
    """mean_grad_a and CeObjective.value_and_grad score each batch once."""
    rng = np.random.default_rng(seed)
    arch = make_arch(kind, d, k)
    w = 10.0**log_scale * rng.standard_normal(arch.param_count)
    model = Predictor(arch, w)
    x, y = rng.standard_normal((n, d)), random_labels(rng, n, k)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same(mean_grad_a(model, x, y, delta_y), frozen_mean_grad_a(model, x, y, delta_y))
        obj = CeObjective.over(arch, LabeledSet(x, y, ORIGINAL))
        value, grad = obj.value_and_grad(w)
        assert same(value, obj.loss(w)) and same(grad, obj.grad(w))


def _sets(seed, n, m, d, k):
    rng = np.random.default_rng(seed)
    orig = LabeledSet(rng.standard_normal((n, d)), random_labels(rng, n, k), ORIGINAL)
    aug = LabeledSet(rng.standard_normal((m, d)), random_labels(rng, m, k), AUGMENTED)
    return orig, aug


@pytest.mark.parametrize("kind", ["linear", "mlp"])
@pytest.mark.parametrize("k", [3, 5, 8, 11])
@pytest.mark.parametrize("growth", [1.0, 1e20, 1e60])
def test_runs_match_the_frozen_record_step_for_step(monkeypatch, kind, k, growth):
    """Whole runs, including the step at which a diverging one aborts: a step
    size that grows by `growth` per step drives the iterates through score
    overflow part-way through the run."""
    orig, aug = _sets(k, 30, 50, 3, k)
    arch = make_arch(kind, 3, k)
    model = Predictor(arch, 0.1 * np.random.default_rng(1).standard_normal(arch.param_count))
    sched = dict(lr_decay=growth, lr_every=1)
    configs = [
        TrainConfig(scheme=AugDrop(t1=15, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=15), batch=4,
                    seed=2, **sched),
        TrainConfig(scheme=MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=0.5), seed=3, **sched),
    ]
    for cfg in configs:
        new = run_scheme(model, orig, aug, cfg)
        with monkeypatch.context() as mp:
            mp.setattr(trainers, "_record_values", frozen_record)
            old = run_scheme(model, orig, aug, cfg)
        assert new.rows == old.rows
        assert new.aborted == old.aborted
        assert same(new.final_params, old.final_params)
        assert new.aborted == (growth > 1.0)
