"""Bit identity of the evaluation kernel against the row-major formulas.

The frozen_* functions below are the trace-record formulas as they stood
before the kernel: every reduction runs over the last axis of an (n, k)
array with np.max / np.sum(axis=1), and each evaluation set is scored once
per value. The kernel reorders those reductions to run over the class axis,
which is exact only because of how numpy orders small sums, so every check
here is ==, never a tolerance. The linear scores are computed class-major
by another BLAS call, which is checked the same way. k runs from 2 to 12 to
cross numpy's 8-item pairwise block, and parameter scales reach the range
where scores overflow. The batched kernel is checked on stacks of iterates
against the same formulas, and whole runs are checked against a frozen copy
of the per-step training loop that recorded after every step, with records
scored a chunk at a time; the steps of trainers.train are checked against
the same loop run without records. Plans that run chains of runs in forked
processes are checked for what they leave behind when a process dies or
the plan process raises.
"""
import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augbias.trainers as trainers
from augbias.core import LabeledSet, Rng, as_vec, softmax_rows
from augbias.models import (
    STACK_BATCH,
    batch_scores,
    eval_scores,
    label_grad,
    scores_t,
    stack_stats,
)
from augbias.losses import mean_grad_a
from augbias.theory import CeObjective
from augbias.trainers import (
    STREAM_AUG,
    STREAM_ORIG,
    AugDrop,
    Augmented,
    EpochSampler,
    FirstStageStore,
    MixLoss,
    Original,
    TrainConfig,
    TrainTrace,
    TraceRow,
    WeMix,
    run_scheme,
    size_stages,
    train,
)
from reference import objective_value


def frozen_softmax_rows(s):
    shifted = s - np.max(s, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def frozen_p_rows(s):
    m = np.max(s, axis=1, keepdims=True)
    lse = m + np.log(np.sum(np.exp(s - m), axis=1, keepdims=True))
    return lse - s


def frozen_label_grad(w, x, z):
    n = x.shape[0]
    sig = frozen_softmax_rows(batch_scores(w, x))
    ds = (z.sum(axis=1, keepdims=True) * sig - z) / n
    return (ds.T @ x).ravel()


def frozen_mean_grad_a(w, x, y, delta_y):
    """The corrected-loss batch gradient as two scores passes: one for p and
    the minimizers z*, one more inside the gradient."""
    p = frozen_p_rows(batch_scores(w, x))
    norms = np.linalg.norm(p, axis=1, keepdims=True)
    safe = np.where(norms < 1e-12, 1.0, norms)
    scale = np.where(norms < 1e-12, 0.0, delta_y / safe)
    return frozen_label_grad(w, x, y - scale * p)


def frozen_mean_ce(w, ds):
    p = frozen_p_rows(batch_scores(w, ds.inputs))
    return float(np.mean(np.sum(ds.labels * p, axis=1)))


def frozen_mean_corrected(w, ds, delta_y):
    p = frozen_p_rows(batch_scores(w, ds.inputs))
    vals = np.sum(ds.labels * p, axis=1) - delta_y * np.linalg.norm(p, axis=1)
    return float(np.mean(vals))


def frozen_record(w, eval_orig, eval_aug, lam, delta_y, ltilde_ref):
    """The record's five values, one formula per value, as before the kernel."""
    if eval_orig is not None:
        l_val = frozen_mean_ce(w, eval_orig)
        gnorm = float(np.linalg.norm(frozen_label_grad(w, eval_orig.inputs, eval_orig.labels)))
    else:
        l_val, gnorm = 0.0, 0.0
    if eval_aug is not None:
        lt_val = frozen_mean_ce(w, eval_aug)
        la_val = frozen_mean_corrected(w, eval_aug, delta_y)
        cons = lt_val - ltilde_ref
    else:
        lt_val, la_val, cons = 0.0, 0.0, 0.0
    lc_val = lam * l_val + (1.0 - lam) * la_val
    return (l_val, lt_val, lc_val, gnorm, cons)


def kernel_record(w, eval_orig, eval_aug, lam, delta_y, ltilde_ref):
    """The record's five values at one iterate, from the trainer's scorer."""
    scorer = trainers._Scorer(eval_orig, eval_aug, lam, delta_y, ltilde_ref)
    return tuple(scorer.score(w[None, :])[0])


def frozen_run_scheme(w0, orig, aug, cfg, steps=None):
    """run_scheme as it stood before chunked scoring: a record after every
    step, scored by frozen_record, ending at the first non-finite iterate,
    record or gradient. Given a `steps` list, it scores no record: it
    appends each step's (t, tag, w) to the list and ends at the first
    non-finite iterate or gradient, as trainers.train should. The layer
    functions are looked up on the trainers module at each call, so
    wrappers installed there reach this loop too."""
    scheme = cfg.scheme
    modes = {st.mode for st in scheme.stages}
    uses_orig, uses_aug = bool(modes & {"orig", "mixed"}), bool(modes & {"aug", "mixed"})
    sizes = size_stages(scheme, orig.n if orig is not None else 0,
                        aug.n if aug is not None else 0)
    data = orig if uses_orig else aug
    w = as_vec(w0, size=data.k * data.d, name="w0").copy()
    eval_orig = orig if uses_orig else cfg.eval_orig
    eval_aug = aug if uses_aug else cfg.eval_aug
    lam, delta_y = scheme.lam, scheme.delta_y
    rows, aborted = [], False

    def record(t, tag):
        if not np.all(np.isfinite(w)):
            return False
        if steps is not None:
            if t > 0:
                steps.append((t, tag, w))
            return True
        with np.errstate(over="ignore", invalid="ignore"):
            vals = frozen_record(w, eval_orig, eval_aug, lam, delta_y, cfg.ltilde_ref)
        if not all(np.isfinite(v) for v in vals):
            return False
        rows.append(TraceRow(t, tag, *vals))
        return True

    tags = [2 if st.mode == "orig" else 1 for st in scheme.stages]
    first_tag = next((tag for tag, (iters, _) in zip(tags, sizes) if iters > 0), tags[-1])
    if not record(0, first_tag):
        aborted = True
    global_t = 0
    for stage, tag, (iters, batch) in zip(scheme.stages, tags, sizes):
        if aborted or iters == 0:
            continue
        orig_sampler = EpochSampler(orig.n, Rng(cfg.seed, STREAM_ORIG).gen) \
            if stage.mode != "aug" else None
        rng_aug = Rng(cfg.seed, STREAM_AUG)
        for _ in range(iters):
            if stage.mode == "orig":
                idx = orig_sampler.draw(batch)
                grad = trainers.label_grad(w, orig.inputs[idx], orig.labels[idx])
            elif stage.mode == "aug":
                xa, ya = trainers._draw_aug(aug, rng_aug, batch)
                grad = trainers.label_grad(w, xa, ya)
            else:
                idx = orig_sampler.draw(1)
                xa, ya = trainers._draw_aug(aug, rng_aug, batch)
                grad = trainers.combined_grad(w, (orig.inputs[idx], orig.labels[idx]),
                                              (xa, ya), lam, delta_y)
            if not np.all(np.isfinite(grad)):
                aborted = True
                break
            with np.errstate(over="ignore", invalid="ignore"):
                w = trainers.sgd_step(w, grad, stage.eta)
            global_t += 1
            if not record(global_t, tag):
                aborted = True
                break
    return TrainTrace(rows=rows, final_params=w, aborted=aborted, iterations=global_t)


def assert_same_run(new, old):
    assert new.rows == old.rows
    assert new.aborted == old.aborted
    assert new.iterations == old.iterations
    assert same(new.final_params, old.final_params)


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


classes = st.integers(2, 12)
rows = st.integers(1, 40)
# stack heights: one iterate, two, one full pass of the kernel, and two
# passes plus an odd remainder
stacks = st.sampled_from([1, 2, STACK_BATCH, 2 * STACK_BATCH + 1])
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
    assert same(sm, ref_sm)
    # row-major outputs keep downstream products in their old memory layout
    assert sm.flags.c_contiguous


@settings(max_examples=150, deadline=None)
@given(k=classes, n=st.one_of(rows, st.sampled_from([2000, 4000])), d=st.integers(1, 12),
       b=stacks, log_scale=log_scales, seed=seeds)
def test_linear_class_major_scores_match_transposed_batch_scores(k, n, d, b, log_scale, seed):
    """W @ x.T, for each W of a stack, is computed by another BLAS call than
    x @ W.T, yet it must round the same: the kernel takes the first in place
    of the second."""
    rng = np.random.default_rng(seed)
    params = 10.0**log_scale * rng.standard_normal((b, k * d))
    ds = LabeledSet(rng.standard_normal((n, d)), random_labels(rng, n, k))
    with np.errstate(over="ignore", invalid="ignore"):
        got = scores_t(params, ds)
        assert got.flags.c_contiguous  # as the class-major reductions need
        for i, w in enumerate(params):
            assert same(got[i], batch_scores(w, ds.inputs).T)


@settings(max_examples=200, deadline=None)
@given(k=classes, n=st.one_of(rows, st.sampled_from([2000, 4000])), d=st.integers(1, 4),
       b=stacks, log_scale=log_scales, delta_y=st.floats(0.0, 2.0), seed=seeds)
def test_stack_matches_per_iterate_eval_scores(k, n, d, b, log_scale, delta_y, seed):
    """The batched kernel on a stack of b iterates gives every iterate its
    own eval_scores values and the frozen formulas' values: loss, corrected
    loss, gradient and gradient norm. The iterates of one stack have
    different scales, so some overflow while others do not."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, log_scale, size=(b, 1))
    params = scales * rng.standard_normal((b, k * d))
    x, y = rng.standard_normal((n, d)), random_labels(rng, n, k)
    ds = LabeledSet(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        got = stack_stats(params, ds, delta_y=delta_y, grad=True)
        for i, w in enumerate(params):
            one = eval_scores(w, ds, delta_y=delta_y, grad=True)
            assert same(got.loss[i], one.loss)
            assert same(got.corrected[i], one.corrected)
            assert same(got.grad[i], one.grad)
            assert same(np.linalg.norm(got.grad[i]), np.linalg.norm(one.grad))
            assert same(got.loss[i], frozen_mean_ce(w, ds))
            assert same(got.corrected[i], frozen_mean_corrected(w, ds, delta_y))
            assert same(got.grad[i], frozen_label_grad(w, x, y))


@settings(max_examples=200, deadline=None)
@given(k=classes, n=st.one_of(rows, st.sampled_from([2000, 4000])), d=st.integers(1, 4),
       b=stacks, log_scale=log_scales, seed=seeds)
def test_corrected_loss_at_delta_y_zero_matches_the_full_pass(k, n, d, b, log_scale, seed):
    """At delta_y = 0 the kernel takes the loss as the corrected loss when
    no squared p-norm can overflow. It must equal the full pass, including
    at weights whose p is finite and p squared is not, where the full pass
    gives NaN (0 * inf) and so cuts the trace."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, log_scale, size=(b, 1))
    params = scales * rng.standard_normal((b, k * d))
    x, y = rng.standard_normal((n, d)), random_labels(rng, n, k)
    ds = LabeledSet(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        got = stack_stats(params, ds, delta_y=0.0)
        for i, w in enumerate(params):
            assert same(got.corrected[i], frozen_mean_corrected(w, ds, 0.0))


def test_corrected_loss_at_delta_y_zero_where_p_squared_overflows():
    """Scores near 1e160 give p near 1e160, finite, and p squared inf: the
    corrected loss is NaN, as in the full pass, while the loss is finite.
    At 1e150 both are finite and equal."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((40, 3)), random_labels(rng, 40, 4)
    ds = LabeledSet(x, y)
    params = np.stack([1e160 * rng.standard_normal(12), 1e150 * rng.standard_normal(12)])
    with np.errstate(over="ignore", invalid="ignore"):
        got = stack_stats(params, ds, delta_y=0.0)
        want = [frozen_mean_corrected(w, ds, 0.0) for w in params]
    assert np.isfinite(got.loss).all()
    assert np.isnan(got.corrected[0]) and np.isnan(want[0])
    assert got.corrected[1] == got.loss[1] == want[1]


@pytest.mark.parametrize("kwargs", [{"grad": True}, {"delta_y": 0.4}])
def test_kernel_memory_is_a_pass_not_a_chunk(kwargs):
    """Scoring a CHUNK-iterate stack over 4,000 examples at table1's k = 5,
    with the gradient or with the corrected loss (the two calls of a
    record), peaks below four (STACK_BATCH, k, n) float64 arrays at
    STACK_BATCH = 4, 2.56 MB: a pass's temporaries. Scoring the whole chunk
    in one pass would take CHUNK / 4 = 32 times as much per array. The bound
    is in bytes, so a larger STACK_BATCH must answer to it too. The set's
    class-major copies are made before tracing starts, as a run's first
    chunk makes them for all the others."""
    k, n, d = 5, 4000, 10
    rng = np.random.default_rng(0)
    ds = LabeledSet(rng.standard_normal((n, d)), random_labels(rng, n, k))
    params = 0.1 * rng.standard_normal((trainers.CHUNK, k * d))
    stack_stats(params[:1], ds, **kwargs)
    tracemalloc.start()
    try:
        stack_stats(params, ds, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * (4 * k * n * 8)


@settings(max_examples=200, deadline=None)
@given(k=classes, n=rows, m=rows, d=st.integers(1, 4), log_scale=log_scales, seed=seeds)
def test_record_matches_frozen_formulas(k, n, m, d, log_scale, seed):
    rng = np.random.default_rng(seed)
    w = 10.0**log_scale * rng.standard_normal(k * d)
    orig = LabeledSet(rng.standard_normal((n, d)), random_labels(rng, n, k))
    aug = LabeledSet(rng.standard_normal((m, d)), random_labels(rng, m, k))
    lam, delta_y, ref = float(rng.random()), float(rng.random()), float(rng.random())
    for eo, ea in ((orig, aug), (orig, None), (None, aug)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = kernel_record(w, eo, ea, lam, delta_y, ref)
            want = frozen_record(w, eo, ea, lam, delta_y, ref)
        assert same(got, want)
        assert all(np.isfinite(got)) == all(np.isfinite(want))


@settings(max_examples=100, deadline=None)
@given(k=classes, n=rows, d=st.integers(1, 4), log_scale=st.floats(-3.0, 2.0), seed=seeds)
def test_gradient_and_objectives_match_frozen_formulas(k, n, d, log_scale, seed):
    rng = np.random.default_rng(seed)
    w = 10.0**log_scale * rng.standard_normal(k * d)
    x, y = rng.standard_normal((n, d)), random_labels(rng, n, k)
    # off-simplex rows, as the corrected loss feeds its minimizers
    z = y - 0.3 * rng.random((n, k))
    assert same(label_grad(w, x, z), frozen_label_grad(w, x, z))
    orig, aug = LabeledSet(x, y), LabeledSet(x, y)
    assert CeObjective(orig).loss(w) == frozen_mean_ce(w, orig)
    assert objective_value(w, orig, "L") == frozen_mean_ce(w, orig)
    assert objective_value(w, aug, "L_tilde") == frozen_mean_ce(w, aug)
    assert objective_value(w, aug, "L_a", delta_y=0.3) == frozen_mean_corrected(w, aug, 0.3)


@settings(max_examples=200, deadline=None)
@given(k=classes, n=rows, d=st.integers(1, 4), log_scale=log_scales,
       delta_y=st.floats(0.0, 2.0), seed=seeds)
def test_single_pass_gradients_match_two_pass(k, n, d, log_scale, delta_y, seed):
    """mean_grad_a and CeObjective.value_and_grad score each batch once."""
    rng = np.random.default_rng(seed)
    w = 10.0**log_scale * rng.standard_normal(k * d)
    x, y = rng.standard_normal((n, d)), random_labels(rng, n, k)
    with np.errstate(over="ignore", invalid="ignore"):
        assert same(mean_grad_a(w, x, y, delta_y), frozen_mean_grad_a(w, x, y, delta_y))
        obj = CeObjective(LabeledSet(x, y))
        value, grad = obj.value_and_grad(w)
        assert same(value, obj.loss(w)) and same(grad, obj.grad(w))


# Feature counts of the whole-run tests: three, fewer than most class
# counts, and seven, more than most, so the weight matrix is wide or tall.
FEATURES = [3, 7]


def _sets(seed, n, m, d, k):
    rng = np.random.default_rng(seed)
    orig = LabeledSet(rng.standard_normal((n, d)), random_labels(rng, n, k))
    aug = LabeledSet(rng.standard_normal((m, d)), random_labels(rng, m, k))
    return orig, aug


@pytest.mark.parametrize("d", FEATURES)
@pytest.mark.parametrize("k", [3, 5, 8, 11])
@pytest.mark.parametrize("eta", [0.5, 3e153, 1e300])
def test_runs_match_the_frozen_record_step_for_step(k, eta, d):
    """Whole runs, including the step at which a diverging one aborts: a
    large step size drives the iterates through score overflow, at 3e153
    part-way through the run (steps 1 to 14). Training runs ahead of the
    records, past the step where the frozen loop stops; the steps it takes
    there overflow to inf and NaN, which must not escape."""
    orig, aug = _sets(k, 30, 50, d, k)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(k * d)
    configs = [
        TrainConfig(scheme=AugDrop(t1=15, m1=4, m2=4, eta1=eta, eta2=eta, t2=15), seed=2),
        TrainConfig(scheme=MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=eta), seed=3),
    ]
    for cfg in configs:
        new = run_scheme(w0, orig, aug, cfg)
        old = frozen_run_scheme(w0, orig, aug, cfg)
        assert_same_run(new, old)
        assert new.aborted == (eta > 1.0)


class Faults:
    """Wrappers on trainers.sgd_step and the step gradients that plant a
    fault at a given step t (1-based): `huge` scales the new iterate by
    1e300, so its record overflows; `inf` puts an inf in it; `nan_grad`
    makes the step's gradient NaN; `raise_at` raises from the step."""

    def __init__(self, monkeypatch, huge=(), inf=(), nan_grad=(), raise_at=()):
        self.huge, self.inf, self.nan_grad, self.raise_at = huge, inf, nan_grad, raise_at
        self.steps = self.grads = 0
        step, label_grad, combined_grad = (trainers.sgd_step, trainers.label_grad,
                                           trainers.combined_grad)

        def faulty_step(*args, **kwargs):
            self.steps += 1
            if self.steps in self.raise_at:
                raise RuntimeError(f"step {self.steps}")
            w = step(*args, **kwargs)
            if self.steps in self.huge:
                w = 1e300 * w
            if self.steps in self.inf:
                w = w.copy()
                w[0] = np.inf
            return w

        def faulty(grad_fn):
            def wrapper(*args, **kwargs):
                self.grads += 1
                g = grad_fn(*args, **kwargs)
                return np.full_like(g, np.nan) if self.grads in self.nan_grad else g
            return wrapper

        monkeypatch.setattr(trainers, "sgd_step", faulty_step)
        monkeypatch.setattr(trainers, "label_grad", faulty(label_grad))
        monkeypatch.setattr(trainers, "combined_grad", faulty(combined_grad))

    def reset(self):
        self.steps = self.grads = 0


# With chunks of 6 records, the first chunk holds t = 0..5 and the second
# t = 6..11; the first stage ends at t = 9. Faults are {kind: steps}.
FAULTS = {
    "none": {},
    "middle of a chunk": {"huge": (8,)},
    "last step of the first chunk": {"huge": (5,)},
    "last step of a chunk": {"huge": (11,)},
    "first step of a chunk": {"huge": (12,)},
    "last step of a stage": {"huge": (9,)},
    "first step of a stage": {"huge": (10,)},
    "last step of the run": {"huge": (18,)},
    "non-finite iterate": {"inf": (8,)},
    "non-finite gradient": {"nan_grad": (8,)},
    "non-finite gradient after a non-finite record": {"huge": (7,), "nan_grad": (8,)},
    "non-finite iterate after a non-finite record": {"huge": (7,), "inf": (10,)},
    "step that raises after a non-finite record": {"huge": (7,), "raise_at": (8,)},
}


# Where a whole-run test's first stage comes from: no store; an empty store,
# which the run fills; and a store that a run of the same scheme, under the
# same faults, filled first.
FIRST_STAGES = ["no store", "empty store", "filled store"]


def run_from_store(source, faults, w0, orig, aug, cfg):
    """run_scheme with its first stage from `source` (FIRST_STAGES). A run
    takes a filled store's stage exactly when the run that filled it reached
    the stage's last step with a finite record; it then takes none of the
    stage's steps, so the planted faults count from the step after it."""
    if source == "no store":
        return run_scheme(w0, orig, aug, cfg)
    store, reused = FirstStageStore(), 0
    if source == "filled store":
        filled = run_scheme(w0, orig, aug, cfg, first_stage=store)
        first = size_stages(cfg.scheme, orig.n, aug.n)[0][0]
        reused = first if len(filled.rows) > first else 0
        faults.reset()
        faults.steps = faults.grads = reused
    run = run_scheme(w0, orig, aug, cfg, first_stage=store)
    assert run.reused_steps == reused
    return run


@pytest.mark.parametrize("d", FEATURES)
@pytest.mark.parametrize("chunk", [6, trainers.CHUNK])
@pytest.mark.parametrize("source", FIRST_STAGES)
@pytest.mark.parametrize("fault", list(FAULTS))
def test_divergence_ends_the_trace_where_the_per_step_loop_does(monkeypatch, chunk, source,
                                                                fault, d):
    """rows, aborted, final_params and iterations equal the frozen
    per-step loop's, wherever in a chunk, stage or run the first non-finite
    record, iterate or gradient falls, and whether the first stage is
    trained without a store, stored, or taken from a store that the same
    run filled. The runs score 19 records: one chunk of CHUNK, or four of
    6."""
    monkeypatch.setattr(trainers, "CHUNK", chunk)
    orig, aug = _sets(4, 30, 50, d, 4)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(4 * d)
    faults = Faults(monkeypatch, **FAULTS[fault])
    for scheme in (AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9),
                   WeMix(lam=0.6, delta_y=0.3, t1=9, t2=9, m0=5, eta1=0.5, eta2=0.5, batch=4)):
        cfg = TrainConfig(scheme=scheme, seed=2)
        new = run_from_store(source, faults, w0, orig, aug, cfg)
        faults.reset()
        old = frozen_run_scheme(w0, orig, aug, cfg)
        faults.reset()
        assert_same_run(new, old)
        assert new.aborted == (fault != "none")


# Runs for train, which scores no record, as (faults, eta): after an
# overflowing record it goes on; it stops before a non-finite iterate and at
# a non-finite gradient; at eta 1e308 the iterates overflow by themselves.
TRAIN_RUNS = {
    "finite": ({}, 0.5),
    "overflowing record": ({"huge": (5,)}, 0.5),
    "non-finite iterate": ({"inf": (8,)}, 0.5),
    "non-finite gradient": ({"nan_grad": (8,)}, 0.5),
    "diverging": ({}, 1e308),
}


@pytest.mark.parametrize("run", list(TRAIN_RUNS))
@pytest.mark.parametrize("name", ["original", "augmented", "augdrop", "mixloss", "wemix"])
def test_train_yields_the_steps_of_the_per_step_loop(monkeypatch, name, run):
    """train gives the frozen loop's (t, tag, w) after every step, equal
    under ==, for each of the five schemes, and ends where that loop ends
    when it scores no record."""
    faults, eta = TRAIN_RUNS[run]
    orig, aug = _sets(4, 30, 50, 3, 4)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(4 * 3)
    scheme = {
        "original": Original(eta=eta, batch=1, epochs=1),
        "augmented": Augmented(eta=eta, batch=4, epochs=2),
        "augdrop": AugDrop(t1=9, m1=4, m2=4, eta1=eta, eta2=eta, t2=9),
        "mixloss": MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=eta),
        "wemix": WeMix(lam=0.6, delta_y=0.3, t1=9, t2=9, m0=5, eta1=eta, eta2=eta, batch=4),
    }[name]
    cfg = TrainConfig(scheme=scheme, seed=2)
    planted = Faults(monkeypatch, **faults)
    got = list(train(w0, orig, aug, cfg))
    planted.reset()
    want = []
    with np.errstate(over="ignore", invalid="ignore"):  # its steps after an overflow
        frozen_run_scheme(w0, orig, aug, cfg, steps=want)
    assert [(t, tag) for t, tag, _ in got] == [(t, tag) for t, tag, _ in want]
    assert all((w == w_old).all() for (_, _, w), (_, _, w_old) in zip(got, want))
    total = sum(iters for iters, _ in size_stages(scheme, orig.n, aug.n))
    if run in ("finite", "overflowing record"):
        assert len(got) == total
    elif run == "diverging":
        assert 0 < len(got) < total
    else:
        assert len(got) == 7  # the fault is at step 8


@pytest.mark.parametrize("source", FIRST_STAGES)
def test_divergence_at_the_first_record(monkeypatch, source):
    """An initial iterate whose record overflows gives an empty trace at
    t = 0, although training runs ahead of it, over several chunks of 6;
    such a run stores no first stage for a later run to take."""
    monkeypatch.setattr(trainers, "CHUNK", 6)
    orig, aug = _sets(4, 30, 50, 3, 4)
    w0 = 1e300 * np.random.default_rng(1).standard_normal(4 * 3)
    cfg = TrainConfig(scheme=AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9), seed=2)
    new = run_from_store(source, Faults(monkeypatch), w0, orig, aug, cfg)
    assert_same_run(new, frozen_run_scheme(w0, orig, aug, cfg))
    assert new.rows == [] and new.aborted and new.iterations == 0


def test_a_step_that_raises_after_finite_records_raises(monkeypatch):
    """An exception from a step whose earlier records are all finite is the
    per-step loop's exception too, so it is raised, not turned into an
    abort, and the next run is the per-step loop's. Chunks of 6 put the
    step in the second chunk."""
    monkeypatch.setattr(trainers, "CHUNK", 6)
    orig, aug = _sets(4, 30, 50, 3, 4)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(4 * 3)
    cfg = TrainConfig(scheme=AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9), seed=2)
    faults = Faults(monkeypatch, raise_at=(8,))
    with pytest.raises(RuntimeError, match="step 8"):
        run_scheme(w0, orig, aug, cfg)
    faults.reset()
    with pytest.raises(RuntimeError, match="step 8"):
        frozen_run_scheme(w0, orig, aug, cfg)
    faults.raise_at = ()
    faults.reset()
    new = run_scheme(w0, orig, aug, cfg)
    faults.reset()
    assert_same_run(new, frozen_run_scheme(w0, orig, aug, cfg))


@pytest.mark.parametrize("d", [4, 7])
def test_chunks_and_a_stored_first_stage_give_the_per_step_run(d):
    """Several chunks of records, a first stage taken from the store and
    runs without one give the per-step loop's runs to the bit."""
    orig, aug = _sets(6, 200, 300, d, 6)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(6 * d)
    configs = [TrainConfig(scheme=scheme, seed=4) for scheme in (
        MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=0.5),
        WeMix(lam=0.6, delta_y=0.3, t1=150, t2=150, m0=5, eta1=0.5, eta2=0.5, batch=4))]
    store = FirstStageStore()
    runs = [run_scheme(w0, orig, aug, cfg, first_stage=store) for cfg in configs]
    runs.append(run_scheme(w0, orig, aug, configs[1]))  # without the store
    configs.append(configs[1])
    assert [run.reused_steps for run in runs] == [0, 150, 0]
    assert len(runs[2].rows) == 301 > 2 * trainers.CHUNK
    for cfg, run in zip(configs, runs):
        assert_same_run(run, frozen_run_scheme(w0, orig, aug, cfg))


def test_a_run_scores_its_records_in_chunks_of_CHUNK(monkeypatch):
    """A 301-record run scores 128, 128 and 45 records at a time."""
    orig, aug = _sets(6, 200, 300, 4, 6)
    cfg = TrainConfig(scheme=WeMix(lam=0.6, delta_y=0.3, t1=150, t2=150, m0=5,
                                   eta1=0.5, eta2=0.5, batch=4), seed=4)
    score, sizes = trainers._Scorer.score, []

    def counted_score(self, params):
        sizes.append(len(params))
        return score(self, params)

    monkeypatch.setattr(trainers._Scorer, "score", counted_score)
    run = run_scheme(np.zeros(6 * 4), orig, aug, cfg)
    assert len(run.rows) == 301 and sizes == [128, 128, 45]


def start_script(script: str, **kwargs) -> subprocess.Popen:
    """`script` started in a fresh interpreter, in a session of its own."""
    src = os.path.dirname(os.path.dirname(trainers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)], env=env,
                            start_new_session=True, **kwargs)


def run_script(script: str, timeout: float = 120.0) -> tuple[str, str]:
    """Run `script` (start_script) and return its stdout and stderr; a hang
    past `timeout` ends the session and fails."""
    proc = start_script(script, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the script did not finish within {timeout} s")
    assert proc.returncode == 0, err
    return out, err


# A plan on a small task, run by the scripts below; `cells` are (name,
# scheme) pairs. A pass over the 200 originals at batch 4 is 50 steps, so a
# cell of three passes is a chain of 150 steps, which a plan process that
# may use more than one CPU forks. `forked()` counts the chain processes
# started, and `session_others()` the processes left in the script's session.
PLAN_SCRIPT = """
    import json, multiprocessing, os, signal, sys, time
    from augbias import cli, trainers
    from augbias.augment import SyntheticTask
    from augbias.trainers import AugDrop, Augmented, Original

    PLAN = os.getpid()
    read, write = os.pipe()
    os.set_blocking(read, False)
    chain_process = cli._chain_process

    def logged_chain_process(*args):
        os.write(write, b"x")
        chain_process(*args)

    cli._chain_process = logged_chain_process

    def forked():
        try:
            return len(os.read(read, 1024))
        except BlockingIOError:
            return 0

    def plan(outdir, cells, seeds=(0,)):
        task = SyntheticTask(mode="label_bias", n=200, m=300, d=3, k=3, delta_y=0.2)
        return cli.ExperimentPlan(task=task, seeds=seeds, outdir=outdir, cells=tuple(
            cli.Cell(name, scheme) for name, scheme in cells))

    def summary(outdir, cell, seed=0):
        with open(os.path.join(outdir, f"{cell}__seed{seed}.json")) as fh:
            return json.load(fh)

    def session_others():
        sid, found = os.getsid(0), []
        for pid in os.listdir("/proc"):
            if pid.isdigit() and int(pid) != os.getpid():
                try:
                    with open(f"/proc/{pid}/stat") as fh:
                        stat = fh.read()
                except OSError:
                    continue
                if int(stat[stat.rindex(")") + 2:].split()[3]) == sid:
                    found.append(pid)
        return found
"""


def test_no_process_outlives_a_plan(tmp_path):
    """After a plan with a pair that finishes, one whose training raises and
    one that diverges, on one process and on two --jobs workers, no chain
    process is left: none among the plan process's children, and no other
    process in its session. The host is said to have eight CPUs, so no cap
    on the live chain processes is reached and the cells' three chains of
    150 steps are forked, but for the last one: five chain processes for
    the plan's two groups, and two in each --jobs worker's group."""
    out, _ = run_script(PLAN_SCRIPT + f"""
    os.sched_getaffinity = lambda pid: set(range(8))
    step, calls = trainers.sgd_step, [0]

    def sgd_step(w, grad, eta):
        if eta == 0.25:  # the raising cell, at the 50th step of each of its runs
            calls[0] += 1
            if calls[0] % 50 == 0:
                raise RuntimeError("planted")
        return step(w, grad, eta)

    trainers.sgd_step = sgd_step
    cells = [(name, Original(eta=eta, batch=4, epochs=3))
             for name, eta in (("ok", 0.3), ("raises", 0.25), ("diverges", 1e300))]
    for jobs in (1, 2):
        outdir = os.path.join({str(tmp_path)!r}, f"jobs{{jobs}}")
        _, code = cli.run_plan(plan(outdir, cells, seeds=(0, 1)), jobs=jobs)
        states = [(s.get("error"), s["aborted"]) for s in
                  (summary(outdir, cell, seed) for seed in (0, 1) for cell, _ in cells)]
        print(json.dumps([code, states, forked(), len(multiprocessing.active_children()),
                          session_others()]))
    """)
    for line, chains in zip(out.splitlines(), (5, 4)):
        code, states, forked, children, others = json.loads(line)
        assert code == 1
        assert states == 2 * [[None, False], ["RuntimeError: planted", True], [None, True]]
        assert forked == chains and children == 0 and others == []


@pytest.mark.parametrize("fault", ["interrupt", "raise"])
def test_no_chain_process_outlives_a_plan_that_raises(tmp_path, fault):
    """The plan process's own run is interrupted, or writing its summary
    raises, once the two chain processes it forked have started and while
    they still train (slowly: each step sleeps). run_plan raises that
    exception, after ending and reaping both: none is left among its
    children or in its session, and neither finished a run."""
    out, _ = run_script(PLAN_SCRIPT + f"""
    os.sched_getaffinity = lambda pid: set(range(4))
    step, write_summary, started = trainers.sgd_step, cli._write_summary, [0]

    def sgd_step(w, grad, eta):
        if os.getpid() != PLAN:
            time.sleep(0.05)
            return step(w, grad, eta)
        while started[0] < 2:  # until both chain processes have started
            started[0] += forked()
            time.sleep(0.001)
        if {fault!r} == "interrupt" and eta == 0.2:
            raise KeyboardInterrupt
        return step(w, grad, eta)

    def failing_write_summary(plan, summary):
        if os.getpid() == PLAN:
            raise OSError("planted")
        write_summary(plan, summary)

    trainers.sgd_step = sgd_step
    cli._write_summary = failing_write_summary
    cells = [(name, Original(eta=eta, batch=4, epochs=3))
             for name, eta in (("a", 0.3), ("b", 0.25), ("c", 0.2))]
    outdir = {str(tmp_path / "o")!r}
    try:
        cli.run_plan(plan(outdir, cells))
        raised = None
    except BaseException as exc:
        raised = type(exc).__name__
    print(json.dumps([raised, started[0] + forked(), len(multiprocessing.active_children()),
                      session_others(), sorted(os.listdir(outdir))]))
    """)
    raised, forked, children, others, written = json.loads(out)
    assert raised == {"interrupt": "KeyboardInterrupt", "raise": "OSError"}[fault]
    assert forked == 2 and children == 0 and others == []
    assert not any(name.startswith(("a__", "b__")) for name in written)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL])
def test_no_chain_process_outlives_a_plan_process_ended_by_a_signal(tmp_path, sig):
    """The plan process is ended by SIGTERM (as `timeout` ends it) or by
    SIGKILL, which no handler sees, once the two chain processes it forked
    have started and while they still train (slowly: each step sleeps).
    Neither outlives it by more than a moment, and neither writes a
    summary."""
    pids, outdir = tmp_path / "chains", tmp_path / "o"
    proc = start_script(PLAN_SCRIPT + f"""
    os.sched_getaffinity = lambda pid: set(range(4))
    step = trainers.sgd_step

    def sgd_step(w, grad, eta):
        time.sleep(0.05)
        return step(w, grad, eta)

    def pid_logged_chain_process(*args):
        with open({str(pids)!r}, "a") as fh:
            fh.write(f"{{os.getpid()}}\\n")
        chain_process(*args)

    trainers.sgd_step = sgd_step
    cli._chain_process = pid_logged_chain_process
    cells = [(name, Original(eta=eta, batch=4, epochs=3))
             for name, eta in (("a", 0.3), ("b", 0.25), ("c", 0.2))]
    cli.run_plan(plan({str(outdir)!r}, cells))
    """, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def chains():
        return [int(pid) for pid in pids.read_text().split()] if pids.exists() else []

    def alive(pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            return False
        return stat[stat.rindex(")") + 2] not in "ZX"  # a zombie has ended

    try:
        deadline = time.monotonic() + 60
        while len(chains()) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(proc.pid, sig)
        proc.wait(timeout=60)
        deadline = time.monotonic() + 2  # a chain process trains for 7.5 s
        while any(map(alive, chains())) and time.monotonic() < deadline:
            time.sleep(0.01)
        survivors = [pid for pid in chains() if alive(pid)]
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -sig and len(chains()) == 2 and survivors == []
    assert not [name for name in os.listdir(outdir) if name.endswith(".json")]


def test_a_killed_chain_process_fails_its_unfinished_runs_and_the_plan_goes_on(tmp_path):
    """The chain process of Augmented and the AugDrop that continues it is
    killed by SIGKILL in AugDrop's second stage. Augmented's outputs, which
    that process wrote, and Original's, from the plan process, are those of
    the plan run in one process; AugDrop gets a failed summary naming the
    signal (not the summary an earlier plan left in the directory), its
    progress line comes from the plan process, the plan exits 1 and nothing
    is left running."""
    out, err = run_script(PLAN_SCRIPT + f"""
    os.sched_getaffinity = lambda pid: {{0, 1}}
    step = trainers.sgd_step

    def sgd_step(w, grad, eta):
        if eta == 0.2 and os.getpid() != PLAN:  # AugDrop's second stage
            os.kill(os.getpid(), signal.SIGKILL)
        return step(w, grad, eta)

    trainers.sgd_step = sgd_step
    cells = [("aug", Augmented(eta=0.3, batch=4, epochs=1)),
             ("drop", AugDrop(t1=50, m1=4, m2=4, eta1=0.3, eta2=0.2, t2=100)),
             ("orig", Original(eta=0.3, batch=4, epochs=3))]
    killed = os.path.join({str(tmp_path)!r}, "killed")
    os.makedirs(killed)
    with open(os.path.join(killed, "drop__seed0.json"), "w") as fh:  # from an earlier plan
        json.dump({{"cell": "drop", "seed": 0, "final_gap": 0.0, "aborted": False}}, fh)
    _, code = cli.run_plan(plan(killed, cells))
    chains, children = forked(), len(multiprocessing.active_children())
    cli._cpu_share = lambda processes: 1
    alone = os.path.join({str(tmp_path)!r}, "alone")
    _, alone_code = cli.run_plan(plan(alone, cells))
    same = [open(os.path.join(killed, f"{{cell}}__seed0.csv"), "rb").read()
            == open(os.path.join(alone, f"{{cell}}__seed0.csv"), "rb").read()
            and summary(killed, cell)["final_gap"] == summary(alone, cell)["final_gap"]
            for cell in ("aug", "orig")]
    print(json.dumps([code, alone_code, chains, forked(), children, same,
                      summary(killed, "drop"), summary(alone, "drop").get("error")]))
    """)
    code, alone_code, chains, chains_alone, children, same, drop, alone_error = json.loads(out)
    assert (code, alone_code, chains, chains_alone, children) == (1, 0, 1, 0, 0)
    assert same == [True, True] and alone_error is None
    assert drop["error"].startswith("RuntimeError: chain process ")
    assert drop["error"].endswith(f"exited with code {-signal.SIGKILL}") and drop["aborted"]
    lines = err.splitlines()
    assert sum(line.startswith("aug seed 0: final gap ") for line in lines) == 2
    assert sum(line.startswith("drop seed 0: failed (RuntimeError: chain process ")
               for line in lines) == 1


def test_progress_lines_printed_at_once_by_two_processes_stay_whole():
    """A plan process and a chain process forked from it print progress
    lines at the same time. On an unbuffered stderr (PYTHONUNBUFFERED), a
    line written in two pieces can be split by the other process's line;
    each line goes out in one write, so none is."""
    _, err = run_script("""
    import io, os, sys
    from augbias import cli

    sys.stderr = io.TextIOWrapper(io.FileIO(2, "w", closefd=False), write_through=True)
    summary = {"seed": 0, "final_gap": 0.1, "initial_gap": 0.2, "iterations": 5,
               "reused_steps": 0, "wall_time": 1.0}
    pid = os.fork()
    for _ in range(2000):
        cli._announce({**summary, "cell": "plan" if pid else "chain"})
    if pid:
        os.waitpid(pid, 0)
    else:
        os._exit(0)
    """)
    lines = err.splitlines()
    assert len(lines) == 4000
    assert all(re.fullmatch(r"(plan|chain) seed 0: final gap 0\.1, 5 steps \(0 reused\), 1\.00 s",
                            line) for line in lines)
