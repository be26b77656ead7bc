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
scored on the calling thread and by forked scoring workers; the steps of
trainers.train are checked against the same loop run without records.
"""
import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augbias.trainers as trainers
from augbias.core import LabeledSet, Rng, as_vec, softmax_rows
from augbias.models import (
    STACK_BATCH,
    EvalSet,
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
    ScoringWorkers,
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


def as_labeled(ev):
    """The LabeledSet an EvalSet was built from (row-major labels)."""
    return LabeledSet(ev.inputs, np.ascontiguousarray(ev.labels_t.T))


def frozen_record(w, eval_orig, eval_aug, lam, delta_y, ltilde_ref):
    """The record's five values, one formula per value, as before the kernel."""
    if eval_orig is not None:
        eval_orig = as_labeled(eval_orig)
        l_val = frozen_mean_ce(w, eval_orig)
        gnorm = float(np.linalg.norm(frozen_label_grad(w, eval_orig.inputs, eval_orig.labels)))
    else:
        l_val, gnorm = 0.0, 0.0
    if eval_aug is not None:
        eval_aug = as_labeled(eval_aug)
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
    return tuple(scorer.score(w[None, :], scorer.workspace())[0])


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
    eval_orig = EvalSet.of(eval_orig.inputs, eval_orig.labels) if eval_orig is not None else None
    eval_aug = EvalSet.of(eval_aug.inputs, eval_aug.labels) if eval_aug is not None else None
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
    ev = EvalSet.of(rng.standard_normal((n, d)), random_labels(rng, n, k))
    out = np.empty((b, k, n))  # C-ordered, as the class-major reductions need
    with np.errstate(over="ignore", invalid="ignore"):
        got = scores_t(params, ev, out=out)
        assert got is out
        for i, w in enumerate(params):
            assert same(got[i], batch_scores(w, ev.inputs).T)


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
    ev, ds = EvalSet.of(x, y), LabeledSet(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        got = stack_stats(params, ev, delta_y=delta_y, grad=True)
        for i, w in enumerate(params):
            one = eval_scores(w, ev, delta_y=delta_y, grad=True)
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
    ev, ds = EvalSet.of(x, y), LabeledSet(x, y)
    with np.errstate(over="ignore", invalid="ignore"):
        got = stack_stats(params, ev, delta_y=0.0)
        for i, w in enumerate(params):
            assert same(got.corrected[i], frozen_mean_corrected(w, ds, 0.0))


def test_corrected_loss_at_delta_y_zero_where_p_squared_overflows():
    """Scores near 1e160 give p near 1e160, finite, and p squared inf: the
    corrected loss is NaN, as in the full pass, while the loss is finite.
    At 1e150 both are finite and equal."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((40, 3)), random_labels(rng, 40, 4)
    ev, ds = EvalSet.of(x, y), LabeledSet(x, y)
    params = np.stack([1e160 * rng.standard_normal(12), 1e150 * rng.standard_normal(12)])
    with np.errstate(over="ignore", invalid="ignore"):
        got = stack_stats(params, ev, delta_y=0.0)
        want = [frozen_mean_corrected(w, ds, 0.0) for w in params]
    assert np.isfinite(got.loss).all()
    assert np.isnan(got.corrected[0]) and np.isnan(want[0])
    assert got.corrected[1] == got.loss[1] == want[1]


@settings(max_examples=200, deadline=None)
@given(k=classes, n=rows, m=rows, d=st.integers(1, 4), log_scale=log_scales, seed=seeds)
def test_record_matches_frozen_formulas(k, n, m, d, log_scale, seed):
    rng = np.random.default_rng(seed)
    w = 10.0**log_scale * rng.standard_normal(k * d)
    orig = EvalSet.of(rng.standard_normal((n, d)), random_labels(rng, n, k))
    aug = EvalSet.of(rng.standard_normal((m, d)), random_labels(rng, m, k))
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
    assert CeObjective.over(orig).loss(w) == frozen_mean_ce(w, orig)
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
        obj = CeObjective.over(LabeledSet(x, y))
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


# Scoring workers of the whole-run tests: none, so the calling thread scores
# every record, one, and two, which split a chunk three ways.
WORKERS = [0, 1, 2]


@pytest.mark.parametrize("d", FEATURES)
@pytest.mark.parametrize("chunk", [6, trainers.CHUNK])
@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("fault", list(FAULTS))
def test_divergence_ends_the_trace_where_the_per_step_loop_does(monkeypatch, chunk, workers,
                                                                fault, d):
    """rows, aborted, final_params and iterations equal the frozen
    per-step loop's, wherever in a chunk, stage or run the first non-finite
    record, iterate or gradient falls, with records scored on the calling
    thread alone and with workers. The runs score 19 records, so at chunks
    of CHUNK they fork no workers and only the chunks of 6 share records."""
    monkeypatch.setattr(trainers, "CHUNK", chunk)
    orig, aug = _sets(4, 30, 50, d, 4)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(4 * d)
    faults = Faults(monkeypatch, **FAULTS[fault])
    for scheme in (AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9),
                   WeMix(lam=0.6, delta_y=0.3, t1=9, t2=9, m0=5, eta1=0.5, eta2=0.5, batch=4)):
        cfg = TrainConfig(scheme=scheme, seed=2)
        with ScoringWorkers(workers) as pool:
            new = run_scheme(w0, orig, aug, cfg, workers=pool)
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


@pytest.mark.parametrize("workers", WORKERS)
def test_divergence_at_the_first_record(workers, monkeypatch):
    """An initial iterate whose record overflows gives an empty trace at
    t = 0, although training runs ahead of it. Chunks of 6 make the run
    long enough to fork its workers."""
    monkeypatch.setattr(trainers, "CHUNK", 6)
    orig, aug = _sets(4, 30, 50, 3, 4)
    w0 = 1e300 * np.random.default_rng(1).standard_normal(4 * 3)
    cfg = TrainConfig(scheme=AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9), seed=2)
    with ScoringWorkers(workers) as pool:
        new = run_scheme(w0, orig, aug, cfg, workers=pool)
    assert_same_run(new, frozen_run_scheme(w0, orig, aug, cfg))
    assert new.rows == [] and new.aborted and new.iterations == 0


@pytest.mark.parametrize("workers", WORKERS)
def test_a_step_that_raises_after_finite_records_raises(monkeypatch, workers):
    """An exception from a step whose earlier records are all finite is the
    per-step loop's exception too, so it is raised, not turned into an
    abort. The workers take the next run with nothing left over from it.
    Chunks of 6 make the runs long enough to share their records."""
    monkeypatch.setattr(trainers, "CHUNK", 6)
    orig, aug = _sets(4, 30, 50, 3, 4)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(4 * 3)
    cfg = TrainConfig(scheme=AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9), seed=2)
    faults = Faults(monkeypatch, raise_at=(8,))
    with ScoringWorkers(workers) as pool:
        with pytest.raises(RuntimeError, match="step 8"):
            run_scheme(w0, orig, aug, cfg, workers=pool)
        faults.reset()
        with pytest.raises(RuntimeError, match="step 8"):
            frozen_run_scheme(w0, orig, aug, cfg)
        faults.raise_at = ()
        faults.reset()
        new = run_scheme(w0, orig, aug, cfg, workers=pool)
    faults.reset()
    assert_same_run(new, frozen_run_scheme(w0, orig, aug, cfg))
    assert (new.score_wait_s > 0) == (workers > 0)


@pytest.mark.parametrize("d", [4, 7])
@pytest.mark.parametrize("workers", WORKERS)
def test_calling_thread_and_workers_give_the_per_step_run(d, workers):
    """Several chunks of records, a first stage taken from the store and
    runs without one, scored with 0, 1 and 2 workers (more processes than
    this host may have CPUs), give the per-step loop's runs to the bit."""
    orig, aug = _sets(6, 200, 300, d, 6)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(6 * d)
    configs = [TrainConfig(scheme=scheme, seed=4) for scheme in (
        MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=0.5),
        WeMix(lam=0.6, delta_y=0.3, t1=150, t2=150, m0=5, eta1=0.5, eta2=0.5, batch=4))]
    store = FirstStageStore()
    with ScoringWorkers(workers) as pool:
        runs = [run_scheme(w0, orig, aug, cfg, first_stage=store, workers=pool)
                for cfg in configs]
        runs.append(run_scheme(w0, orig, aug, configs[1], workers=pool))  # without the store
    configs.append(configs[1])
    assert [run.reused_steps for run in runs] == [0, 150, 0]
    assert len(runs[2].rows) == 301 > 2 * trainers.CHUNK
    # a worker scored a part of some chunk, and the calling thread waited on it
    assert all((run.score_wait_s > 0) == (workers > 0) for run in runs)
    for cfg, run in zip(configs, runs):
        assert_same_run(run, frozen_run_scheme(w0, orig, aug, cfg))


@pytest.mark.parametrize("workers, sizes", [
    (0, [128, 128, 45]),
    (1, [16, 32, 63, 47, 35, 27, 20, 15, 11, 8, 8, 8, 8, 3])])
def test_only_a_run_that_workers_share_starts_with_small_chunks(monkeypatch, workers, sizes):
    """A run that workers share starts with FIRST_CHUNK records, of which
    the worker scores an equal part, and doubles its chunks up to CHUNK, but
    caps each at a quarter of the steps still to train, down to LAST_CHUNK:
    when training stops, at most LAST_CHUNK records are left to score. A
    run scored on the calling thread alone has nothing to overlap and
    scores CHUNK-record chunks from the start."""
    orig, aug = _sets(6, 200, 300, 4, 6)
    cfg = TrainConfig(scheme=WeMix(lam=0.6, delta_y=0.3, t1=150, t2=150, m0=5,
                                   eta1=0.5, eta2=0.5, batch=4), seed=4)
    start, started = trainers._RecordScorer.start, []
    score, calling, own = trainers._Scorer.score, os.getpid(), []

    def counted(self, chunk, overlap_s):
        started.append(len(chunk))
        return start(self, chunk, overlap_s)

    def counted_score(self, params, ws):
        if os.getpid() == calling:
            own.append(len(params))
        return score(self, params, ws)

    monkeypatch.setattr(trainers._RecordScorer, "start", counted)
    monkeypatch.setattr(trainers._Scorer, "score", counted_score)
    with ScoringWorkers(workers) as pool:
        run = run_scheme(np.zeros(6 * 4), orig, aug, cfg, workers=pool)
    assert len(run.rows) == 301 and started == sizes
    assert len(own) == len(sizes)
    if workers:
        assert sizes[-2] <= trainers.LAST_CHUNK and sizes[-1] <= trainers.LAST_CHUNK
        assert own[0] == trainers.FIRST_CHUNK // 2  # the worker scored the other half
    else:
        assert own == sizes


def test_a_worker_is_sent_each_evaluation_set_once(monkeypatch):
    """A worker keeps the evaluation sets of the run it scored last, so a
    second run on the same sets sends it under 1 KB to set up, where the
    first sent every set; that run's lam and delta_y (new here) reach the
    worker all the same. A run on other sets, equal in shape, sends them.
    Every run is the per-step loop's run."""
    sent = []
    send_bytes = multiprocessing.connection.Connection._send_bytes

    def counted(self, buf):
        sent[-1].append(len(buf))
        return send_bytes(self, buf)

    monkeypatch.setattr(multiprocessing.connection.Connection, "_send_bytes", counted)
    orig, aug = _sets(6, 200, 300, 4, 6)
    other = _sets(7, 200, 300, 4, 6)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(6 * 4)
    runs = [(orig, aug, MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=0.5)),
            (orig, aug, MixLoss(lam=0.3, delta_y=0.1, m0=5, eta=0.5)),
            (*other, MixLoss(lam=0.3, delta_y=0.1, m0=5, eta=0.5))]
    with ScoringWorkers(1) as pool:
        for o, a, scheme in runs:
            cfg = TrainConfig(scheme=scheme, seed=4)
            sent.append([])
            new = run_scheme(w0, o, a, cfg, workers=pool)
            assert new.score_wait_s > 0  # the worker scored a part of some chunk
            assert_same_run(new, frozen_run_scheme(w0, o, a, cfg))
    set_up = [run[0] for run in sent]  # each run's first message sets it up
    assert set_up[0] > 20_000 and set_up[1] < 1024 and set_up[2] == set_up[0]


def test_a_run_that_raises_while_workers_score_leaves_them_ready(monkeypatch):
    """The calling thread raises while a worker holds a part of the chunk
    (here, from scoring its own part of the third chunk). The run fails with
    that error, the worker's part is read and dropped, and the next run on
    the same worker is the per-step loop's run."""
    orig, aug = _sets(6, 200, 300, 4, 6)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(6 * 4)
    cfg = TrainConfig(scheme=MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=0.5), seed=4)
    score, calling, calls = trainers._Scorer.score, os.getpid(), []

    def failing(self, params, ws):
        if os.getpid() == calling:
            calls.append(len(params))
            if len(calls) == 3:
                raise MemoryError("planted")
        return score(self, params, ws)

    monkeypatch.setattr(trainers._Scorer, "score", failing)
    with ScoringWorkers(1) as pool:
        with pytest.raises(MemoryError, match="planted"):
            run_scheme(w0, orig, aug, cfg, workers=pool)
        new = run_scheme(w0, orig, aug, cfg, workers=pool)
    # the worker held parts of both chunks, of 32 and 38 records (a quarter
    # of the 153 steps still to train after the second chunk)
    assert calls[1] < 32 and calls[2] < 38
    assert_same_run(new, frozen_run_scheme(w0, orig, aug, cfg))


def test_a_worker_that_dies_under_a_failing_run_does_not_hide_its_error(monkeypatch):
    """The worker is killed while it holds a part of the third chunk, and the
    calling thread then raises. The run fails with the calling thread's
    error, not with the lost worker's, and the next run on the same
    ScoringWorkers scores on the calling thread alone."""
    orig, aug = _sets(6, 200, 300, 4, 6)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(6 * 4)
    cfg = TrainConfig(scheme=MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=0.5), seed=4)
    score, calling, calls, worker_calls = trainers._Scorer.score, os.getpid(), [], []

    def failing(self, params, ws):
        if os.getpid() != calling:
            worker_calls.append(len(params))
            if len(worker_calls) == 3:
                time.sleep(60)  # never answers the third chunk's part
        else:
            calls.append(len(params))
            if len(calls) == 3:
                [worker] = multiprocessing.active_children()
                worker.kill()
                worker.join()
                raise MemoryError("planted")
        return score(self, params, ws)

    monkeypatch.setattr(trainers._Scorer, "score", failing)
    with ScoringWorkers(1) as pool:
        with pytest.raises(MemoryError, match="planted"):
            run_scheme(w0, orig, aug, cfg, workers=pool)
        assert multiprocessing.active_children() == []
        new = run_scheme(w0, orig, aug, cfg, workers=pool)
    assert new.score_wait_s == 0.0
    assert_same_run(new, frozen_run_scheme(w0, orig, aug, cfg))


def run_script(script: str, timeout: float = 120.0) -> str:
    """Run `script` in a fresh interpreter, in a session of its own, and
    return its stdout; a hang past `timeout` ends the session and fails."""
    src = os.path.dirname(os.path.dirname(trainers.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)], env=env,
                            text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"the script did not finish within {timeout} s")
    assert proc.returncode == 0, err
    return out


# A plan on a small task, run by the scripts below; `cells` names Original
# cells as (name, eta, epochs). Each pass over the 200 originals is 50 steps.
PLAN_SCRIPT = """
    import json, multiprocessing, os, sys
    from augbias import cli, trainers
    from augbias.augment import SyntheticTask

    def plan(outdir, cells, seeds=(0,)):
        task = SyntheticTask(mode="label_bias", n=200, m=300, d=3, k=3, delta_y=0.2)
        return cli.ExperimentPlan(task=task, seeds=seeds, outdir=outdir, cells=tuple(
            cli.Cell(name, trainers.Original(eta=eta, batch=4, epochs=epochs))
            for name, eta, epochs in cells))

    def summary(outdir, cell, seed=0):
        with open(os.path.join(outdir, f"{cell}__seed{seed}.json")) as fh:
            return json.load(fh)
"""


def test_no_process_outlives_a_plan(tmp_path):
    """After a plan with a pair that finishes, one whose training raises and
    one that diverges, on one process and on two --jobs workers, no scoring
    worker is left: none among the plan process's children, and no other
    process in its session. The host is said to have four CPUs, so the
    plan forks three scoring workers per group, and each --jobs worker one,
    for runs of 151 records."""
    out = run_script(PLAN_SCRIPT + f"""
    os.sched_getaffinity = lambda pid: set(range(4))
    step, calls = trainers.sgd_step, [0]

    def sgd_step(w, grad, eta):
        if eta == 0.25:  # the raising cell, at the 50th step of each of its runs
            calls[0] += 1
            if calls[0] % 50 == 0:
                raise RuntimeError("planted")
        return step(w, grad, eta)

    trainers.sgd_step = sgd_step

    def session_others():
        sid, found = os.getsid(0), []
        for pid in os.listdir("/proc"):
            if pid.isdigit() and int(pid) != os.getpid():
                try:
                    with open(f"/proc/{{pid}}/stat") as fh:
                        stat = fh.read()
                except OSError:
                    continue
                if int(stat[stat.rindex(")") + 2:].split()[3]) == sid:
                    found.append(pid)
        return found

    cells = (("ok", 0.3, 3), ("raises", 0.25, 3), ("diverges", 1e300, 3))
    for jobs in (1, 2):
        outdir = os.path.join({str(tmp_path)!r}, f"jobs{{jobs}}")
        _, code = cli.run_plan(plan(outdir, cells, seeds=(0, 1)), jobs=jobs)
        states = [(s.get("error"), s["aborted"], s.get("score_wait_s", 0.0) > 0) for s in
                  (summary(outdir, cell, seed) for seed in (0, 1) for cell, _, _ in cells)]
        print(json.dumps([code, states, len(multiprocessing.active_children()),
                          session_others()]))
    """)
    for line in out.splitlines():
        code, states, children, others = json.loads(line)
        assert code == 1
        # the finishing run waited on a worker, so the workers were forked
        assert states == 2 * [[None, False, True], ["RuntimeError: planted", True, False],
                              [None, True, False]]
        assert children == 0 and others == []


def test_a_worker_that_dies_fails_its_run_and_the_plan_goes_on(tmp_path):
    """The scoring worker is terminated in the middle of the first run. That
    run fails, naming the worker and its exit code, and the plan goes on:
    the next run scores on the calling thread, to the same bytes as a plan
    without workers, and nothing is left running."""
    out = run_script(PLAN_SCRIPT + f"""
    os.sched_getaffinity = lambda pid: {{0, 1}}
    step, calls = trainers.sgd_step, [0]

    def sgd_step(w, grad, eta):
        calls[0] += 1
        if calls[0] == 300:  # mid-way through the first run's 1000 steps
            for child in multiprocessing.active_children():
                child.terminate()
        return step(w, grad, eta)

    trainers.sgd_step = sgd_step
    cells = (("first", 0.3, 20), ("second", 0.2, 20))
    with_worker = os.path.join({str(tmp_path)!r}, "with_worker")
    _, code = cli.run_plan(plan(with_worker, cells))
    children = len(multiprocessing.active_children())
    cli._scoring_workers = lambda processes: 0
    alone = os.path.join({str(tmp_path)!r}, "alone")
    cli.run_plan(plan(alone, cells))
    same = (open(os.path.join(with_worker, "second__seed0.csv"), "rb").read()
            == open(os.path.join(alone, "second__seed0.csv"), "rb").read())
    print(json.dumps([code, summary(with_worker, "first").get("error"),
                      summary(with_worker, "second")["aborted"], same, children]))
    """)
    code, error, second_aborted, same, children = json.loads(out)
    assert code == 1
    assert error.startswith("RuntimeError: record-scoring worker ")
    assert error.endswith(f"exited with code {-signal.SIGTERM}")
    assert not second_aborted and same and children == 0
