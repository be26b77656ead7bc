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
of the per-step training loop that recorded after every step.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augbias.trainers as trainers
from augbias.core import AUGMENTED, ORIGINAL, LabeledSet, Rng, as_vec, softmax_rows
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
    EpochSampler,
    MixLoss,
    TrainConfig,
    TrainTrace,
    TraceRow,
    WeMix,
    run_scheme,
    size_stages,
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


def as_labeled(ev, provenance):
    """The LabeledSet an EvalSet was built from (row-major labels)."""
    return LabeledSet(ev.inputs, np.ascontiguousarray(ev.labels_t.T), provenance)


def frozen_record(w, eval_orig, eval_aug, lam, delta_y, ltilde_ref):
    """The record's five values, one formula per value, as before the kernel."""
    if eval_orig is not None:
        eval_orig = as_labeled(eval_orig, ORIGINAL)
        l_val = frozen_mean_ce(w, eval_orig)
        gnorm = float(np.linalg.norm(frozen_label_grad(w, eval_orig.inputs, eval_orig.labels)))
    else:
        l_val, gnorm = 0.0, 0.0
    if eval_aug is not None:
        eval_aug = as_labeled(eval_aug, AUGMENTED)
        lt_val = frozen_mean_ce(w, eval_aug)
        la_val = frozen_mean_corrected(w, eval_aug, delta_y)
        cons = lt_val - ltilde_ref
    else:
        lt_val, la_val, cons = 0.0, 0.0, 0.0
    lc_val = lam * l_val + (1.0 - lam) * la_val
    return (l_val, lt_val, lc_val, gnorm, cons)


def kernel_record(w, eval_orig, eval_aug, lam, delta_y, ltilde_ref):
    """The record's five values at one iterate, from the trainer's scorer."""
    with trainers._RecordScorer(eval_orig, eval_aug, lam, delta_y, ltilde_ref,
                                threads=1) as scorer:
        return scorer.values(w[None, :])[0]


def frozen_run_scheme(w0, orig, aug, cfg):
    """run_scheme as it stood before chunked scoring: a record after every
    step, scored by frozen_record, ending at the first non-finite iterate,
    record or gradient. The layer functions are looked up on the trainers
    module at each call, so wrappers installed there reach this loop too."""
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
    rows, iterates, aborted = [], [] if cfg.keep_iterates else None, False

    def record(t, tag):
        if not np.all(np.isfinite(w)):
            return False
        with np.errstate(over="ignore", invalid="ignore"):
            vals = frozen_record(w, eval_orig, eval_aug, lam, delta_y, cfg.ltilde_ref)
        if not all(np.isfinite(v) for v in vals):
            return False
        rows.append(TraceRow(t, tag, *vals))
        if iterates is not None:
            iterates.append(w.copy())
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
    return TrainTrace(rows=rows, final_params=w, aborted=aborted, iterations=global_t,
                      iterates=np.array(iterates) if iterates is not None else None)


def assert_same_run(new, old):
    assert new.rows == old.rows
    assert new.aborted == old.aborted
    assert new.iterations == old.iterations
    assert same(new.final_params, old.final_params)
    assert (new.iterates is None) == (old.iterates is None)
    if new.iterates is not None:
        assert same(new.iterates, old.iterates)


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
    ev, ds = EvalSet.of(x, y), LabeledSet(x, y, AUGMENTED)
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
    orig, aug = LabeledSet(x, y, ORIGINAL), LabeledSet(x, y, AUGMENTED)
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
        obj = CeObjective.over(LabeledSet(x, y, ORIGINAL))
        value, grad = obj.value_and_grad(w)
        assert same(value, obj.loss(w)) and same(grad, obj.grad(w))


# Feature counts of the whole-run tests: three, fewer than most class
# counts, and seven, more than most, so the weight matrix is wide or tall.
FEATURES = [3, 7]


def _sets(seed, n, m, d, k):
    rng = np.random.default_rng(seed)
    orig = LabeledSet(rng.standard_normal((n, d)), random_labels(rng, n, k), ORIGINAL)
    aug = LabeledSet(rng.standard_normal((m, d)), random_labels(rng, m, k), AUGMENTED)
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
        TrainConfig(scheme=AugDrop(t1=15, m1=4, m2=4, eta1=eta, eta2=eta, t2=15), seed=2,
                    keep_iterates=True),
        TrainConfig(scheme=MixLoss(lam=0.6, delta_y=0.3, m0=5, eta=eta), seed=3,
                    keep_iterates=True),
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


@pytest.mark.parametrize("d", FEATURES)
@pytest.mark.parametrize("chunk", [6, trainers.CHUNK])
@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("fault", list(FAULTS))
def test_divergence_ends_the_trace_where_the_per_step_loop_does(monkeypatch, chunk, threads,
                                                                fault, d):
    """rows, aborted, final_params, iterations and iterates equal the frozen
    per-step loop's, wherever in a chunk, stage or run the first non-finite
    record, iterate or gradient falls, on one scoring part and on several."""
    monkeypatch.setattr(trainers, "CHUNK", chunk)
    monkeypatch.setattr(trainers, "scoring_threads", lambda: threads)
    orig, aug = _sets(4, 30, 50, d, 4)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(4 * d)
    faults = Faults(monkeypatch, **FAULTS[fault])
    for scheme in (AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9),
                   WeMix(lam=0.6, delta_y=0.3, t1=9, t2=9, m0=5, eta1=0.5, eta2=0.5, batch=4)):
        cfg = TrainConfig(scheme=scheme, seed=2, keep_iterates=True)
        new = run_scheme(w0, orig, aug, cfg)
        faults.reset()
        old = frozen_run_scheme(w0, orig, aug, cfg)
        faults.reset()
        assert_same_run(new, old)
        assert new.aborted == (fault != "none")


@pytest.mark.parametrize("threads", [1, 3])
def test_divergence_at_the_first_record(threads, monkeypatch):
    """An initial iterate whose record overflows gives an empty trace at
    t = 0, although training runs ahead of it."""
    monkeypatch.setattr(trainers, "scoring_threads", lambda: threads)
    orig, aug = _sets(4, 30, 50, 3, 4)
    w0 = 1e300 * np.random.default_rng(1).standard_normal(4 * 3)
    cfg = TrainConfig(scheme=AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9), seed=2,
                      keep_iterates=True)
    new = run_scheme(w0, orig, aug, cfg)
    assert_same_run(new, frozen_run_scheme(w0, orig, aug, cfg))
    assert new.rows == [] and new.aborted and new.iterations == 0


def test_a_step_that_raises_after_finite_records_raises(monkeypatch):
    """An exception from a step whose earlier records are all finite is the
    per-step loop's exception too, so it is raised, not turned into an
    abort."""
    orig, aug = _sets(4, 30, 50, 3, 4)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(4 * 3)
    cfg = TrainConfig(scheme=AugDrop(t1=9, m1=4, m2=4, eta1=0.5, eta2=0.5, t2=9), seed=2)
    faults = Faults(monkeypatch, raise_at=(8,))
    for run in (run_scheme, frozen_run_scheme):
        faults.reset()
        with pytest.raises(RuntimeError, match="step 8"):
            run(w0, orig, aug, cfg)


@pytest.mark.parametrize("d", [4, 7])
def test_one_scoring_part_and_several_give_the_same_run(monkeypatch, d):
    """Several chunks of records, scored on 1, 2 and 5 threads (more parts
    than this host may have CPUs), give the same run to the bit."""
    orig, aug = _sets(6, 200, 300, d, 6)
    w0 = 0.1 * np.random.default_rng(1).standard_normal(6 * d)
    cfg = TrainConfig(scheme=WeMix(lam=0.6, delta_y=0.3, t1=150, t2=150, m0=5, eta1=0.5,
                                   eta2=0.5, batch=4), seed=4, keep_iterates=True)
    runs = []
    for threads in (1, 2, 5):
        monkeypatch.setattr(trainers, "scoring_threads", lambda threads=threads: threads)
        runs.append(run_scheme(w0, orig, aug, cfg))
    assert len(runs[0].rows) == 301 > 2 * trainers.CHUNK
    for run in runs[1:]:
        assert_same_run(run, runs[0])
