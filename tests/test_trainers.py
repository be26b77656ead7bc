import dataclasses
import math

import numpy as np
import pytest

from augbias import models, trainers
from augbias.core import Rng
from augbias.augment import SyntheticTask, gen_synthetic
from augbias.theory import CeObjective
from augbias.trainers import (
    AugDrop,
    Augmented,
    EpochSampler,
    FirstStageStore,
    MixLoss,
    Original,
    Stage,
    TrainConfig,
    WeMix,
    read_trace_csv,
    run_scheme,
    sgd_step,
    train,
    write_trace_csv,
)


def small_task(seed=0, n=40, m=60, d=3, k=3, delta_y=0.2):
    task = SyntheticTask(mode="label_bias", n=n, m=m, d=d, k=k, delta_y=delta_y)
    return gen_synthetic(task, Rng(seed))


def counted_steps(monkeypatch):
    """A list that gains one entry per trainers.sgd_step call."""
    calls = []
    real = trainers.sgd_step

    def counted(w, grad, eta):
        calls.append(1)
        return real(w, grad, eta)

    monkeypatch.setattr(trainers, "sgd_step", counted)
    return calls


def assert_rows_equal(a, b, skip_stage=False):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.t == rb.t
        if not skip_stage:
            assert ra.stage == rb.stage
        assert ra.L == rb.L
        assert ra.L_tilde == rb.L_tilde
        assert ra.L_c == rb.L_c
        assert ra.grad_norm == rb.grad_norm
        assert ra.constraint == rb.constraint


class TestSgdStep:
    def test_plain_step(self):
        w = sgd_step(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 0.1)
        np.testing.assert_array_equal(w, [0.9, 1.0])

    def test_step_is_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            w = rng.standard_normal(5)
            g = rng.standard_normal(5)
            eta = float(rng.uniform(0.01, 1.0))
            out = sgd_step(w, g, eta)
            np.testing.assert_array_equal(out, w - eta * g)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sgd_step(np.ones(2), np.array([np.nan, 0.0]), 0.1)
        with pytest.raises(ValueError):
            sgd_step(np.ones(2), np.ones(2), 0.0)

    def test_rejects_a_nan_step_size(self):
        with pytest.raises(ValueError, match="eta must be positive"):
            sgd_step(np.ones(2), np.ones(2), math.nan)


class TestEpochSampler:
    def test_one_pass_is_permutation(self):
        s = EpochSampler(10, Rng(1).gen)
        idx = s.draw(10)
        assert sorted(idx.tolist()) == list(range(10))

    def test_no_repeats_within_pass(self):
        s = EpochSampler(12, Rng(2).gen)
        a = s.draw(5)
        b = s.draw(7)
        assert sorted(np.concatenate([a, b]).tolist()) == list(range(12))

    def test_batches_span_reshuffle(self):
        s = EpochSampler(4, Rng(3).gen)
        out = s.draw(10)
        assert out.shape == (10,)
        assert set(out.tolist()) <= set(range(4))

    def test_deterministic(self):
        a = EpochSampler(20, Rng(4).gen).draw(20)
        b = EpochSampler(20, Rng(4).gen).draw(20)
        np.testing.assert_array_equal(a, b)


class TestTraceCsv:
    def test_round_trip_lossless(self, tmp_path):
        orig, aug, _ = small_task()
        w0 = 0.1 * Rng(0).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Original(eta=0.3, batch=5, epochs=2), seed=7)
        trace = run_scheme(w0, orig, None, cfg)
        path = tmp_path / "run.csv"
        write_trace_csv(trace, path)
        parsed = read_trace_csv(path)
        assert_rows_equal(trace.rows, parsed)

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace_csv(p)

    def test_rejects_short_row(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text("t,stage,L,L_tilde,L_c,grad_norm,constraint\n0,1,0.5\n")
        with pytest.raises(ValueError):
            read_trace_csv(p)


class TestTrainOriginal:
    def test_zero_iterations_single_record(self):
        orig, _, _ = small_task()
        w0 = 0.1 * Rng(0).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Original(eta=0.3, batch=5, epochs=0), seed=1)
        trace = run_scheme(w0, orig, None, cfg)
        assert len(trace.rows) == 1
        assert trace.rows[0].t == 0
        np.testing.assert_array_equal(trace.final_params, w0)
        assert not np.shares_memory(trace.final_params, w0)  # the run holds its own copy

    def test_record_count_and_loss_decreases(self):
        finals, initials = [], []
        for seed in range(5):
            orig, _, _ = small_task(seed=seed, n=60)
            w0 = 0.1 * Rng(seed).gen.standard_normal(3 * 3)
            cfg = TrainConfig(scheme=Original(eta=0.5, batch=6, epochs=3), seed=seed)
            trace = run_scheme(w0, orig, None, cfg)
            assert len(trace.rows) == 3 * 10 + 1
            initials.append(trace.rows[0].L)
            finals.append(trace.rows[-1].L)
        assert np.median(finals) < np.median(initials)

    def test_same_seed_bit_identical(self):
        orig, _, _ = small_task()
        w0 = 0.1 * Rng(0).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Original(eta=0.4, batch=5, epochs=2), seed=9)
        t1 = run_scheme(w0, orig, None, cfg)
        t2 = run_scheme(w0, orig, None, cfg)
        assert_rows_equal(t1.rows, t2.rows)
        np.testing.assert_array_equal(t1.final_params, t2.final_params)

    def test_batch_larger_than_set_rejected(self):
        orig, _, _ = small_task(n=10)
        w0 = 0.1 * Rng(0).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Original(eta=0.4, batch=11), seed=1)
        with pytest.raises(ValueError):
            run_scheme(w0, orig, None, cfg)


class TestTrainAugmented:
    def test_records_original_objective_via_eval_set(self):
        orig, aug, _ = small_task()
        w0 = 0.1 * Rng(0).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Augmented(eta=0.3, batch=6, epochs=1), seed=2, eval_orig=orig)
        trace = run_scheme(w0, None, aug, cfg)
        assert len(trace.rows) == (60 // 6) + 1
        assert all(r.stage == 1 for r in trace.rows)
        assert all(np.isfinite(r.L) and r.L > 0 for r in trace.rows)

    def test_without_eval_set_records_zero(self):
        _, aug, _ = small_task()
        w0 = 0.1 * Rng(0).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Augmented(eta=0.3, batch=6), seed=2)
        trace = run_scheme(w0, None, aug, cfg)
        assert all(r.L == 0.0 and r.grad_norm == 0.0 for r in trace.rows)
        assert all(r.L_tilde > 0 for r in trace.rows)


class TestReductions:
    def _common(self, seed=11):
        orig, aug, _ = small_task(seed=seed)
        w0 = 0.1 * Rng(seed).gen.standard_normal(3 * 3)
        return orig, aug, w0

    def test_wemix_at_zero_weights_is_augdrop(self):
        orig, aug, w0 = self._common()
        base = dict(seed=13, ltilde_ref=0.25)
        cfg_w = TrainConfig(
            scheme=WeMix(lam=0.0, delta_y=0.0, t1=7, t2=5, m0=5, eta1=0.3, eta2=0.2, batch=8),
            **base
        )
        cfg_a = TrainConfig(
            scheme=AugDrop(t1=7, m1=5, m2=8, eta1=0.3, eta2=0.2), **base
        )
        tw = run_scheme(w0, orig, aug, cfg_w)
        ta = run_scheme(w0, orig, aug, cfg_a)
        assert_rows_equal(tw.rows, ta.rows)
        np.testing.assert_array_equal(tw.final_params, ta.final_params)

    def test_wemix_without_second_stage_is_mixloss(self):
        orig, aug, w0 = self._common(seed=17)
        cfg_w = TrainConfig(
            scheme=WeMix(lam=0.35, delta_y=0.15, t1=orig.n, t2=0, m0=6, eta1=0.25, eta2=0.1,
                         batch=4),
            seed=23,
        )
        cfg_m = TrainConfig(
            scheme=MixLoss(lam=0.35, delta_y=0.15, m0=6, eta=0.25, epochs=1), seed=23
        )
        tw = run_scheme(w0, orig, aug, cfg_w)
        tm = run_scheme(w0, orig, aug, cfg_m)
        assert_rows_equal(tw.rows, tm.rows)
        np.testing.assert_array_equal(tw.final_params, tm.final_params)

    def test_augdrop_without_first_stage_is_train_original(self):
        orig, aug, w0 = self._common(seed=19)
        cfg_a = TrainConfig(
            scheme=AugDrop(t1=0, m1=5, m2=8, eta1=0.3, eta2=0.2),
            seed=29,
        )
        cfg_o = TrainConfig(
            scheme=dataclasses.replace(Original(eta=0.2, batch=8, epochs=1), lam=0.0,
                                       delta_y=0.0),
            seed=29, eval_aug=aug,
        )
        ta = run_scheme(w0, orig, aug, cfg_a)
        to = run_scheme(w0, orig, None, cfg_o)
        assert_rows_equal(ta.rows, to.rows)
        np.testing.assert_array_equal(ta.final_params, to.final_params)

    def test_augdrop_without_second_stage_is_train_augmented(self):
        orig, aug, w0 = self._common(seed=31)
        cfg_a = TrainConfig(
            scheme=AugDrop(t1=10, m1=6, m2=8, eta1=0.3, eta2=0.2, t2=0), seed=37
        )
        cfg_g = TrainConfig(
            scheme=Augmented(eta=0.3, batch=6, epochs=1), seed=37, eval_orig=orig
        )
        ta = run_scheme(w0, orig, aug, cfg_a)
        tg = run_scheme(w0, None, aug, cfg_g)
        assert_rows_equal(ta.rows, tg.rows)
        np.testing.assert_array_equal(ta.final_params, tg.final_params)

    def test_mixloss_at_full_weight_steps_like_train_original(self):
        orig, aug, w0 = self._common(seed=41)
        cfg_m = TrainConfig(
            scheme=MixLoss(lam=1.0, delta_y=0.2, m0=3, eta=0.3, epochs=1), seed=43
        )
        cfg_o = TrainConfig(
            scheme=dataclasses.replace(Original(eta=0.3, batch=1, epochs=1), lam=1.0,
                                       delta_y=0.2),
            seed=43, eval_aug=aug,
        )
        tm = run_scheme(w0, orig, aug, cfg_m)
        to = run_scheme(w0, orig, None, cfg_o)
        assert_rows_equal(tm.rows, to.rows, skip_stage=True)
        np.testing.assert_array_equal(tm.final_params, to.final_params)


class TestStagePartition:
    def test_tags_partition_into_configured_counts(self):
        orig, aug, _ = small_task(seed=3)
        w0 = 0.1 * Rng(3).gen.standard_normal(3 * 3)
        cfg = TrainConfig(
            scheme=WeMix(lam=0.4, delta_y=0.1, t1=6, t2=4, m0=3, eta1=0.2, eta2=0.1,
                         batch=5),
            seed=5,
        )
        trace = run_scheme(w0, orig, aug, cfg)
        tags = [r.stage for r in trace.rows]
        assert tags[0] == 1
        assert tags[1:].count(1) == 6
        assert tags[1:].count(2) == 4
        assert tags == sorted(tags)

    def test_initial_tag_follows_first_nonempty_stage(self):
        orig, aug, _ = small_task(seed=4)
        w0 = 0.1 * Rng(4).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=AugDrop(t1=0, m1=5, m2=10, eta1=0.2, eta2=0.2), seed=6)
        trace = run_scheme(w0, orig, aug, cfg)
        assert trace.rows[0].stage == 2


class TestEdgeBehaviour:
    """Sizing and evaluation rules that presets and the CLI rely on."""

    def test_augmented_scores_L_on_eval_orig_even_given_originals(self):
        orig, aug, _ = small_task(seed=12)
        held, _, _ = small_task(seed=13)
        w0 = 0.1 * Rng(12).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Augmented(eta=0.3, batch=6), seed=4, eval_orig=held)
        both = run_scheme(w0, orig, aug, cfg)
        alone = run_scheme(w0, None, aug, cfg)
        assert_rows_equal(both.rows, alone.rows)
        assert both.rows[0].L == pytest.approx(CeObjective.over(held).loss(w0),
                                               rel=1e-12)
        assert both.rows[0].L != pytest.approx(CeObjective.over(orig).loss(w0),
                                               rel=1e-6)

    def test_original_scores_L_tilde_on_eval_aug_even_given_augmented(self):
        orig, aug, _ = small_task(seed=14)
        _, held_aug, _ = small_task(seed=15)
        w0 = 0.1 * Rng(14).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Original(eta=0.3, batch=8), seed=4, eval_aug=held_aug)
        both = run_scheme(w0, orig, aug, cfg)
        alone = run_scheme(w0, orig, None, cfg)
        assert_rows_equal(both.rows, alone.rows)
        assert both.rows[0].L_tilde == pytest.approx(
            CeObjective.over(held_aug).loss(w0), rel=1e-12)
        assert both.rows[0].L_tilde != pytest.approx(
            CeObjective.over(aug).loss(w0), rel=1e-6)

    def test_augdrop_default_t2_is_one_pass(self):
        orig, aug, _ = small_task(seed=16)
        w0 = 0.1 * Rng(16).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=AugDrop(t1=4, m1=5, m2=6, eta1=0.2, eta2=0.2), seed=2)
        tags = [r.stage for r in run_scheme(w0, orig, aug, cfg).rows[1:]]
        assert tags.count(1) == 4
        assert tags.count(2) == orig.n // 6

    @pytest.mark.parametrize("t2", [4, None])
    def test_augdrop_m2_above_n_is_an_error(self, t2):
        """m2 is a batch of originals like WeMix's batch, and takes its rule."""
        orig, aug, _ = small_task(seed=17)
        w0 = 0.1 * Rng(17).gen.standard_normal(3 * 3)
        scheme = AugDrop(t1=3, m1=5, m2=orig.n + 7, eta1=0.2, eta2=0.2, t2=t2)
        bad = f"batch {orig.n + 7} is larger than the {orig.n} original examples"
        with pytest.raises(ValueError, match=bad):
            trainers.size_stages(scheme, orig.n, aug.n)
        with pytest.raises(ValueError, match=bad):
            run_scheme(w0, orig, aug, TrainConfig(scheme=scheme, seed=3))
        at_n = AugDrop(t1=3, m1=5, m2=orig.n, eta1=0.2, eta2=0.2, t2=t2)
        assert trainers.size_stages(at_n, orig.n, aug.n)[1] == (t2 or 1, orig.n)

    def test_wemix_stage_two_batch_is_its_batch_not_m0(self):
        orig, aug, _ = small_task(seed=18)
        w0 = 0.1 * Rng(18).gen.standard_normal(3 * 3)
        wemix_cfg = TrainConfig(
            scheme=WeMix(lam=0.0, delta_y=0.0, t1=0, t2=5, m0=3, eta1=0.2, eta2=0.2,
                         batch=8),
            seed=6)
        tw = run_scheme(w0, orig, aug, wemix_cfg)
        for m2, same in ((8, True), (3, False)):
            ta = run_scheme(w0, orig, aug, TrainConfig(
                scheme=AugDrop(t1=0, m1=3, m2=m2, eta1=0.2, eta2=0.2, t2=5), seed=6))
            assert np.array_equal(tw.final_params, ta.final_params) == same


class TestAbortOnDivergence:
    def test_partial_trace_and_flag(self):
        orig, _, _ = small_task(seed=5)
        w0 = 0.1 * Rng(5).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Original(eta=3e307, batch=5, epochs=2), seed=7)
        trace = run_scheme(w0, orig, None, cfg)
        assert trace.aborted
        assert len(trace.rows) < 2 * (orig.n // 5) + 1
        assert all(np.isfinite(r.L) for r in trace.rows)


class TestTrain:
    def test_steps_end_on_the_final_iterate_of_the_run(self):
        orig, _, _ = small_task(seed=7)
        w0 = 0.1 * Rng(7).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=Original(eta=0.3, batch=8, epochs=1), seed=9)
        steps = list(train(w0, orig, None, cfg))
        trace = run_scheme(w0, orig, None, cfg)
        assert [(t, tag) for t, tag, _ in steps] == [(r.t, r.stage) for r in trace.rows[1:]]
        np.testing.assert_array_equal(steps[-1][2], trace.final_params)
        assert all(w.shape == (9,) for _, _, w in steps)

    def test_a_bad_set_or_start_vector_is_rejected_at_the_call(self, monkeypatch):
        orig, _, _ = small_task(seed=7)
        calls = counted_steps(monkeypatch)
        with pytest.raises(ValueError, match="needs the set it trains on"):
            train(np.zeros(9), orig, None, TrainConfig(scheme=Augmented(eta=0.3)))
        with pytest.raises(ValueError, match="w0 must have length 9"):
            train(np.zeros(8), orig, None, TrainConfig(scheme=Original(eta=0.3)))
        assert calls == []


class TestStepChecks:
    """run_scheme checks its start vector once, before any step; no step
    checks the weights again, and only a non-finite gradient ends a run
    quietly."""

    def test_weight_validation_does_not_grow_with_the_step_count(self, monkeypatch):
        _, aug, _ = small_task(seed=3, m=300)
        w0 = 0.1 * Rng(3).gen.standard_normal(3 * 3)
        calls = []

        def counting(module):
            as_vec = module.as_vec

            def counted(*args, **kwargs):
                calls.append(1)
                return as_vec(*args, **kwargs)
            monkeypatch.setattr(module, "as_vec", counted)

        counting(trainers)
        counting(models)
        counts = []
        for epochs in (1, 10):  # 30 and 300 steps
            calls.clear()
            cfg = TrainConfig(scheme=Augmented(eta=0.3, batch=10, epochs=epochs), seed=4)
            trace = run_scheme(w0, None, aug, cfg)
            assert trace.iterations == 30 * epochs and not trace.aborted
            counts.append(len(calls))
        assert counts[0] == counts[1] < 30

    @pytest.mark.parametrize("w0, message", [
        (np.zeros(8), "w0 must have length 9, got 8"),
        (np.zeros(10), "w0 must have length 9, got 10"),
        (np.r_[np.zeros(8), np.nan], "w0 contains non-finite entries"),
    ], ids=["short", "long", "nan"])
    def test_a_bad_start_vector_is_rejected_before_any_step(self, monkeypatch, w0, message):
        orig, aug, _ = small_task(seed=1)
        calls = counted_steps(monkeypatch)
        cfg = TrainConfig(scheme=WeMix(lam=0.5, delta_y=0.1, t1=3, t2=3, m0=2, eta1=0.3,
                                       eta2=0.3, batch=5), seed=2)
        with pytest.raises(ValueError, match=message):
            run_scheme(w0, orig, aug, cfg)
        assert calls == []
        assert run_scheme(np.zeros(9), orig, aug, cfg).iterations == len(calls) == 6

    def test_a_step_error_with_a_finite_gradient_is_raised(self, monkeypatch):
        """sgd_step's ValueError ends the run quietly only when the gradient
        is not finite; any other ValueError is the caller's to see."""
        orig, _, _ = small_task(seed=1)
        w0 = 0.1 * Rng(1).gen.standard_normal(3 * 3)

        def refusing_step(w, grad, eta):
            raise ValueError("refused")

        monkeypatch.setattr(trainers, "sgd_step", refusing_step)
        cfg = TrainConfig(scheme=Original(eta=0.3, batch=5), seed=2)
        with pytest.raises(ValueError, match="refused"):
            run_scheme(w0, orig, None, cfg)


class TestFirstStageStore:
    """A run continues from a stored first stage only when every input that
    decides that stage is the same, and then gives the run from scratch,
    byte for byte, computing only its remaining steps."""

    def _sets(self):
        orig, aug, _ = small_task(seed=21)
        return orig, aug, 0.1 * Rng(21).gen.standard_normal(3 * 3)

    @staticmethod
    def _same_run(a, b, tmp_path):
        """Same trace bytes, end point, abort flag and step count."""
        write_trace_csv(a, tmp_path / "a.csv")
        write_trace_csv(b, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        np.testing.assert_array_equal(a.final_params, b.final_params)
        assert (a.aborted, a.iterations) == (b.aborted, b.iterations)

    # (first run, second run): the second's first stage is a prefix of the first's
    PAIRS = {
        "augmented-then-augdrop": (
            dict(scheme=Augmented(eta=0.3, batch=6, epochs=2)),
            dict(scheme=AugDrop(t1=8, m1=6, m2=8, eta1=0.3, eta2=0.2, t2=7)),
        ),
        "mixloss-then-wemix": (
            dict(scheme=MixLoss(lam=0.6, delta_y=0.2, m0=3, eta=0.3)),
            dict(scheme=WeMix(lam=0.6, delta_y=0.2, t1=9, t2=5, m0=3, eta1=0.3, eta2=0.2,
                              batch=8)),
        ),
        "a-twin": (
            dict(scheme=Augmented(eta=0.3, batch=6, epochs=2)),
            dict(scheme=Augmented(eta=0.3, batch=6, epochs=2)),
        ),
    }

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_continued_run_is_the_run_from_scratch(self, pair, tmp_path, monkeypatch):
        orig, aug, w0 = self._sets()
        first, second = (TrainConfig(seed=5, eval_orig=orig, ltilde_ref=0.1, **kw)
                         for kw in self.PAIRS[pair])
        alone = run_scheme(w0, orig, aug, second)
        store = FirstStageStore()
        stored = run_scheme(w0, orig, aug, first, first_stage=store)
        assert stored.reused_steps == 0
        calls = counted_steps(monkeypatch)
        shared = run_scheme(w0, orig, aug, second, first_stage=store)
        self._same_run(shared, alone, tmp_path)
        t1 = trainers.size_stages(second.scheme, orig.n, aug.n)[0][0]
        assert shared.reused_steps == t1 > 0
        assert len(calls) == shared.iterations - t1
        # the stage stays stored for the next run that shares it
        again = run_scheme(w0, orig, aug, second, first_stage=store)
        assert again.reused_steps == t1
        self._same_run(again, alone, tmp_path)

    @pytest.mark.parametrize("change", [
        "eta", "batch", "seed", "ltilde_ref", "start", "eval_set", "orig", "lam",
        "delta_y", "longer", "mode"])
    def test_any_other_input_runs_from_scratch(self, change, tmp_path):
        orig, aug, w0 = self._sets()
        twin = dataclasses.replace(orig)  # equal arrays, another set
        is_mix = change in ("lam", "delta_y")
        scheme = (MixLoss(lam=0.6, delta_y=0.2, m0=3, eta=0.3, epochs=2) if is_mix
                  else Augmented(eta=0.3, batch=6, epochs=2))
        base = dict(seed=5, eval_orig=orig, ltilde_ref=0.1)
        second = dict(base, scheme=AugDrop(t1=8, m1=6, m2=8, eta1=0.3, eta2=0.2))
        if is_mix:
            second["scheme"] = WeMix(lam=0.6, delta_y=0.2, t1=9, t2=5, m0=3, eta1=0.3,
                                     eta2=0.2, batch=6)
        start, sets = w0, (orig, aug)
        if change == "eta":
            second["scheme"] = AugDrop(t1=8, m1=6, m2=8, eta1=0.31, eta2=0.2)
        elif change == "batch":
            second["scheme"] = AugDrop(t1=8, m1=5, m2=8, eta1=0.3, eta2=0.2)
        elif change == "longer":
            second["scheme"] = AugDrop(t1=21, m1=6, m2=8, eta1=0.3, eta2=0.2)
        elif change == "mode":
            # lam 0 and the same sets, as AugDrop's: only the mode differs
            scheme = trainers.Scheme("orig-first", (Stage("orig", 0.3, iters=12, batch=6),))
            base["eval_aug"] = aug
        elif change == "lam":
            second["scheme"] = WeMix(lam=0.5, delta_y=0.2, t1=9, t2=5, m0=3, eta1=0.3,
                                     eta2=0.2, batch=6)
        elif change == "delta_y":
            second["scheme"] = WeMix(lam=0.6, delta_y=0.3, t1=9, t2=5, m0=3, eta1=0.3,
                                     eta2=0.2, batch=6)
        elif change in ("seed", "ltilde_ref"):
            second[change] = {"seed": 6, "ltilde_ref": 0.2}[change]
        elif change == "start":
            start = 0.1 * Rng(22).gen.standard_normal(3 * 3)
        elif change == "eval_set":
            # Augmented scores L on eval_orig, AugDrop on the originals it trains on
            base["eval_orig"] = twin
        else:
            sets = (twin, aug)
        store = FirstStageStore()
        run_scheme(w0, orig, aug, TrainConfig(scheme=scheme, **base), first_stage=store)
        cfg = TrainConfig(**second)
        shared = run_scheme(start, *sets, cfg, first_stage=store)
        assert shared.reused_steps == 0
        self._same_run(shared, run_scheme(start, *sets, cfg), tmp_path)

    def test_a_diverging_first_stage_is_cut_where_each_run_alone_is(self, tmp_path):
        orig, aug, w0 = self._sets()
        first = TrainConfig(scheme=Augmented(eta=3e307, batch=6, epochs=2), seed=5,
                            eval_orig=orig)
        second = TrainConfig(scheme=AugDrop(t1=8, m1=6, m2=8, eta1=3e307, eta2=0.2),
                             seed=5, eval_orig=orig)
        store = FirstStageStore()
        stored = run_scheme(w0, orig, aug, first, first_stage=store)
        assert stored.aborted and len(stored.rows) <= 8
        shared = run_scheme(w0, orig, aug, second, first_stage=store)
        alone = run_scheme(w0, orig, aug, second)
        assert alone.aborted and shared.reused_steps == 0
        self._same_run(shared, alone, tmp_path)
        self._same_run(stored, run_scheme(w0, orig, aug, first), tmp_path)

    def test_without_a_store_every_step_is_computed(self, monkeypatch):
        orig, aug, w0 = self._sets()
        calls = counted_steps(monkeypatch)
        for kw in self.PAIRS["augmented-then-augdrop"]:
            calls.clear()
            trace = run_scheme(w0, orig, aug, TrainConfig(seed=5, eval_orig=orig, **kw))
            assert trace.reused_steps == 0 and len(calls) == trace.iterations > 0


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            TrainConfig(scheme=Original(eta=0.1, batch=0))
        with pytest.raises(ValueError):
            TrainConfig(scheme=Original(eta=0.0))
        with pytest.raises(ValueError):
            TrainConfig(scheme=AugDrop(t1=-1, m1=5, m2=5, eta1=0.1, eta2=0.1))
        with pytest.raises(ValueError):
            TrainConfig(scheme=AugDrop(t1=1, m1=0, m2=5, eta1=0.1, eta2=0.1))
        with pytest.raises(ValueError):
            TrainConfig(scheme=WeMix(lam=1.5, delta_y=0.0, t1=1, t2=1, m0=1,
                                     eta1=0.1, eta2=0.1))

    def test_run_needs_the_sets_it_trains_on(self):
        orig, aug, _ = small_task()
        w0 = 0.1 * Rng(0).gen.standard_normal(3 * 3)
        cfg = TrainConfig(scheme=MixLoss(lam=0.5, delta_y=0.1, m0=2, eta=0.1))
        for o, a in ((None, aug), (orig, None)):
            with pytest.raises(ValueError, match="needs the set it trains on"):
                run_scheme(w0, o, a, cfg)

    @pytest.mark.parametrize("eta,iters,batch,bad", [
        (math.nan, 5, 10, "eta must be positive and finite"),
        (-1.0, 5, 10, "eta must be positive and finite"),
        (math.inf, 5, 10, "eta must be positive and finite"),
        (0.5, -3, 10, "iters must be nonnegative"),
        (0.5, 5, 0, "batch must be at least 1"),
    ])
    def test_stage_rejects_a_bad_step_size_count_or_batch(self, eta, iters, batch, bad):
        with pytest.raises(ValueError, match=bad):
            Stage("orig", eta, iters=iters, batch=batch)

    def test_stage_names_every_bad_field(self):
        with pytest.raises(ValueError, match="stage mode must be one of .*; eta must be "
                                             ".*; iters must be .*; batch must be"):
            Stage("both", 0.0, iters=-1, batch=0)

    def test_mixloss_lambda_range(self):
        with pytest.raises(ValueError, match=r"lambda out of \(0,1\]"):
            MixLoss(lam=0.0, delta_y=0.1, m0=1, eta=0.1)
        with pytest.raises(ValueError, match=r"lambda out of \(0,1\]"):
            MixLoss(lam=1.5, delta_y=0.1, m0=1, eta=0.1)

    @pytest.mark.parametrize("delta_y", [math.nan, math.inf, -1.0])
    def test_scheme_rejects_a_bad_radius(self, delta_y):
        with pytest.raises(ValueError, match="delta_y must be nonnegative and finite"):
            trainers.Scheme("a", (Stage("aug", 0.5, iters=5, batch=4),), delta_y=delta_y)

    @pytest.mark.parametrize("ctor,kw,bad", [
        (Original, dict(eta=0.1, epochs=-1), "epochs must be nonnegative"),
        (Augmented, dict(eta=0.1, batch=0, epochs=-2),
         "batch must be at least 1; epochs must be nonnegative"),
        (MixLoss, dict(lam=0.5, delta_y=0.1, m0=2, eta=0.1, epochs=-1),
         "epochs must be nonnegative"),
        (WeMix, dict(lam=0.5, delta_y=0.1, t1=1, t2=1, m0=2, eta1=0.1, eta2=0.1, batch=0),
         "batch must be at least 1"),
    ])
    def test_constructors_reject_a_bad_batch_or_epochs(self, ctor, kw, bad):
        with pytest.raises(ValueError, match=bad):
            ctor(**kw)

    def test_scheme_takes_lam_in_the_unit_interval(self):
        stages = (Stage("mixed", 0.5, iters=5, batch=3),)
        for lam in (0.0, 1.0):
            assert trainers.Scheme("a", stages, lam=lam, delta_y=0.1).lam == lam
        for lam in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
                trainers.Scheme("a", stages, lam=lam)

    def test_stages_are_sized_by_their_own_batch_and_length(self):
        scheme = trainers.Scheme("a", (Stage("aug", 0.5, batch=5, epochs=2),
                                       Stage("orig", 0.5, batch=5, iters=3),
                                       Stage("mixed", 0.5, batch=4, epochs=2)))
        assert trainers.size_stages(scheme, 20, 32) == [(12, 5), (3, 5), (40, 4)]

    def test_stage_takes_its_sizes_by_keyword_only(self):
        with pytest.raises(TypeError):
            Stage("orig", 0.3, 12, 6)

    def test_stage_with_iters_rejects_an_epochs_that_changes_nothing(self):
        with pytest.raises(ValueError, match="epochs must be 1 when iters is given"):
            Stage("aug", 0.5, batch=4, iters=3, epochs=2)
        assert Stage("aug", 0.5, batch=4, iters=3, epochs=1).iters == 3

    def test_scheme_names_every_bad_field(self):
        with pytest.raises(ValueError, match="a scheme needs at least one stage; "
                                             "lam must .*; delta_y must be"):
            trainers.Scheme("a", (), lam=2.0, delta_y=math.nan)
