"""Constant estimators, radii, bounds, and schedule resolution.

The quadratic oracle plants singular values through rotations, so the exact
curvature extremes come from linear algebra rather than from the estimators
under test. Worked scalar expectations are frozen from hand evaluation, with
the one delicate batch formula cross-checked against a 50-digit decimal
evaluation.
"""
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext

import numpy as np
import pytest

from augbias.augment import SyntheticTask, gen_synthetic
from augbias.core import DegenerateEstimateError, Rng
from augbias.theory import (
    CeObjective,
    ConstantEstimates,
    augdrop_label_bound,
    augdrop_shift_bound,
    best_found_floor,
    bias_radius,
    estimate_constants,
    estimate_L_smooth,
    estimate_mu,
    highprob_inflation,
    in_constraint_set,
    mixloss_bound,
    original_sgd_bound,
    perturbed_cloud,
    plateau_label_bound,
    plateau_shift_bound,
    shift_radius,
    theory_stepsizes,
)
from augbias.trainers import Original, TrainConfig, train


@dataclass(frozen=True)
class Quad:
    """0.5 ||A w - b||^2 with a planted spectrum; floor 0 at w* = A^+ b."""

    a: np.ndarray
    b: np.ndarray

    def loss(self, w):
        r = self.a @ w - self.b
        return 0.5 * float(r @ r)

    def grad(self, w):
        return self.a.T @ (self.a @ w - self.b)

    def value_and_grad(self, w):
        return self.loss(w), self.grad(w)


@dataclass(frozen=True)
class Lin:
    """c . w, the zero-curvature edge case: constant gradient everywhere."""

    c: np.ndarray

    def loss(self, w):
        return float(self.c @ w)

    def grad(self, w):
        return self.c.copy()


def planted_quad(seed, d=5, s_lo=1.0, s_hi=1.2):
    """Quadratic whose Hessian spectrum is known by construction."""
    r = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(r.standard_normal((d, d)))
    q2, _ = np.linalg.qr(r.standard_normal((d, d)))
    s = np.linspace(s_lo, s_hi, d)
    a = q1 @ np.diag(s) @ q2.T
    w_star = r.standard_normal(d)
    return Quad(a, a @ w_star), w_star, s


def small_ce(seed, n=80, d=3, k=3, delta_y=0.2):
    task = SyntheticTask(mode="label_bias", n=n, m=n, d=d, k=k, delta_y=delta_y)
    orig, aug, planted = gen_synthetic(task, Rng(seed, 0))
    return orig, aug, planted, k * d


class TestCeObjective:
    def test_loss_matches_objective_value(self):
        from reference import objective_value

        orig, _, _, size = small_ce(0)
        w = 0.1 * Rng(1, 0).gen.standard_normal(size)
        obj = CeObjective.over(orig)
        assert obj.loss(w) == pytest.approx(
            objective_value(w, orig, "L"), abs=1e-14
        )

    def test_grad_finite_difference(self):
        orig, _, _, size = small_ce(1, n=12)
        w = 0.1 * Rng(2, 0).gen.standard_normal(size)
        obj = CeObjective.over(orig)
        g = obj.grad(w)
        h = 1e-6
        fd = np.array([
            (obj.loss(w + h * e) - obj.loss(w - h * e)) / (2 * h)
            for e in np.eye(w.size)
        ])
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("method", ["loss", "grad", "value_and_grad"])
    @pytest.mark.parametrize("w, message", [
        (np.zeros(8), "w must have length 9, got 8"),
        (np.zeros(10), "w must have length 9, got 10"),
        (np.zeros((3, 3)), "w must be 1-d"),
        (np.r_[np.zeros(8), np.nan], "w contains non-finite entries"),
        (np.r_[np.zeros(8), np.inf], "w contains non-finite entries"),
    ], ids=["short", "long", "matrix", "nan", "inf"])
    def test_rejects_a_bad_weight_vector(self, method, w, message):
        orig, _, _, size = small_ce(0)
        assert size == 9
        with pytest.raises(ValueError, match=message):
            getattr(CeObjective.over(orig), method)(w)


class Counting:
    """Forwards to an objective and records every point it evaluates."""

    def __init__(self, obj):
        self.obj = obj
        self.grads: list[bytes] = []
        self.evals: list[bytes] = []

    def grad(self, w):
        self.grads.append(w.tobytes())
        return self.obj.grad(w)

    def value_and_grad(self, w):
        self.evals.append(w.tobytes())
        return self.obj.value_and_grad(w)


def frozen_L_smooth(obj, pairs):
    """The pairwise loop before per-point gradient reuse: two gradients per pair."""
    best = 0.0
    for w, u in pairs:
        w = np.asarray(w, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        dist = float(np.linalg.norm(w - u))
        if dist < 1e-8:
            continue
        best = max(best, float(np.linalg.norm(obj.grad(w) - obj.grad(u))) / dist)
    return best


def frozen_mu(obj, points, l_floor):
    """The two-pass loop: loss, then grad, per point."""
    best = math.inf
    for w in points:
        gap = obj.loss(w) - l_floor
        if gap < 1e-10:
            continue
        g = obj.grad(w)
        best = min(best, float(g @ g) / (2.0 * gap))
    return best


def repeating_pairs(center, rng, count=12):
    """Neighbour pairs around a ring of points, each point paired with the
    center too, plus one coincident pair that the estimator skips."""
    pts = [center + rng.standard_normal(center.shape) for _ in range(count)]
    pairs = [(pts[i], pts[(i + 1) % count]) for i in range(count)]
    pairs += [(p, center) for p in pts[: count // 2]]
    pairs.append((pts[0], pts[0].copy()))
    return pairs, 1 + count


def ce_objective(seed):
    orig, _, _, size = small_ce(seed)
    return CeObjective.over(orig), 0.1 * Rng(seed, 1).gen.standard_normal(size)


class TestEstimateMu:
    def test_single_point_is_exact_ratio(self):
        quad, w_star, _ = planted_quad(3)
        w = w_star + np.ones(5)
        expected = float(quad.grad(w) @ quad.grad(w)) / (2.0 * quad.loss(w))
        assert estimate_mu(quad, [w], 0.0) == pytest.approx(expected, rel=1e-14)

    def test_recovers_planted_lambda_min(self):
        for seed in range(3):
            quad, w_star, _ = planted_quad(seed)
            lam_min = np.linalg.eigvalsh(quad.a.T @ quad.a)[0]
            r = np.random.default_rng(100 + seed)
            pts = w_star + r.standard_normal((1000, 5))
            mu_hat = estimate_mu(quad, pts, 0.0)
            assert mu_hat >= lam_min - 1e-9
            assert abs(mu_hat - lam_min) <= 0.15 * lam_min

    def test_subset_never_decreases(self):
        quad, w_star, _ = planted_quad(4)
        r = np.random.default_rng(5)
        pts = list(w_star + r.standard_normal((40, 5)))
        full = estimate_mu(quad, pts, 0.0)
        for k in (1, 5, 20):
            assert estimate_mu(quad, pts[:k], 0.0) >= full - 1e-15

    def test_all_points_at_floor(self):
        quad, w_star, _ = planted_quad(6)
        with pytest.raises(DegenerateEstimateError):
            estimate_mu(quad, [w_star, w_star], 0.0)

    def test_floor_points_are_skipped(self):
        quad, w_star, _ = planted_quad(7)
        w = w_star + np.ones(5)
        alone = estimate_mu(quad, [w], 0.0)
        assert estimate_mu(quad, [w_star, w], 0.0) == alone

    @pytest.mark.parametrize("kind", ["quad", "ce"])
    def test_one_evaluation_per_point(self, kind):
        obj, center = planted_quad(12)[:2] if kind == "quad" else ce_objective(12)
        r = np.random.default_rng(13)
        pts = [center] + [center + r.standard_normal(center.shape) for _ in range(20)]
        counting = Counting(obj)
        assert estimate_mu(counting, pts, 0.0) == frozen_mu(obj, pts, 0.0)
        assert counting.evals == [p.tobytes() for p in pts] and counting.grads == []


class TestEstimateLSmooth:
    def test_recovers_planted_lambda_max(self):
        for seed in range(3):
            quad, w_star, _ = planted_quad(seed)
            lam_max = np.linalg.eigvalsh(quad.a.T @ quad.a)[-1]
            r = np.random.default_rng(200 + seed)
            pts = w_star + r.standard_normal((1000, 5))
            pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(500)]
            l_hat = estimate_L_smooth(quad, pairs)
            assert l_hat <= lam_max + 1e-9
            assert abs(l_hat - lam_max) <= 0.15 * lam_max

    def test_linear_objective_has_zero_curvature(self):
        lin = Lin(np.array([1.0, -2.0, 3.0]))
        r = np.random.default_rng(8)
        pairs = [(r.standard_normal(3), r.standard_normal(3)) for _ in range(20)]
        assert estimate_L_smooth(lin, pairs) < 1e-8

    def test_adding_pairs_never_decreases(self):
        quad, w_star, _ = planted_quad(9)
        r = np.random.default_rng(10)
        pairs = [(r.standard_normal(5), r.standard_normal(5)) for _ in range(30)]
        partial = estimate_L_smooth(quad, pairs[:5])
        assert estimate_L_smooth(quad, pairs) >= partial

    @pytest.mark.parametrize("kind", ["quad", "ce"])
    def test_one_gradient_per_distinct_point(self, kind):
        obj, center = planted_quad(14)[:2] if kind == "quad" else ce_objective(14)
        pairs, distinct = repeating_pairs(center, np.random.default_rng(15))
        counting = Counting(obj)
        assert estimate_L_smooth(counting, pairs) == frozen_L_smooth(obj, pairs)
        assert len(counting.grads) == len(set(counting.grads)) == distinct

    def test_coincident_pairs_rejected(self):
        quad, w_star, _ = planted_quad(11)
        with pytest.raises(DegenerateEstimateError):
            estimate_L_smooth(quad, [(w_star, w_star)])


class TestRadii:
    def test_bias_radius_worked_example(self):
        assert bias_radius(0.2, 1.0, 0.5) == pytest.approx(0.04, abs=1e-15)

    def test_shift_radius_worked_example(self):
        assert shift_radius(0.1, 2.0, 0.5) == pytest.approx(0.8, abs=1e-15)

    def test_zero_bias_zero_radius(self):
        assert bias_radius(0.0, 3.0, 0.7) == 0.0

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            bias_radius(0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            shift_radius(0.1, 1.0, -1.0)


class TestConstraintCheck:
    def test_floor_point_is_member_at_zero_radius(self):
        orig, aug, _, size = small_ce(12)
        obj = CeObjective.over(aug)
        w0 = 0.1 * Rng(13, 0).gen.standard_normal(size)
        floor = obj.loss(w0)
        chk = in_constraint_set(w0, 0.0, floor, obj)
        assert chk.member
        assert chk.margin == pytest.approx(0.0, abs=1e-12)

    def test_infinite_radius_always_member(self):
        orig, aug, _, size = small_ce(14)
        obj = CeObjective.over(aug)
        w = 100.0 * np.ones(size)
        chk = in_constraint_set(w, math.inf, 0.0, obj)
        assert chk.member and chk.margin == math.inf

    def test_nonmember_margin_is_negative_deficit(self):
        orig, aug, _, size = small_ce(15)
        obj = CeObjective.over(aug)
        w = np.zeros(size)
        value = obj.loss(w)
        chk = in_constraint_set(w, value - 0.1, 0.0, obj)
        assert not chk.member
        assert chk.margin == pytest.approx(-0.1, abs=1e-12)
        assert in_constraint_set(w, value, 0.0, obj).member


class TestBestFoundFloor:
    def test_quadratic_floor_is_zero(self):
        quad, w_star, _ = planted_quad(16)
        val, arg = best_found_floor(quad, 5, np.random.default_rng(17))
        assert val < 1e-10
        np.testing.assert_allclose(arg, w_star, atol=1e-4)

    def test_realizable_ce_reaches_planted_floor(self):
        orig, _, planted, size = small_ce(18, n=400)
        obj = CeObjective.over(orig)
        val, _ = best_found_floor(
            obj, size, np.random.default_rng(19),
            extra_starts=[planted.w_star.ravel()],
        )
        assert val <= planted.l_floor_planted + 1e-7
        assert val >= planted.l_floor_planted - 0.1

    def test_floor_lower_bounds_random_points(self):
        orig, _, _, size = small_ce(20)
        obj = CeObjective.over(orig)
        val, _ = best_found_floor(obj, size, np.random.default_rng(21))
        r = np.random.default_rng(22)
        for _ in range(5):
            assert val <= obj.loss(r.standard_normal(size)) + 1e-12


class TestConstantEstimates:
    def ok(self, **kw):
        base = dict(
            g_bound=1.0, l_smooth=10.0, mu=0.5, mu_restricted=0.8,
            delta_y=0.2, l_floor=1.0, ltilde_floor=1.1,
            initial_gap=2.0, initial_gap_tilde=2.5,
        )
        base.update(kw)
        return ConstantEstimates(**base)

    def test_mu_above_l_smooth_rejected(self):
        with pytest.raises(ValueError, match="mu <= l_smooth"):
            self.ok(mu=11.0, mu_restricted=11.0)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            self.ok(g_bound=-1.0)
        with pytest.raises(ValueError):
            self.ok(delta_p=-0.1)

    def test_nonfinite_floor_rejected(self):
        with pytest.raises(ValueError):
            self.ok(l_floor=math.nan)

    def test_delta_p_optional(self):
        assert self.ok().delta_p is None
        assert self.ok(delta_p=0.3).delta_p == 0.3


class TestBoundFormulas:
    def test_plateau_label_worked_example(self):
        assert plateau_label_bound(0.1, 2.0, 0.5) == pytest.approx(0.08, abs=1e-15)

    def test_plateau_shift_worked_example(self):
        assert plateau_shift_bound(0.1, 1.0, 0.5) == pytest.approx(0.8, abs=1e-15)

    def test_mixloss_monotone_in_lambda(self):
        lo = mixloss_bound(1.0, 10.0, 0.3, 1000, 0.1, 2.0)
        hi = mixloss_bound(1.0, 10.0, 0.3, 1000, 1.0, 2.0)
        assert lo < hi

    def test_mixloss_lambda_range(self):
        with pytest.raises(ValueError, match=r"lambda out of \(0,1\]"):
            mixloss_bound(1.0, 10.0, 0.3, 1000, 1.5, 2.0)

    def test_log_arguments_clamped(self):
        # gap ~ 0 would send the log to -inf; the clamp pins it at 1
        lead = 1.0 * 10.0 / (8 * 100 * 0.5**2)
        assert original_sgd_bound(1.0, 10.0, 0.5, 100, 1e-30) == pytest.approx(2 * lead)

    def test_two_stage_bounds_match_inline_math(self):
        g, l, mu_c, n, gap = 1.5, 8.0, 0.4, 500, 3.0
        arg1 = 4 * n * mu_c**2 * gap / (g**2 * l)
        expect1 = g**2 * l / (4 * n * mu_c**2) * (1 + math.log(arg1))
        assert augdrop_label_bound(g, l, mu_c, n, gap) == pytest.approx(expect1, rel=1e-14)
        arg3 = 8 * n * mu_c**2 * gap / (g**2 * l)
        expect3 = g**2 * l / (8 * n * mu_c**2) * (1 + math.log(arg3))
        assert augdrop_shift_bound(g, l, mu_c, n, gap) == pytest.approx(expect3, rel=1e-14)

    def test_bounds_shrink_with_more_data(self):
        small = original_sgd_bound(1.0, 10.0, 0.5, 100, 2.0)
        large = original_sgd_bound(1.0, 10.0, 0.5, 100000, 2.0)
        assert large < small


class TestTheoryStepsizes:
    def constants(self, **kw):
        base = dict(
            g_bound=1.0, l_smooth=10.0, mu=0.5, mu_restricted=0.8,
            delta_y=0.2, l_floor=0.2, ltilde_floor=0.3,
            initial_gap=2.0, initial_gap_tilde=2.5,
        )
        base.update(kw)
        return ConstantEstimates(**base)

    def test_two_stage_eta1_is_inverse_smoothness(self):
        sched = theory_stepsizes(self.constants(), "augdrop", n=1000)
        assert sched.values["eta1"] == pytest.approx(0.1, abs=1e-15)

    def test_mixed_batch_worked_example(self):
        sched = theory_stepsizes(self.constants(), "mixloss", n=1000, lam=0.1)
        assert sched.values["m0"] == 5832

    def test_mixed_batch_floor_of_one(self):
        sched = theory_stepsizes(self.constants(), "mixloss", n=1000, lam=1.0)
        assert sched.values["m0"] == 1

    def test_stage1_batch_against_decimal_oracle(self):
        # delta = 0.05, t1 = 100, delta_y = 0.2: inflation(4000) * 8 / 0.04
        getcontext().prec = 50
        root = (Decimal(3) * Decimal(4000).ln()).sqrt()
        oracle = float((1 + root) ** 2 * Decimal(200))
        got = highprob_inflation(2 * 100 / 0.05) * 8.0 / 0.2**2
        assert got == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(7171.7101721894, abs=1e-9)

    def test_stage1_batch_consistent_with_own_t1(self):
        c = self.constants()
        sched = theory_stepsizes(c, "augdrop", n=1000)
        t1 = sched.values["t1"]
        expect = highprob_inflation(2 * t1 / 0.05) * 8.0 / c.delta_y**2
        assert sched.values["m1"] == math.ceil(round(expect, 9))

    def test_single_stage_eta_formula(self):
        c = self.constants()
        n = 400
        arg = 8 * n * c.mu**2 * c.initial_gap / (c.g_bound**2 * c.l_smooth)
        expect = math.log(arg) / (2 * n * c.mu)
        sched = theory_stepsizes(c, "original", n=n)
        assert sched.values["eta"] == pytest.approx(expect, rel=1e-14)
        assert sched.values["iters"] == n and sched.values["batch"] == 1

    def test_mixed_eta_cap_flagged(self):
        c = self.constants(mu=0.01, mu_restricted=0.01)
        sched = theory_stepsizes(c, "mixloss", n=10, lam=0.5)
        assert sched.values["eta"] == pytest.approx(1.0 / (2 * 10.0), abs=1e-15)
        assert any("capped" in w for w in sched.warnings)

    def test_log_clamp_flagged(self):
        c = self.constants(initial_gap=1e-30)
        sched = theory_stepsizes(c, "original", n=100)
        assert sched.values["eta"] == pytest.approx(1.0 / (2 * 100 * 0.5), rel=1e-14)
        assert any("clamped" in w for w in sched.warnings)

    def test_plateau_mode_batches(self):
        sched = theory_stepsizes(self.constants(), "augmented", n=1000)
        assert sched.values["eta"] == pytest.approx(0.1)
        assert sched.values["m0"] == 200  # 8 / 0.04
        assert sched.values["iters"] >= 1
        shift = theory_stepsizes(self.constants(delta_p=0.05), "augmented", n=1000)
        assert shift.values["m0"] == 800  # 4 * 10 / 0.05

    def test_m2_capped_at_n(self):
        sched = theory_stepsizes(self.constants(), "augdrop", n=50)
        assert sched.values["m2"] == 50
        assert any("m2 capped" in w for w in sched.warnings)

    def test_missing_requirements_rejected(self):
        with pytest.raises(DegenerateEstimateError, match="delta_p must be positive"):
            theory_stepsizes(self.constants(delta_p=0.0), "augdrop", n=100)
        with pytest.raises(DegenerateEstimateError, match="delta_p must be positive"):
            theory_stepsizes(self.constants(delta_p=0.0), "augmented", n=100)
        with pytest.raises(DegenerateEstimateError):
            theory_stepsizes(self.constants(delta_y=0.0), "augmented", n=100)
        with pytest.raises(ValueError, match=r"lambda out of \(0,1\]"):
            theory_stepsizes(self.constants(), "mixloss", n=100)
        with pytest.raises(ValueError, match=r"lambda out of \(0,1\]"):
            theory_stepsizes(self.constants(), "mixloss", n=100, lam=1.5)
        with pytest.raises(ValueError):
            theory_stepsizes(self.constants(), "unknown", n=100)
        with pytest.raises(ValueError):
            theory_stepsizes(self.constants(), "original", n=0)

    def test_all_modes_positive_and_finite(self):
        for c in (self.constants(), self.constants(delta_p=0.1)):
            for scheme in ("original", "augmented", "augdrop", "mixloss"):
                sched = theory_stepsizes(c, scheme, n=500, lam=0.2)
                for key, val in {**sched.values, **sched.bounds}.items():
                    assert np.isfinite(val) and val > 0, (scheme, c.delta_p, key)

    @pytest.mark.parametrize("scheme", ["augmented_shift", "augdrop_shift", "wemix"])
    def test_only_trainer_schemes_resolve(self, scheme):
        with pytest.raises(ValueError, match="unknown scheme"):
            theory_stepsizes(self.constants(delta_p=0.1), scheme, n=100, lam=0.2)

    # Each scheme's bound in its label form (no delta_p) and its input-shift
    # form, evaluated by the bound function at the constants below.
    @pytest.mark.parametrize("scheme, delta_p, bounds", [
        pytest.param("original", None,
                     {"original_sgd": original_sgd_bound(1.0, 10.0, 0.5, 100, 2.0)},
                     id="original-label"),
        pytest.param("original", 0.1,
                     {"original_sgd": original_sgd_bound(1.0, 10.0, 0.5, 100, 2.0)},
                     id="original-shift"),
        pytest.param("augmented", None, {"plateau_label": plateau_label_bound(0.2, 1.0, 0.5)},
                     id="augmented-label"),
        pytest.param("augmented", 0.1, {"plateau_shift": plateau_shift_bound(0.1, 1.0, 0.5)},
                     id="augmented-shift"),
        pytest.param("augdrop", None,
                     {"augdrop_label": augdrop_label_bound(1.0, 10.0, 0.8, 100, 2.0)},
                     id="augdrop-label"),
        pytest.param("augdrop", 0.1,
                     {"augdrop_shift": augdrop_shift_bound(1.0, 10.0, 0.8, 100, 2.0)},
                     id="augdrop-shift"),
        pytest.param("mixloss", None, {"mixloss": mixloss_bound(1.0, 10.0, 0.5, 100, 0.3, 2.0)},
                     id="mixloss-label"),
        pytest.param("mixloss", 0.1, {"mixloss": mixloss_bound(1.0, 10.0, 0.5, 100, 0.3, 2.0)},
                     id="mixloss-shift"),
    ])
    def test_bounds_are_the_bound_functions_values(self, scheme, delta_p, bounds):
        sched = theory_stepsizes(self.constants(delta_p=delta_p), scheme, n=100, lam=0.3)
        assert sched.bounds == bounds

    def test_deterministic(self):
        a = theory_stepsizes(self.constants(), "augdrop", n=300)
        b = theory_stepsizes(self.constants(), "augdrop", n=300)
        assert a == b


class TestEstimateConstantsPipeline:
    def test_end_to_end_on_small_task(self):
        orig, aug, planted, size = small_ce(25, n=120)
        w0 = 0.1 * Rng(26, 0).gen.standard_normal(size)
        cfg = TrainConfig(scheme=Original(eta=0.2, batch=10, epochs=3), seed=3)
        iterates = [w0, *(w for _, _, w in train(w0, orig, None, cfg))]
        cloud = iterates[:: max(1, len(iterates) // 12)]
        c = estimate_constants(
            orig, aug, w0, cloud,
            delta_y=0.2, rng=np.random.default_rng(27),
            floor_hints=[planted.w_star.ravel()],
        )
        assert c.mu > 0 and c.l_smooth >= c.mu
        assert c.g_bound > 0
        assert c.initial_gap > 0 and c.initial_gap_tilde > 0
        assert c.l_floor <= planted.l_floor_planted + 1e-7
        assert c.delta_y == 0.2 and c.delta_p is None

    def test_restricted_cloud_raises_mu(self):
        orig, aug, _, size = small_ce(28, n=100)
        w0 = 0.1 * Rng(29, 0).gen.standard_normal(size)
        cfg = TrainConfig(scheme=Original(eta=0.2, batch=10, epochs=4), seed=4)
        pts = [w0, *(w for _, _, w in train(w0, orig, None, cfg))]
        c = estimate_constants(
            orig, aug, w0, pts[::4],
            delta_y=0.2, rng=np.random.default_rng(30),
            restricted_cloud=pts[-3:],
        )
        assert c.mu_restricted >= c.mu

    def test_perturbed_cloud_contains_originals(self):
        pts = [np.zeros(3), np.ones(3)]
        out = perturbed_cloud(pts, np.random.default_rng(31))
        assert len(out) == 6
        np.testing.assert_array_equal(out[0], pts[0])
        np.testing.assert_array_equal(out[1], pts[1])
