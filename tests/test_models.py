import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbias.core import LabeledSet, as_vec
from augbias.models import (
    _screen_pairs,
    batch_scores,
    estimate_G,
    forward,
    label_grad,
    p_jacobian,
    score_jacobian,
)
from reference import ce_grad, ce_loss, fd_grad, p_from_scores, p_of

LN2 = float(np.log(2))


def power_spectral_norm(a, iters=500, seed=0):
    """Brute-force largest singular value via power iteration on a^T a."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        u = a.T @ (a @ v)
        nu = np.linalg.norm(u)
        if nu == 0:
            return 0.0
        v = u / nu
    return float(np.linalg.norm(a @ v))


def random_simplex(rng, k):
    v = rng.dirichlet(np.ones(k))
    return v / v.sum()


class TestForward:
    def test_linear_zero_map(self):
        w = np.zeros(4 * 3)
        np.testing.assert_array_equal(forward(w, [1.0, -2.0, 0.5]), np.zeros(4))

    def test_linear_matrix_product(self):
        np.testing.assert_array_equal(forward(np.array([2.0, -1.0]), [3.0]), [6.0, -3.0])

    def test_dimension_mismatch(self):
        # six weights are a (2, 3) or a (3, 2) matrix, never one with 4 columns
        with pytest.raises(ValueError):
            forward(np.zeros(2 * 3), [1.0, 2.0, 3.0, 4.0])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(42)
        w = rng.standard_normal(3 * 4)
        x = rng.standard_normal((6, 4))
        batch = batch_scores(w, x)
        for i in range(6):
            np.testing.assert_allclose(batch[i], forward(w, x[i]), atol=1e-14)


class TestPOf:
    def test_uniform(self):
        np.testing.assert_allclose(p_from_scores([0.0, 0.0]), [LN2, LN2], atol=1e-15)

    def test_exact_ratio(self):
        np.testing.assert_allclose(
            p_from_scores([np.log(3), 0.0]), [np.log(4 / 3), np.log(4)], atol=1e-14
        )

    def test_shift_invariance(self):
        for c in (-100.0, 0.0, 3.5, 1000.0):
            np.testing.assert_allclose(
                p_from_scores([c, c, c]), np.full(3, np.log(3)), atol=1e-12
            )

    def test_exp_neg_p_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            p = p_from_scores(rng.standard_normal(5) * 20)
            assert np.all(p >= 0)
            assert abs(np.exp(-p).sum() - 1.0) <= 1e-12

    def test_p_of_uses_model(self):
        np.testing.assert_allclose(p_of(np.zeros(2 * 2), [1.0, 2.0]), [LN2, LN2])


class TestCeLoss:
    def test_one_hot_uniform(self):
        assert ce_loss([1.0, 0.0], [0.0, 0.0]) == pytest.approx(LN2, abs=1e-15)

    def test_soft_label_uniform(self):
        assert ce_loss([0.5, 0.5], [0.0, 0.0]) == pytest.approx(LN2, abs=1e-15)

    def test_one_hot_skewed(self):
        assert ce_loss([1.0, 0.0], [np.log(3), 0.0]) == pytest.approx(np.log(4 / 3), abs=1e-14)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            ce_loss([0.7, 0.7], [0.0, 0.0])

    def test_linear_in_label(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            s = rng.standard_normal(k)
            y1, y2 = random_simplex(rng, k), random_simplex(rng, k)
            a = float(rng.uniform())
            mixed = a * y1 + (1 - a) * y2
            assert ce_loss(mixed, s) == pytest.approx(
                a * ce_loss(y1, s) + (1 - a) * ce_loss(y2, s), abs=1e-12
            )


class TestCeGrad:
    def test_linear_closed_form_tiny(self):
        g = ce_grad(np.zeros(2 * 1), [1.0], [1.0, 0.0])
        np.testing.assert_allclose(g.grad, [-0.5, 0.5], atol=1e-15)
        assert g.loss == pytest.approx(LN2)

    def test_consistent_label_is_stationary(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(4 * 3)
        x = rng.standard_normal(3)
        y = np.exp(-p_from_scores(forward(w, x)))
        y = y / y.sum()
        np.testing.assert_allclose(ce_grad(w, x, y).grad, 0.0, atol=1e-12)

    def test_linear_grad_closed_form(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = rng.standard_normal(3 * 4)
            x = rng.standard_normal(4)
            y = random_simplex(rng, 3)
            sig = np.exp(-p_from_scores(forward(w, x)))
            expected = np.outer(sig / sig.sum() - y, x).ravel()
            np.testing.assert_allclose(ce_grad(w, x, y).grad, expected, atol=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        d, k = 3, 4
        for _ in range(10):
            w = 0.5 * rng.standard_normal(k * d)
            x = rng.standard_normal(d)
            y = random_simplex(rng, k)
            analytic = ce_grad(w, x, y).grad
            numeric = fd_grad(lambda v: ce_loss(y, forward(v, x)), w)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-10)
            assert err <= 1e-6

    def test_mean_grad_matches_per_example(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal(3 * 3)
        x = rng.standard_normal((7, 3))
        y = np.stack([random_simplex(rng, 3) for _ in range(7)])
        per = np.mean([ce_grad(w, x[i], y[i]).grad for i in range(7)], axis=0)
        np.testing.assert_allclose(label_grad(w, x, y), per, atol=1e-12)


class TestJacobians:
    def test_score_jacobian_fd(self):
        rng = np.random.default_rng(9)
        k = 4
        w = 0.4 * rng.standard_normal(k * 3)
        x = rng.standard_normal(3)
        jac = score_jacobian(w, x)
        for i in range(k):
            numeric = fd_grad(lambda v: forward(v, x)[i], w)
            np.testing.assert_allclose(jac[i], numeric, atol=1e-8)

    def test_p_jacobian_fd(self):
        rng = np.random.default_rng(10)
        k = 3
        w = 0.4 * rng.standard_normal(k * 2)
        x = rng.standard_normal(2)
        jac = p_jacobian(w, x)
        for i in range(k):
            numeric = fd_grad(lambda v: p_of(v, x)[i], w)
            np.testing.assert_allclose(jac[i], numeric, atol=1e-8)


class TestEstimateG:
    def _set(self, x_rows, k):
        labels = np.full((len(x_rows), k), 1.0 / k)
        return LabeledSet(np.asarray(x_rows, dtype=float), labels)

    def test_zero_input_gives_zero(self):
        assert estimate_G(self._set([[0.0, 0.0]], 2), [np.zeros(2 * 2)]) == 0.0

    def test_hand_assembled_two_by_two(self):
        # At w = 0 and x = 1 the p-Jacobian is [[-0.5, 0.5], [0.5, -0.5]].
        w = np.zeros(2 * 1)
        jac = p_jacobian(w, [1.0])
        np.testing.assert_allclose(jac, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)
        g = estimate_G(self._set([[1.0]], 2), [w])
        assert g == pytest.approx(power_spectral_norm(jac), abs=1e-9)
        assert g == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_cloud(self):
        rng = np.random.default_rng(12)
        ds = self._set(rng.standard_normal((5, 3)), 3)
        cloud = [rng.standard_normal(3 * 3) for _ in range(3)]
        g1 = estimate_G(ds, cloud)
        g2 = estimate_G(ds, cloud + [rng.standard_normal(3 * 3)])
        assert g2 >= g1

    def test_spectral_norm_matches_power_iteration(self):
        rng = np.random.default_rng(13)
        w = 0.5 * rng.standard_normal(4 * 3)
        x = rng.standard_normal(3)
        jac = p_jacobian(w, x)
        assert np.linalg.norm(jac, 2) == pytest.approx(
            power_spectral_norm(jac), rel=1e-7
        )

    def test_rejects_empty_cloud(self):
        with pytest.raises(ValueError):
            estimate_G(self._set([[1.0, 0.0]], 2), [])

    @pytest.mark.parametrize("size", [5, 7])
    def test_rejects_a_cloud_point_of_the_wrong_length(self, size):
        with pytest.raises(ValueError, match="cloud point must have length 6"):
            estimate_G(self._set([[1.0, 0.0]], 3), [np.zeros(6), np.zeros(size)])


def frozen_estimate_G(dataset, params_cloud):
    """The per-pair SVD scan as it stood before the closed-form screen."""
    cloud = list(params_cloud)
    if dataset.n == 0 or len(cloud) == 0:
        raise ValueError("need a nonempty dataset and parameter cloud")
    best = 0.0
    for w in cloud:
        w = as_vec(w, size=dataset.k * dataset.d, name="params")
        for i in range(dataset.n):
            jac = p_jacobian(w, dataset.inputs[i])
            best = max(best, float(np.linalg.norm(jac, 2)))
    return best


def g_outcome(fn, dataset, cloud):
    """The value, or the exception type, so raising cases compare too."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(dataset, cloud)
    except Exception as exc:  # the type is what is compared
        return type(exc)


class TestEstimateGMatchesFullScan:
    """The screened estimate_G against the frozen full scan, compared with ==:
    the screen only chooses which pairs get the exact SVD norm."""

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 12), d=st.integers(1, 4), n=st.integers(1, 12), c=st.integers(1, 4),
           log_w=st.floats(-3.0, 3.0), log_x=st.floats(-3.0, 200.0),
           dup_points=st.booleans(), zero_rows=st.booleans(), tie_classes=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_frozen_scan(self, k, d, n, c, log_w, log_x, dup_points, zero_rows,
                                tie_classes, seed):
        rng = np.random.default_rng(seed)
        cloud = [10.0**log_w * rng.standard_normal(k * d) for _ in range(c)]
        if tie_classes:
            for w in cloud:  # two classes with equal scores on every input
                w[d:2 * d] = w[:d]
        if dup_points:
            cloud = cloud + cloud[:1]
        # per-row scales spread the inputs over many orders of magnitude
        x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3.0, log_x, size=(n, 1))
        if zero_rows:
            x[rng.random(n) < 0.4] = 0.0
        ds = LabeledSet(x, np.full((n, k), 1.0 / k))
        got = g_outcome(estimate_G, ds, cloud)
        assert got == g_outcome(frozen_estimate_G, ds, cloud)

    def test_score_overflow_raises(self):
        # the scores of x overflow, so the screen is not finite and the full
        # scan raises where the softmax meets them
        w = np.array([1e11, 0.0, -1e11, 0.0])
        ds = LabeledSet(np.array([[1e300, 1.0]]), np.full((1, 2), 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                frozen_estimate_G(ds, [w])
            with pytest.raises(ValueError):
                estimate_G(ds, [w])

    def test_unscreened_scan_returns_the_max(self):
        # |x| @ |w| passes half the float range, so the screen is not finite
        # and the full scan runs; the scores stay finite, so it returns the
        # saturated first row's sqrt(3) * 1e308
        w = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        x = np.array([[1e308, 0.0], [0.0, 1.0]])
        ds = LabeledSet(x, np.full((2, 3), 1 / 3))
        with np.errstate(over="ignore", invalid="ignore"):
            assert _screen_pairs([w], x) is None
            want = frozen_estimate_G(ds, [w])
            assert want == pytest.approx(np.sqrt(3.0) * 1e308, rel=1e-12)
            assert estimate_G(ds, [w]) == want

    def test_squared_norm_overflow_keeps_the_max(self):
        # ||x||^2 of the first row is past the float range; the second row,
        # saturated, holds the max sqrt(5) * 1e154
        w = np.zeros(10)
        w[1] = 1.0
        ds = LabeledSet(np.array([[1.5e154, 0.0], [0.0, 1e154]]), np.full((2, 5), 0.2))
        want = frozen_estimate_G(ds, [w])
        assert want == pytest.approx(np.sqrt(5.0) * 1e154, rel=1e-12)
        assert estimate_G(ds, [w]) == want

    def test_near_tied_large_scores(self):
        # Two classes whose weights are the same entries in another order tie
        # in exact arithmetic on a constant input. Near 1e16 the batched
        # product of the screen and the one-row product of p_jacobian round
        # the tie apart differently, so one reads a uniform softmax where the
        # other reads a saturated one. The screen's rounding slack keeps the
        # tied input, whose exact norm beats the saturated second input.
        rng = np.random.default_rng(1)
        d = 10
        for _ in range(60):
            w0 = rng.standard_normal(d)
            w1 = np.roll(w0, 1 + int(rng.integers(d - 1)))
            xa = np.full(d, 10.0 ** rng.uniform(14, 17))
            u = (w0 - w1) / np.linalg.norm(w0 - w1)
            xb = 0.85 * np.linalg.norm(xa) * u
            ds = LabeledSet(np.stack([xa, xb]), np.full((2, 2), 0.5))
            w = np.concatenate([w0, w1])
            assert estimate_G(ds, [w]) == frozen_estimate_G(ds, [w])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cloud_point_raises(self, bad):
        w = np.ones(3 * 2)
        w[2] = bad
        with pytest.raises(ValueError):
            estimate_G(LabeledSet(np.ones((1, 2)), np.full((1, 3), 1 / 3)),
                       [np.zeros(6), w])


class TestGradientLabelLipschitz:
    """The CE gradient is linear in the label, so its label sensitivity is
    bounded by the largest p-Jacobian norm over the same points."""

    def test_label_lipschitz_and_boundedness(self):
        rng = np.random.default_rng(14)
        k = 4
        cloud = [0.6 * rng.standard_normal(k * 3) for _ in range(4)]
        xs = rng.standard_normal((6, 3))
        labels = np.full((6, k), 1.0 / k)
        ds = LabeledSet(xs, labels)
        g_hat = estimate_G(ds, cloud)
        for w in cloud:
            for i in range(6):
                y1 = random_simplex(rng, k)
                y2 = random_simplex(rng, k)
                g1 = ce_grad(w, xs[i], y1).grad
                g2 = ce_grad(w, xs[i], y2).grad
                lhs = np.linalg.norm(g1 - g2)
                assert lhs <= g_hat * np.linalg.norm(y1 - y2) + 1e-9
                assert np.linalg.norm(g1) <= g_hat + 1e-9

