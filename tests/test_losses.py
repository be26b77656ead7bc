import numpy as np
import pytest

from augbias.core import LabeledSet, Rng
from augbias.models import forward, label_grad
from augbias.augment import SyntheticTask, gen_synthetic, perturb_labels
from augbias.losses import combined_grad, mean_grad_a
from reference import (
    ball_min_oracle,
    ce_grad,
    ce_loss,
    corrected_label_rows,
    fd_grad,
    grad_a,
    loss_a,
    objective_value,
    p_from_scores,
)


def random_simplex(rng, k):
    return rng.dirichlet(np.ones(k))


class TestLossA:
    def test_worked_example(self):
        res = loss_a([1.0, 0.0], [0.0, 0.0], 0.1)
        assert res.value == pytest.approx(0.595121, abs=1e-6)

    def test_zero_radius_is_ce(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            y = random_simplex(rng, 4)
            s = rng.standard_normal(4)
            assert loss_a(y, s, 0.0).value == pytest.approx(ce_loss(y, s), abs=1e-14)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            k = int(rng.integers(2, 11))
            y = random_simplex(rng, k)
            s = rng.standard_normal(k) * 2.0
            delta = float(rng.uniform(0.0, 0.6))
            closed = loss_a(y, s, delta).value
            brute = ball_min_oracle(y, p_from_scores(s), delta)
            assert closed == pytest.approx(brute, abs=1e-4)

    def test_never_exceeds_ce(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            y = random_simplex(rng, 3)
            s = rng.standard_normal(3)
            assert loss_a(y, s, 0.2).value <= ce_loss(y, s) + 1e-12

    def test_strictly_decreasing_in_radius(self):
        y = [0.6, 0.4]
        s = [0.5, -0.5]
        vals = [loss_a(y, s, d).value for d in (0.0, 0.1, 0.2, 0.4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_minimizer_on_ball_boundary(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            y = random_simplex(rng, 5)
            s = rng.standard_normal(5)
            delta = float(rng.uniform(0.05, 0.5))
            res = loss_a(y, s, delta)
            assert np.linalg.norm(res.minimizer_z - y) == pytest.approx(delta, abs=1e-12)
            assert np.linalg.norm(res.minimizer_z - y) <= delta + 1e-12

    @pytest.mark.parametrize("delta_y", [-0.1, np.nan, np.inf])
    def test_rejects_a_bad_radius(self, delta_y):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            loss_a([0.5, 0.5], [0.0, 1.0], delta_y)

    def test_rejects_off_simplex_label(self):
        with pytest.raises(ValueError):
            loss_a([0.7, 0.7], [0.0, 0.0], 0.1)


class TestCorrectedLabelRows:
    def test_matches_single_example_minimizer(self):
        rng = np.random.default_rng(10)
        y = rng.dirichlet(np.ones(4), size=8)
        s = rng.standard_normal((8, 4))
        p = np.array([p_from_scores(r) for r in s])
        rows = corrected_label_rows(y, p, 0.3)
        for i in range(8):
            expect = loss_a(y[i], s[i], 0.3).minimizer_z
            np.testing.assert_allclose(rows[i], expect, atol=1e-14)

    def test_zero_p_row_falls_back_to_label(self):
        y = np.array([[0.5, 0.5]])
        p = np.zeros((1, 2))
        np.testing.assert_array_equal(corrected_label_rows(y, p, 0.4), y)


class TestGradA:
    def test_zero_radius_equals_ce_grad(self):
        rng = np.random.default_rng(11)
        w = 0.1 * Rng(1).gen.standard_normal(4 * 3)
        for _ in range(10):
            x = rng.standard_normal(3)
            y = random_simplex(rng, 4)
            ga = grad_a(w, x, y, 0.0)
            gc = ce_grad(w, x, y)
            np.testing.assert_array_equal(ga.grad, gc.grad)
            assert ga.loss == gc.loss

    def test_envelope_identity(self):
        # Gradient of the ball minimum = plain CE gradient taken at the fixed
        # minimizer z*, even though z* sits off the simplex.
        rng = np.random.default_rng(12)
        w = 0.1 * Rng(2).gen.standard_normal(4 * 3)
        for _ in range(10):
            x = rng.standard_normal(3)
            y = random_simplex(rng, 4)
            s = forward(w, x)
            zstar = loss_a(y, s, 0.25).minimizer_z
            np.testing.assert_array_equal(
                grad_a(w, x, y, 0.25).grad, ce_grad(w, x, zstar).grad
            )

    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            w = rng.standard_normal(3 * 4)
            x = rng.standard_normal(4)
            y = random_simplex(rng, 3)
            delta = float(rng.uniform(0.05, 0.4))
            analytic = grad_a(w, x, y, delta).grad

            def val(wv):
                s = forward(wv, x)
                return loss_a(y, s, delta).value

            numeric = fd_grad(val, w)
            denom = max(np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom <= 1e-6

    def test_mean_grad_a_matches_per_example(self):
        rng = np.random.default_rng(14)
        w = 0.1 * Rng(3).gen.standard_normal(3 * 3)
        x = rng.standard_normal((6, 3))
        y = rng.dirichlet(np.ones(3), size=6)
        per = np.mean([grad_a(w, x[i], y[i], 0.2).grad for i in range(6)], axis=0)
        np.testing.assert_allclose(mean_grad_a(w, x, y, 0.2), per, atol=1e-12)


class TestCombinedGrad:
    def _batches(self, seed=15):
        rng = np.random.default_rng(seed)
        xo = rng.standard_normal((4, 3))
        yo = rng.dirichlet(np.ones(4), size=4)
        xa = rng.standard_normal((2, 3))
        ya = rng.dirichlet(np.ones(4), size=2)
        return (xo, yo), (xa, ya)

    def test_lam_one_is_original_gradient(self):
        w = 0.1 * Rng(4).gen.standard_normal(4 * 3)
        orig, aug = self._batches()
        g = combined_grad(w, orig, aug, 1.0, 0.3)
        np.testing.assert_array_equal(g, label_grad(w, orig[0], orig[1]))

    def test_lam_zero_no_radius_is_augmented_ce(self):
        w = 0.1 * Rng(5).gen.standard_normal(4 * 3)
        orig, aug = self._batches()
        g = combined_grad(w, orig, aug, 0.0, 0.0)
        np.testing.assert_array_equal(g, label_grad(w, aug[0], aug[1]))

    def test_midpoint_of_single_samples(self):
        w = 0.1 * Rng(6).gen.standard_normal(4 * 3)
        rng = np.random.default_rng(16)
        xo = rng.standard_normal((1, 3))
        yo = rng.dirichlet(np.ones(4), size=1)
        xa = rng.standard_normal((1, 3))
        ya = rng.dirichlet(np.ones(4), size=1)
        g = combined_grad(w, (xo, yo), (xa, ya), 0.5, 0.0)
        a = ce_grad(w, xo[0], yo[0]).grad
        b = ce_grad(w, xa[0], ya[0]).grad
        np.testing.assert_allclose(g, 0.5 * a + 0.5 * b, atol=1e-15)

    def test_linear_in_lam(self):
        w = 0.1 * Rng(7).gen.standard_normal(4 * 3)
        orig, aug = self._batches(17)
        a = combined_grad(w, orig, aug, 1.0, 0.2)
        b = combined_grad(w, orig, aug, 0.0, 0.2)
        for lam in (0.25, 0.5, 0.75):
            g = combined_grad(w, orig, aug, lam, 0.2)
            np.testing.assert_allclose(g, lam * a + (1 - lam) * b, atol=1e-12)

    def test_batch_expectation_matches_full_objective_gradient(self):
        rng = np.random.default_rng(18)
        w = 0.1 * Rng(8).gen.standard_normal(3 * 3)
        xo = rng.standard_normal((12, 3))
        yo = rng.dirichlet(np.ones(3), size=12)
        xa = rng.standard_normal((20, 3))
        ya = rng.dirichlet(np.ones(3), size=20)
        total = np.zeros(w.size)
        draws = 4000
        for _ in range(draws):
            i = rng.integers(0, 12, size=3)
            j = rng.integers(0, 20, size=4)
            total += combined_grad(w, (xo[i], yo[i]), (xa[j], ya[j]), 0.3, 0.15)
        full = 0.3 * label_grad(w, xo, yo) + 0.7 * mean_grad_a(w, xa, ya, 0.15)
        err = np.linalg.norm(total / draws - full) / np.linalg.norm(full)
        assert err < 0.05

    def test_rejects_an_empty_batch(self):
        w = 0.1 * Rng(9).gen.standard_normal(4 * 3)
        orig, aug = self._batches(19)
        with pytest.raises(ValueError, match="empty batch"):
            combined_grad(w, (orig[0][:0], orig[1][:0]), aug, 0.5, 0.1)
        with pytest.raises(ValueError, match="empty batch"):
            combined_grad(w, orig, (aug[0][:0], aug[1][:0]), 0.5, 0.1)


class TestObjectiveValue:
    def _sets(self, seed=20):
        rng = np.random.default_rng(seed)
        orig = LabeledSet(rng.standard_normal((5, 3)), rng.dirichlet(np.ones(4), size=5))
        aug = LabeledSet(rng.standard_normal((7, 3)), rng.dirichlet(np.ones(4), size=7))
        return orig, aug

    def test_singleton_mean_is_the_loss(self):
        rng = np.random.default_rng(21)
        w = 0.1 * Rng(10).gen.standard_normal(4 * 3)
        x = rng.standard_normal((1, 3))
        y = rng.dirichlet(np.ones(4), size=1)
        ds = LabeledSet(x, y)
        expect = ce_loss(y[0], forward(w, x[0]))
        assert objective_value(w, ds, "L") == pytest.approx(expect, abs=1e-14)

    def test_mixed_at_lam_one_is_plain(self):
        w = 0.1 * Rng(11).gen.standard_normal(4 * 3)
        orig, aug = self._sets()
        full = objective_value(w, orig, "L_c", lam=1.0, delta_y=0.3, aug=aug)
        assert full == objective_value(w, orig, "L")

    def test_corrected_below_plain_on_augmented(self):
        w = 0.1 * Rng(12).gen.standard_normal(4 * 3)
        _, aug = self._sets(22)
        assert objective_value(w, aug, "L_a", delta_y=0.2) <= objective_value(w, aug, "L_tilde")

    def test_argument_errors(self):
        w = 0.1 * Rng(13).gen.standard_normal(4 * 3)
        orig, aug = self._sets(23)
        with pytest.raises(ValueError, match="delta_y"):
            objective_value(w, aug, "L_a", delta_y=-0.1)
        with pytest.raises(ValueError, match="lam"):
            objective_value(w, orig, "L_c", lam=1.5, aug=aug)
        with pytest.raises(ValueError, match="aug"):
            objective_value(w, orig, "L_c", lam=0.5)
        with pytest.raises(ValueError, match="unknown"):
            objective_value(w, orig, "nope")


class TestCorrectionCompensatesBias:
    """The corrected objective tracks the clean one where the plain one cannot."""

    def test_paired_perturbation_never_above_clean(self):
        # Same inputs, labels moved by exactly delta: per-example
        # <y~, p> - delta ||p|| <= <y, p> by Cauchy-Schwarz.
        rng = np.random.default_rng(24)
        x = rng.standard_normal((30, 4))
        y = rng.dirichlet(np.ones(3), size=30)
        orig = LabeledSet(x, y)
        aug = LabeledSet(x, perturb_labels(y, 0.15))
        for seed in range(5):
            w = 0.1 * Rng(seed).gen.standard_normal(3 * 4)
            la = objective_value(w, aug, "L_a", delta_y=0.15)
            l = objective_value(w, orig, "L")
            assert la <= l + 1e-12

    def test_corrected_at_planted_optimum_below_clean(self):
        task = SyntheticTask(mode="label_bias", n=2000, m=2000, d=6, k=4, delta_y=0.2)
        orig, aug, planted = gen_synthetic(task, Rng(25))
        w = planted.w_star.ravel()
        la = objective_value(w, aug, "L_a", delta_y=0.2)
        l = objective_value(w, orig, "L")
        assert la <= l

    def test_grid_argmin_coincides_on_two_parameter_toy(self):
        # One feature, two classes: the landscape depends only on u = w1 - w2.
        # The biased labels pull the plain augmented objective toward a smaller
        # u; the corrected and mixed objectives restore the clean argmin cell.
        x = np.array([[1.0], [-1.0]])
        y = np.array([[0.8, 0.2], [0.2, 0.8]])
        shift = np.array([[-0.05, 0.05], [0.05, -0.05]])
        y_t = y + shift
        delta = float(np.linalg.norm(shift[0]))

        grid = np.linspace(-3.0, 3.0, 121)
        lam = 0.5

        def landscapes(w1, w2):
            w = np.array([w1, w2])
            p = np.array([p_from_scores(forward(w, xi)) for xi in x])
            l_clean = float(np.mean(np.sum(y * p, axis=1)))
            l_tilde = float(np.mean(np.sum(y_t * p, axis=1)))
            l_a = float(np.mean(np.sum(y_t * p, axis=1) - delta * np.linalg.norm(p, axis=1)))
            return l_clean, l_tilde, lam * l_clean + (1 - lam) * l_a

        vals = np.array([[landscapes(w1, w2) for w2 in grid] for w1 in grid])
        u_of = lambda flat_idx: grid[flat_idx // 121] - grid[flat_idx % 121]
        u_clean = u_of(int(np.argmin(vals[:, :, 0])))
        u_tilde = u_of(int(np.argmin(vals[:, :, 1])))
        u_mixed = u_of(int(np.argmin(vals[:, :, 2])))
        assert abs(u_mixed - u_clean) < 1e-9
        assert abs(u_tilde - u_clean) > 0.2
