import numpy as np
import pytest

from augbias.core import DegenerateEstimateError, Rng
from augbias.augment import (
    SyntheticTask,
    estimate_delta_P,
    estimate_delta_y,
    gen_synthetic,
    perturb_labels,
    sample_original,
)
from reference import clean_labels


class TestPerturbLabels:
    def test_zero_delta_is_identity(self):
        y = np.array([[0.2, 0.3, 0.5]])
        np.testing.assert_array_equal(perturb_labels(y, 0.0), y)

    def test_exact_distance(self):
        rng = np.random.default_rng(1)
        y = rng.dirichlet(np.ones(5), size=100)
        out = perturb_labels(y, 0.3)
        dists = np.linalg.norm(out - y, axis=1)
        np.testing.assert_allclose(dists, 0.3, atol=1e-12)

    def test_stays_on_simplex(self):
        rng = np.random.default_rng(2)
        y = rng.dirichlet(np.ones(4), size=200)
        out = perturb_labels(y, 0.5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= -1e-12)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            perturb_labels(np.array([[0.5, 0.5]]), 1.5)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            perturb_labels(np.array([[0.5, 0.5]]), -0.1)

    def test_moves_toward_least_likely_class(self):
        y = np.array([[0.2, 0.1, 0.7], [0.6, 0.3, 0.1]])
        out = perturb_labels(y, 0.1)
        rows = np.arange(2)
        least = np.argmin(y, axis=1)
        assert np.all(out[rows, least] > y[rows, least])
        others = np.ones_like(y, dtype=bool)
        others[rows, least] = False
        assert np.all(out[others] < y[others])

    def test_caps_at_the_vertex(self):
        y = np.array([[0.05, 0.05, 0.9]])
        vertex = np.array([[1.0, 0.0, 0.0]])  # first of the tied least likely classes
        assert np.linalg.norm(vertex - y) < 1.4
        np.testing.assert_allclose(perturb_labels(y, 1.4), vertex, atol=1e-15)

    def test_leaves_its_argument_unchanged(self):
        y = np.array([[0.2, 0.3, 0.5]])
        kept = y.copy()
        perturb_labels(y, 0.2)
        out = perturb_labels(y, 0.0)
        out[0, 0] = 1.0
        np.testing.assert_array_equal(y, kept)


class TestSyntheticTask:
    @pytest.mark.parametrize("bad", [
        dict(mode="mixup"),
        dict(k=1),
        dict(n=0),
        dict(delta_p=-0.1),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            SyntheticTask(**bad)


class TestGenSynthetic:
    def test_zero_bias_labels_match_teacher(self):
        task = SyntheticTask(mode="label_bias", n=50, m=60, d=4, k=3, delta_y=0.0)
        orig, aug, planted = gen_synthetic(task, Rng(3))
        np.testing.assert_allclose(aug.labels, clean_labels(planted, aug.inputs), atol=1e-12)
        np.testing.assert_allclose(orig.labels, clean_labels(planted, orig.inputs), atol=1e-12)

    def test_planted_delta_y_is_exact_max(self):
        task = SyntheticTask(mode="label_bias", n=100, m=400, d=6, k=3, delta_y=0.2)
        _, aug, planted = gen_synthetic(task, Rng(4))
        clean = clean_labels(planted, aug.inputs)
        # exhaustive pairwise scan oracle
        measured = max(
            float(np.linalg.norm(clean[i] - aug.labels[i])) for i in range(aug.n)
        )
        assert measured == pytest.approx(0.2, abs=1e-9)

    def test_input_shift_closed_form(self):
        task = SyntheticTask(mode="input_shift", n=50, m=50, d=5, k=3, delta_p=0.5)
        _, _, planted = gen_synthetic(task, Rng(5))
        assert np.linalg.norm(planted.shift) == pytest.approx(1.0, abs=1e-12)

    def test_input_shift_preserves_labels(self):
        task = SyntheticTask(mode="input_shift", n=30, m=40, d=4, k=3, delta_p=0.2)
        _, aug, planted = gen_synthetic(task, Rng(6))
        sources = aug.inputs - planted.shift
        np.testing.assert_allclose(aug.labels, clean_labels(planted, sources), atol=1e-12)

    def test_rejects_infeasible_delta(self):
        with pytest.raises(ValueError):
            SyntheticTask(mode="label_bias", delta_y=2.0)

    def test_floor_is_entropy_of_teacher_labels(self):
        orig, _, planted = gen_synthetic(SyntheticTask(n=40, m=10, d=3, k=4), Rng(8))
        ent = -np.sum(orig.labels * np.log(orig.labels), axis=1).mean()
        assert planted.l_floor_planted == pytest.approx(float(ent), abs=1e-12)

    def test_shapes(self):
        task = SyntheticTask(n=7, m=9, d=3, k=4)
        orig, aug, planted = gen_synthetic(task, Rng(1))
        assert (orig.n, orig.d, orig.k) == (7, 3, 4)
        assert (aug.n, aug.d, aug.k) == (9, 3, 4)
        assert planted.w_star.shape == (4, 3)

    def test_same_stream_same_sets(self):
        task = SyntheticTask(mode="input_shift", n=20, m=30, d=3, k=3, delta_p=0.4)
        a = gen_synthetic(task, Rng(9, 2))
        b = gen_synthetic(task, Rng(9, 2))
        for sa, sb in zip(a[:2], b[:2]):
            np.testing.assert_array_equal(sa.inputs, sb.inputs)
            np.testing.assert_array_equal(sa.labels, sb.labels)
        np.testing.assert_array_equal(a[2].shift, b[2].shift)

    def test_label_bias_keeps_input_law(self):
        task = SyntheticTask(mode="label_bias", n=10, m=10, d=3, k=3, delta_y=0.1)
        _, _, planted = gen_synthetic(task, Rng(2))
        assert planted.shift is None

    def test_teacher_scale_scales_teacher(self):
        task = SyntheticTask(n=10, m=10, d=3, k=3)
        orig1, _, p1 = gen_synthetic(task, Rng(4))
        orig2, _, p2 = gen_synthetic(SyntheticTask(n=10, m=10, d=3, k=3, teacher_scale=2.0), Rng(4))
        np.testing.assert_array_equal(p2.w_star, 2.0 * p1.w_star)
        np.testing.assert_array_equal(orig2.inputs, orig1.inputs)

    def test_sample_original_uses_teacher(self):
        _, _, planted = gen_synthetic(SyntheticTask(n=10, m=10, d=3, k=3), Rng(11))
        ds = sample_original(planted, Rng(12), 20)
        np.testing.assert_allclose(ds.labels, clean_labels(planted, ds.inputs), atol=1e-12)


class TestEstimateDeltaY:
    def test_identical_pairs(self):
        pairs = [([1.0, 0.0], [1.0, 0.0])] * 3
        assert estimate_delta_y(pairs) == 0.0

    def test_worked_example(self):
        pairs = [([1.0, 0.0], [1.0, 0.0]), ([1.0, 0.0], [0.5, 0.5])]
        assert estimate_delta_y(pairs) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_max_monotone(self):
        rng = np.random.default_rng(31)
        pairs = [(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))) for _ in range(10)]
        base = estimate_delta_y(pairs)
        assert estimate_delta_y(pairs + [(np.eye(3)[0], np.eye(3)[1])]) >= base

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            estimate_delta_y([])

    def test_accepts_a_generator(self):
        pairs = [([1.0, 0.0], [0.0, 1.0]), ([0.5, 0.5], [0.5, 0.5])]
        assert estimate_delta_y(p for p in pairs) == estimate_delta_y(pairs)


class TestEstimateDeltaP:
    def test_gaussian_unit_shift(self):
        rng = np.random.default_rng(42)
        p = rng.normal(0.0, 1.0, size=100_000)
        q = rng.normal(1.0, 1.0, size=100_000)
        assert estimate_delta_P(p, q) == pytest.approx(0.5, abs=0.05)

    def test_recovers_planted_shift(self):
        task = SyntheticTask(mode="input_shift", n=100_000, m=100_000, d=5, k=3, delta_p=0.18)
        orig, aug, _ = gen_synthetic(task, Rng(43))
        est = estimate_delta_P(orig.inputs, aug.inputs)
        assert abs(est - 0.18) / 0.18 < 0.10

    def test_degenerate_covariance(self):
        flat = np.ones((50, 3))
        with pytest.raises(DegenerateEstimateError):
            estimate_delta_P(flat, flat + 0.5)

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            estimate_delta_P(np.ones(1), np.ones(1))

    def test_identical_samples_give_zero(self):
        p = np.random.default_rng(5).standard_normal((200, 3))
        assert estimate_delta_P(p, p) == 0.0

    def test_invariant_to_common_translation(self):
        rng = np.random.default_rng(6)
        p = rng.standard_normal((300, 2))
        q = rng.standard_normal((300, 2)) + [0.5, -0.2]
        c = np.array([3.0, -1.0])
        assert estimate_delta_P(p + c, q + c) == pytest.approx(estimate_delta_P(p, q), rel=1e-9)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            estimate_delta_P(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_rejects_three_d_samples(self):
        with pytest.raises(ValueError, match="1-d or 2-d"):
            estimate_delta_P(np.zeros((5, 2, 2)), np.zeros((5, 2, 2)))
