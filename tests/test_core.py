import numpy as np
import pytest
from scipy import stats

from augbias.core import (
    AUGMENTED,
    ORIGINAL,
    LabeledSet,
    Rng,
    sample_beta,
    sample_dirichlet,
    softmax,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_overflow_safety(self):
        np.testing.assert_allclose(softmax([1000.0, 1000.0, 1000.0]), np.full(3, 1 / 3))

    def test_exact_ratio(self):
        np.testing.assert_allclose(softmax([np.log(3), 0.0]), [0.75, 0.25], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(2, 9))
            c = float(rng.standard_normal()) * 10
            np.testing.assert_allclose(softmax(v + c), softmax(v), atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            out = softmax(rng.standard_normal(5) * 50)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.nan, 0.0])
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            softmax([1.0])


class TestSamplers:
    def test_beta_uniform_mean(self):
        rng = Rng(1)
        draws = np.array([sample_beta(1.0, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(draws.var() - 1 / 12) < 0.005
        assert draws.min() >= 0 and draws.max() <= 1

    def test_beta_half_alpha_mean(self):
        rng = Rng(2)
        draws = np.array([sample_beta(0.5, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01

    def test_beta_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            sample_beta(0.0, Rng(0))
        with pytest.raises(ValueError):
            sample_beta(-1.0, Rng(0))

    def test_dirichlet_k2_matches_beta_marginal(self):
        rng = Rng(3)
        first = np.array([sample_dirichlet(1.0, 2, rng)[0] for _ in range(10_000)])
        ks = stats.kstest(first, "uniform").statistic
        assert ks < 0.02

    def test_dirichlet_coordinate_means(self):
        rng = Rng(4)
        draws = np.array([sample_dirichlet(1.0, 3, rng) for _ in range(100_000)])
        np.testing.assert_allclose(draws.mean(axis=0), np.full(3, 1 / 3), atol=0.01)

    def test_dirichlet_simplex(self):
        rng = Rng(5)
        for _ in range(200):
            v = sample_dirichlet(1.0, 10, rng)
            assert abs(v.sum() - 1.0) <= 1e-12
            assert np.all(v >= 0)

    def test_dirichlet_rejects_small_k(self):
        with pytest.raises(ValueError):
            sample_dirichlet(1.0, 1, Rng(0))


class TestRng:
    def test_bit_identical_streams(self):
        a = Rng(11, 3).gen.standard_normal(100)
        b = Rng(11, 3).gen.standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = Rng(11, 0).gen.standard_normal(100)
        b = Rng(11, 1).gen.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_derive(self):
        base = Rng(9)
        assert np.array_equal(
            base.derive(4).gen.standard_normal(10),
            Rng(9, 4).gen.standard_normal(10),
        )

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            Rng(-1)


class TestLabeledSet:
    def test_basic(self):
        ds = LabeledSet(np.zeros((3, 2)), np.full((3, 4), 0.25), ORIGINAL)
        assert (ds.n, ds.d, ds.k) == (3, 2, 4)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((2, 2)), np.full((2, 3), 0.5), ORIGINAL)

    def test_rejects_negative_labels(self):
        labels = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((2, 2)), labels, AUGMENTED)

    def test_rejects_bad_provenance(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((2, 2)), np.full((2, 2), 0.5), "mystery")

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((2, 2)), np.ones((2, 1)), ORIGINAL)

    def test_immutable(self):
        ds = LabeledSet(np.zeros((2, 2)), np.full((2, 2), 0.5), ORIGINAL)
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 1.0
