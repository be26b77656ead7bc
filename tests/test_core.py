import numpy as np
import pytest

from augbias.core import (
    LabeledSet,
    Rng,
    as_mat,
    as_vec,
    class_sum,
    softmax,
    softmax_rows,
)
from reference import check_finite


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


class TestRng:
    def test_bit_identical_streams(self):
        a = Rng(11, 3).gen.standard_normal(100)
        b = Rng(11, 3).gen.standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = Rng(11, 0).gen.standard_normal(100)
        b = Rng(11, 1).gen.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError):
            Rng(-1)

    def test_rejects_negative_stream(self):
        with pytest.raises(ValueError):
            Rng(0, -1)

    def test_repr_names_seed_and_stream(self):
        assert repr(Rng(11, 3)) == "Rng(seed=11, stream=3)"


class TestArrays:
    def test_as_vec_checks_length(self):
        np.testing.assert_array_equal(as_vec([1, 2, 3], size=3), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="length 2"):
            as_vec([1.0, 2.0, 3.0], size=2)

    def test_as_vec_rejects_matrix_and_non_finite(self):
        with pytest.raises(ValueError, match="1-d"):
            as_vec(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            as_vec([0.0, np.nan])

    def test_as_mat_rejects_vector_and_non_finite(self):
        assert as_mat([[1, 2]]).dtype == np.float64
        with pytest.raises(ValueError, match="2-d"):
            as_mat(np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            as_mat([[0.0, np.inf]])

    def test_check_finite(self):
        a = np.array([1.0, -2.0])
        assert check_finite(a) is a
        with pytest.raises(ValueError, match="grad"):
            check_finite(np.array([np.inf]), name="grad")


class TestClassSum:
    # both sides of the pairwise block at which numpy changes summation order
    @pytest.mark.parametrize("k", [2, 7, 8, 13])
    def test_matches_row_major_sum_bit_for_bit(self, k):
        a = np.random.default_rng(k).standard_normal((50, k)) * 1e3
        a_t = np.ascontiguousarray(a.T)
        np.testing.assert_array_equal(class_sum(a_t), np.sum(a, axis=1))
        stack = np.stack([a_t, 2.0 * a_t])
        np.testing.assert_array_equal(class_sum(stack)[1], np.sum(2.0 * a, axis=1))

    def test_softmax_rows_matches_softmax(self):
        s = np.random.default_rng(3).standard_normal((20, 4)) * 30
        out = softmax_rows(s)
        assert out.flags["C_CONTIGUOUS"]
        for row, scores in zip(out, s):
            np.testing.assert_allclose(row, softmax(scores), rtol=1e-14)


class TestLabeledSet:
    def test_basic(self):
        ds = LabeledSet(np.zeros((3, 2)), np.full((3, 4), 0.25))
        assert (ds.n, ds.d, ds.k) == (3, 2, 4)

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((2, 2)), np.full((2, 3), 0.5))

    def test_rejects_negative_labels(self):
        labels = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((2, 2)), labels)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            LabeledSet(np.zeros((2, 2)), np.ones((2, 1)))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="same number of rows"):
            LabeledSet(np.zeros((3, 2)), np.full((2, 2), 0.5))

    def test_rejects_non_finite_inputs(self):
        with pytest.raises(ValueError, match="non-finite"):
            LabeledSet(np.array([[np.nan, 0.0]]), np.full((1, 2), 0.5))

    def test_holds_its_own_copy(self):
        x, y = np.zeros((2, 2)), np.full((2, 2), 0.5)
        ds = LabeledSet(x, y)
        x[0, 0], y[0] = 7.0, [1.0, 0.0]
        assert ds.inputs[0, 0] == 0.0
        np.testing.assert_array_equal(ds.labels[0], [0.5, 0.5])

    def test_immutable(self):
        ds = LabeledSet(np.zeros((2, 2)), np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            ds.inputs[0, 0] = 1.0

    # k = 9 is past the pairwise block at which numpy changes summation order
    @pytest.mark.parametrize("k", [5, 9])
    def test_class_major_copies(self, k):
        """The copies the evaluation kernel reads equal the arrays they are
        made from, bit for bit, and are made once, C-ordered and read-only."""
        rng = np.random.default_rng(k)
        x, y = rng.standard_normal((40, 3)), rng.dirichlet(np.full(k, 0.5), size=40)
        ds = LabeledSet(x, y)
        copies = {"inputs_t": np.ascontiguousarray(x.T), "labels_t": np.ascontiguousarray(y.T),
                  "label_sums": y.sum(axis=1)}
        for name, want in copies.items():
            got = getattr(ds, name)
            assert got.shape == want.shape and (got == want).all(), name
            assert got.flags.c_contiguous and not got.flags.writeable, name
            assert getattr(ds, name) is got, name
