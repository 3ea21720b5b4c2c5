"""Tests for MAD, Gauss-Jordan INV, work splitting and register limits."""


import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.linalg.inverse import gauss_jordan_inverse
from repro.linalg.mad import PostOp, mad
from repro.linalg.tiling import split_even


class TestMAD:
    def test_matrix_vector(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = np.array([1.0, 1.0])
        assert np.allclose(mad(a, x, c=1.0), [4.0, 8.0])

    def test_relu_postop(self):
        a = np.array([[1.0], [-1.0]])
        out = mad(a, np.array([2.0]), post=PostOp(relu=True))
        assert out.tolist() == [2.0, 0.0]

    def test_normalise_postop(self):
        post = PostOp(normalise=True, mean=1.0, std=2.0)
        assert post.apply(np.array([5.0])).tolist() == [2.0]

    def test_normalise_bad_std_rejected(self):
        with pytest.raises(ConfigurationError):
            PostOp(normalise=True, std=0.0).apply(np.array([1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            mad(np.zeros((2, 3)), np.zeros(4))


class TestInverse:
    def test_inverse_correct(self, rng):
        m = rng.normal(size=(10, 10)) + 10 * np.eye(10)
        inv = gauss_jordan_inverse(m)
        assert np.allclose(inv @ m, np.eye(10), atol=1e-9)

    def test_needs_pivoting(self):
        # zero on the diagonal forces a row swap
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        inv = gauss_jordan_inverse(m)
        assert np.allclose(inv, m)

    def test_singular_rejected(self):
        with pytest.raises(ConfigurationError):
            gauss_jordan_inverse(np.ones((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            gauss_jordan_inverse(np.zeros((2, 3)))


class TestTiling:
    def test_split_even(self):
        assert split_even(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert split_even(2, 4) == [(0, 1), (1, 2)]
