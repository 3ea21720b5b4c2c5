"""Tests for MAD/ADD/SUB, Gauss-Jordan INV, and tiling."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.linalg.inverse import (
    gauss_jordan_inverse,
    inv_nvm_traffic_bytes,
    inverse_operation_count,
)
from repro.linalg.mad import (
    PE_REGISTER_BYTES,
    PostOp,
    fits_in_registers,
    mad,
    mad_operation_count,
    matrix_add,
    matrix_sub,
)
from repro.linalg.tiling import (
    block_multiply,
    max_square_dim_in_registers,
    needs_nvm,
    split_even,
)


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

    def test_add_sub(self):
        a, b = np.ones((2, 2)), np.full((2, 2), 3.0)
        assert (matrix_add(a, b) == 4.0).all()
        assert (matrix_sub(b, a) == 2.0).all()

    def test_register_capacity(self):
        small = np.zeros((64, 64))  # 8 KB at 2 B/element
        assert fits_in_registers(small)
        big = np.zeros((128, 128))  # 32 KB
        assert not fits_in_registers(big)
        assert PE_REGISTER_BYTES == 16 * 1024

    def test_operation_count(self):
        assert mad_operation_count((4, 5), x_cols=2) == 40


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

    def test_operation_count_cubic(self):
        assert inverse_operation_count(10) == 2000

    def test_nvm_traffic_quadratic(self):
        assert inv_nvm_traffic_bytes(384) == 3 * 384 * 384 * 2


class TestTiling:
    def test_block_multiply_matches_dense(self, rng):
        a = rng.normal(size=(9, 7))
        b = rng.normal(size=(7, 11))
        assert np.allclose(block_multiply(a, b), a @ b)

    def test_block_multiply_small_matrices(self, rng):
        a = rng.normal(size=(1, 1))
        b = rng.normal(size=(1, 3))
        assert np.allclose(block_multiply(a, b), a @ b)

    def test_split_even(self):
        assert split_even(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert split_even(2, 4) == [(0, 1), (1, 2)]

    def test_needs_nvm_threshold(self):
        dim = max_square_dim_in_registers()
        assert not needs_nvm(dim, dim)
        assert needs_nvm(dim + 1, dim + 1)

    def test_bad_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            block_multiply(np.zeros((2, 2)), np.zeros((2, 2)), ways=3)
