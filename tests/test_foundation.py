import re

import numpy as np
import pytest

from mafrft import (
    EigenBasis,
    build_eigenbasis,
    commuting_matrix,
    counters,
    dft_matrix,
    reversal_permutation,
)
from mafrft.foundation import fft_rows_unnormalized, mirror_layout


def fft(v):
    """Unnormalized forward DFT of one signal, through the counted row FFT."""
    return fft_rows_unnormalized(v)[0]


def test_dft_matrix_n1():
    assert np.allclose(dft_matrix(1, "standard"), [[1.0]])


def test_dft_matrix_n2_standard():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(dft_matrix(2, "standard"), expected, atol=1e-15)


def test_dft_matrix_n2_centered():
    W = dft_matrix(2, "centered")
    assert np.allclose(np.abs(W), 1 / np.sqrt(2), atol=1e-15)
    assert np.isclose(W[0, 0], (1 - 1j) / 2, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 31, 64])
@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_dft_matrix_unitary(n, variant):
    W = dft_matrix(n, variant)
    assert np.abs(W @ W.conj().T - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("n", [3, 5, 9, 15])
def test_centered_is_shifted_standard_for_odd_n(n):
    shift = (n - 1) // 2
    Ws = dft_matrix(n, "standard")
    Wc = dft_matrix(n, "centered")
    assert np.abs(np.roll(Ws, (shift, shift), axis=(0, 1)) - Wc).max() < 1e-12


def test_reversal_permutation_centered_is_antidiagonal():
    assert np.array_equal(reversal_permutation(3, "centered"), [2, 1, 0])


def test_reversal_permutation_standard_n4():
    assert np.array_equal(reversal_permutation(4, "standard"), [0, 3, 2, 1])


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_reversal_is_involution(n, variant):
    perm = reversal_permutation(n, variant)
    assert np.array_equal(perm[perm], np.arange(n))


@pytest.mark.parametrize(
    "fn", [dft_matrix, reversal_permutation, mirror_layout, commuting_matrix]
)
def test_non_integer_n_raises(fn):
    for n in (8.5, 8.0):
        with pytest.raises(TypeError):
            fn(n)
    for n in (0, -3):
        for variant in ("standard", "centered"):
            with pytest.raises(ValueError, match="n must be >="):
                fn(n, variant)
    assert np.array_equal(fn(np.int64(8)), fn(8))


def test_fft_constant():
    assert np.allclose(fft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-15)


def test_fft_delta():
    assert np.allclose(fft([1, 0, 0, 0]), [1, 1, 1, 1], atol=1e-15)


def test_fft_matches_matrix_oracle_length_12():
    rng = np.random.default_rng(12)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    oracle = np.sqrt(12) * dft_matrix(12, "standard") @ v
    assert np.abs(fft(v) - oracle).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 7, 8, 16, 24, 33, 64])
def test_fft_matches_matrix_oracle_any_length(n):
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    oracle = np.sqrt(n) * dft_matrix(n, "standard") @ v
    assert np.abs(fft(v) - oracle).max() < 1e-11


def test_ifft_of_fft_of_constant():
    # N times numpy's normalized inverse undoes the unnormalized forward DFT
    assert np.allclose(4 * np.fft.ifft(fft([1, 1, 1, 1])), [4, 4, 4, 4], atol=1e-15)


def test_ifft_round_trip_length_10():
    rng = np.random.default_rng(10)
    v = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    assert np.abs(10 * np.fft.ifft(fft(v)) - 10 * v).max() < 1e-12


def test_fft_counter_counts_rows():
    counters.reset()
    fft_rows_unnormalized(np.ones((3, 8)))
    fft(np.ones(5))
    assert counters.fft_calls == 4


@pytest.mark.parametrize("n", [1, 2, 7, 12, 33, 1536, 2048])
def test_fft_rows_match_dense_dft(n):
    # phases reduced exactly modulo N: at N=2048 rounding 2*pi*j*k/N before
    # reducing it would put ~1e-9 of error into the oracle itself
    rng = np.random.default_rng(n)
    z = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    idx = np.arange(n)
    kernel = np.exp(-2j * np.pi * (np.outer(idx, idx) % n) / n)
    counters.reset()
    X = fft_rows_unnormalized(z)
    assert counters.fft_calls == 3
    err = np.abs(X - z @ kernel).max(axis=1) / np.linalg.norm(z, axis=1)
    assert err.max() < 1e-13


def test_fft_rows_input_shapes():
    counters.reset()
    one = fft_rows_unnormalized(np.arange(5.0))
    assert one.shape == (1, 5) and one.dtype == complex
    assert counters.fft_calls == 1
    many = fft_rows_unnormalized(np.ones((4, 6)))
    assert many.shape == (4, 6)
    assert counters.fft_calls == 5
    assert np.array_equal(one[0], np.fft.fft(np.arange(5.0)))


@pytest.mark.parametrize("call", [
    lambda v: dft_matrix(8, v),
    lambda v: reversal_permutation(8, v),
    lambda v: mirror_layout(8, v),
    lambda v: commuting_matrix(8, v),
    lambda v: build_eigenbasis(8, v),
    lambda v: EigenBasis(v, np.eye(8)),
])
def test_unknown_variant_raises(call):
    message = "unknown variant 'Standard', expected one of ('standard', 'centered')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call("Standard")
