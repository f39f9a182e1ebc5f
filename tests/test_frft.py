import numpy as np
import pytest

from mafrft import (
    EigenBasis,
    LengthMismatch,
    dft_matrix,
    frft_apply,
    reversal_permutation,
)
from mafrft.frft import _GEMM_BLOCK, _real_matvec, frft_matrix
from tests.conftest import random_signal

VARIANTS = ["standard", "centered"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_order_zero_is_identity(variant, basis_of):
    M = frft_matrix(basis_of(8, variant), 0.0)
    assert np.abs(M - np.eye(8)).max() < 1e-10


@pytest.mark.parametrize("n", [8, 9, 12, 13])
@pytest.mark.parametrize("variant", VARIANTS)
def test_integer_order_anchors(n, variant, basis_of):
    b = basis_of(n, variant)
    W = dft_matrix(n, variant)
    P = np.eye(n)[reversal_permutation(n, variant)]
    assert np.abs(frft_matrix(b, 1.0) - W).max() < 1e-8
    assert np.abs(frft_matrix(b, 2.0) - P).max() < 1e-8
    assert np.abs(frft_matrix(b, 3.0) - W.conj().T).max() < 1e-8


def test_periodicity(basis_of):
    b = basis_of(8, "standard")
    assert np.abs(frft_matrix(b, 4.5) - frft_matrix(b, 0.5)).max() < 1e-10
    for h in (-2, 1, 3):
        assert np.abs(frft_matrix(b, 0.7 + 4 * h) - frft_matrix(b, 0.7)).max() < 1e-9


@pytest.mark.parametrize("n", [16, 255])
@pytest.mark.parametrize("variant", VARIANTS)
def test_period_4_holds_at_large_orders(n, variant, basis_of):
    # every order here is an exact binary number, so 4k + a is a exactly
    b, x = basis_of(n, variant), random_signal(n, seed=4)
    tol = 1e-12 * np.linalg.norm(x)
    for a in (0.5, 1.25, 3.75):
        y, M = frft_apply(b, a, x), frft_matrix(b, a)
        for k in (1, 10**6, 10**10, 10**14):
            assert np.abs(frft_apply(b, 4 * k + a, x) - y).max() < tol, (a, k)
            assert np.abs(frft_apply(b, a - 4 * k, x) - y).max() < tol, (a, -k)
        assert np.abs(frft_matrix(b, 4 * 10**14 + a) - M).max() < 1e-12


@pytest.mark.parametrize("a", [0.3, 1.7, 3.9])
def test_apply_preserves_norm(a, basis_of):
    b = basis_of(12, "centered")
    x = random_signal(12, seed=3)
    assert np.linalg.norm(frft_apply(b, a, x)) == pytest.approx(
        np.linalg.norm(x), abs=1e-9
    )


def test_apply_order_zero_identity(basis_of):
    b = basis_of(9, "standard")
    x = random_signal(9, seed=4)
    assert np.abs(frft_apply(b, 0.0, x) - x).max() < 1e-10


def test_angle_additivity_example(basis_of):
    b = basis_of(8, "standard")
    x = random_signal(8, seed=5)
    lhs = frft_apply(b, 0.4, frft_apply(b, 1.1, x))
    assert np.abs(lhs - frft_apply(b, 1.5, x)).max() < 1e-8


@pytest.mark.parametrize("variant", VARIANTS)
def test_angle_additivity_random_pairs(variant, basis_of):
    b = basis_of(10, variant)
    rng = np.random.default_rng(20)
    x = random_signal(10, seed=6)
    for _ in range(20):
        a1, a2 = rng.uniform(-4, 4, size=2)
        lhs = frft_apply(b, a1, frft_apply(b, a2, x))
        assert np.abs(lhs - frft_apply(b, a1 + a2, x)).max() < 1e-8


@pytest.mark.parametrize("variant", VARIANTS)
def test_inverse_is_hermitian_transpose(variant, basis_of):
    b = basis_of(11, variant)
    for a in (0.3, 1.9, 2.6):
        assert np.abs(frft_matrix(b, -a) - frft_matrix(b, a).conj().T).max() < 1e-9


def test_sign_flip_invariance(basis_of):
    b = basis_of(8, "centered")
    rng = np.random.default_rng(7)
    flips = rng.choice([-1.0, 1.0], size=8)
    flipped = EigenBasis(b.variant, b.vectors * flips)
    for a in (0.5, 1.3):
        assert np.abs(frft_matrix(b, a) - frft_matrix(flipped, a)).max() < 1e-10


@pytest.mark.parametrize("variant", VARIANTS)
def test_large_integer_order_is_its_residue(variant, basis_of):
    # an int past 64 bits, which numpy cannot hold, gives the bits of its
    # residue mod 4, signed as the order is
    b, x = basis_of(16, variant), random_signal(16, seed=5)
    for big, small in ((2**63, 0), (2**70 + 1, 1), (-(2**80) - 2, -2)):
        assert np.array_equal(frft_apply(b, big, x), frft_apply(b, small, x)), big
        assert np.array_equal(frft_matrix(b, big), frft_matrix(b, small)), big


@pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf, 0.5 + 0.5j, 1 + 0j,
                               [[0.5]], np.array([0.5]), [0.5, 1.0], "0.5", True])
@pytest.mark.parametrize("variant", VARIANTS)
def test_non_finite_or_complex_order_raises(variant, a, basis_of):
    # an order is one real number: not a sequence, an array or a string
    b = basis_of(16, variant)
    with pytest.raises(ValueError, match="order must be a finite real number"):
        frft_apply(b, a, random_signal(16))
    with pytest.raises(ValueError, match="order must be a finite real number"):
        frft_matrix(b, a)


def test_apply_length_mismatch(basis_of):
    with pytest.raises(LengthMismatch):
        frft_apply(basis_of(8, "standard"), 0.5, np.zeros(9))


def test_real_matvec_matches_complex_product():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 12))
    z = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    for v in (z[:12], z[::2], z[:12].real):  # contiguous, strided, real
        y = _real_matvec(A, v)
        assert y.dtype == complex and y.shape == (7,)
        assert np.abs(y - A.astype(complex) @ v).max() < 1e-13
    y = _real_matvec(A.T, z[:7])
    assert np.abs(y - A.T.astype(complex) @ z[:7]).max() < 1e-13
    # above the block size: row blocks, with entries of size 1/sqrt(columns)
    # like those of an orthonormal V
    A = rng.standard_normal((300, 500)) / np.sqrt(500)
    z = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    for M, v in ((A, z[:500]), (A, z[::2]), (A.T, z[:300])):
        assert 2 * M.size > _GEMM_BLOCK  # more than one block
        y = _real_matvec(M, v)
        assert y.dtype == complex and y.shape == (M.shape[0],)
        assert np.abs(y - M.astype(complex) @ v).max() < 1e-13


@pytest.mark.parametrize("variant", VARIANTS)
def test_apply_matches_matrix(variant, basis_of):
    b = basis_of(13, variant)
    x = random_signal(13, seed=5)
    for a in (0.0, 0.37, 1.0, 2.9):
        assert np.abs(frft_apply(b, a, x) - frft_matrix(b, a) @ x).max() < 1e-12
