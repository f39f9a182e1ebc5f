import dataclasses
import os
import platform
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mafrft import (
    EigenBasis,
    LengthMismatch,
    NonFiniteSignal,
    OddWithoutPad,
    ZeroSignal,
    build_eigenbasis,
    change_of_basis,
    change_of_basis_fast,
    concentration_profile,
    counters,
    dft_matrix,
    frft_apply,
    load_basis,
    ma_frft_full,
    ma_frft_half,
    ma_frft_naive,
    reversal_permutation,
    save_basis,
    z_matrix,
)
import mafrft
from mafrft import foundation, multiangle
from mafrft.foundation import fft_rows_unnormalized, mirror_layout
from mafrft.multiangle import MultiangleResult
from tests.conftest import cached_basis, random_signal

VARIANTS = ["standard", "centered"]


# --- change of basis ---------------------------------------------------------


def test_change_of_basis_picks_out_columns(basis_of):
    b = basis_of(8, "standard")
    y = change_of_basis(b, b.vectors[:, 3])
    e3 = np.zeros(8)
    e3[3] = 1
    assert np.abs(y - e3).max() < 1e-10


def test_change_of_basis_zero(basis_of):
    assert np.array_equal(change_of_basis(basis_of(8, "centered"), np.zeros(8)),
                          np.zeros(8))


def test_change_of_basis_preserves_norm(basis_of):
    x = random_signal(9, seed=1)
    y = change_of_basis(basis_of(9, "standard"), x)
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-10)


@pytest.mark.parametrize("n", [8, 9, 12, 13])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fast_change_of_basis_matches_direct(n, variant, basis_of):
    b = basis_of(n, variant)
    x = random_signal(n, seed=n)
    assert np.abs(change_of_basis_fast(b, x) - change_of_basis(b, x)).max() < 1e-10


def test_fast_change_of_basis_symmetric_input(basis_of):
    b = basis_of(8, "centered")
    x = random_signal(8, seed=2)
    perm = reversal_permutation(8, "centered")
    even = x + x[perm]
    odd = x - x[perm]
    assert np.abs(change_of_basis_fast(b, even)[1::2]).max() < 1e-12
    assert np.abs(change_of_basis_fast(b, odd)[0::2]).max() < 1e-12


def test_fast_change_of_basis_multiply_count(basis_of):
    # counted from the products that run, by the product helper
    b = basis_of(64, "standard")
    x = random_signal(64, seed=64)
    counters.reset()
    change_of_basis(b, x)
    direct = counters.multiplies
    counters.reset()
    change_of_basis_fast(b, x)
    fast = counters.multiplies
    counters.reset()
    frft_apply(b, 0.5, x)
    single = counters.multiplies
    counters.reset()
    ma_frft_naive(b, x)
    naive = counters.multiplies
    assert direct == 64 * 64
    # even class 33 x 33, odd class 31 x 31, one halving per fixed point (0, 32)
    assert fast == 33 * 33 + 31 * 31 + 2
    assert single == 2 * 64 * 64  # V^T x, then V times the weighted coefficients
    assert naive == 64 * single  # one frft_apply per grid order


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 128),
    variant=st.sampled_from(VARIANTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_paths_match_references(n, variant, seed):
    b = cached_basis(n, variant)
    x = random_signal(n, seed=seed)
    counters.reset()
    fast = change_of_basis_fast(b, x)
    f = int(np.count_nonzero(reversal_permutation(n, variant) == np.arange(n)))
    assert counters.multiplies == ((n + f) // 2) ** 2 + ((n - f) // 2) ** 2 + f
    assert np.abs(fast - change_of_basis(b, x)).max() < 1e-10

    if n % 2 == 0:
        diff = np.abs(ma_frft_half(b, x).X - ma_frft_full(b, x).X).max()
        assert diff < 1e-12 * np.linalg.norm(x)
    else:  # the padded grid 4r/(N+1), against the per-order oracle
        X = ma_frft_half(b, x, pad_odd=True).X
        for r in range(n + 1):
            assert np.abs(X[:, r] - frft_apply(b, 4 * r / (n + 1), x)).max() < 1e-8


@pytest.mark.parametrize("n,variant", [(16, "standard"), (63, "centered"),
                                       (96, "centered")])
def test_loaded_and_hand_made_bases_give_identical_results(n, variant, basis_of,
                                                           tmp_path):
    # the column layout follows from (variant, N) alone, so a loaded or a
    # hand-made basis must give the built one's results bit for bit
    b = basis_of(n, variant)
    save_basis(b, tmp_path / "basis.bin")
    by_hand = EigenBasis(variant, b.vectors.copy())
    x = random_signal(n, seed=n)
    pad = n % 2 == 1
    full, half = ma_frft_full(b, x).X, ma_frft_half(b, x, pad_odd=pad).X
    for other in (load_basis(tmp_path / "basis.bin"), by_hand):
        assert np.array_equal(ma_frft_full(other, x).X, full)
        assert np.array_equal(ma_frft_half(other, x, pad_odd=pad).X, half)


# --- Z matrix ----------------------------------------------------------------


def test_zhat_structure_standard_even(basis_of):
    # one matrix, folded in place: column 7 (exponent N) into column 0
    b, x = basis_of(8, "standard"), random_signal(8, seed=3)
    zm = z_matrix(b, x)
    weighted = b.vectors * change_of_basis_fast(b, x)
    assert zm.Zhat is None
    assert np.array_equal(zm.Z[:, 7], np.zeros(8))
    assert np.abs(zm.Z[:, 0] - (weighted[:, 0] + weighted[:, 7])).max() == 0.0
    assert np.abs(zm.Z[:, 1:7] - weighted[:, 1:7]).max() == 0.0


def test_z_rows_mirror_centered(basis_of):
    b = basis_of(8, "centered")
    zm = z_matrix(b, random_signal(8, seed=4))
    assert zm.Zhat is None
    signs = (-1.0) ** np.arange(8)
    assert np.abs(zm.Z[::-1, :] - zm.Z * signs).max() < 1e-12


def test_zhat_rows_mirror_standard_even(basis_of):
    b = basis_of(8, "standard")
    zm = z_matrix(b, random_signal(8, seed=5))
    assert zm.Zhat is None
    signs = (-1.0) ** np.arange(8)
    for row in range(1, 8):
        assert np.abs(zm.Z[8 - row] - signs * zm.Z[row]).max() < 1e-12


def test_z_matrix_memory(basis_of):
    # the corrected matrix is the only N x N complex array: no second copy
    n = 1024
    b, x = basis_of(n, "standard"), random_signal(n, seed=7)
    tracemalloc.start()
    try:
        zm = z_matrix(b, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zm.Z.shape == (n, n)
    assert peak <= 1.05 * 16 * n * n, peak / (16 * n * n)


# --- multiangle paths --------------------------------------------------------


def test_full_column_zero_is_input(basis_of):
    b = basis_of(8, "centered")
    x = random_signal(8, seed=6)
    assert np.abs(ma_frft_full(b, x).X[:, 0] - x).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("variant", VARIANTS)
def test_full_integer_order_columns(variant, q, seed):
    # On a grid of R = 4q orders, columns 0, R/4, R/2 and 3R/4 are the
    # orders 0..3: x, W x, the reversal of x and W^H x. W comes from
    # numpy.fft (standard) or dft_matrix (centered), neither of which reads
    # the eigenbasis. R = N for `full` and `half` at N = 4q, and R = N+1 for
    # the padded `half` at N = 4q-1. The worst error measured over N 4..256
    # (three signals each) was 6.4e-15 * ||x||: the bound leaves about 15x.
    for n in (4 * q, 4 * q - 1):
        if n < 4:
            continue
        b = cached_basis(n, variant)
        x = random_signal(n, seed=seed)
        if variant == "standard":
            Wx, WHx = np.fft.fft(x, norm="ortho"), np.fft.ifft(x, norm="ortho")
        else:
            W = dft_matrix(n, variant)
            Wx, WHx = W @ x, W.conj().T @ x
        expected = np.stack((x, Wx, x[reversal_permutation(n, variant)], WHx), axis=1)
        if n % 2:
            results = [ma_frft_half(b, x, pad_odd=True)]
        else:
            results = [ma_frft_full(b, x), ma_frft_half(b, x)]
        for X in (result.X for result in results):
            err = np.abs(X[:, :: X.shape[1] // 4] - expected).max()
            assert err < 1e-13 * np.linalg.norm(x)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 127), seed=st.integers(0, 2**32 - 1))
def test_odd_centered_is_standard_shifted(m, seed):
    # For odd N = 2m+1 the centered DFT is C W C^-1, with C the circular
    # shift by m, so each order of the centered transform is the standard
    # one conjugated by C. This ties two separate eigensolves to each other.
    # The worst error measured over N 5..255 (three signals each) was
    # 1.05e-14 * ||x||, for `full` and for padded `half`: the bound leaves
    # about 9x.
    n = 2 * m + 1
    standard, centered = cached_basis(n, "standard"), cached_basis(n, "centered")
    x = random_signal(n, seed=seed)
    for path, kw in ((ma_frft_full, {}), (ma_frft_half, {"pad_odd": True})):
        shifted = np.roll(path(standard, np.roll(x, -m), **kw).X, m, axis=0)
        err = np.abs(path(centered, x, **kw).X - shifted).max()
        assert err < 1e-13 * np.linalg.norm(x)


def test_naive_integer_order_column(basis_of):
    b = basis_of(12, "standard")
    x = random_signal(12, seed=8)
    X = ma_frft_naive(b, x).X
    assert np.abs(X[:, 3] - dft_matrix(12, "standard") @ x).max() < 1e-8
    assert np.abs(X[:, 0] - x).max() < 1e-12


@pytest.mark.parametrize("n", [8, 9, 12, 13])
@pytest.mark.parametrize("variant", VARIANTS)
def test_full_matches_per_order_oracle(n, variant, basis_of):
    b = basis_of(n, variant)
    x = random_signal(n, seed=n + 1)
    X = ma_frft_full(b, x).X
    for r in range(n):
        assert np.abs(X[:, r] - frft_apply(b, 4 * r / n, x)).max() < 1e-8


@pytest.mark.parametrize("n", [4, 8, 12, 16])
@pytest.mark.parametrize("variant", VARIANTS)
def test_half_matches_full_even(n, variant, basis_of):
    b = basis_of(n, variant)
    x = random_signal(n, seed=n + 2)
    full = ma_frft_full(b, x)
    half = ma_frft_half(b, x)
    assert np.abs(half.X - full.X).max() < 1e-12
    assert np.array_equal(half.orders, full.orders)


def test_half_fft_counts(basis_of):
    x = random_signal(8, seed=9)
    counters.reset()
    ma_frft_half(basis_of(8, "standard"), x)
    assert counters.fft_calls == 5  # N/2 + 1
    counters.reset()
    ma_frft_half(basis_of(8, "centered"), x)
    assert counters.fft_calls == 4  # N/2
    counters.reset()
    ma_frft_full(basis_of(8, "standard"), x)
    assert counters.fft_calls == 8


def test_half_odd_padded_matches_oracle(basis_of):
    b = basis_of(9, "centered")
    x = random_signal(9, seed=10)
    counters.reset()
    result = ma_frft_half(b, x, pad_odd=True)
    assert counters.fft_calls == 5  # (N+1)/2
    assert result.X.shape == (9, 10)
    assert np.array_equal(result.orders, 4 * np.arange(10) / 10)
    for r in range(10):
        assert np.abs(result.X[:, r] - frft_apply(b, 4 * r / 10, x)).max() < 1e-8


def test_half_odd_without_pad_raises(basis_of):
    with pytest.raises(OddWithoutPad):
        ma_frft_half(basis_of(9, "standard"), random_signal(9))


@pytest.mark.parametrize("variant", VARIANTS)
def test_half_odd_without_pad_checks_signal_first(variant, basis_of):
    b = basis_of(9, variant)
    with pytest.raises(LengthMismatch):
        ma_frft_half(b, np.zeros(8))
    x = random_signal(9)
    x[4] = np.nan
    with pytest.raises(NonFiniteSignal):
        ma_frft_half(b, x)


def test_each_call_checks_its_signal_once(basis_of, monkeypatch):
    original, checked = multiangle._check_signal, []

    def check(basis, x):
        checked.append(x)
        return original(basis, x)

    monkeypatch.setattr(multiangle, "_check_signal", check)
    b, x = basis_of(9, "standard"), random_signal(9)
    for call in (
        lambda: change_of_basis_fast(b, x),
        lambda: z_matrix(b, x),
        lambda: ma_frft_full(b, x),
        lambda: ma_frft_half(b, x, pad_odd=True),
    ):
        checked.clear()
        call()
        assert len(checked) == 1


def test_length_mismatch(basis_of):
    with pytest.raises(LengthMismatch):
        ma_frft_full(basis_of(8, "standard"), np.zeros(7))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_signal_rejected(bad, basis_of):
    b = basis_of(8, "standard")
    x = random_signal(8)
    x[3] = bad
    for call in (
        lambda: ma_frft_full(b, x),
        lambda: ma_frft_half(b, x),
        lambda: ma_frft_naive(b, x),
        lambda: change_of_basis_fast(b, x),
        lambda: frft_apply(b, 0.5, x),
    ):
        with pytest.raises(NonFiniteSignal):
            call()


# --- invariants --------------------------------------------------------------


@pytest.mark.parametrize("n", list(range(4, 17)) + [32])
@pytest.mark.parametrize("variant", VARIANTS)
def test_full_equals_naive(n, variant, basis_of):
    b = basis_of(n, variant)
    for seed in range(5):
        x = random_signal(n, seed=seed)
        diff = np.abs(ma_frft_full(b, x).X - ma_frft_naive(b, x).X).max()
        assert diff < 1e-8


@pytest.mark.parametrize("variant", VARIANTS)
def test_column_norms_preserved(variant, basis_of):
    b = basis_of(12, variant)
    x = random_signal(12, seed=11)
    X = ma_frft_full(b, x).X
    norms = np.linalg.norm(X, axis=0)
    assert np.abs(norms - np.linalg.norm(x)).max() < 1e-8


@pytest.mark.parametrize("variant", VARIANTS)
def test_real_input_conjugate_symmetry(variant, basis_of):
    b = basis_of(10, variant)
    x = np.random.default_rng(12).standard_normal(10)
    assert np.abs(z_matrix(b, x).Z.imag).max() == 0.0
    X = ma_frft_full(b, x).X
    R = 10
    for r in range(R):
        assert np.abs(X[:, (R - r) % R] - np.conj(X[:, r])).max() < 1e-10


@pytest.mark.parametrize("variant", VARIANTS)
def test_order_plus_two_is_reversal(variant, basis_of):
    b = basis_of(8, variant)
    x = random_signal(8, seed=13)
    X = ma_frft_full(b, x).X
    perm = reversal_permutation(8, variant)
    for r in range(8):
        assert np.abs(X[:, (r + 4) % 8] - X[perm, r]).max() < 1e-8


def test_sign_flip_invariance_of_X(basis_of):
    b = basis_of(8, "standard")
    flips = np.random.default_rng(14).choice([-1.0, 1.0], size=8)
    flipped = EigenBasis(b.variant, b.vectors * flips)
    x = random_signal(8, seed=15)
    assert np.abs(ma_frft_full(b, x).X - ma_frft_full(flipped, x).X).max() < 1e-10


# --- correction-factor derivation -------------------------------------------


def reconstruct_correction(n):
    """Columns are inverse DFTs of the twiddle matrix whose last column is
    all ones (the exponent n maps to the zero twiddle column)."""
    w = np.exp(-2j * np.pi / n)
    ell = np.concatenate([np.arange(n - 1), [n]])
    B = w ** np.outer(np.arange(n), ell)
    return np.fft.ifft(B, axis=0)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_correction_factor_closed_form(n):
    gamma = reconstruct_correction(n)
    expected = np.eye(n, dtype=complex)
    expected[n - 1, n - 1] = 0.0
    expected[0, n - 1] = 1.0
    assert np.abs(gamma - expected).max() < 1e-10


# --- concentration profile ---------------------------------------------------


def test_profile_delta(basis_of):
    b = basis_of(8, "standard")
    x = np.zeros(8, dtype=complex)
    x[0] = 1.0
    profile = concentration_profile(ma_frft_full(b, x))
    assert profile[0] == pytest.approx(1.0, abs=1e-12)


def test_profile_constant_signal(basis_of):
    b = basis_of(8, "standard")
    profile = concentration_profile(ma_frft_full(b, np.ones(8, dtype=complex)))
    assert profile[2] == pytest.approx(1.0, abs=1e-9)  # order 1 at r = N/4


def test_profile_unit_rate_chirp(basis_of):
    b = basis_of(8, "standard")
    idx = np.arange(8)
    x = np.exp(1j * (np.pi * idx**2 / 8 - 2 * np.pi * 3.5 * idx / 8))
    profile = concentration_profile(ma_frft_full(b, x))
    peak = set(np.flatnonzero(profile >= profile.max() - 1e-9))
    assert peak == {1, 5}


def test_profile_zero_signal_raises():
    result = MultiangleResult(np.zeros((8, 8), dtype=complex))
    with pytest.raises(ZeroSignal):
        concentration_profile(result)


def test_mirror_pairing_matches_permutation(basis_of):
    # every row is either transformed or recovered from its mirror row; the
    # half path relies on the representatives being the prefix 0..r-1 and
    # their copied mirrors the reversed suffix
    for n in range(4, 65):
        for variant in VARIANTS:
            perm = reversal_permutation(n, variant)
            assert np.array_equal(perm[perm], np.arange(n))
            rows = np.arange(n)
            reps = rows[rows <= perm]
            r, c, lo, _ = mirror_layout(n, variant)
            assert np.array_equal(reps, np.arange(r))
            copied = perm[reps] != reps
            sources, mirrors = reps[copied], perm[reps[copied]]
            assert np.array_equal(sources, np.arange(lo, lo + c))
            assert np.array_equal(mirrors, np.arange(n - 1, n - c - 1, -1))
            assert r - c == np.count_nonzero(perm == rows)

            b = basis_of(n, variant)
            parity = b.exponents % 2  # the class sizes the build relies on
            assert (np.count_nonzero(parity == 0), np.count_nonzero(parity)) == (r, c)
            res = ma_frft_half(b, random_signal(n, seed=n), pad_odd=n % 2 == 1)
            R = res.X.shape[1]
            expected = res.X.copy()
            expected[mirrors] = np.roll(res.X[sources], R // 2, axis=1)
            assert np.array_equal(res.X, expected)


def _staged(b, x, half):
    """z_matrix, then fft_rows_unnormalized, then for half the mirror copy."""
    n = b.n
    Z = z_matrix(b, x).Z
    if not half:
        return fft_rows_unnormalized(Z)
    if n % 2:
        Z = np.hstack([Z, np.zeros((n, 1), dtype=complex)])
    r, c, lo, _ = mirror_layout(n, b.variant)
    X = np.empty(Z.shape, dtype=complex)
    X[:r] = fft_rows_unnormalized(Z[:r])
    X[n - c:][::-1] = np.roll(X[lo:lo + c], Z.shape[1] // 2, axis=1)
    return X


@pytest.mark.parametrize("n", [16, 63, 64, 96, 255, 600])
@pytest.mark.parametrize("variant", VARIANTS)
def test_whole_call_equals_staged_z_and_fft(n, variant, basis_of):
    # bit for bit: the whole call forms the same Z as z_matrix, without a copy
    b = basis_of(n, variant)
    x = random_signal(n, seed=n + 1)
    assert np.array_equal(ma_frft_full(b, x).X, _staged(b, x, False))
    half = ma_frft_half(b, x, pad_odd=n % 2 == 1)
    assert np.array_equal(half.X, _staged(b, x, True))


def test_result_is_its_matrix_and_derived_grid(basis_of):
    # odd N: the padded half path has a grid of N+1 orders, the others N
    for n, variant in (8, "standard"), (9, "centered"):
        b, x = basis_of(n, variant), random_signal(n)
        full, half = ma_frft_full(b, x), ma_frft_half(b, x, pad_odd=n % 2 == 1)
        for result, R in (full, n), (half, n + n % 2), (ma_frft_naive(b, x), n):
            assert [f.name for f in dataclasses.fields(result)] == ["X"]
            assert result.X.shape == (n, R)
            assert np.array_equal(result.orders, 4 * np.arange(R) / R)


def test_basis_and_results_compare_and_hash_by_identity():
    # equal arrays in two objects do not make them equal, and == never
    # asks an array for its truth value
    b, twin_b = build_eigenbasis(8, "standard"), build_eigenbasis(8, "standard")
    x = random_signal(8)
    pairs = [(b, twin_b), (ma_frft_full(b, x), ma_frft_full(b, x)),
             (z_matrix(b, x), z_matrix(b, x))]
    for obj, twin in pairs:
        assert obj == obj and not obj != obj
        assert obj != twin and not obj == twin
        assert hash(obj) == hash(obj)
        assert {obj: 1, twin: 2}[obj] == 1


# --- rows split over threads -------------------------------------------------

# Both paths split at these sizes: Z has about 1M elements in full and 525K
# in half, at least two ranges of 2**18.
SPLIT_SIZES = [1024, 1025]


def _call(b, x, half):
    if half:
        return ma_frft_half(b, x, pad_odd=b.n % 2 == 1).X
    return ma_frft_full(b, x).X


@pytest.mark.parametrize("n", SPLIT_SIZES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_split_paths_equal_staged_with_exact_counts(n, variant, basis_of, submitted):
    b, x = basis_of(n, variant), random_signal(n, seed=n)
    r = mirror_layout(n, variant)[0]
    f = 1 if n % 2 else (2 if variant == "standard" else 0)  # fixed points
    e, o = (n + f) // 2, (n - f) // 2
    for half in (False, True):
        submitted.clear()
        counters.reset()
        X = _call(b, x, half)
        assert counters.fft_calls == (r if half else n)
        assert counters.multiplies == e * e + o * o + f
        assert submitted, "the rows were not split"
        assert np.array_equal(X, _staged(b, x, half))


@pytest.mark.parametrize("n", [16, 17] + SPLIT_SIZES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_fft_count_is_the_rows_transformed(n, variant, basis_of, monkeypatch):
    # Counted from the work, not declared: the rows of every numpy.fft.fft
    # call, on any thread (list.append is atomic). The basis is built first,
    # as its self-checks run column FFTs.
    b, x = basis_of(n, variant), random_signal(n, seed=n)
    rows, fft = [], np.fft.fft

    def counted(a, *args, **kwargs):
        rows.append(len(a) if np.ndim(a) == 2 else 1)
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    for half in (False, True):
        rows.clear()
        counters.reset()
        _call(b, x, half)
        assert sum(rows) == counters.fft_calls == (mirror_layout(n, variant)[0] if half else n)


@pytest.mark.parametrize("n", SPLIT_SIZES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_split_off_gives_identical_rows(n, variant, basis_of, submitted, monkeypatch):
    b, x = basis_of(n, variant), random_signal(n, seed=n + 2)
    split = [_call(b, x, half) for half in (False, True)]
    tasks = len(submitted)
    assert tasks >= 2
    monkeypatch.setattr(foundation, "_THREADS", 1)
    for half, X in zip((False, True), split):
        assert np.array_equal(_call(b, x, half), X)
    assert len(submitted) == tasks


def test_concurrent_callers_get_serial_results(basis_of, submitted):
    # more calling threads than cores, all sharing the bases and the pool
    bases = [basis_of(1024, "standard"), basis_of(1025, "centered")]
    signals = [random_signal(b.n, seed=7 + k) for k, b in enumerate(bases)]
    want = [[_call(b, x, half) for half in (False, True)]
            for b, x in zip(bases, signals)]
    mismatches, errors = [], []

    def caller(k):
        try:
            for i in range(4):
                j = (i + k) % 2
                for half in (False, True):
                    if not np.array_equal(_call(bases[j], signals[j], half),
                                          want[j][half]):
                        mismatches.append((k, j, half))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not mismatches
    assert len(submitted) >= 4 * 4 * 2


def _run_script(script):
    src = os.path.dirname(os.path.dirname(mafrft.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_starts_no_thread():
    # the pool is made at import, but starts a thread only for its first task
    _run_script(textwrap.dedent("""
        import threading
        before = threading.active_count()
        import mafrft
        assert threading.active_count() == before, threading.enumerate()
        assert mafrft.foundation._pool is not None
    """))


def test_import_and_build_load_no_scipy():
    # the tridiagonal eigensolver comes from numpy's own LAPACK: loading
    # scipy.linalg would add about 28 MB to every process
    _run_script(textwrap.dedent("""
        import sys
        import mafrft
        mafrft.build_eigenbasis(64)
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
    """))


def test_split_call_works_in_a_forked_child(basis_of, tmp_path):
    # the child gets a copy of the parent's pool without its threads
    save_basis(basis_of(1024, "standard"), tmp_path / "basis.bin")
    _run_script(textwrap.dedent(f"""
        import multiprocessing, warnings
        import numpy as np
        from mafrft import foundation, load_basis, ma_frft_full

        foundation._THREADS = max(2, foundation._THREADS)
        b = load_basis({str(tmp_path / "basis.bin")!r})
        x = np.arange(b.n) + 1j
        want = ma_frft_full(b, x).X
        assert foundation._pool is not None

        def child():
            assert np.array_equal(ma_frft_full(b, x).X, want)
            assert foundation._pool is not None

        warnings.filterwarnings("ignore", ".*multi-threaded.*", DeprecationWarning)
        p = multiprocessing.get_context("fork").Process(target=child, daemon=True)
        p.start()
        p.join(60)
        assert p.exitcode == 0, p.exitcode
    """))


def test_pooled_build_works_in_a_forked_child():
    # the build makes no threads, and the parent's pool, made at import, has
    # none yet; a forked child builds, validates and transforms on a pool of
    # its own
    _run_script(textwrap.dedent("""
        import multiprocessing, warnings
        import numpy as np
        from mafrft import build_eigenbasis, foundation, ma_frft_half, validate_eigenbasis

        foundation._THREADS = max(2, foundation._THREADS)
        foundation._SPLIT = 2**10
        want = build_eigenbasis(64, "centered")
        assert foundation._pool is not None
        x = np.arange(64) + 1j

        def child():
            b = build_eigenbasis(64, "centered")
            assert validate_eigenbasis(b) == validate_eigenbasis(want)
            assert np.array_equal(b.vectors, want.vectors)
            assert np.array_equal(ma_frft_half(b, x).X, ma_frft_half(want, x).X)
            assert foundation._pool is not None

        warnings.filterwarnings("ignore", ".*multi-threaded.*", DeprecationWarning)
        p = multiprocessing.get_context("fork").Process(target=child, daemon=True)
        p.start()
        p.join(60)
        assert p.exitcode == 0, p.exitcode
    """))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap thresholds")
def test_import_raises_heap_thresholds():
    # four 256 KiB arrays (N=128 results) made and dropped per round: with
    # glibc's start-up thresholds each round trims the heap top and faults it
    # back in, 224 pages a round; after the import, none
    _run_script(textwrap.dedent("""
        import resource
        import numpy as np
        import mafrft
        def round():
            arrays = [np.ones((128, 128), complex) for _ in range(4)]
        round()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            round()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 50, faults
    """))
