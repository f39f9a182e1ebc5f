import dataclasses
import struct
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mafrft import (
    DegenerateBasis,
    EigenBasis,
    EigenMismatch,
    build_eigenbasis,
    commuting_matrix,
    dft_matrix,
    load_basis,
    reversal_permutation,
    save_basis,
    validate_eigenbasis,
)
from mafrft import eigenbasis, foundation
from mafrft.eigenbasis import (
    _BOUNDS, ValidationReport, _commutation_residual, _commuting_band,
    _eigen_residual, _lead_signs, index_vector,
)
from mafrft.foundation import _twiddles, mirror_layout
from tests.conftest import cached_basis, expected_multiplicities, multiplicities


def test_index_vector_standard_even():
    assert np.array_equal(index_vector(8, "standard"), [0, 1, 2, 3, 4, 5, 6, 8])


def test_index_vector_centered():
    assert np.array_equal(index_vector(8, "centered"), np.arange(8))


def test_index_vector_standard_odd():
    assert np.array_equal(index_vector(7, "standard"), np.arange(7))


@pytest.mark.parametrize(
    "n,variant,expected",
    [
        (8, "standard", (3, 2, 2, 1)),
        (8, "centered", (2, 2, 2, 2)),
        (7, "standard", (2, 2, 2, 1)),
        (9, "centered", (3, 2, 2, 2)),
    ],
)
def test_expected_multiplicities(n, variant, expected):
    assert multiplicities(index_vector(n, variant)) == expected
    assert expected_multiplicities(n, variant) == expected


@pytest.mark.parametrize("n", [8.5, 8.0])
def test_index_vector_rejects_non_integer_n(n):
    with pytest.raises(TypeError):
        index_vector(n)
    with pytest.raises(TypeError):
        build_eigenbasis(n)


def test_index_vector_accepts_numpy_integer():
    assert np.array_equal(index_vector(np.int64(8)), index_vector(8))


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_commuting_matrix_commutes(variant):
    S = commuting_matrix(8, variant)
    W = dft_matrix(8, variant)
    assert np.abs(S @ W - W @ S).max() < 1e-10


def test_commuting_matrix_exactly_symmetric():
    S = commuting_matrix(11, "centered")
    assert np.array_equal(S, S.T)


def test_commuting_matrix_rejects_small_n():
    with pytest.raises(ValueError):
        commuting_matrix(3, "standard")


def test_build_rejects_small_n():
    with pytest.raises(ValueError):
        build_eigenbasis(3, "centered")


def test_multiplicities_n8_standard(basis_of):
    b = basis_of(8, "standard")
    assert multiplicities(b.exponents) == (3, 2, 2, 1)
    assert validate_eigenbasis(b).passed


def test_column_symmetry_standard_even(basis_of):
    # V[N-n, k] = ((-1)^k + 2*delta[N-k-1]) * V[n, k] for n >= 1
    V = basis_of(8, "standard").vectors
    n = 8
    for k in range(n):
        factor = (-1.0) ** k + (2.0 if k == n - 1 else 0.0)
        for row in range(1, n):
            assert V[n - row, k] == pytest.approx(factor * V[row, k], abs=1e-12)


def test_column_symmetry_centered(basis_of):
    V = basis_of(8, "centered").vectors
    n = 8
    signs = (-1.0) ** np.arange(n)
    assert np.abs(V[::-1, :] - V * signs).max() < 1e-12


@pytest.mark.parametrize("n", [8, 9, 12, 13, 32])
@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_dft_eigen_residual(n, variant, basis_of):
    b = basis_of(n, variant)
    W = dft_matrix(n, variant)
    resid = np.abs(W @ b.vectors - b.vectors * (-1j) ** b.exponents).max()
    assert resid < 1e-8


@pytest.mark.parametrize("n", [8, 9, 10, 11, 12])
@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_reversal_eigenrelation(n, variant, basis_of):
    b = basis_of(n, variant)
    perm = reversal_permutation(n, variant)
    resid = np.abs(b.vectors[perm] - b.vectors * (-1.0) ** b.exponents).max()
    assert resid < 1e-8


def test_validate_12_centered(basis_of):
    b = basis_of(12, "centered")
    assert multiplicities(b.exponents) == (3, 3, 3, 3)
    assert validate_eigenbasis(b).passed


def test_validate_10_standard(basis_of):
    b = basis_of(10, "standard")
    assert multiplicities(b.exponents) == (3, 2, 3, 2)
    assert validate_eigenbasis(b).passed


@pytest.mark.parametrize("n", [8, 9, 10, 11])
def test_orthonormality_residual(n, basis_of):
    for variant in ("standard", "centered"):
        assert validate_eigenbasis(basis_of(n, variant)).orthonormality_residual < 1e-10


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_table_multiplicities_4_to_64(variant):
    for n in range(4, 65):
        b = cached_basis(n, variant)
        assert validate_eigenbasis(b).passed, (n, variant)
        counts = multiplicities(b.exponents)
        assert counts == expected_multiplicities(n, variant), (n, variant)


def test_cache_round_trip(tmp_path, basis_of):
    b = basis_of(10, "centered")
    path = tmp_path / "basis.bin"
    save_basis(b, path)
    loaded = load_basis(path)
    assert loaded.variant == b.variant
    assert loaded.n == b.n
    assert np.array_equal(loaded.vectors, b.vectors)
    assert np.array_equal(loaded.exponents, b.exponents)
    assert path.read_bytes()[:7] == b"FRFTEB1"


def test_save_writes_over_an_existing_file(tmp_path, basis_of):
    # the file is written in place and cut to length: a smaller basis saved
    # over a larger one leaves no trailing bytes, and a larger one over a
    # smaller grows it
    path, small, large = tmp_path / "basis.bin", basis_of(8, "standard"), basis_of(12, "centered")
    for b in (large, small, large):
        save_basis(b, path)
        assert path.stat().st_size == 12 + 8 * b.n * b.n + 4 * b.n
        loaded = load_basis(path)
        assert loaded.variant == b.variant
        assert np.array_equal(loaded.vectors, b.vectors)


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTABAS" + b"\0" * 16)
    with pytest.raises(ValueError):
        load_basis(path)


# --- cache format errors ------------------------------------------------------


def _cache_bytes(tmp_path, n=8, variant="standard"):
    path = tmp_path / "basis.bin"
    save_basis(cached_basis(n, variant), path)
    return path, path.read_bytes()


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda data: data[:-1], id="truncated-body"),
        pytest.param(lambda data: data[:9], id="truncated-header"),
        pytest.param(lambda data: data + b"\0", id="trailing-bytes"),
        pytest.param(lambda data: data[:11] + b"\x07" + data[12:], id="unknown-variant"),
        pytest.param(lambda data: data[:7] + struct.pack("<i", 3) + data[11:], id="n-3"),
        pytest.param(lambda data: data[:7] + struct.pack("<i", -2) + data[11:], id="n-negative"),
        pytest.param(lambda data: data[:-32] + data[-28:-24] + data[-32:-28] + data[-24:],
                     id="swapped-exponents"),
        pytest.param(lambda data: data[:12] + struct.pack("<d", np.nan) + data[20:],
                     id="nan-entry"),
        pytest.param(lambda data: data[:-40] + struct.pack("<d", -np.inf) + data[-32:],
                     id="inf-entry"),
    ],
)
def test_cache_rejects_corrupt_file(tmp_path, corrupt):
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(corrupt(data))
    with pytest.raises(ValueError):
        load_basis(path)


# --- residual kernels -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 64), variant=st.sampled_from(["standard", "centered"]))
def test_residual_kernels_match_dense_formulas(n, variant):
    S = commuting_matrix(n, variant)
    W = dft_matrix(n, variant)
    blocked = _commutation_residual(*_commuting_band(n, variant), variant)
    assert abs(blocked - np.abs(S @ W - W @ S).max()) < 1e-14

    b = cached_basis(n, variant)
    V, ell = b.vectors, b.exponents
    dense = np.abs(dft_matrix(n, variant) @ V - V * (-1j) ** ell).max()
    assert abs(_eigen_residual(V, ell, variant) - dense) < 1e-14


def test_residual_kernels_blocked(monkeypatch):
    # Force several row and column blocks, including a ragged last one.
    monkeypatch.setattr(eigenbasis, "_BLOCK_ELEMENTS", 3 * 37)
    for variant in ("standard", "centered"):
        S = commuting_matrix(37, variant)
        W = dft_matrix(37, variant)
        blocked = _commutation_residual(*_commuting_band(37, variant), variant)
        assert abs(blocked - np.abs(S @ W - W @ S).max()) < 1e-14
        b = cached_basis(37, variant)
        dense = np.abs(dft_matrix(37, variant) @ b.vectors
                       - b.vectors * (-1j) ** b.exponents).max()
        assert abs(_eigen_residual(b.vectors, b.exponents, variant) - dense) < 1e-14


@pytest.mark.parametrize("variant", ["standard", "centered"])
@pytest.mark.parametrize("n", [8, 9])
def test_flipped_corner_fails_commutation(n, variant, monkeypatch):
    diag, off = _commuting_band(n, variant)
    off[-1] = -off[-1]
    assert _commutation_residual(diag, off, variant) > 1e-8
    # also with one row per block, each row against the columns from its own
    # on, and with the rows split over the pool
    monkeypatch.setattr(eigenbasis, "_BLOCK_ELEMENTS", n)
    assert _commutation_residual(diag, off, variant) > 1e-8
    monkeypatch.setattr(foundation, "_THREADS", max(2, foundation._THREADS))
    monkeypatch.setattr(foundation, "_SPLIT", n)
    assert _commutation_residual(diag, off, variant) > 1e-8


# --- bit-exact references for the blocked, pooled and unfolded kernels -------------


def _full_commutation_matrix(diag, off, variant):
    """D = SW - WS over every row and column, in complex arithmetic, with the
    products and sums of the library kernel."""
    n = len(diag)
    u, table = _twiddles(n, variant)
    table /= np.sqrt(n)
    ring = np.arange(-1, n + 1) % n
    W = table[np.outer(u[ring], u[ring]) % (4 * n)]  # rows and columns -1 .. N
    j = np.arange(n)[:, None]
    SW = off[j - 1] * W[:-2, 1:-1] + diag[j] * W[1:-1, 1:-1] + off[j] * W[2:, 1:-1]
    mid = W[1:-1]
    WS = mid[:, :-2] * off[ring[:-2]] + mid[:, 1:-1] * diag + mid[:, 2:] * off
    return SW - WS


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 96), variant=st.sampled_from(["standard", "centered"]),
       rows=st.integers(1, 7))
def test_half_commutation_kernel_equals_full_matrix(n, variant, rows):
    # D is exactly antisymmetric, so a block of rows needs only the columns
    # from its first row on; `rows` rows per block makes the blocks ragged.
    band = _commuting_band(n, variant)
    D = _full_commutation_matrix(*band, variant)
    assert np.array_equal(np.abs(D), np.abs(D.T))
    full = float(np.abs(D).max())
    assert _commutation_residual(*band, variant) == full
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigenbasis, "_BLOCK_ELEMENTS", rows * n)
        assert _commutation_residual(*band, variant) == full


@settings(max_examples=40, deadline=None)
@given(n=st.integers(4, 96), variant=st.sampled_from(["standard", "centered"]))
def test_pooled_self_checks_equal_one_thread(n, variant):
    V = cached_basis(n, variant).vectors
    band = _commuting_band(n, variant)

    def checks():
        # a new basis for a report of its own; V is kept without a copy
        basis = EigenBasis(variant, V)
        return validate_eigenbasis(basis), _commutation_residual(*band, variant)

    tasks, executor = [], foundation._executor

    class Recorder:
        def submit(self, fn, *args):
            tasks.append(fn)
            return executor().submit(fn, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(foundation, "_THREADS", 1)
        one = checks()
        # a range of one row (or column) of length n: at least 4 ranges
        mp.setattr(foundation, "_THREADS", max(2, foundation._THREADS))
        mp.setattr(foundation, "_SPLIT", n)
        mp.setattr(foundation, "_executor", Recorder)
        pooled = checks()
    assert tasks, "the self-checks did not split"
    assert pooled == one


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 96), variant=st.sampled_from(["standard", "centered"]),
       columns=st.integers(1, 7))
def test_eigen_kernel_equals_phase_ramp_formula(n, variant, columns):
    # The standard variant skips the unit ramps and scales inside the FFT;
    # the reference multiplies by both ramps in complex arithmetic.
    b = cached_basis(n, variant)
    V, ell = b.vectors, b.exponents
    u, table = _twiddles(n, variant)
    m = -u[0]
    pre = table[(-2 * m * np.arange(n)) % (4 * n)][:, None]
    post = table[(m * m - 2 * m * np.arange(n)) % (4 * n)][:, None] / np.sqrt(n)
    lam = np.array([1, -1j, -1, 1j])[ell % 4]
    want = float(np.abs(post * np.fft.fft(pre * V, axis=0) - V * lam).max())
    assert _eigen_residual(V, ell, variant) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigenbasis, "_BLOCK_ELEMENTS", columns * n)
        assert _eigen_residual(V, ell, variant) == want


def test_concurrent_self_checks_equal_serial(monkeypatch):
    # more checking threads than cores, all sharing the pool, with ranges of
    # one row or column so that every check splits
    bases = [cached_basis(n, v) for n, v in ((40, "standard"), (41, "centered"))]
    want = [validate_eigenbasis(EigenBasis(b.variant, b.vectors)) for b in bases]
    monkeypatch.setattr(foundation, "_THREADS", max(2, foundation._THREADS))
    monkeypatch.setattr(foundation, "_SPLIT", 41)
    mismatches, errors = [], []

    def checker(k):
        try:
            for i in range(6):
                j = (i + k) % 2
                b = bases[j]
                if validate_eigenbasis(EigenBasis(b.variant, b.vectors)) != want[j]:
                    mismatches.append((k, j))
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=checker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors and not mismatches


def _gathered_basis(n, variant):
    """V unfolded from the class eigenvectors by gathering ``U[orbit]`` for
    every row, then each column's sign fixed over all N rows."""
    ell = index_vector(n, variant)
    diag, off = _commuting_band(n, variant)
    r, c, lo = mirror_layout(n, variant)
    k = np.arange(n)
    orbit = np.where(k < r, k, lo + n - 1 - k)
    paired = (lo <= orbit) & (orbit < lo + c)
    i, j, s = np.r_[k, k, (k + 1) % n], np.r_[k, (k + 1) % n, k], np.r_[diag, off, off]
    V = np.zeros((n, n))
    for sign, parity, live in ((1.0, 0, slice(0, r)), (-1.0, 1, slice(lo, lo + c))):
        w = np.where(paired, np.where(k < r, 1.0, sign) / np.sqrt(2), (1 + sign) / 2)
        block = np.zeros((r, r))
        np.add.at(block, (orbit[i], orbit[j]), s * w[i] * w[j])
        U = np.zeros_like(block[:, live])
        U[live] = np.linalg.eigh(block[live, live])[1][:, ::-1]
        V[:, ell % 2 == parity] = w[:, None] * U[orbit]
    lead = np.abs(V).argmax(axis=0)
    return V * np.where(V[lead, np.arange(n)] < 0, -1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 96), variant=st.sampled_from(["standard", "centered"]))
def test_slice_unfold_equals_orbit_gather(n, variant):
    # byte for byte, so also every signed zero
    V = build_eigenbasis(n, variant).vectors
    assert V.tobytes() == _gathered_basis(n, variant).tobytes()


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(0, 6)),
              elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])))
def test_lead_signs_follow_the_first_largest_entry(X):
    # few distinct values, so many columns tie between +m and -m
    lead = np.abs(X).argmax(axis=0)
    want = np.where(X[lead, np.arange(X.shape[1])] < 0, -1.0, 1.0)
    assert np.array_equal(_lead_signs(X), want)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_validate_rejects_swapped_columns(variant):
    b = cached_basis(16, variant)
    V = b.vectors.copy()
    V[:, [3, 4]] = V[:, [4, 3]]
    report = validate_eigenbasis(EigenBasis(variant, V))
    assert report.eigen_residual > 1e-8
    assert not report.passed


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_basis_rejects_permuted_layout(variant):
    # The exponents are derived, so a permuted layout cannot be passed in
    # (a V with permuted columns fails validation instead); a V that is not
    # N x N still raises.
    b = cached_basis(16, variant)
    with pytest.raises(ValueError):
        EigenBasis(variant, b.vectors[:8])


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_basis_freezes_its_arrays(variant):
    b = cached_basis(16, variant)
    basis = EigenBasis(variant, b.vectors.copy())
    with pytest.raises(ValueError):
        basis.vectors[0, 0] = 1.0
    with pytest.raises(ValueError):
        basis.exponents[0] = 1
    # A view is copied, so writing through its base leaves the basis intact.
    W = b.vectors.copy()
    viewed = EigenBasis(variant, W[:])
    assert not np.shares_memory(viewed.vectors, W)
    W[0, 0] += 1.0
    assert np.array_equal(viewed.vectors, b.vectors)
    assert validate_eigenbasis(viewed).passed


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_view_taken_before_construction_cannot_change_the_basis(variant):
    b = cached_basis(16, variant)
    W = b.vectors.copy()
    w = W[:]
    basis = EigenBasis(variant, W)
    report = validate_eigenbasis(basis)
    assert report.passed
    w[3, 2] += 1e-3
    assert np.array_equal(basis.vectors, b.vectors)
    assert validate_eigenbasis(basis) is report
    assert validate_eigenbasis(EigenBasis(variant, basis.vectors)) == report


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_basis_keeps_only_read_only_owned_arrays(tmp_path, variant):
    b = cached_basis(16, variant)
    V = b.vectors.copy()
    V.flags.writeable = False
    assert EigenBasis(variant, V).vectors is V
    assert not np.shares_memory(EigenBasis(variant, V[:]).vectors, V)
    single = b.vectors.astype(np.float32)
    single.flags.writeable = False
    assert EigenBasis(variant, single).vectors.dtype == np.float64
    save_basis(b, tmp_path / "basis.bin")
    assert load_basis(tmp_path / "basis.bin").vectors.flags.owndata


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_basis_rejects_non_finite_entry(variant, bad):
    V = cached_basis(16, variant).vectors.copy()
    V[5, 2] = bad
    with pytest.raises(ValueError):
        EigenBasis(variant, V)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_basis_rejects_complex_vectors_without_a_warning(variant):
    V = cached_basis(16, variant).vectors.astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            EigenBasis(variant, V)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_layout_is_derived_and_read_only(tmp_path, variant):
    b = cached_basis(16, variant)
    save_basis(b, tmp_path / "basis.bin")
    with pytest.raises(TypeError):
        EigenBasis(variant, b.vectors, exponents=b.exponents)
    for basis in (b, load_basis(tmp_path / "basis.bin"),
                  EigenBasis(variant, b.vectors.tolist())):
        assert basis.n == 16
        assert np.array_equal(basis.exponents, index_vector(16, variant))
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.n = 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.exponents = np.arange(16)
        with pytest.raises(ValueError):
            basis.exponents[0] = 1


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_build_and_validate_share_one_self_check(monkeypatch, variant):
    calls = []

    def counted(*args):
        calls.append(args)
        return _eigen_residual(*args)

    monkeypatch.setattr(eigenbasis, "_eigen_residual", counted)
    b = build_eigenbasis(16, variant)
    assert validate_eigenbasis(b).passed
    assert validate_eigenbasis(b) is validate_eigenbasis(b)
    assert len(calls) == 1


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(4, 128),
    variant=st.sampled_from(["standard", "centered"]),
    scale=st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_symmetry_residual_matches_full_permutation(n, variant, scale, seed):
    # The report reads only the representative rows; the reference is the
    # residual over every row.
    b = cached_basis(n, variant)
    V = b.vectors + scale * np.random.default_rng(seed).standard_normal((n, n))
    basis = b if scale == 0.0 else EigenBasis(variant, V)
    perm = reversal_permutation(n, variant)
    full = float(np.abs(V[perm] - V * (-1.0) ** b.exponents).max())
    assert validate_eigenbasis(basis).symmetry_residual == full


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_validate_rejects_perturbed_entry(variant):
    b = cached_basis(16, variant)
    V = b.vectors.copy()
    V[5, 2] += 1e-6
    report = validate_eigenbasis(EigenBasis(variant, V))
    assert report.orthonormality_residual > 1e-10
    assert not report.passed


def test_build_raises_for_a_broken_symmetry(monkeypatch):
    # With reversal taken as the identity, every odd column misses its
    # symmetry while orthonormality and the DFT eigen residual still hold.
    monkeypatch.setattr(eigenbasis, "reversal_permutation", lambda n, v: np.arange(n))
    message = "^symmetry_residual .* for n=16, variant=centered$"
    with pytest.raises(EigenMismatch, match=message):
        build_eigenbasis(16, "centered")


@pytest.mark.parametrize("value", ["over", "at", "nan"])
@pytest.mark.parametrize("row", range(len(_BOUNDS)))
def test_acceptance_rule_rejects_each_residual(row, value):
    name, bound, error = _BOUNDS[row]
    values = dict.fromkeys([field for field, _, _ in _BOUNDS], 0.0)
    values[name] = {"over": np.nextafter(bound, 1.0), "at": bound, "nan": np.nan}[value]
    report = ValidationReport(**values)
    assert not report.passed
    with pytest.raises(error, match=f"^{name} .* for basis$"):
        report.require("basis")


def test_acceptance_rule_passes_zero_residuals():
    report = ValidationReport(0.0, 0.0, 0.0)
    assert report.passed
    report.require("basis")
    assert _BOUNDS == (
        ("orthonormality_residual", 1e-10, DegenerateBasis),
        ("eigen_residual", 1e-8, EigenMismatch),
        ("symmetry_residual", 1e-8, EigenMismatch),
    )


def test_multiplicity_table_matches_index_vector():
    for variant in ("standard", "centered"):
        for n in range(1, 2000):
            counts = multiplicities(index_vector(n, variant))
            assert counts == expected_multiplicities(n, variant), (n, variant)


def _reference_build(n, variant):
    """Basis built as the dense formulation does: per-class basis matrices B
    from a loop, ``eigh(B.T @ S @ B)``, and a per-column sign loop."""
    S = commuting_matrix(n, variant)
    ell = index_vector(n, variant)
    perm = reversal_permutation(n, variant)
    V = np.zeros((n, n))
    for sign, parity in ((1, 0), (-1, 1)):
        cols = []
        for i in range(n):
            j = perm[i]
            if i < j or (i == j and sign == 1):
                v = np.zeros(n)
                v[i] += 1 / np.sqrt(2) if i < j else 1.0
                v[j] += sign / np.sqrt(2) if i < j else 0.0
                cols.append(v)
        B = np.stack(cols, axis=1)
        _, U = np.linalg.eigh(B.T @ S @ B)
        V[:, ell % 2 == parity] = B @ U[:, ::-1]
    for k in range(n):
        if V[np.argmax(np.abs(V[:, k])), k] < 0:
            V[:, k] = -V[:, k]
    return V


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_build_matches_dense_reference(variant):
    # Columns agree up to sign. A sign may differ only where the largest
    # magnitude is reached, to rounding, in more than one mirror orbit: the
    # sign rule then picks its lead entry by rounding noise.
    for n in range(4, 41):
        V, R = cached_basis(n, variant).vectors, _reference_build(n, variant)
        perm = reversal_permutation(n, variant)
        for k in range(n):
            if np.abs(V[:, k] - R[:, k]).max() < 1e-10:
                continue
            assert np.abs(V[:, k] + R[:, k]).max() < 1e-10, (n, variant, k)
            mag = np.abs(R[:, k])
            tied = np.flatnonzero(mag > mag.max() - 1e-12)
            assert len(set(np.minimum(tied, perm[tied]))) > 1, (n, variant, k)


# --- larger sizes ----------------------------------------------------------------


def _assert_sign_rule(V):
    lead = np.argmax(np.abs(V), axis=0)
    assert (V[lead, np.arange(V.shape[1])] > 0).all()


@pytest.mark.parametrize("variant", ["standard", "centered"])
@pytest.mark.parametrize("n", [1023, 1024])
def test_large_build_validates(n, variant):
    b = build_eigenbasis(n, variant)
    report = validate_eigenbasis(b)
    assert report.passed, report
    assert multiplicities(b.exponents) == expected_multiplicities(n, variant)
    _assert_sign_rule(b.vectors)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_large_build_memory(variant):
    # Folding S from its band keeps the build's peak below 4 N x N float64
    # arrays: V, V.T @ V and half-size temporaries.
    n = 1024
    tracemalloc.start()
    try:
        build_eigenbasis(n, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_loaded_validate_memory(tmp_path, variant):
    # A loaded basis has no report yet. V.T @ V is freed before the symmetry
    # residual, which reads only the representative rows, so validating
    # stays below 1.5 N x N float64 arrays on top of V.
    n = 1024
    path = tmp_path / "basis.bin"
    save_basis(build_eigenbasis(n, variant), path)
    loaded = load_basis(path)
    tracemalloc.start()
    try:
        assert validate_eigenbasis(loaded).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_save_memory(tmp_path, variant):
    # V is written from the array the basis keeps, not from a bytes copy
    n = 512
    basis = cached_basis(n, variant)
    tracemalloc.start()
    try:
        save_basis(basis, tmp_path / "basis.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_load_memory(tmp_path, variant):
    # V is read straight into the array the basis keeps, with no second copy
    # of it in the file's bytes.
    n = 512
    path = tmp_path / "basis.bin"
    save_basis(cached_basis(n, variant), path)
    tracemalloc.start()
    try:
        loaded = load_basis(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.vectors, cached_basis(n, variant).vectors)
    assert peak < 1.5 * 8 * n * n, peak / (8 * n * n)


def test_load_checks_length_before_allocating(tmp_path):
    # A corrupted n of 2**15 would ask for an 8 GiB V; the file length
    # rejects it first.
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(data[:7] + struct.pack("<i", 2**15) + data[11:])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated"):
            load_basis(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_sign_rule_first_largest_entry_positive(variant):
    for n in range(4, 65):
        _assert_sign_rule(cached_basis(n, variant).vectors)
