import dataclasses
import os
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
    ma_frft_full,
    reversal_permutation,
    save_basis,
    validate_eigenbasis,
)
from mafrft import eigenbasis, foundation
from mafrft.eigenbasis import (
    _BOUNDS, ValidationReport, _commuting_band, _eigen_residual, _lead_signs,
    _self_check, index_vector,
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


def test_every_basis_keeps_the_one_layout(tmp_path):
    # Built, loaded and hand-made bases hold mirror_layout as plain integers,
    # and the exponents and the reversal are read off it: exponent N from
    # column m on, the indices from lo on reversed.
    path = tmp_path / "basis.bin"
    for n in range(4, 65):
        for variant in ("standard", "centered"):
            layout = mirror_layout(n, variant)
            r, c, lo, m = layout
            assert (r + c, lo) == (n, variant == "standard")
            assert m == (n - 1 if variant == "standard" and n % 2 == 0 else n)
            built = cached_basis(n, variant)
            save_basis(built, path)
            for b in built, load_basis(path), EigenBasis(variant, built.vectors.copy()):
                assert b._layout == layout
                assert all(type(v) is int for v in b._layout)
            assert np.array_equal(index_vector(n, variant), np.r_[np.arange(m), [n] * (n - m)])
            assert np.array_equal(reversal_permutation(n, variant),
                                  np.r_[np.arange(lo), np.arange(n - 1, lo - 1, -1)])


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
    # the 12-byte header: magic, int32 n and the variant byte, little-endian
    path = tmp_path / "basis.bin"
    for b, code in (basis_of(10, "standard"), 0), (basis_of(10, "centered"), 1):
        save_basis(b, path)
        loaded = load_basis(path)
        assert loaded.variant == b.variant
        assert loaded.n == b.n
        assert np.array_equal(loaded.vectors, b.vectors)
        assert np.array_equal(loaded.exponents, b.exponents)
        assert path.read_bytes()[:12] == b"FRFTEB1" + struct.pack("<iB", 10, code)


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


def test_save_to_a_device_and_to_a_pipe(tmp_path, basis_of):
    # neither can be cut to length, and neither needs it
    b, path = basis_of(8, "standard"), tmp_path / "basis.bin"
    save_basis(b, path)
    save_basis(b, os.devnull)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    save_basis(b, fifo)
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [path.read_bytes()]


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_hand_made_basis_needs_n_at_least_4(tmp_path, variant):
    # what saves must load: load_basis refuses n < 4, so the constructor does
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="n must be >= 4"):
            EigenBasis(variant, np.eye(n))
    basis = EigenBasis(variant, cached_basis(4, variant).vectors.copy())
    save_basis(basis, tmp_path / "basis.bin")
    loaded = load_basis(tmp_path / "basis.bin")
    assert loaded.variant == variant
    assert np.array_equal(loaded.vectors, basis.vectors)
    assert validate_eigenbasis(loaded) == validate_eigenbasis(basis)


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTABAS" + b"\0" * 16)
    with pytest.raises(ValueError, match="bad magic"):
        load_basis(path)


# --- cache format errors ------------------------------------------------------


def _cache_bytes(tmp_path, n=8, variant="standard"):
    path = tmp_path / "basis.bin"
    save_basis(cached_basis(n, variant), path)
    return path, path.read_bytes()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(lambda data: data[:-1], "^truncated:", id="truncated-body"),
        pytest.param(lambda data: data[:9], "truncated header", id="truncated-header"),
        pytest.param(lambda data: data + b"\0", "trailing bytes", id="trailing-bytes"),
        pytest.param(lambda data: data[:11] + b"\x07" + data[12:], "unknown variant byte 7",
                     id="unknown-variant"),
        pytest.param(lambda data: data[:7] + struct.pack("<i", 3) + data[11:], "n must be >= 4",
                     id="n-3"),
        pytest.param(lambda data: data[:7] + struct.pack("<i", -2) + data[11:], "n must be >= 4",
                     id="n-negative"),
        pytest.param(lambda data: data[:-32] + data[-28:-24] + data[-32:-28] + data[-24:],
                     "exponents differ", id="swapped-exponents"),
        pytest.param(lambda data: data[:12] + struct.pack("<d", np.nan) + data[20:],
                     "not a real, finite", id="nan-entry"),
        pytest.param(lambda data: data[:-40] + struct.pack("<d", -np.inf) + data[-32:],
                     "not a real, finite", id="inf-entry"),
    ],
)
def test_cache_rejects_corrupt_file(tmp_path, corrupt, message):
    # each case fails on its own check, so a header read at a wrong offset
    # cannot pass on some later ValueError
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(corrupt(data))
    with pytest.raises(ValueError, match=message):
        load_basis(path)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_load_self_checks_the_basis(tmp_path, variant):
    # A finite but wrong V no longer loads: one entry raised by 0.25
    # (orthonormality residual 0.106 standard, 0.296 centered) moved the
    # ma_frft_full output by 0.21 when loading did not check, and columns 3
    # and 4 swapped leave their eigenspaces.
    path, data = _cache_bytes(tmp_path, 16, variant)
    V = cached_basis(16, variant).vectors
    raised = V.copy()
    raised[5, 2] += 0.25
    for W, error in ((raised, DegenerateBasis),
                     (V[:, [0, 1, 2, 4, 3, *range(5, 16)]], EigenMismatch)):
        path.write_bytes(data[:12] + W.astype("<f8").tobytes() + data[12 + 8 * W.size:])
        with pytest.raises(error, match=f" for n=16, variant={variant}$"):
            load_basis(path)


# --- residual kernels -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 64), variant=st.sampled_from(["standard", "centered"]))
def test_residual_kernels_match_dense_formulas(n, variant):
    S = commuting_matrix(n, variant)
    W = dft_matrix(n, variant)
    assert np.abs(S @ W - W @ S).max() < 1e-12

    b = cached_basis(n, variant)
    V, ell = b.vectors, b.exponents
    dense = np.abs(W @ V - V * (-1j) ** ell).max()
    assert abs(_eigen_residual(V, ell, variant) - dense) < 1e-14


@pytest.mark.parametrize("variant", ["standard", "centered"])
@pytest.mark.parametrize("n", [255, 256, 257, 258, 1023, 1024])
def test_commuting_matrix_commutes_at_every_residue_mod_4(n, variant):
    # No build checks that the band commutes with the DFT: these sizes, one
    # of each N mod 4 near the benchmark's, pin the formula densely.
    S = commuting_matrix(n, variant)
    W = dft_matrix(n, variant)
    assert np.abs(S @ W - W @ S).max() < 1e-12


def test_residual_kernels_blocked(monkeypatch):
    # Force several column blocks, including a ragged last one.
    monkeypatch.setattr(eigenbasis, "_BLOCK_ELEMENTS", 3 * 37)
    for variant in ("standard", "centered"):
        b = cached_basis(37, variant)
        dense = np.abs(dft_matrix(37, variant) @ b.vectors
                       - b.vectors * (-1j) ** b.exponents).max()
        assert abs(_eigen_residual(b.vectors, b.exponents, variant) - dense) < 1e-14


@pytest.mark.parametrize("variant", ["standard", "centered"])
@pytest.mark.parametrize("n", [8, 9])
def test_flipped_corner_fails_commutation(n, variant):
    S = commuting_matrix(n, variant)
    S[0, -1] = S[-1, 0] = -S[0, -1]
    W = dft_matrix(n, variant)
    assert np.abs(S @ W - W @ S).max() > 1e-8


_BAND_DEFECTS = {  # (0 for the diagonal or 1 for the off-diagonal, index, change)
    "corner-flipped": (1, -1, lambda v: -v),
    "diag1+1e-3": (0, 1, lambda v: v + 1e-3),
    "diag1+1e-7": (0, 1, lambda v: v + 1e-7),
    "off2*(1+1e-7)": (1, 2, lambda v: v * (1 + 1e-7)),
}


@pytest.mark.parametrize("defect", list(_BAND_DEFECTS))
@pytest.mark.parametrize("variant", ["standard", "centered"])
@pytest.mark.parametrize("n", [8, 9, 16, 17, 64, 65, 256])
def test_eigen_residual_rejects_a_broken_band(n, variant, defect, monkeypatch):
    # No build checks the band on its own: a basis built from a wrong one
    # must fail its DFT eigen residual. At N=256 the 1e-7 defects leave
    # max|SW - WS| near 6e-9, below 1e-8, and are rejected all the same.
    which, k, change = _BAND_DEFECTS[defect]
    band = eigenbasis._commuting_band

    def broken(n, variant):
        parts = band(n, variant)
        parts[which][k] = change(parts[which][k])
        return parts

    monkeypatch.setattr(eigenbasis, "_commuting_band", broken)
    with pytest.raises(EigenMismatch, match="^eigen_residual"):
        build_eigenbasis(n, variant)


@pytest.mark.parametrize("variant", ["standard", "centered"])
@pytest.mark.parametrize("n", [16, 130, 600])
def test_blocked_orthonormality_equals_dense(n, variant):
    # One block of 64 columns, ragged blocks of 64, 64 and 2, and eight
    # blocks of N // 8 = 75 give the dense max|V.T V - I|, on a built basis
    # and on two perturbed ones whose largest entry lies in the last block
    # and in the first. numpy computes the dense V.T @ V by SYRK and most
    # blocks by GEMM, which may round an entry apart: by 3.4e-17 at N=600
    # on one BLAS thread (on two they agreed at every N tried).
    V = cached_basis(n, variant).vectors
    noise = 1e-9 * np.random.default_rng(n).standard_normal((n, n))
    for W in (V, V + noise * np.arange(1, n + 1), V + noise * np.arange(n, 0, -1)):
        dense = np.abs(W.T @ W - np.eye(n)).max()
        assert abs(_self_check(W, variant).orthonormality_residual - dense) < 4e-16


# --- bit-exact references for the blocked and unfolded kernels ---------------------


@pytest.mark.parametrize("variant", ["standard", "centered"])
@pytest.mark.parametrize("n", [40, 41])
def test_build_and_self_checks_hand_no_task_to_the_pool(n, variant, submitted,
                                                          monkeypatch):
    # ranges of one row: a call that split its work would submit at once
    monkeypatch.setattr(foundation, "_SPLIT", n)
    b = build_eigenbasis(n, variant)
    assert validate_eigenbasis(EigenBasis(variant, b.vectors)) == validate_eigenbasis(b)
    assert not submitted, "the basis build or its self-checks used the pool"
    ma_frft_full(b, np.arange(n) + 1j)
    assert submitted, "the same settings did not split a transform"


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


def test_concurrent_self_checks_equal_serial():
    # more checking threads than cores, each running its checks on its own
    # thread, interleaved at a tiny switch interval
    bases = [cached_basis(n, v) for n, v in ((40, "standard"), (41, "centered"))]
    want = [validate_eigenbasis(EigenBasis(b.variant, b.vectors)) for b in bases]
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


def _dense_class_blocks(n, variant):
    """The orbit map, and for each class its weights, live slice and block:
    the class block folded densely, ``np.add.at`` into r x r zeros, and cut
    to its live rows and columns."""
    diag, off = _commuting_band(n, variant)
    r, c, lo, _ = mirror_layout(n, variant)
    k = np.arange(n)
    orbit = np.where(k < r, k, lo + n - 1 - k)
    paired = (lo <= orbit) & (orbit < lo + c)
    i, j, s = np.r_[k, k, (k + 1) % n], np.r_[k, (k + 1) % n, k], np.r_[diag, off, off]
    classes = []
    for sign, live in ((1.0, slice(0, r)), (-1.0, slice(lo, lo + c))):
        w = np.where(paired, np.where(k < r, 1.0, sign) / np.sqrt(2), (1 + sign) / 2)
        block = np.zeros((r, r))
        np.add.at(block, (orbit[i], orbit[j]), s * w[i] * w[j])
        classes.append((w, live, block[live, live]))
    return orbit, classes


def _gathered_basis(n, variant):
    """V unfolded from the class eigenvectors by gathering ``U[orbit]`` for
    every row, then each column's sign fixed over all N rows."""
    ell = index_vector(n, variant)
    orbit, classes = _dense_class_blocks(n, variant)
    V = np.zeros((n, n))
    for parity, (w, live, block) in enumerate(classes):
        U = np.zeros((mirror_layout(n, variant)[0], len(block)))
        U[live] = np.linalg.eigh(block)[1][:, ::-1]
        V[:, ell % 2 == parity] = w[:, None] * U[orbit]
    lead = np.abs(V).argmax(axis=0)
    return V * np.where(V[lead, np.arange(n)] < 0, -1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 96), variant=st.sampled_from(["standard", "centered"]))
def test_slice_unfold_equals_orbit_gather(n, variant):
    # byte for byte, so also every signed zero
    V = build_eigenbasis(n, variant).vectors
    assert V.tobytes() == _gathered_basis(n, variant).tobytes()


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_fallback_eigensolver_gives_the_same_basis(monkeypatch, variant):
    # eigh on the dense tridiagonal block, where numpy has no ILP64 dstevd
    sizes = [*range(4, 130), 1024, 1025]
    fast = [build_eigenbasis(n, variant).vectors for n in sizes]
    monkeypatch.setattr(eigenbasis, "_dstevd", None)
    for n, V in zip(sizes, fast):
        assert build_eigenbasis(n, variant).vectors.tobytes() == V.tobytes(), n


@pytest.mark.skipif(eigenbasis._dstevd is None, reason="numpy links no ILP64 dstevd")
@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_class_blocks_are_tridiagonal_and_solved_as_such(monkeypatch, variant):
    # byte for byte, so also every signed zero; and no eigh on this path
    solved, dstevd = [], eigenbasis._dstevd

    def spy(jobz, n, d, e, *rest):
        solved.append((d.copy(), e[: len(d) - 1].copy()))
        return dstevd(jobz, n, d, e, *rest)

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called with dstevd at hand")

    monkeypatch.setattr(eigenbasis, "_dstevd", spy)
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for n in range(4, 257):
        solved.clear()
        build_eigenbasis(n, variant)
        blocks = [T for _, _, T in _dense_class_blocks(n, variant)[1]]
        assert len(solved) == len(blocks) == 2
        for T, (d, e) in zip(blocks, solved):
            assert not np.triu(T, 2).any() and not np.tril(T, -2).any(), n
            assert np.diagonal(T).tobytes() == d.tobytes(), n
            assert np.diagonal(T, -1).tobytes() == e.tobytes(), n


def test_failed_eigensolve_raises_linalg_error(monkeypatch):
    def fails(*args):
        args[10][0] = 1  # INFO

    monkeypatch.setattr(eigenbasis, "_dstevd", fails)
    with pytest.raises(np.linalg.LinAlgError, match="INFO=1"):
        build_eigenbasis(16)


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
    report = _self_check(V, variant)
    assert report.eigen_residual > 1e-8
    assert not report.passed
    with pytest.raises(EigenMismatch, match="^eigen_residual .* for n=16"):
        EigenBasis(variant, V)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the self-checks do not "
                   "pin which eigenvector of an eigenspace sits in a column")
@pytest.mark.parametrize("n", [16, 17])
@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_validate_rejects_swapped_same_eigenvalue_columns(n, variant):
    # Columns 0 and 4 both have eigenvalue 1, so each stays in its assigned
    # eigenspace and every residual stays at rounding (<= 2.0e-15), while the
    # largest entry change of ma_frft_full reached 0.46-0.65 ||x|| over 20
    # random signals. The module check is read, as a constructor that raised
    # would fail this test whether or not the check caught the swap.
    V = cached_basis(n, variant).vectors.copy()
    V[:, [0, 4]] = V[:, [4, 0]]
    assert not _self_check(V, variant).passed


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_basis_rejects_permuted_layout(variant):
    # The exponents are derived, so a permuted layout cannot be passed in: a
    # V with permuted columns is checked against the derived exponents, which
    # shows a column outside its assigned eigenspace (not a swap within one,
    # see above); a V that is not N x N still raises.
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
def test_basis_keeps_only_read_only_owned_arrays(tmp_path, monkeypatch, variant):
    b = cached_basis(16, variant)
    V = b.vectors.copy()
    V.flags.writeable = False
    assert EigenBasis(variant, V).vectors.base is V
    assert not np.shares_memory(EigenBasis(variant, V[:]).vectors, V)
    # a single-precision V is cast to float64 before it is checked, and it
    # is not orthonormal to double precision
    single = b.vectors.astype(np.float32)
    single.flags.writeable = False
    checked = []
    monkeypatch.setattr(eigenbasis, "_self_check",
                        lambda V, variant: checked.append(V) or _self_check(V, variant))
    with pytest.raises(DegenerateBasis):
        EigenBasis(variant, single)
    assert [W.dtype for W in checked] == [np.float64]
    assert _self_check(checked[0], variant).orthonormality_residual > 1e-10
    save_basis(b, tmp_path / "basis.bin")
    assert load_basis(tmp_path / "basis.bin").vectors.base.flags.owndata


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_basis_arrays_cannot_be_made_writable(tmp_path, variant):
    # An owner of a read-only array may turn writes back on, and a write then
    # voids the kept report; the basis keeps views, for which numpy refuses.
    built = build_eigenbasis(16, variant)
    save_basis(built, tmp_path / "basis.bin")
    V = built.vectors.copy()
    V.flags.writeable = False
    for b in (built, load_basis(tmp_path / "basis.bin"), EigenBasis(variant, V)):
        for array in (b.vectors, b.exponents):
            with pytest.raises(ValueError,
                               match="^cannot set WRITEABLE flag to True of this array$"):
                array.flags.writeable = True
            assert not array.flags.writeable


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
    # residual over every row. The constructor keeps a passing report and
    # raises the error of the first failing row of any other.
    b = cached_basis(n, variant)
    V = b.vectors + scale * np.random.default_rng(seed).standard_normal((n, n))
    perm = reversal_permutation(n, variant)
    full = float(np.abs(V[perm] - V * (-1.0) ** b.exponents).max())
    report = _self_check(V, variant)
    assert report.symmetry_residual == full
    failing = [error for name, bound, error in _BOUNDS if not getattr(report, name) < bound]
    if failing:
        with pytest.raises(failing[0]):
            EigenBasis(variant, V)
    else:
        assert validate_eigenbasis(EigenBasis(variant, V)) == report


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_validate_rejects_perturbed_entry(variant):
    b = cached_basis(16, variant)
    V = b.vectors.copy()
    V[5, 2] += 1e-6
    report = _self_check(V, variant)
    assert report.orthonormality_residual > 1e-10
    assert not report.passed
    with pytest.raises(DegenerateBasis, match="^orthonormality_residual .* for n=16"):
        EigenBasis(variant, V)


def test_build_raises_for_a_broken_symmetry(monkeypatch):
    # With reversal taken as the identity in the self-check of a built V,
    # every odd column misses its symmetry while orthonormality and the DFT
    # eigen residual still hold. The build's own orbit map needs the true
    # reversal, so it runs first.
    V = build_eigenbasis(16, "centered").vectors
    monkeypatch.setattr(eigenbasis, "reversal_permutation", lambda n, v: np.arange(n))
    message = "^symmetry_residual .* for n=16, variant=centered$"
    with pytest.raises(EigenMismatch, match=message):
        EigenBasis("centered", V)


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
    # arrays: V, half-size temporaries and the blocked self-checks.
    n = 1024
    tracemalloc.start()
    try:
        build_eigenbasis(n, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * n * n, peak / (8 * n * n)


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
def test_loaded_validate_memory(tmp_path, variant):
    # A loaded basis is self-checked in blocks with no N x N temporary, and
    # validating it returns the kept report: loading, checking and
    # validating stay below 1.5 N x N float64 arrays, V included.
    n = 1024
    path = tmp_path / "basis.bin"
    built = build_eigenbasis(n, variant)
    save_basis(built, path)
    tracemalloc.start()
    try:
        loaded = load_basis(path)
        assert validate_eigenbasis(loaded).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert validate_eigenbasis(loaded) == validate_eigenbasis(built)
    assert peak < 1.5 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("variant", ["standard", "centered"])
def test_load_memory(tmp_path, variant):
    # V is read straight into the array the basis keeps, with no second copy
    # of it in the file's bytes, and self-checked in blocks with no N x N
    # temporary: loading and checking stay below 1.5 N x N float64 arrays.
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


def test_load_rejects_a_file_that_shrinks_while_read(tmp_path, monkeypatch):
    # The length check reads fstat before V is read; a file cut after it
    # (here: fstat still reports the full length) must not load a short V.
    path, data = _cache_bytes(tmp_path)
    path.write_bytes(data[:-100])
    fstat = os.fstat

    def full_length(fd):
        return os.stat_result((*fstat(fd)[:6], len(data), *fstat(fd)[7:10]))

    monkeypatch.setattr(eigenbasis.os, "fstat", full_length)
    with pytest.raises(ValueError, match=f"^file shrank while reading: expected {len(data)} bytes$"):
        load_basis(path)


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
