"""Shared rules: the size, variant and signal checks, DFT matrices,
reversal orbits, the operation counters with the counted row FFT and real
product, and the thread and BLAS policy.

Two DFT conventions are supported throughout the library:

* ``"standard"``: the usual unitary DFT with entries ``w**(n*k) / sqrt(N)``.
* ``"centered"``: indices shifted by ``(N-1)/2`` in both rows and columns,
  so the transform probes frequencies symmetric about zero.

The thread and BLAS policy, whole: one pool, made at import, runs the row
ranges of the multiangle transforms (:func:`_split_rows`); every real
product runs on the calling thread, in blocks that OpenBLAS keeps there
(:func:`_real_matvec`); the basis build and its self-checks run on the
calling thread; and the import raises glibc's heap thresholds once (below).

``counters`` is plain module state: reset it, run the code under test, read
it back. Each count is made where its work runs: one FFT per row at the call
that transforms it, one multiply per matrix entry of each product
:func:`_real_matvec` runs, and one per fixed-point halving. Row FFTs run on
``numpy.fft`` (pocketfft, any length in O(N log N)); the multiangle paths
count once per call, and :func:`fft_rows_unnormalized` is the staged
reference, run on a ``z_matrix``, that the harness and the tests check them by.
"""

import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exceptions import LengthMismatch, NonFiniteSignal


@dataclass
class OpCounters:
    fft_calls: int = 0
    multiplies: int = 0

    def reset(self) -> None:
        self.fft_calls = 0
        self.multiplies = 0


counters = OpCounters()

VARIANTS = ("standard", "centered")


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return variant


def check_size(n: int, least: int = 1) -> int:
    """``n`` as an int (TypeError for a float); ValueError if it is below
    ``least``: 1 for a matrix or index vector, 4 for an eigenbasis."""
    n = operator.index(n)
    if n < least:
        raise ValueError(f"n must be >= {least}")
    return n


def _check_signal(basis, x: np.ndarray) -> np.ndarray:
    """The signal as a complex array, after checking its length against
    ``basis.n`` and that every sample is finite."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.n,):
        raise LengthMismatch(f"signal length {x.shape} != basis size {basis.n}")
    if not np.isfinite(x).all():
        raise NonFiniteSignal("signal has NaN or infinite samples")
    return x


def _twiddles(n: int, variant: str):
    """Integer DFT indices ``u`` and the table ``exp(-2j*pi*t/(4N))``.

    Entry ``(j, k)`` of the unitary DFT is ``table[u[j]*u[k] % 4N] / sqrt(N)``
    with ``u = 2k`` (standard) or ``u = 2k - (N-1)`` (centered): the phase
    index is reduced exactly in integers, so large N loses no accuracy.
    """
    u = 2 * np.arange(n) - (0 if variant == "standard" else n - 1)
    table = np.exp(-2j * np.pi * np.arange(4 * n) / (4 * n))
    return u, table


def dft_matrix(n: int, variant: str = "standard") -> np.ndarray:
    """Unitary N x N DFT matrix for the given convention.

    Standard entries are ``w**(n*k) / sqrt(N)`` with ``w = exp(-2j*pi/N)``;
    the centered convention shifts both indices by ``(N-1)/2``.
    """
    n = check_size(n)
    check_variant(variant)
    u, table = _twiddles(n, variant)
    return table[np.outer(u, u) % (4 * n)] / np.sqrt(n)


def reversal_permutation(n: int, variant: str = "standard") -> np.ndarray:
    """Index permutation of the reversal operator (the DFT squared): the
    indices from ``lo`` of :func:`mirror_layout` on, reversed.

    Centered: ``k -> N-1-k`` (flip about the middle). Standard: ``0 -> 0``
    and ``k -> N-k`` (flip about index 0, wrapping modulo N).
    """
    lo = mirror_layout(n, variant)[2]
    perm = np.arange(n)
    perm[lo:] = perm[lo:][::-1]
    return perm


def mirror_layout(n: int, variant: str = "standard") -> tuple:
    """The reversal orbits and the exponent layout as ``(r, c, lo, m)``: the
    representatives are the prefix ``0..r-1``; ``lo..lo+c-1`` of them have
    the mirrors ``N-1`` down to ``N-c`` (``c = N - r``) and the other
    ``r - c`` are fixed points. ``r = N//2 + 1`` and ``lo = 1`` for the
    standard variant, ``r = (N+1)//2`` and ``lo = 0`` for centered. Columns
    ``m..N-1`` have exponent N: ``m = N-1`` for the standard variant with
    even N, which folds Z, else ``m = N``. The one rule of both."""
    n = check_size(n)
    standard = check_variant(variant) == "standard"
    r = n // 2 + 1 if standard else (n + 1) // 2
    return r, n - r, int(standard), n - 1 if standard and n % 2 == 0 else n


def fft_rows_unnormalized(z: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of each row of ``z``.

    Row ``m`` of the result is ``sum_k z[m,k] * exp(-2j*pi*r*k/N)``. Counts
    one FFT invocation per row, at this call. A 1-D ``z`` is one row. The
    multiangle paths do not call it: they run the same ``numpy.fft`` call on
    row ranges and count the same way at their own call boundary, so a
    staged ``z_matrix`` plus this gives their rows bit for bit.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    counters.fft_calls += z.shape[0]
    return np.fft.fft(z, axis=1)


# Multiply-adds per real product: OpenBLAS runs a GEMM of at most this size
# on the thread that calls it, and larger ones on its own threads, which then
# spin after the call and hold the other cores.
_GEMM_BLOCK = 2**18


def _real_matvec(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``A @ z`` for a real matrix and a complex vector, counted as
    ``A.size`` multiplies and run as a real product with the real and
    imaginary parts of ``z`` side by side: numpy would otherwise cast all
    of ``A`` to complex on every call.

    Up to ``_GEMM_BLOCK`` multiply-adds this is one product; above, it runs
    in row blocks of at most that size on the calling thread, written into
    one result. ``np.matmul`` holds the interpreter lock for each block, so
    splitting the blocks over threads would only make them take turns."""
    counters.multiplies += A.size
    z = np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)
    step = max(1, _GEMM_BLOCK // (2 * A.shape[1] or 1))
    if A.shape[0] <= step:
        return (A @ z).view(complex).reshape(-1)
    out = np.empty((A.shape[0], 2))
    for i in range(0, A.shape[0], step):
        np.matmul(A[i:i + step], z, out=out[i:i + step])
    return out.view(complex).reshape(-1)


# The least elements in one range of :func:`_split_rows`: a call with fewer
# than two ranges' worth runs on its own thread.
_SPLIT = 2**18


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_THREADS = _usable_cpus()  # the most threads one call runs on


def _new_pool() -> None:
    # made at import, and again in a forked child, which copies the pool but
    # none of its threads; the executor starts no thread before its first task
    global _pool
    _pool = ThreadPoolExecutor(max(1, _THREADS - 1), thread_name_prefix="mafrft")


_new_pool()
os.register_at_fork(after_in_child=_new_pool)
# glibc maps blocks from its mmap threshold up (128 KiB at start), trims the
# heap top past twice that, and raises both to each mapped block it frees; until
# then, whether a call's arrays of 128 KiB and more fault in fresh pages depends
# on what the process freed before. Freeing one 4 MiB block raises them now.
np.empty(4 << 20, np.uint8)


def _split_rows(work, rows: int, cost: int) -> None:
    """Run ``work(a, b)`` over the rows ``0..rows-1`` of cost ``cost`` each,
    in ranges of at least ``_SPLIT``, on this thread and up to
    ``_THREADS - 1`` pool threads. With one range it is one call on this
    thread. Each thread takes the next range until none is left, so a thread
    the host holds back delays the call by one range at most. ``work``
    writes only its own rows and never submits to the pool, so a range never
    waits for another. The row routine of the multiangle transforms is its
    one caller: nothing else in the library runs on threads."""
    parts = rows * cost // _SPLIT
    helpers = min(_THREADS, parts) - 1
    if helpers < 1:
        work(0, rows)
        return
    bounds = [rows * k // parts for k in range(parts + 1)]
    ranges = iter(list(zip(bounds, bounds[1:])))  # each next() is atomic

    def drain():
        for a, b in ranges:
            work(a, b)

    futures = [_pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # also for a helper that found no range left: cancelled, its queued
        # task would keep ``work``, and with it the result, alive until a
        # pool thread picked it up
        for f in futures:
            f.result()
