"""DFT matrices, reversal orbits and the counted row FFT.

Two DFT conventions are supported throughout the library:

* ``"standard"``: the usual unitary DFT with entries ``w**(n*k) / sqrt(N)``.
* ``"centered"``: indices shifted by ``(N-1)/2`` in both rows and columns,
  so the transform probes frequencies symmetric about zero.

Row FFTs run on ``numpy.fft`` (pocketfft, any length in O(N log N)). Each
counts one FFT invocation per row at its call boundary, so the paper's
FFT-count claims stay exact however numpy batches the rows. The multiangle
paths count once per call; :func:`fft_rows_unnormalized` is the staged
reference, run on a ``z_matrix``, that the harness and the tests check them by.
"""

import operator

import numpy as np

from .counters import counters

VARIANTS = ("standard", "centered")


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return variant


def check_size(n: int) -> int:
    """``n`` as an int (TypeError for a float); ValueError if it is below 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


_BLOCK_ELEMENTS = 1 << 15


def _block(n: int) -> int:
    """Rows (or columns) of length ``n`` per block: a complex block of about
    512 KB stays in cache through the elementwise passes and FFTs over it."""
    return max(1, _BLOCK_ELEMENTS // n)


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
    """Index permutation of the reversal operator (the DFT squared).

    Centered: ``k -> N-1-k`` (flip about the middle). Standard: ``0 -> 0``
    and ``k -> N-k`` (flip about index 0, wrapping modulo N).
    """
    n = check_size(n)
    check_variant(variant)
    if variant == "centered":
        return (n - 1) - np.arange(n)
    return (-np.arange(n)) % n


def mirror_layout(n: int, variant: str = "standard") -> tuple:
    """The orbits of :func:`reversal_permutation` as ``(r, c, lo)``: the
    representatives are the prefix ``0..r-1``; ``lo..lo+c-1`` of them have
    the mirrors ``N-1`` down to ``N-c`` (``c = N - r``) and the other
    ``r - c`` are fixed points. ``r = N//2 + 1`` and ``lo = 1`` for the
    standard variant, ``r = (N+1)//2`` and ``lo = 0`` for centered."""
    n = check_size(n)
    standard = check_variant(variant) == "standard"
    r = n // 2 + 1 if standard else (n + 1) // 2
    return r, n - r, int(standard)


def fft_rows_unnormalized(
    z: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized forward DFT of each row of ``z``.

    Row ``m`` of the result is ``sum_k z[m,k] * exp(-2j*pi*r*k/N)``. Counts
    one FFT invocation per row, at this call. A 1-D ``z`` is one row.
    ``out``, a complex array of the result's shape (a view is fine),
    receives the rows in place of a new array. The multiangle paths do not
    call it: they run the same ``numpy.fft`` call on row blocks and count
    the same way at their own call boundary, so a staged ``z_matrix`` plus
    this gives their rows bit for bit.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    counters.fft_calls += z.shape[0]
    return np.fft.fft(z, axis=1, out=out)
