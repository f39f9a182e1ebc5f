"""DFT matrices, reversal operators and the counted row FFT.

Two DFT conventions are supported throughout the library:

* ``"standard"``: the usual unitary DFT with entries ``w**(n*k) / sqrt(N)``.
* ``"centered"``: indices shifted by ``(N-1)/2`` in both rows and columns,
  so the transform probes frequencies symmetric about zero.

Row FFTs run on ``numpy.fft`` (pocketfft, any length in O(N log N)). The
wrapper counts one FFT invocation per row at the call boundary, so the
paper's FFT-count claims stay exact however numpy batches the rows, and the
tests check it against the DFT matrix product.
"""

import numpy as np

from .counters import counters

VARIANTS = ("standard", "centered")


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    return variant


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
    check_variant(variant)
    if n < 1:
        raise ValueError("n must be >= 1")
    u, table = _twiddles(n, variant)
    return table[np.outer(u, u) % (4 * n)] / np.sqrt(n)


def reversal_permutation(n: int, variant: str = "standard") -> np.ndarray:
    """Index permutation of the reversal operator (the DFT squared).

    Centered: ``k -> N-1-k`` (flip about the middle). Standard: ``0 -> 0``
    and ``k -> N-k`` (flip about index 0, wrapping modulo N).
    """
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
    standard = check_variant(variant) == "standard"
    r = n // 2 + 1 if standard else (n + 1) // 2
    return r, n - r, int(standard)


def reversal_matrix(n: int, variant: str = "standard") -> np.ndarray:
    """Permutation matrix of :func:`reversal_permutation` (an involution)."""
    perm = reversal_permutation(n, variant)
    P = np.zeros((n, n))
    P[perm, np.arange(n)] = 1.0
    return P


def fft_rows_unnormalized(
    z: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized forward DFT of each row of ``z``.

    Row ``m`` of the result is ``sum_k z[m,k] * exp(-2j*pi*r*k/N)``. Counts
    one FFT invocation per row. A 1-D ``z`` is one row. ``out``, a complex
    array of the result's shape (a view is fine), receives the rows in
    place of a new array.
    """
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    counters.fft_calls += z.shape[0]
    return np.fft.fft(z, axis=1, out=out)


def fft_unnormalized(v: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT of a 1-D signal (matches sqrt(N) * W_s)."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D signal of length >= 1")
    return fft_rows_unnormalized(v[None, :])[0]


def ifft_unnormalized(v: np.ndarray) -> np.ndarray:
    """Unnormalized inverse DFT: ``y[k] = sum_r v[r] * exp(+2j*pi*r*k/N)``.

    Composing with :func:`fft_unnormalized` yields N times the input.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D signal of length >= 1")
    return np.conj(fft_rows_unnormalized(np.conj(v)[None, :])[0])
