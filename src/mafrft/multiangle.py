"""Multiangle fractional transform: all grid orders at once via row FFTs.

For a length-N signal, the transforms at the R equally spaced orders
``4r/R`` are the columns of one N x R matrix X. Each row of X is the
unnormalized DFT of the corresponding row of the weighted eigenvector
matrix Z[n,k] = V[n,k] * (V^T x)[k]. The standard variant with even N needs
a correction first: fold column N-1 of Z into column 0 and zero it (the
exponent vector skips N-1 and ends at N, whose twiddle column is all ones).

Eigenvector symmetry makes half the rows of X redundant: the mirror row is
the original row circularly shifted by R/2. The half path computes FFTs
only for one representative per mirror pair. Odd N has an odd order grid,
which breaks the pairing; appending a zero column to Z (an oversampled DFT,
R = N+1) restores it at the cost of a slightly different order grid.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .counters import counters
from .eigenbasis import EigenBasis
from .exceptions import OddWithoutPad, ZeroSignal
from .foundation import fft_rows_unnormalized, reversal_permutation
from .frft import _check_signal, _real_matvec, frft_apply


@dataclass(frozen=True)
class MultiangleResult:
    """N x R transform matrix plus its order grid.

    Row n is the sample index, column r holds the order-``orders[r]``
    transform of the input; ``orders[r] = 4r/R``.
    """

    X: np.ndarray
    orders: np.ndarray
    variant: str
    path: str


@dataclass(frozen=True)
class ZMatrix:
    Z: np.ndarray
    Zhat: Optional[np.ndarray] = None


def change_of_basis(basis: EigenBasis, x: np.ndarray) -> np.ndarray:
    """Direct product V^T x, O(N^2) multiplies."""
    x = _check_signal(basis, x)
    counters.multiplies += basis.n * basis.n
    return _real_matvec(basis.vectors.T, x)


def change_of_basis_fast(basis: EigenBasis, x: np.ndarray) -> np.ndarray:
    """V^T x using the even/odd reversal symmetry of the eigenvectors.

    Splits x into its reversal-even and reversal-odd parts and pairs each
    with the matching eigenvector columns, so each half-size product only
    runs over one representative of every mirrored index pair. Uses about
    half the multiplies of :func:`change_of_basis`.
    """
    return _change_of_basis_fast(basis, _check_signal(basis, x))


def _change_of_basis_fast(basis: EigenBasis, x: np.ndarray) -> np.ndarray:
    n, V, ell = basis.n, basis.vectors, basis.exponents
    perm = reversal_permutation(n, basis.variant)
    idx = np.arange(n)
    reps = idx[idx <= perm]           # one index per mirror orbit
    fixed = perm[reps] == reps
    xe = x[reps] + x[perm[reps]]
    xe[fixed] *= 0.5                  # fixed points would be counted twice
    xo = x[reps] - x[perm[reps]]
    odd_reps = reps[~fixed]           # fixed points contribute nothing odd

    even_cols = np.flatnonzero(ell % 2 == 0)
    odd_cols = np.flatnonzero(ell % 2 == 1)
    y = np.empty(n, dtype=complex)
    y[even_cols] = V[np.ix_(reps, even_cols)].T @ xe
    y[odd_cols] = V[np.ix_(odd_reps, odd_cols)].T @ xo[~fixed]
    counters.multiplies += (
        len(reps) * len(even_cols)
        + len(odd_reps) * len(odd_cols)
        + int(fixed.sum())
    )
    return y


def _folds(basis: EigenBasis) -> bool:
    """Whether Z needs the correction: standard variant with even N."""
    return basis.variant == "standard" and basis.n % 2 == 0


def _fold(Z: np.ndarray, n: int) -> None:
    """The correction, in place: column N-1 folded into column 0, zeroed."""
    Z[:, 0] += Z[:, n - 1]
    Z[:, n - 1] = 0.0


def z_matrix(basis: EigenBasis, x: np.ndarray) -> ZMatrix:
    """Weighted eigenvector matrix Z[n,k] = V[n,k] * (V^T x)[k].

    For the standard variant with even N also carries the corrected matrix
    (column N-1 folded into column 0 and zeroed), whose row FFTs give the
    multiangle result directly.
    """
    x = _check_signal(basis, x)
    Z = basis.vectors * _change_of_basis_fast(basis, x)[None, :]
    Zhat = None
    if _folds(basis):
        Zhat = Z.copy()
        _fold(Zhat, basis.n)
    return ZMatrix(Z=Z, Zhat=Zhat)


def _fft_input(
    basis: EigenBasis, x: np.ndarray, rows: int, pad: bool
) -> np.ndarray:
    """Rows ``0..rows-1`` of the matrix whose row FFTs are the multiangle
    result: Z with the correction applied, plus a zero column if ``pad``.
    ``x`` must already be checked. Makes no full-size copy of Z."""
    n = basis.n
    y = _change_of_basis_fast(basis, x)
    Z = np.empty((rows, n + pad), dtype=complex)
    np.multiply(basis.vectors[:rows], y, out=Z[:, :n])
    if pad:
        Z[:, n] = 0.0
    if _folds(basis):
        _fold(Z, n)
    return Z


def ma_frft_full(basis: EigenBasis, x: np.ndarray) -> MultiangleResult:
    """All N grid-order transforms via one row FFT per row of Z."""
    x = _check_signal(basis, x)
    n = basis.n
    X = fft_rows_unnormalized(_fft_input(basis, x, n, pad=False))
    return MultiangleResult(
        X=X, orders=4 * np.arange(n) / n, variant=basis.variant, path="full"
    )


def ma_frft_half(
    basis: EigenBasis, x: np.ndarray, pad_odd: bool = False
) -> MultiangleResult:
    """Multiangle transform computing FFTs for only half the rows.

    The mirror row of n under the reversal permutation is recovered as a
    circular shift by R/2 of row n. Requires an even order grid: for odd N
    ``pad_odd`` must be set, which appends a zero column to Z and evaluates
    R = N+1 orders ``4r/(N+1)``.

    One representative per mirror pair (self-mirrors included) is always
    the prefix ``0..r-1``: ``r = N//2 + 1`` standard, ``(N+1)//2``
    centered. The other ``c = N - r`` rows, read bottom-up, mirror rows
    ``1..c`` (standard) or ``0..c-1`` (centered).
    """
    x = _check_signal(basis, x)
    n = basis.n
    if n % 2 == 1 and not pad_odd:
        raise OddWithoutPad(
            "odd length needs pad_odd: the order grid only mirrors for even R"
        )
    standard = basis.variant == "standard"
    r = n // 2 + 1 if standard else (n + 1) // 2
    Z = _fft_input(basis, x, r, pad=n % 2 == 1)
    R = Z.shape[1]
    X = np.empty((n, R), dtype=complex)
    fft_rows_unnormalized(Z, out=X[:r])
    h, c, lo = R // 2, n - r, int(standard)
    mirrors, sources = X[n - c:][::-1], X[lo:lo + c]
    mirrors[:, :h] = sources[:, h:]  # circular shift by R/2
    mirrors[:, h:] = sources[:, :h]
    return MultiangleResult(
        X=X, orders=4 * np.arange(R) / R, variant=basis.variant, path="half"
    )


def ma_frft_naive(basis: EigenBasis, x: np.ndarray) -> MultiangleResult:
    """Reference path: one eigendecomposition apply per order, O(N^3) total."""
    x = _check_signal(basis, x)
    n = basis.n
    cols = [frft_apply(basis, 4 * r / n, x) for r in range(n)]
    return MultiangleResult(
        X=np.stack(cols, axis=1),
        orders=4 * np.arange(n) / n,
        variant=basis.variant,
        path="naive",
    )


def concentration_profile(result: MultiangleResult) -> np.ndarray:
    """Peak-to-energy concentration of each order column.

    ``profile[r] = max_n |X[n,r]| / ||X[:,r]||_2``; a chirp whose rate
    matches an order shows up as a spike in the profile there.
    """
    mags = np.abs(result.X)
    norms = np.linalg.norm(mags, axis=0)
    if norms.max() == 0.0:
        raise ZeroSignal("concentration profile undefined for the zero signal")
    return mags.max(axis=0) / norms
