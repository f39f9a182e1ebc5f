"""Multiangle fractional transform: all grid orders at once via row FFTs.

For a length-N signal, the transforms at the R equally spaced orders
``4r/R`` are the columns of one N x R matrix X. Each row of X is the
unnormalized DFT of the corresponding row of the weighted eigenvector
matrix Z[n,k] = V[n,k] * (V^T x)[k]. The standard variant with even N needs
a correction first: fold column N-1 of Z into column 0 and zero it (the
exponent vector skips N-1 and ends at N, whose twiddle column is all ones).

Eigenvector symmetry makes half the rows of X redundant: the mirror row is
the original row circularly shifted by R/2. The half path computes FFTs
only for the representative rows of :func:`~mafrft.foundation.mirror_layout`,
a prefix whose mirrors are a reversed suffix; the change of basis folds the
signal on the same layout and runs in real arithmetic. Odd N has an odd
order grid, which breaks the pairing; appending a zero column to Z (an
oversampled DFT, R = N+1) restores it at a slightly different order grid.

Both paths run one row routine. Each row depends only on its own row of V,
so the rows are split into ranges of at least 2**18 elements of Z, at most
one per CPU the process may run on, and run on the pool of threads that
:mod:`mafrft.foundation` keeps for this routine alone; each range is formed
in the rows of X, corrected, transformed and (for the half path) mirrored
in one pass, and the rows come out bit for bit as on one thread.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .counters import counters
from .eigenbasis import EigenBasis
from .exceptions import OddWithoutPad, ZeroSignal
from .foundation import _split_rows
from .frft import _check_signal, _real_matvec, frft_apply


@dataclass(frozen=True, eq=False)
class MultiangleResult:
    """N x R transform matrix; its order grid is derived from R.

    Row n is the sample index, column r holds the order-``orders[r]``
    transform of the input; ``orders[r] = 4r/R``. ``orders`` is read-only
    and shared by every result with the same R. Results compare and hash
    by identity.
    """

    X: np.ndarray

    @property
    def orders(self) -> np.ndarray:
        return _orders(self.X.shape[1])


@dataclass(frozen=True, eq=False)
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

    Runs on slices of V, in the basis's ``mirror_layout`` ``(r, c, lo, m)``:
    the even class (r columns) is ``V[:r, 0:m:2]`` plus the columns ``m:``
    of exponent N, and the odd class (c columns) ``V[lo:lo+c, 1:m:2]``.
    """
    x = _check_signal(basis, x)
    n, V = basis.n, basis.vectors
    r, c, lo, m = basis._layout
    mirrored = np.concatenate((x[:lo], x[n - r + lo:][::-1]))  # x at mirrors
    xe = x[:r] + mirrored
    xe[:lo] *= 0.5                    # fixed points are their own mirror
    xe[lo + c:] *= 0.5
    xo = x[lo:lo + c] - mirrored[lo:lo + c]  # fixed points have no odd part
    y = np.empty(n, dtype=complex)
    y[0:m:2] = _real_matvec(V[:r, 0:m:2].T, xe)
    y[1:m:2] = _real_matvec(V[lo:lo + c, 1:m:2].T, xo)
    y[m:] = V[:r, m:].T @ xe
    counters.multiplies += r * r + c * c + r - c
    return y


def _fold(Z: np.ndarray, m: int) -> None:
    """The correction, in place: column m (exponent N) folded into column 0 and zeroed."""
    Z[:, 0] += Z[:, m]
    Z[:, m] = 0.0


def z_matrix(basis: EigenBasis, x: np.ndarray) -> ZMatrix:
    """Weighted eigenvector matrix Z[n,k] = V[n,k] * (V^T x)[k].

    For the standard variant with even N also carries the corrected matrix
    (column N-1 folded into column 0 and zeroed), whose row FFTs give the
    multiangle result directly.
    """
    Z = basis.vectors * change_of_basis_fast(basis, x)[None, :]
    Zhat, m = None, basis._layout[3]
    if m < basis.n:
        Zhat = Z.copy()
        _fold(Zhat, m)
    return ZMatrix(Z=Z, Zhat=Zhat)


def _transform_rows(basis: EigenBasis, y: np.ndarray, half: bool) -> np.ndarray:
    """The N x R result: the row FFTs of Z = V * y, corrected if needed,
    for the coefficients ``y`` of :func:`change_of_basis_fast`. Without
    ``half`` every row is transformed. With ``half`` only the representative
    rows are, with a zero column appended for odd N, and each mirror row is
    its source row circularly shifted by R/2.

    The transformed rows are split over threads by :func:`_split_rows`, and
    each range is formed in the rows of X, corrected, transformed and
    mirrored in one pass: unsplit, that is the staged ``z_matrix``, row FFT
    and mirror copy, done in place. One FFT per transformed row is counted
    here, on the calling thread, as ``+=`` from several threads could lose
    counts.
    """
    n, V = basis.n, basis.vectors
    r, c, lo, m = basis._layout
    rows, c = (r, c) if half else (n, 0)  # full: every row transformed, none copied
    pad = half and n % 2 == 1
    R = n + pad
    X = np.empty((n, R), dtype=complex)
    h = R // 2

    def work(a, b):
        Z = X[a:b]
        np.multiply(V[a:b], y, out=Z[:, :n])
        if pad:
            Z[:, n] = 0.0
        if m < n:
            _fold(Z, m)
        np.fft.fft(Z, axis=1, out=Z)
        s, t = max(a, lo), min(b, lo + c)  # sources here; row lo+k -> N-1-k
        if s < t:
            mirrors, sources = X[n + lo - t:n + lo - s][::-1], X[s:t]
            mirrors[:, :h] = sources[:, h:]
            mirrors[:, h:] = sources[:, :h]

    _split_rows(work, rows, R)
    counters.fft_calls += rows
    return X


@lru_cache(maxsize=128)
def _orders(R: int) -> np.ndarray:
    """The order grid ``4r/R``, read-only, made once per R."""
    orders = 4 * np.arange(R) / R
    orders.flags.writeable = False
    return orders


def ma_frft_full(basis: EigenBasis, x: np.ndarray) -> MultiangleResult:
    """All N grid-order transforms via one row FFT per row of Z."""
    return MultiangleResult(
        _transform_rows(basis, change_of_basis_fast(basis, x), half=False)
    )


def ma_frft_half(
    basis: EigenBasis, x: np.ndarray, pad_odd: bool = False
) -> MultiangleResult:
    """Multiangle transform computing FFTs for only half the rows.

    Only the representative rows of :func:`~mafrft.foundation.mirror_layout`
    are transformed; each mirror row is a circular shift by R/2 of its
    representative, copied in the same pass as the representative's range.
    Requires an even order grid: for odd N ``pad_odd`` must be set, which
    appends a zero column to Z and evaluates R = N+1 orders ``4r/(N+1)``.
    """
    y = change_of_basis_fast(basis, x)  # a bad signal raises before the pad
    if basis.n % 2 == 1 and not pad_odd:
        raise OddWithoutPad(
            "odd length needs pad_odd: the order grid only mirrors for even R"
        )
    return MultiangleResult(_transform_rows(basis, y, half=True))


def ma_frft_naive(basis: EigenBasis, x: np.ndarray) -> MultiangleResult:
    """Reference path: one eigendecomposition apply per order, O(N^3) total."""
    x = _check_signal(basis, x)
    n = basis.n
    cols = [frft_apply(basis, 4 * r / n, x) for r in range(n)]
    return MultiangleResult(np.stack(cols, axis=1))


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
