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
so the rows are split into ranges of at least 2**18 elements of Z (16 for
an N=2048 ``full`` call) and run on at most one thread per CPU the process
may run on, from the pool that :mod:`mafrft.foundation` keeps for this
routine alone; each range is formed in the rows of X as :func:`z_matrix`
forms Z, transformed and (for the half path) mirrored in one pass, and the
rows come out bit for bit as on one thread.
"""

from dataclasses import dataclass
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
    transform of the input; ``orders[r] = 4r/R``, computed from R when
    read. Results compare and hash by identity.
    """

    X: np.ndarray

    @property
    def orders(self) -> np.ndarray:
        return _orders(self.X.shape[1])


@dataclass(frozen=True, eq=False)
class ZMatrix:
    Z: np.ndarray
    Zhat: Optional[np.ndarray] = None  # always None; perfbench still reads it


def change_of_basis(basis: EigenBasis, x: np.ndarray) -> np.ndarray:
    """Direct product V^T x, O(N^2) multiplies."""
    return _real_matvec(basis.vectors.T, _check_signal(basis, x))


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
    counters.multiplies += r - c      # one halving per fixed point
    xo = x[lo:lo + c] - mirrored[lo:lo + c]  # fixed points have no odd part
    y = np.empty(n, dtype=complex)
    y[0:m:2] = _real_matvec(V[:r, 0:m:2].T, xe)
    y[1:m:2] = _real_matvec(V[lo:lo + c, 1:m:2].T, xo)
    if m < n:
        y[m:] = _real_matvec(V[:r, m:].T, xe)
    return y


def _weighted_rows(basis: EigenBasis, y: np.ndarray, Z: np.ndarray, a: int) -> None:
    """Rows ``a..a+len(Z)-1`` of the corrected Z, into ``Z``: ``V * y`` in the
    first N columns, zeros past them (the odd-N pad), and for the standard
    even-N grid column m (exponent N) folded into column 0 and zeroed."""
    n, m = basis.n, basis._layout[3]
    np.multiply(basis.vectors[a:a + len(Z)], y, out=Z[:, :n])
    Z[:, n:] = 0.0
    if m < n:
        Z[:, 0] += Z[:, m]
        Z[:, m] = 0.0


def z_matrix(basis: EigenBasis, x: np.ndarray) -> ZMatrix:
    """The one corrected matrix ``ZMatrix.Z`` whose row FFTs give the
    multiangle result: Z[n,k] = V[n,k] * (V^T x)[k], formed by the routine
    that forms each row range of the fast paths. ``Zhat`` is always None.
    """
    Z = np.empty((basis.n, basis.n), dtype=complex)
    _weighted_rows(basis, change_of_basis_fast(basis, x), Z, 0)
    return ZMatrix(Z)


def _transform_rows(basis: EigenBasis, y: np.ndarray, half: bool) -> np.ndarray:
    """The N x R result: the row FFTs of Z = V * y, corrected if needed,
    for the coefficients ``y`` of :func:`change_of_basis_fast`. Without
    ``half`` every row is transformed. With ``half`` only the representative
    rows are, with a zero column appended for odd N, and each mirror row is
    its source row circularly shifted by R/2.

    The transformed rows are split over threads by :func:`_split_rows`, and
    each range is formed in the rows of X by :func:`_weighted_rows`, as in
    :func:`z_matrix`, then transformed and mirrored in one pass: unsplit,
    that is the staged ``z_matrix``, row FFT and mirror copy, done in place.
    One FFT per transformed row is counted here, on the calling thread, as
    ``+=`` from several threads could lose counts.
    """
    n, (r, c, lo, _) = basis.n, basis._layout
    rows, c = (r, c) if half else (n, 0)  # full: every row transformed, none copied
    R = n + n % 2 if half else n
    X = np.empty((n, R), dtype=complex)
    h = R // 2

    def work(a, b):
        Z = X[a:b]
        _weighted_rows(basis, y, Z, a)
        np.fft.fft(Z, axis=1, out=Z)
        s, t = max(a, lo), min(b, lo + c)  # sources here; row lo+k -> N-1-k
        if s < t:
            mirrors, sources = X[n + lo - t:n + lo - s][::-1], X[s:t]
            mirrors[:, :h] = sources[:, h:]
            mirrors[:, h:] = sources[:, :h]

    _split_rows(work, rows, R)
    counters.fft_calls += rows
    return X


def _orders(R: int) -> np.ndarray:
    """The order grid ``4r/R`` for ``r = 0..R-1``."""
    return 4 * np.arange(R) / R


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
    cols = [frft_apply(basis, a, x) for a in _orders(basis.n)]
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
