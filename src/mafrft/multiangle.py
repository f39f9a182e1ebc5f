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

Both paths run one row routine: Z is formed in the rows of X block by block,
and each block is corrected, transformed and (for the half path) mirrored
while it is in cache. Each row depends only on its own row of V, so the
rows are split into ranges of at least 2**18 elements of Z, at most one per
CPU the process may run on, and run on a pool of threads; the rows come out
bit for bit as on one thread.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .counters import counters
from .eigenbasis import EigenBasis
from .exceptions import OddWithoutPad, ZeroSignal
from .foundation import _block, mirror_layout
from .frft import _check_signal, _real_matvec, frft_apply


@dataclass(frozen=True)
class MultiangleResult:
    """N x R transform matrix plus its order grid.

    Row n is the sample index, column r holds the order-``orders[r]``
    transform of the input; ``orders[r] = 4r/R``. ``orders`` is read-only
    and shared by every result with the same R.
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

    Runs on slices of V: the even class (r columns) is ``V[:r, 0:m:2]`` and
    the odd class (c columns) ``V[lo:lo+c, 1:m:2]``, with ``m = N``; for the
    standard variant with even N, ``m = N-1`` and column N-1 (exponent N) is
    one more dot product with the even part.
    """
    x = _check_signal(basis, x)
    n, V = basis.n, basis.vectors
    r, c, lo = mirror_layout(n, basis.variant)
    m = n - _folds(basis)
    mirrored = np.concatenate((x[:lo], x[n - r + lo:][::-1]))  # x at mirrors
    xe = x[:r] + mirrored
    xe[:lo] *= 0.5                    # fixed points are their own mirror
    xe[lo + c:] *= 0.5
    xo = x[lo:lo + c] - mirrored[lo:lo + c]  # fixed points have no odd part
    y = np.empty(n, dtype=complex)
    y[0:m:2] = _real_matvec(V[:r, 0:m:2].T, xe)
    y[1:m:2] = _real_matvec(V[lo:lo + c, 1:m:2].T, xo)
    if m < n:
        y[m] = V[:r, m] @ xe
    counters.multiplies += r * r + c * c + r - c
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
    Z = basis.vectors * change_of_basis_fast(basis, x)[None, :]
    Zhat = None
    if _folds(basis):
        Zhat = Z.copy()
        _fold(Zhat, basis.n)
    return ZMatrix(Z=Z, Zhat=Zhat)


# The least elements of Z in one row range: a call with fewer than two
# ranges' worth runs on its own thread.
_SPLIT = 2**18


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_THREADS = _usable_cpus()  # the most threads one call runs on
_pool = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The pool of helper threads, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_THREADS - 1, thread_name_prefix="mafrft")
        return _pool


def _drop_executor() -> None:
    # a forked child copies the pool but none of its threads, so a submit
    # there would wait forever: the child makes its own pool when it needs one
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_executor)


def _split_rows(work, rows: int, cost: int) -> None:
    """Run ``work(a, b)`` over the rows ``0..rows-1`` of cost ``cost`` each,
    in ranges of at least ``_SPLIT``, on this thread and up to
    ``_THREADS - 1`` pool threads. With one range it is one call on this
    thread. Each thread takes the next range until none is left, so a thread
    the host holds back delays the call by one range at most. ``work``
    writes only its own rows and never submits to the pool, so a range never
    waits for another."""
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

    pool = _executor()
    futures = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # also for a helper that found no range left: cancelled, its queued
        # task would keep ``work``, and with it the result, alive until a
        # pool thread picked it up
        for f in futures:
            f.result()


def _transform_rows(basis: EigenBasis, y: np.ndarray, half: bool) -> np.ndarray:
    """The N x R result: the row FFTs of Z = V * y, corrected if needed,
    for the coefficients ``y`` of :func:`change_of_basis_fast`. Without
    ``half`` every row is transformed. With ``half`` only the representative
    rows are, with a zero column appended for odd N, and each mirror row is
    its source row circularly shifted by R/2.

    Blocks of about 2**15 elements (:func:`~mafrft.foundation._block`) are
    formed in the rows of X, corrected, transformed and mirrored one after
    the other, and the transformed rows are split over threads by
    :func:`_split_rows`. One FFT per transformed row is counted here, on the
    calling thread, as ``+=`` from several threads could lose counts.
    """
    n, V = basis.n, basis.vectors
    rows, c, lo = mirror_layout(n, basis.variant) if half else (n, 0, 0)
    pad = half and n % 2 == 1
    R = n + pad
    X = np.empty((n, R), dtype=complex)
    folds, h, step = _folds(basis), R // 2, _block(R)

    def work(a, b):
        for i in range(a, b, step):
            j = min(i + step, b)
            Z = X[i:j]
            np.multiply(V[i:j], y, out=Z[:, :n])
            if pad:
                Z[:, n] = 0.0
            if folds:
                _fold(Z, n)
            np.fft.fft(Z, axis=1, out=Z)
            s, t = max(i, lo), min(j, lo + c)  # sources here; row lo+k -> N-1-k
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
    X = _transform_rows(basis, change_of_basis_fast(basis, x), half=False)
    return MultiangleResult(
        X=X, orders=_orders(basis.n), variant=basis.variant, path="full"
    )


def ma_frft_half(
    basis: EigenBasis, x: np.ndarray, pad_odd: bool = False
) -> MultiangleResult:
    """Multiangle transform computing FFTs for only half the rows.

    Only the representative rows of :func:`~mafrft.foundation.mirror_layout`
    are transformed; each mirror row is a circular shift by R/2 of its
    representative, copied while the representative's block is still in
    cache. Requires an even order grid: for odd N ``pad_odd`` must be set,
    which appends a zero column to Z and evaluates R = N+1 orders
    ``4r/(N+1)``.
    """
    y = change_of_basis_fast(basis, x)  # a bad signal raises before the pad
    if basis.n % 2 == 1 and not pad_odd:
        raise OddWithoutPad(
            "odd length needs pad_odd: the order grid only mirrors for even R"
        )
    X = _transform_rows(basis, y, half=True)
    return MultiangleResult(
        X=X, orders=_orders(X.shape[1]), variant=basis.variant, path="half"
    )


def ma_frft_naive(basis: EigenBasis, x: np.ndarray) -> MultiangleResult:
    """Reference path: one eigendecomposition apply per order, O(N^3) total."""
    x = _check_signal(basis, x)
    n = basis.n
    cols = [frft_apply(basis, 4 * r / n, x) for r in range(n)]
    return MultiangleResult(
        X=np.stack(cols, axis=1),
        orders=_orders(n),
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
