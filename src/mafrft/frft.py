"""Single-order fractional transform from an eigenbasis.

The transform of fractional order ``a`` is the matrix power W**a, realized
through the eigendecomposition: eigenvalue ``(-1j)**ell`` is raised to the
power ``a`` as ``exp(-1j * pi/2 * ell * a)``, with no other branch choice.
Order 0 is the identity, 1 the forward DFT, 2 the reversal operator, 3 the
inverse DFT; the whole family has period 4 in ``a`` and is angle-additive.

This module is the brute-force O(N^2)-per-order reference that the
multiangle module is checked against.
"""

import numpy as np

from .counters import counters
from .eigenbasis import EigenBasis
from .exceptions import LengthMismatch, NonFiniteSignal


def _check_signal(basis: EigenBasis, x: np.ndarray) -> np.ndarray:
    """The signal as a complex array, after checking its length and that
    every sample is finite."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (basis.n,):
        raise LengthMismatch(f"signal length {x.shape} != basis size {basis.n}")
    if not np.isfinite(x).all():
        raise NonFiniteSignal("signal has NaN or infinite samples")
    return x


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


def _eigenvalue_powers(basis: EigenBasis, a: float) -> np.ndarray:
    if np.iscomplexobj(a) or not np.isfinite(a):
        raise ValueError(f"order must be a finite real number, got {a!r}")
    # The period 4, taken exactly: the phase of a raw order of size |a| would
    # carry a rounding error that grows with |a| * N.
    a = np.fmod(a, 4)
    return np.exp(-1j * (np.pi / 2) * basis.exponents * a)


def frft_matrix(basis: EigenBasis, a: float) -> np.ndarray:
    """Materialize the N x N fractional transform matrix of order ``a``.

    Intended for tests and small-N inspection; use :func:`frft_apply` to
    transform signals.
    """
    lam = _eigenvalue_powers(basis, a)
    return (basis.vectors * lam) @ basis.vectors.T


def frft_apply(basis: EigenBasis, a: float, x: np.ndarray) -> np.ndarray:
    """Apply the order-``a`` transform to a signal without forming the matrix.

    Raises ValueError unless ``a`` is a finite real number, here and in
    :func:`frft_matrix`.
    """
    x = _check_signal(basis, x)
    V = basis.vectors
    return _real_matvec(V, _eigenvalue_powers(basis, a) * _real_matvec(V.T, x))
