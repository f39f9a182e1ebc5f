"""Single-order fractional transform from an eigenbasis: the reference
products the multiangle module is checked against, and nothing else.

The transform of fractional order ``a`` is the matrix power W**a, realized
through the eigendecomposition: eigenvalue ``(-1j)**ell`` is raised to the
power ``a`` as ``exp(-1j * pi/2 * ell * a)``, with no other branch choice.
Order 0 is the identity, 1 the forward DFT, 2 the reversal operator, 3 the
inverse DFT; the whole family has period 4 in ``a`` and is angle-additive.
Each order costs O(N^2): the direct change of basis V^T x, the eigenvalue
powers, and V back.
"""

import numpy as np

from .eigenbasis import EigenBasis
from .foundation import _check_signal, _real_matvec


def _eigenvalue_powers(basis: EigenBasis, a: float) -> np.ndarray:
    if isinstance(a, int) and not isinstance(a, bool):
        # in integers first, with the sign of a as np.fmod keeps it: numpy
        # holds no int past 64 bits
        a = a % 4 if a >= 0 else -(-a % 4)
    order = np.asarray(a)  # one int or float: not a sequence, array or string
    if order.ndim or order.dtype.kind not in "iuf" or not np.isfinite(order):
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


def change_of_basis(basis: EigenBasis, x: np.ndarray) -> np.ndarray:
    """Direct product V^T x, O(N^2) multiplies."""
    return _real_matvec(basis.vectors.T, _check_signal(basis, x))


def frft_apply(basis: EigenBasis, a: float, x: np.ndarray) -> np.ndarray:
    """Apply the order-``a`` transform to a signal without forming the matrix:
    :func:`change_of_basis`, the eigenvalue powers, and one product with V.

    Raises ValueError unless ``a`` is a finite real number, here and in
    :func:`frft_matrix`.
    """
    y = change_of_basis(basis, x)
    return _real_matvec(basis.vectors, _eigenvalue_powers(basis, a) * y)
