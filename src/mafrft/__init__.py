"""Multiangle discrete fractional Fourier transform library.

Computes the discrete fractional Fourier transform (standard and centered
DFT conventions) from a real orthonormal DFT eigenbasis, and the multiangle
transform evaluating all grid orders 4r/R at once through row-wise FFTs,
including the even-length correction for the standard convention and the
mirror-symmetry trick that halves the number of FFTs.
"""

__version__ = "0.1.0"

from .eigenbasis import (
    EigenBasis,
    build_eigenbasis,
    commuting_matrix,
    load_basis,
    save_basis,
    validate_eigenbasis,
)
from .exceptions import (
    DegenerateBasis,
    EigenMismatch,
    LengthMismatch,
    NonFiniteSignal,
    OddWithoutPad,
    ZeroSignal,
)
from .foundation import counters, dft_matrix, reversal_permutation
from .frft import change_of_basis, frft_apply
from .multiangle import (
    change_of_basis_fast,
    concentration_profile,
    ma_frft_full,
    ma_frft_half,
    ma_frft_naive,
    z_matrix,
)

__all__ = [
    "__version__",
    "counters",
    "EigenBasis",
    "build_eigenbasis",
    "commuting_matrix",
    "load_basis",
    "save_basis",
    "validate_eigenbasis",
    "DegenerateBasis",
    "EigenMismatch",
    "LengthMismatch",
    "NonFiniteSignal",
    "OddWithoutPad",
    "ZeroSignal",
    "dft_matrix",
    "reversal_permutation",
    "frft_apply",
    "change_of_basis",
    "change_of_basis_fast",
    "concentration_profile",
    "ma_frft_full",
    "ma_frft_half",
    "ma_frft_naive",
    "z_matrix",
]
