"""Multiangle discrete fractional Fourier transform library.

Computes the discrete fractional Fourier transform (standard and centered
DFT conventions) from a real orthonormal DFT eigenbasis, and the multiangle
transform evaluating all grid orders 4r/R at once through row-wise FFTs,
including the even-length correction for the standard convention and the
mirror-symmetry trick that halves the number of FFTs.
"""

__version__ = "0.1.0"

from .counters import counters
from .eigenbasis import (
    EigenBasis,
    ValidationReport,
    build_eigenbasis,
    commuting_matrix,
    index_vector,
    load_basis,
    save_basis,
    validate_eigenbasis,
)
from .exceptions import (
    CommutationError,
    DegenerateBasis,
    EigenMismatch,
    LengthMismatch,
    NonFiniteSignal,
    OddWithoutPad,
    ZeroSignal,
)
from .foundation import dft_matrix, reversal_permutation
from .frft import frft_apply, frft_matrix
from .multiangle import (
    MultiangleResult,
    ZMatrix,
    change_of_basis,
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
    "ValidationReport",
    "build_eigenbasis",
    "commuting_matrix",
    "index_vector",
    "load_basis",
    "save_basis",
    "validate_eigenbasis",
    "CommutationError",
    "DegenerateBasis",
    "EigenMismatch",
    "LengthMismatch",
    "NonFiniteSignal",
    "OddWithoutPad",
    "ZeroSignal",
    "dft_matrix",
    "reversal_permutation",
    "frft_apply",
    "frft_matrix",
    "MultiangleResult",
    "ZMatrix",
    "change_of_basis",
    "change_of_basis_fast",
    "concentration_profile",
    "ma_frft_full",
    "ma_frft_half",
    "ma_frft_naive",
    "z_matrix",
]
