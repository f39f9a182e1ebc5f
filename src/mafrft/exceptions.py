"""Exception types raised by the transform library."""


class LengthMismatch(ValueError):
    """Signal length does not match the basis / matrix size."""


class NonFiniteSignal(ValueError):
    """Signal contains NaN or infinite samples."""


class DegenerateBasis(RuntimeError):
    """Eigenbasis construction produced non-orthonormal columns."""


class EigenMismatch(RuntimeError):
    """A basis column does not satisfy its assigned DFT eigenvalue."""


class OddWithoutPad(ValueError):
    """Halved multiangle path requested for odd length without zero padding."""


class ZeroSignal(ValueError):
    """Operation undefined for an identically zero signal."""
