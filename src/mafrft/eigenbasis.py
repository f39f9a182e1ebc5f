"""Orthonormal real DFT/CDFT eigenvector bases.

A basis pairs a real orthonormal matrix ``vectors`` (columns are DFT
eigenvectors resembling Hermite-Gaussian functions) with the integer vector
``exponents = index_vector(n, variant)``, derived from the variant and N:
column ``k`` has DFT eigenvalue ``(-1j)**exponents[k]``.
The eigenvectors come from a real symmetric matrix that commutes with the
DFT (tridiagonal plus wraparound corners); its non-degenerate eigenvectors
are automatically DFT eigenvectors, ordered by zero-crossing count.

Construction splits the problem into the reversal-even and reversal-odd
subspaces first, which makes every column exactly symmetric or antisymmetric
under the reversal operator and sidesteps degenerate eigenvalue pairs of the
commuting matrix (which only occur across the two symmetry classes).

Cost: the two half-size class blocks are tridiagonal. Their diagonals and
sub-diagonals are folded from the 3N band entries of the commuting matrix by
one orbit map; neither the dense commuting matrix nor a dense block is
formed. Each block is solved by LAPACK ``dstevd`` from the OpenBLAS that
numpy links: the divide-and-conquer step of ``eigh`` without the O(N^3)
reduction to tridiagonal form and back-transform, which change nothing on a
tridiagonal block, so the vectors are the same. Where numpy links no such
routine, ``eigh`` solves the dense tridiagonal block instead, to the same
vectors. The eigenvectors are unfolded by slices: rows 0..r-1 of a class's
columns are the weighted eigenvectors, signed there, and the mirror rows are
those rows reversed (negated in the odd class).

A basis that exists has passed its self-checks: the :class:`EigenBasis`
constructor runs them once, for built, loaded and hand-made bases alike.
Each residual is a maximum over blocks, one after another on the calling
thread, with no N x N temporary. Orthonormality, over column blocks of
``V.T @ V - I``, is the one O(N^3) check; the DFT eigen residual applies the
DFT as column FFTs, in O(N^2 log N). The band commutes with the DFT by
theorem, which the tests check; a wrong band fails the eigen residual.
"""

import ctypes
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateBasis, EigenMismatch
from .foundation import _twiddles, check_size, check_variant
from .foundation import mirror_layout, reversal_permutation

CACHE_MAGIC = b"FRFTEB1"
_VARIANT_CODE = {"standard": 0, "centered": 1}
_VARIANT_NAME = {v: k for k, v in _VARIANT_CODE.items()}
_HEADER = struct.Struct("<7siB")  # magic, int32 n, variant byte: 12 bytes
_BLOCK_ELEMENTS = 1 << 15


def _block(n: int) -> int:
    """Rows (or columns) of length ``n`` per block of the residual kernels:
    a complex block of about 512 KB, whatever N is."""
    return max(1, _BLOCK_ELEMENTS // n)


def _worst(kernel, count: int, step: int) -> float:
    """The largest ``kernel(a, b)`` over blocks of ``step`` of the rows (or
    columns) ``0..count-1``, one block after another on the calling thread."""
    return max(kernel(a, min(a + step, count)) for a in range(0, count, step))


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Reusable eigendecomposition of a DFT matrix.

    ``vectors``: a real, finite N x N matrix with N >= 4, or the constructor
    raises ValueError. ``n``, ``_layout = mirror_layout(n, variant)`` and
    ``exponents = index_vector(n, variant)`` are derived: column k has
    eigenvalue ``(-1j)**exponents[k]`` under the DFT of the variant. The
    constructor runs :func:`_self_check` once, keeps the report, and raises
    :class:`DegenerateBasis` or :class:`EigenMismatch` by ``_BOUNDS``.

    Both arrays are read-only. Views and writable arrays are copied. A
    read-only array that owns its data is kept: if its owner turns writes
    back on, a write voids the report. Bases compare and hash by identity.
    """

    variant: str
    vectors: np.ndarray
    n: int = field(init=False)
    exponents: np.ndarray = field(init=False)
    _layout: tuple = field(init=False, repr=False)
    _report: "ValidationReport" = field(init=False, repr=False)

    def __post_init__(self):
        V = np.asarray(self.vectors)
        if not (V.dtype.kind in "fiu" and V.ndim == 2 and len(V) == V.shape[1]
                and np.isfinite(V).all()):
            raise ValueError(f"not a real, finite, square matrix: {V.dtype} {V.shape}")
        V = V.astype(float, copy=V.flags.writeable or not V.flags.owndata)
        n, layout = len(V), mirror_layout(check_size(len(V), 4), self.variant)
        ell = index_vector(n, self.variant)
        V.flags.writeable = ell.flags.writeable = False
        report = _self_check(V, self.variant)
        report.require(f"n={n}, variant={self.variant}")
        self.__dict__.update(vectors=V, n=n, exponents=ell, _layout=layout, _report=report)


_BOUNDS = (
    ("orthonormality_residual", 1e-10, DegenerateBasis),
    ("eigen_residual", 1e-8, EigenMismatch),
    ("symmetry_residual", 1e-8, EigenMismatch),
)


@dataclass(frozen=True)
class ValidationReport:
    """Self-check residuals of a basis V with exponents ell: the maxima of
    ``|V.T V - I|``, ``|W V - V (-1j)**ell|`` and ``|P V - V (-1)**ell|``
    (DFT W, reversal P = W**2: a broken symmetry is an eigen mismatch).
    ``_BOUNDS`` is the one acceptance rule, a (field, bound, error) row each."""

    orthonormality_residual: float
    eigen_residual: float
    symmetry_residual: float

    @property
    def passed(self) -> bool:
        return all(getattr(self, name) < bound for name, bound, _ in _BOUNDS)

    def require(self, what: str) -> None:
        """Raise the error of the first row whose value is not below its bound."""
        for name, bound, error in _BOUNDS:
            if not getattr(self, name) < bound:  # NaN fails too
                raise error(f"{name} {getattr(self, name):g} for {what}")


def _self_check(V: np.ndarray, variant: str) -> ValidationReport:
    """The :class:`ValidationReport` of a real N x N ``V`` whose column k
    should have exponent ``index_vector(n, variant)[k]``. A mirror row's
    symmetry residual repeats its representative's, so only those are read."""
    n, ell = len(V), index_vector(len(V), variant)
    mirror, parity = reversal_permutation(n, variant), (-1.0) ** ell

    def symmetry(a, b):
        return float(np.abs(V[mirror[a:b]] - V[a:b] * parity).max())

    return ValidationReport(
        orthonormality_residual=_orthonormality_residual(V),
        eigen_residual=_eigen_residual(V, ell, variant),
        symmetry_residual=_worst(symmetry, mirror_layout(n, variant)[0], _block(n)),
    )


def _orthonormality_residual(V: np.ndarray) -> float:
    """``max|V.T V - I|`` over blocks of ``max(64, N // 8)`` columns of the
    upper triangle, a width set by N alone, each formed in one buffer: blocks
    of growing size allocated one by one grew the heap by 12 MiB at N=2048."""
    n, step = len(V), max(64, len(V) // 8)
    out = np.empty(n * step)

    def columns(a, b):
        G = np.matmul(V[:, :b].T, V[:, a:b], out=out[: b * (b - a)].reshape(b, b - a))
        G[np.arange(a, b), np.arange(b - a)] -= 1.0
        return float(np.abs(G, out=G).max())

    return _worst(columns, n, step)


def index_vector(n: int, variant: str = "standard") -> np.ndarray:
    """Eigenvalue exponents in ascending order: ``k``, and N from the ``m``
    of :func:`~mafrft.foundation.mirror_layout` on.

    Centered, and standard with odd N: ``0..N-1``. Standard with even N:
    ``0, 1, ..., N-2, N`` (the exponent N-1 never occurs).
    """
    m = mirror_layout(n, variant)[3]
    ell = np.arange(n)
    ell[m:] = n
    return ell


def _commuting_band(n: int, variant: str):
    """Diagonal and periodic off-diagonal of :func:`commuting_matrix`:
    ``S[k, k] = diag[k]`` and ``S[k, k+1 mod N] = S[k+1 mod N, k] = off[k]``,
    so ``off[N-1]`` is the wraparound corner.

    The diagonal is ``2*cos(2*pi*(k - c)/N) - 4`` where ``c`` is the index
    center of the variant; the corner is -1 for the centered variant with
    even N, else +1 (Candan, Kutay & Ozaktas 2000).
    """
    n = check_size(n, 4)
    check_variant(variant)
    u, _ = _twiddles(n, variant)
    diag = 2 * np.cos(np.pi * u / n) - 4
    off = np.ones(n)
    off[-1] = -1.0 if (variant == "centered" and n % 2 == 0) else 1.0
    return diag, off


def _eigen_residual(V: np.ndarray, exponents: np.ndarray, variant: str) -> float:
    """``max|WV - V*(-1j)**exponents|`` with W V evaluated as column FFTs.

    The centered DFT is the standard one between two phase ramps, both looked
    up in the twiddle table. Columns go in blocks: O(N^2 log N) time.
    """
    n = V.shape[0]
    u, table = _twiddles(n, variant)
    m = -u[0]  # u = 2k - m
    pre = table[(-2 * m * np.arange(n)) % (4 * n)][:, None]
    post = table[(m * m - 2 * m * np.arange(n)) % (4 * n)][:, None] / np.sqrt(n)
    # |WV - v (-1j)**ell| is |1j**ell WV - v| bit for bit: a unit of {1, 1j,
    # -1, -1j} swaps and negates parts, and v is then subtracted in place.
    unit = np.array([1, 1j, -1, -1j])[exponents % 4]

    def columns(c0, c1):
        v = V[:, c0:c1]
        if m:
            WV = pre * v
            np.fft.fft(WV, axis=0, out=WV)
            np.multiply(post, WV, out=WV)
        else:  # standard: pre is 1 and post 1/sqrt(N), so it is one orthonormal FFT
            WV = v.astype(complex)
            np.fft.fft(WV, axis=0, out=WV, norm="ortho")
        WV *= unit[c0:c1]
        np.subtract(WV.real, v, out=WV.real)
        return float(np.abs(WV).max())

    return _worst(columns, n, _block(n))


def commuting_matrix(n: int, variant: str = "standard") -> np.ndarray:
    """Real symmetric matrix commuting with the DFT of the given variant:
    the band of :func:`_commuting_band`, densified (tridiagonal plus
    wraparound corners)."""
    diag, off = _commuting_band(n, variant)
    k = np.arange(len(diag))
    j = (k + 1) % len(k)
    S = np.diag(diag)
    S[k, j] = off
    S[j, k] = off
    return S


def build_eigenbasis(n: int, variant: str = "standard") -> EigenBasis:
    """Construct an orthonormal DFT eigenbasis with assigned exponents.

    Eigenvectors of the commuting matrix, restricted to each reversal
    symmetry class and sorted by descending commuting-matrix eigenvalue
    (ascending zero-crossing count), interleaved so that the exponent
    vector comes out ascending. Signs are fixed so the first
    largest-magnitude entry of each column is positive. Each class block is
    tridiagonal and solved as such (see the module docstring), with no
    reduction to tridiagonal form. The :class:`EigenBasis` constructor
    self-checks the result; ``np.linalg.LinAlgError`` if an eigensolve does
    not converge.
    """
    r, c, lo, m = mirror_layout(n, variant)
    diag, off = _commuting_band(n, variant)
    k = np.arange(n)
    orbit = np.where(k < r, k, lo + n - 1 - k)  # representative of k's orbit
    paired = (lo <= orbit) & (orbit < lo + c)
    i, j, s = np.r_[k, k, (k + 1) % n], np.r_[k, (k + 1) % n, k], np.r_[diag, off, off]
    # Class columns: the even class is 0:m:2 plus m:n, the columns of
    # exponent N; the odd class is 1:m:2 (its m+1:n is always empty).
    # The folded class blocks are tridiagonal: a band entry lands on a
    # block's diagonal or next to it, never further out.
    on_diag, below = orbit[i] == orbit[j], orbit[i] == orbit[j] + 1
    V = np.empty((n, n))
    for sign, parity, live in ((1.0, 0, slice(0, r)), (-1.0, 1, slice(lo, lo + c))):
        # The class basis vector of orbit a is the sum of w[k] * e[k] over
        # orbit[k] == a (w is 0 at the odd class's fixed points); the band
        # entries S[i, j] = s fold into its block's diagonal and sub-diagonal,
        # summed in the order of the band, as a dense r x r fold sums them.
        w = np.where(paired, np.where(k < r, 1.0, sign) / np.sqrt(2), (1 + sign) / 2)
        folded = s * w[i] * w[j]
        d, e = np.zeros(r), np.zeros(r)
        np.add.at(d, orbit[i][on_diag], folded[on_diag])
        np.add.at(e, orbit[j][below], folded[below])
        U = _tridiagonal_eigenvectors(d[live], e[live][:-1])[:, ::-1]  # descending
        q = len(range(parity, m, 2))
        for cols, part in ((slice(parity, m, 2), U[:, :q]), (slice(m + parity, n), U[:, q:])):
            # Rows 0..r-1 are w * U, and 0 at the odd class's fixed points;
            # each mirror row repeats a representative's magnitudes further
            # down, so the first largest entry of each column lies among rows
            # 0..r-1, and the sign that makes it positive is fixed there,
            # before the mirror copy.
            rep = V[:r, cols]
            rep[:live.start] = rep[live.stop:] = 0.0
            np.multiply(w[live, None], part, out=rep[live])
            rep *= _lead_signs(rep)
            np.multiply(rep[lo:lo + c][::-1], sign, out=V[r:, cols])  # the mirror rows

    V.flags.writeable = False  # kept by the basis without a copy
    return EigenBasis(variant, V)


def _find_dstevd():
    """LAPACK ``dstevd`` of the OpenBLAS that numpy's ``eigh`` calls, with
    64-bit integers (the ``64_`` suffix of an ILP64 build), or None where
    numpy links another LAPACK or names it otherwise. A symbol lookup on
    numpy's linear algebra extension also searches the libraries it links."""
    try:
        from numpy.linalg import _umath_linalg

        routine = ctypes.CDLL(_umath_linalg.__file__).scipy_dstevd_64_
    except (ImportError, OSError, AttributeError):
        return None
    floats = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
    ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")
    # JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO, len(JOBZ)
    routine.argtypes = [ctypes.c_char_p, ints, floats, floats, floats, ints,
                        floats, ints, ints, ints, ints, ctypes.c_size_t]
    routine.restype = None
    return routine


_dstevd = _find_dstevd()


def _tridiagonal_eigenvectors(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvectors, as columns in ascending eigenvalue order, of the
    symmetric tridiagonal matrix with diagonal ``d`` and sub-diagonal ``e``.

    ``dstevd`` runs the divide-and-conquer step of ``np.linalg.eigh``
    (``dsyevd``) without its Householder reduction and back-transform, which
    leave a tridiagonal matrix as it is: both return the same vectors. Where
    ``dstevd`` is not found, ``eigh`` solves the dense tridiagonal matrix.
    """
    n = len(d)
    if _dstevd is None:
        T, k = np.diag(d), np.arange(n - 1)
        T[k + 1, k] = T[k, k + 1] = e
        return np.linalg.eigh(T)[1]
    # D and E are overwritten, so they are copies; E needs one entry at N=1.
    d, e = np.array(d, dtype=float), np.r_[e, 0.0]
    z = np.empty((n, n))  # read column-major, so its rows are the eigenvectors
    ints = np.array([n, 1 + 4 * n + n * n, 3 + 5 * n, 0], np.int64)  # N = LDZ, LWORK, LIWORK, INFO
    work, iwork = np.empty(ints[1]), np.empty(ints[2], np.int64)
    _dstevd(b"V", ints[0:], d, e, z, ints[0:], work, ints[1:], iwork, ints[2:], ints[3:], 1)
    if ints[3]:
        raise np.linalg.LinAlgError(f"dstevd failed with INFO={ints[3]} for a block of {n}")
    return z.T


def _lead_signs(X: np.ndarray) -> np.ndarray:
    """-1.0 for each column of X whose first largest-magnitude entry is
    negative, else 1.0. Only a column whose largest and smallest entries
    have equal magnitude needs the first of them, so only such a column
    pays for ``argmax``."""
    top, bottom = X.max(axis=0), -X.min(axis=0)
    negative = bottom > top
    tie = np.flatnonzero(bottom == top)
    lead = np.abs(X[:, tie]).argmax(axis=0)
    negative[tie] = X[lead, tie] < 0
    return np.where(negative, -1.0, 1.0)


def validate_eigenbasis(basis: EigenBasis) -> ValidationReport:
    """The :class:`ValidationReport` that the basis passed on construction."""
    return basis._report


def save_basis(basis: EigenBasis, path) -> None:
    """Write the binary cache format: magic, n (int32), variant byte, then
    V as little-endian float64 row-major and exponents as int32. V is
    written from the array the basis keeps, without a copy."""
    # An existing regular file is written over and then cut to length, not
    # truncated on open: ext4 flushes a file truncated to zero and rewritten
    # when it is closed, which took an N=2048 save from about 7 ms to 20-45 ms.
    # A device or a pipe cannot be cut (EINVAL, ESPIPE) and needs no cut.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(_HEADER.pack(CACHE_MAGIC, basis.n, _VARIANT_CODE[basis.variant]))
        fh.write(np.ascontiguousarray(basis.vectors, dtype="<f8"))
        fh.write(np.ascontiguousarray(basis.exponents, dtype="<i4"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def load_basis(path) -> EigenBasis:
    """Read a basis written by :func:`save_basis`.

    Raises ValueError for a bad magic, a truncated header, an unknown
    variant byte, n < 4, a file length that does not match n, or exponents
    other than :func:`index_vector`. The :class:`EigenBasis` constructor
    raises ValueError for a NaN or infinite entry of V, and DegenerateBasis
    or EigenMismatch for a V that fails its self-checks. The header is
    checked against the file length before V is allocated, and V is read
    straight into the array the basis keeps.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        magic = header[: len(CACHE_MAGIC)]
        if magic != CACHE_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if len(header) < _HEADER.size:
            raise ValueError(f"truncated header: {len(header)} bytes")
        _, n, code = _HEADER.unpack(header)
        if code not in _VARIANT_NAME:
            raise ValueError(f"unknown variant byte {code}")
        check_size(n, 4)
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + 8 * n * n + 4 * n
        if size != expected:
            problem = "truncated" if size < expected else "trailing bytes"
            raise ValueError(f"{problem}: {size} bytes, expected {expected} for n={n}")
        V = np.empty((n, n), "<f8")
        if fh.readinto(V) != V.nbytes:
            raise ValueError(f"file shrank while reading: expected {expected} bytes")
        ell = np.frombuffer(fh.read(4 * n), "<i4")
    if not np.array_equal(ell, index_vector(n, _VARIANT_NAME[code])):
        raise ValueError(f"exponents differ from index_vector for n={n}")
    V.flags.writeable = False  # kept by the basis without a copy
    return EigenBasis(_VARIANT_NAME[code], V)
