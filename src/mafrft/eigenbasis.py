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

Cost: the two half-size class blocks are folded from the 3N band entries of
the commuting matrix by one orbit map; no dense commuting matrix is formed.
Their eigenvectors are unfolded by slices: rows 0..r-1 of a class's columns
are the weighted eigenvectors, signed there, and the mirror rows are those
rows reversed (negated in the odd class). The build runs two half-size
``eigh`` calls and the ``V.T @ V`` orthonormality check as its only O(N^3)
steps. The self-checks run once per basis and their report is kept: the
build raises from it and :func:`validate_eigenbasis` returns it. ``V.T @ V``
is freed once its maximum is taken, and the symmetry residual reads only the
representative rows of the reversal orbits. The commutation and DFT eigen
residuals take O(N^2 log N): the DFT is generated a block of rows at a time
from a twiddle table, or applied as column FFTs. The commutation residual is
exactly antisymmetric, so a block of rows is checked only against the
columns from its first row on: half the matrix. The three blocked checks
split their blocks over the pool of :func:`~mafrft.foundation._split_rows`
once they have two ranges' worth (from N = 725, or N = 1023 for the
symmetry check), and give the same maxima on any number of threads. Row and
column blocks bound the extra memory to about 512 KB per block and thread
on top of ``V`` and one N x N temporary.
"""

import os
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import CommutationError, DegenerateBasis, EigenMismatch
from .foundation import _split_rows, _twiddles, check_size, check_variant
from .foundation import mirror_layout, reversal_permutation

CACHE_MAGIC = b"FRFTEB1"
_VARIANT_CODE = {"standard": 0, "centered": 1}
_VARIANT_NAME = {v: k for k, v in _VARIANT_CODE.items()}
_HEADER_BYTES = len(CACHE_MAGIC) + 5  # magic, int32 n, variant byte
_BLOCK_ELEMENTS = 1 << 15


def _block(n: int) -> int:
    """Rows (or columns) of length ``n`` per block of the residual kernels:
    a complex block of about 512 KB bounds their working memory to a few
    such blocks per thread on top of ``V``, whatever N is."""
    return max(1, _BLOCK_ELEMENTS // n)


def _worst(kernel, count: int, n: int) -> float:
    """The largest ``kernel(a, b)`` over blocks of ``_block(n)`` of the rows
    (or columns) ``0..count-1`` of length ``n``, with the blocks split over
    the pool by :func:`_split_rows`. A maximum does not depend on how the
    blocks fall, so every split gives the same value."""
    step = _block(n)

    def work(a, b):
        return max(kernel(i, min(i + step, b)) for i in range(a, b, step))

    return max(_split_rows(work, count, n))


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Reusable eigendecomposition of a DFT matrix.

    ``vectors``: a real, finite N x N orthonormal matrix whose columns are
    eigenvectors, or the constructor raises ValueError. ``n`` and
    ``exponents = index_vector(n, variant)`` are derived: column k has
    eigenvalue ``(-1j)**exponents[k]`` under the DFT of the variant.

    Both arrays are read-only. ``vectors`` is kept as given only if it is
    read-only and owns its data; a view or a writable array is copied. So
    the self-check report that :func:`validate_eigenbasis` returns is
    computed once, on first use, and cannot go stale. Bases compare and hash
    by identity, so one can key a dict.
    """

    variant: str
    vectors: np.ndarray
    n: int = field(init=False)
    exponents: np.ndarray = field(init=False)

    def __post_init__(self):
        V = np.asarray(self.vectors)
        if not (V.dtype.kind in "fiu" and V.ndim == 2 and len(V) == V.shape[1]
                and np.isfinite(V).all()):
            raise ValueError(f"not a real, finite, square matrix: {V.dtype} {V.shape}")
        V = V.astype(float, copy=V.flags.writeable or not V.flags.owndata)
        ell = index_vector(len(V), self.variant)
        V.flags.writeable = ell.flags.writeable = False
        for name, value in (("vectors", V), ("n", len(V)), ("exponents", ell)):
            object.__setattr__(self, name, value)

    @cached_property
    def _report(self) -> "ValidationReport":
        V, ell = self.vectors, self.exponents
        G = V.T @ V
        G[np.diag_indices_from(G)] -= 1.0
        orth = float(np.abs(G, out=G).max())
        del G
        # A mirror row's residual repeats its representative's exactly.
        r = mirror_layout(self.n, self.variant)[0]
        mirror, parity = reversal_permutation(self.n, self.variant), (-1.0) ** ell

        def symmetry(a, b):
            return float(np.abs(V[mirror[a:b]] - V[a:b] * parity).max())

        return ValidationReport(
            orthonormality_residual=orth,
            eigen_residual=_eigen_residual(V, ell, self.variant),
            symmetry_residual=_worst(symmetry, r, self.n),
        )


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


def index_vector(n: int, variant: str = "standard") -> np.ndarray:
    """Eigenvalue exponents in ascending order.

    Centered, and standard with odd N: ``0..N-1``. Standard with even N:
    ``0, 1, ..., N-2, N`` (the exponent N-1 never occurs).
    """
    n = check_size(n)
    check_variant(variant)
    if variant == "standard" and n % 2 == 0:
        return np.concatenate([np.arange(n - 1), [n]])
    return np.arange(n)


def _commuting_band(n: int, variant: str):
    """Diagonal and periodic off-diagonal of :func:`commuting_matrix`:
    ``S[k, k] = diag[k]`` and ``S[k, k+1 mod N] = S[k+1 mod N, k] = off[k]``,
    so ``off[N-1]`` is the wraparound corner.

    The diagonal is ``2*cos(2*pi*(k - c)/N) - 4`` where ``c`` is the index
    center of the variant; the corner is -1 for the centered variant with
    even N, else +1. Raises :class:`CommutationError` if the commutation
    residual exceeds 1e-8 (an implementation bug, not bad data).
    """
    n = check_size(n, 4)
    check_variant(variant)
    u, _ = _twiddles(n, variant)
    diag = 2 * np.cos(np.pi * u / n) - 4
    off = np.ones(n)
    off[-1] = -1.0 if (variant == "centered" and n % 2 == 0) else 1.0
    residual = _commutation_residual(diag, off, variant)
    if residual > 1e-8:
        raise CommutationError(
            f"commutation residual {residual:g} for n={n}, variant={variant}"
        )
    return diag, off


def _commutation_residual(diag, off, variant: str) -> float:
    """``max|SW - WS|`` for the periodic tridiagonal S given by ``diag`` and
    ``off`` (see :func:`_commuting_band`) and the unitary DFT W.

    Works on blocks of rows of W generated from the twiddle table, with S
    applied as a band from the left (neighbouring rows) and from the right
    (neighbouring columns): O(N^2) time, O(block * N) memory. A block of rows
    from ``j0`` on needs only the columns ``k >= j0``: D = SW - WS is exactly
    antisymmetric in floating point, as W[j, k] and W[k, j] are the same
    table entry and S is symmetric, so D[j, k] and -D[k, j] are the same sums
    of the same products, and every entry left of ``j0`` mirrors one that an
    earlier block evaluates.
    """
    n = len(diag)
    u, table = _twiddles(n, variant)
    table /= np.sqrt(n)
    ring = np.arange(-1, n + 1) % n  # ring[i + 1] = i, with one wrapped neighbour each side
    # W is worked on as (real, imaginary) float pairs: a real band entry times
    # a complex one rounds each part as the complex product does. So the
    # column factors S[k-1, k], S[k, k] and S[k, k+1] come once per part.
    below, diag2, off2 = (np.repeat(a, 2) for a in (off[ring[:-2]], diag, off))

    def rows(j0, j1):
        j = ring[j0 + 1 : j1 + 1, None]
        phase = np.outer(u[ring[j0 : j1 + 2]], u[ring[j0:]])
        phase -= phase // (4 * n) * (4 * n)  # as % but faster
        W = table[phase].view(float)  # rows j0-1 .. j1 of W, columns j0-1 .. N
        D = off[j - 1] * W[:-2, 2:-2]  # SW
        D += diag[j] * W[1:-1, 2:-2]
        D += off[j] * W[2:, 2:-2]
        mid = W[1:-1]
        WS = mid[:, :-4] * below[2 * j0:]
        WS += mid[:, 2:-2] * diag2[2 * j0:]
        WS += mid[:, 4:] * off2[2 * j0:]
        D -= WS
        return float(np.abs(D.view(complex)).max())

    return _worst(rows, n, n)


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
    lam = np.array([1, -1j, -1, 1j])[exponents % 4]

    def columns(c0, c1):
        v = V[:, c0:c1]
        if m:
            WV = pre * v
            np.fft.fft(WV, axis=0, out=WV)
            np.multiply(post, WV, out=WV)
        else:  # standard: pre is 1 and post 1/sqrt(N), so it is one orthonormal FFT
            WV = v.astype(complex)
            np.fft.fft(WV, axis=0, out=WV, norm="ortho")
        WV -= v * lam[c0:c1]
        return float(np.abs(WV).max())

    return _worst(columns, n, n)


def commuting_matrix(n: int, variant: str = "standard") -> np.ndarray:
    """Real symmetric matrix commuting with the DFT of the given variant:
    the checked band of :func:`_commuting_band`, densified (tridiagonal plus
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
    largest-magnitude entry of each column is positive. Raises
    :class:`DegenerateBasis` or :class:`EigenMismatch` exactly when the basis
    fails its self-checks (``validate_eigenbasis(basis).passed``).
    """
    ell = index_vector(n, variant)
    diag, off = _commuting_band(n, variant)
    r, c, lo = mirror_layout(n, variant)
    k = np.arange(n)
    orbit = np.where(k < r, k, lo + n - 1 - k)  # representative of k's orbit
    paired = (lo <= orbit) & (orbit < lo + c)
    i, j, s = np.r_[k, k, (k + 1) % n], np.r_[k, (k + 1) % n, k], np.r_[diag, off, off]
    # Class columns: the even class is 0:m:2 plus m:n, which is column N-1
    # (exponent N) for the standard variant with even N and empty otherwise;
    # the odd class is 1:m:2 (its m+1:n is always empty).
    m = n - 1 if ell[-1] == n else n
    V = np.empty((n, n))
    for sign, parity, live in ((1.0, 0, slice(0, r)), (-1.0, 1, slice(lo, lo + c))):
        # The class basis vector of orbit a is the sum of w[k] * e[k] over
        # orbit[k] == a (w is 0 at the odd class's fixed points); the band
        # entries S[i, j] = s fold into its block.
        w = np.where(paired, np.where(k < r, 1.0, sign) / np.sqrt(2), (1 + sign) / 2)
        block = np.zeros((r, r))
        np.add.at(block, (orbit[i], orbit[j]), s * w[i] * w[j])
        U = np.linalg.eigh(block[live, live])[1][:, ::-1]  # descending
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

    del block, U, part  # freed before V.T @ V, which would peak on top of them
    V.flags.writeable = False  # kept by the basis without a copy
    basis = EigenBasis(variant, V)
    basis._report.require(f"n={n}, variant={variant}")
    return basis


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
    """The basis's :class:`ValidationReport`, computed once per basis: a
    built basis already holds it, as the build raises from the same report."""
    return basis._report


def save_basis(basis: EigenBasis, path) -> None:
    """Write the binary cache format: magic, n (int32), variant byte, then
    V as little-endian float64 row-major and exponents as int32. V is
    written from the array the basis keeps, without a copy."""
    # An existing file is written over and then cut to length, not truncated
    # on open: ext4 flushes a file truncated to zero and rewritten when it is
    # closed, which took an N=2048 save from about 7 ms to 20-45 ms.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<i", basis.n))
        fh.write(struct.pack("B", _VARIANT_CODE[basis.variant]))
        fh.write(np.ascontiguousarray(basis.vectors, dtype="<f8"))
        fh.write(np.ascontiguousarray(basis.exponents, dtype="<i4"))
        fh.truncate()


def load_basis(path) -> EigenBasis:
    """Read a basis written by :func:`save_basis`.

    Raises ValueError for a bad magic, a truncated header, an unknown
    variant byte, n < 4, a file length that does not match n, or exponents
    other than :func:`index_vector`; the :class:`EigenBasis` constructor
    raises it for a NaN or infinite entry of V. The header is checked against
    the file length before V is allocated, and V is read straight into the
    array the basis keeps, so loading peaks at about V.

    The loaded basis is not self-checked: a finite but wrong entry of V
    loads without error and gives wrong transforms.
    ``validate_eigenbasis(basis).require(path)`` checks it and raises
    DegenerateBasis or EigenMismatch as the build does.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        magic = header[: len(CACHE_MAGIC)]
        if magic != CACHE_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if len(header) < _HEADER_BYTES:
            raise ValueError(f"truncated header: {len(header)} bytes")
        n, code = struct.unpack_from("<iB", header, len(CACHE_MAGIC))
        if code not in _VARIANT_NAME:
            raise ValueError(f"unknown variant byte {code}")
        check_size(n, 4)
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER_BYTES + 8 * n * n + 4 * n
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
