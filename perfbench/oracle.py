"""Oracle gate: every multiangle output is checked against single-order
transforms, outside the timed region.

For N <= ``DENSE_MAX_N`` the whole N x R output is compared with a dense
reference: ``ma_frft_naive`` on the N-point grid, or one ``frft_apply`` per
order on the padded ``R = N + 1`` grid. For larger N a seeded sample of
``SAMPLED_COLUMNS`` grid columns is compared with ``frft_apply`` at order
``4r/R``. Tolerances are those of the repository's acceptance tests: 1e-8
against the oracle, and 1e-12 for half vs full on even N. The latter is
applied per unit of the signal's 2-norm: outputs scale with the input, and
the tests set it for N <= 32 signals of norm about 8, while at N = 1000
(norm about 33) half and full differ by 1.0e-12 from rounding alone.
"""

import numpy as np

from mafrft import frft_apply, ma_frft_naive

DENSE_MAX_N = 128
SAMPLED_COLUMNS = 4
ORACLE_TOL = 1e-8      # any fast path vs the single-order oracle
HALF_FULL_TOL = 1e-12  # half vs full on even N, per unit of signal norm


def grid_size(n: int, path: str) -> int:
    """Number of orders R the path evaluates (padded half on odd N)."""
    return n + 1 if path == "half" and n % 2 == 1 else n


def dense_reference(basis, x: np.ndarray, R: int) -> np.ndarray:
    """N x R matrix of the order-``4r/R`` transforms of ``x``."""
    if R == basis.n:
        return ma_frft_naive(basis, x).X
    return np.stack([frft_apply(basis, 4 * r / R, x) for r in range(R)], axis=1)


def oracle_error(basis, x, result, R, reference=None, rng=None) -> float:
    """Largest deviation of ``result`` from the oracle (inf on a wrong shape
    or order grid, nan on non-finite output)."""
    X = result.X
    if X.shape != (basis.n, R) or not np.allclose(
        result.orders, 4 * np.arange(R) / R, rtol=0, atol=1e-15
    ):
        return float("inf")
    if reference is not None:
        return float(np.abs(X - reference).max())
    cols = rng.choice(R, size=min(SAMPLED_COLUMNS, R), replace=False)
    return max(
        float(np.abs(X[:, r] - frft_apply(basis, 4 * r / R, x)).max()) for r in cols
    )


def half_full_error(x, full, half) -> float:
    """Largest difference of the half and full outputs (even N only), per
    unit of the signal norm."""
    if full.X.shape != half.X.shape:
        return float("inf")
    return float(np.abs(half.X - full.X).max()) / max(1.0, float(np.linalg.norm(x)))


def passes(err: float, tol: float) -> bool:
    return err <= tol  # False for nan
