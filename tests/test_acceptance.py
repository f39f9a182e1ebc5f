"""Acceptance suite: one test per exit criterion, each prints a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import time

import numpy as np
import pytest

from mafrft import (
    EigenBasis,
    change_of_basis,
    change_of_basis_fast,
    concentration_profile,
    counters,
    dft_matrix,
    frft_apply,
    frft_matrix,
    ma_frft_full,
    ma_frft_half,
    ma_frft_naive,
    reversal_permutation,
    validate_eigenbasis,
    z_matrix,
)
from tests.conftest import (
    cached_basis, expected_multiplicities, multiplicities, random_signal,
)

VARIANTS = ("standard", "centered")


def report(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for n in list(range(4, 17)) + [32]:
        for variant in VARIANTS:
            b = cached_basis(n, variant)
            for seed in range(5):
                x = random_signal(n, seed=seed)
                diff = np.abs(ma_frft_full(b, x).X - ma_frft_naive(b, x).X).max()
                worst = max(worst, diff)
    elapsed = time.monotonic() - t0
    report(1, f"full vs naive, max diff {worst:.3g}, {elapsed:.1f}s",
           worst < 1e-8 and elapsed < 30)


def test_criterion_2_halving_correctness():
    worst_even = 0.0
    for n in range(4, 33, 2):
        for variant in VARIANTS:
            b = cached_basis(n, variant)
            x = random_signal(n, seed=n)
            diff = np.abs(ma_frft_half(b, x).X - ma_frft_full(b, x).X).max()
            worst_even = max(worst_even, diff)
    worst_odd = 0.0
    for n in range(5, 16, 2):
        for variant in VARIANTS:
            b = cached_basis(n, variant)
            x = random_signal(n, seed=n)
            X = ma_frft_half(b, x, pad_odd=True).X
            R = n + 1
            for r in range(R):
                diff = np.abs(X[:, r] - frft_apply(b, 4 * r / R, x)).max()
                worst_odd = max(worst_odd, diff)
    report(2, f"half vs full {worst_even:.3g} (even), "
              f"padded vs per-order {worst_odd:.3g} (odd)",
           worst_even < 1e-12 and worst_odd < 1e-8)


def test_criterion_3_fft_count_reduction():
    ok = True
    detail = []
    for n in (8, 16, 64):
        x = random_signal(n, seed=n)
        counts = {}
        for variant in VARIANTS:
            b = cached_basis(n, variant)
            counters.reset()
            ma_frft_half(b, x)
            counts[f"{variant} half"] = counters.fft_calls
            counters.reset()
            ma_frft_full(b, x)
            counts[f"{variant} full"] = counters.fft_calls
        ok &= counts["centered half"] == n // 2
        ok &= counts["standard half"] == n // 2 + 1
        ok &= counts["centered full"] == n and counts["standard full"] == n
        detail.append(f"N={n}: {counts['standard half']}/{counts['centered half']}")
    for n in (9, 15):
        b = cached_basis(n, "centered")
        counters.reset()
        ma_frft_half(b, random_signal(n, seed=n), pad_odd=True)
        ok &= counters.fft_calls == (n + 1) // 2
        detail.append(f"N={n} padded: {counters.fft_calls}")
    report(3, "FFT counts " + ", ".join(detail), ok)


def test_criterion_4_multiplicity_table():
    ok = True
    for n in range(4, 65):
        for variant in VARIANTS:
            b = cached_basis(n, variant)
            ok &= validate_eigenbasis(b).eigen_residual < 1e-8
            ok &= multiplicities(b.exponents) == expected_multiplicities(n, variant)
    report(4, "eigenvalue multiplicities N=4..64, both variants", ok)


def test_criterion_5_integer_order_anchors():
    worst = 0.0
    for n in (8, 9, 12, 13):
        for variant in VARIANTS:
            b = cached_basis(n, variant)
            W = dft_matrix(n, variant)
            P = np.eye(n)[reversal_permutation(n, variant)]
            anchors = (np.eye(n), W, P, W.conj().T)
            for a, M in enumerate(anchors):
                worst = max(worst, np.abs(frft_matrix(b, float(a)) - M).max())
    report(5, f"orders 0..3 vs I, W, P, W^H, max diff {worst:.3g}", worst < 1e-8)


def test_criterion_6_chirp_concentration():
    b = cached_basis(8, "standard")
    idx = np.arange(8)
    # unit-rate chirp sweeping symmetrically through zero frequency
    x = np.exp(1j * (np.pi * idx**2 / 8 - 2 * np.pi * 3.5 * idx / 8))
    profile = concentration_profile(ma_frft_full(b, x))
    peaks = set(np.flatnonzero(profile >= profile.max() - 1e-9))
    report(6, f"chirp concentration argmax {sorted(peaks)} (orders 0.5, 2.5)",
           peaks == {1, 5})


def test_criterion_7_correction_factor_derivation():
    worst = 0.0
    for n in (4, 6, 8):
        w = np.exp(-2j * np.pi / n)
        ell = np.concatenate([np.arange(n - 1), [n]])
        B = w ** np.outer(np.arange(n), ell)
        gamma = np.fft.ifft(B, axis=0)  # inverse DFT of each column
        expected = np.eye(n, dtype=complex)
        expected[n - 1, n - 1] = 0.0
        expected[0, n - 1] = 1.0
        worst = max(worst, np.abs(gamma - expected).max())
    report(7, f"correction factor closed form, max diff {worst:.3g}",
           worst < 1e-10)


def test_criterion_8_property_suite():
    t0 = time.monotonic()
    ok = True
    rng = np.random.default_rng(8)
    for variant in VARIANTS:
        b = cached_basis(10, variant)
        x = random_signal(10, seed=80)
        # unitarity
        for a in (0.3, 1.7, 3.9):
            ok &= abs(np.linalg.norm(frft_apply(b, a, x))
                      - np.linalg.norm(x)) < 1e-9
            ok &= np.abs(frft_matrix(b, -a) - frft_matrix(b, a).conj().T).max() < 1e-9
        # angle additivity, 20 random pairs
        for _ in range(20):
            a1, a2 = rng.uniform(-4, 4, size=2)
            lhs = frft_apply(b, a1, frft_apply(b, a2, x))
            ok &= np.abs(lhs - frft_apply(b, a1 + a2, x)).max() < 1e-8
        # period 4
        for h in (-1, 2):
            ok &= np.abs(frft_matrix(b, 0.7 + 4 * h) - frft_matrix(b, 0.7)).max() < 1e-9
        # real-input conjugate symmetry
        xr = rng.standard_normal(10)
        ok &= np.abs(z_matrix(b, xr).Z.imag).max() == 0.0
        X = ma_frft_full(b, xr).X
        for r in range(10):
            ok &= np.abs(X[:, (10 - r) % 10] - np.conj(X[:, r])).max() < 1e-10
        # order a+2 is reversal of order a
        Xc = ma_frft_full(b, x).X
        perm = reversal_permutation(10, variant)
        for r in range(10):
            ok &= np.abs(Xc[:, (r + 5) % 10] - Xc[perm, r]).max() < 1e-8
        # sign-flip invariance
        flips = rng.choice([-1.0, 1.0], size=10)
        flipped = EigenBasis(b.variant, b.vectors * flips)
        ok &= np.abs(ma_frft_full(b, x).X - ma_frft_full(flipped, x).X).max() < 1e-10
    elapsed = time.monotonic() - t0
    report(8, f"property suite ({elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_9_fast_change_of_basis():
    b = cached_basis(64, "standard")
    worst = 0.0
    for n in (8, 9, 12, 13, 64):
        for variant in VARIANTS:
            bb = cached_basis(n, variant)
            x = random_signal(n, seed=90 + n)
            diff = np.abs(change_of_basis_fast(bb, x) - change_of_basis(bb, x)).max()
            worst = max(worst, diff)
    x = random_signal(64, seed=99)
    counters.reset()
    change_of_basis(b, x)
    direct = counters.multiplies
    counters.reset()
    change_of_basis_fast(b, x)
    fast = counters.multiplies
    ratio = fast / direct
    report(9, f"fast change of basis, max diff {worst:.3g}, "
              f"multiply ratio {ratio:.1%}",
           worst < 1e-10 and ratio <= 0.55)


def test_soft_benchmark_half_vs_full_wall_clock():
    """Warn-only wall-clock check; never fails the suite."""
    n = 1024
    b = cached_basis(n, "standard")
    x = random_signal(n, seed=1024)
    def median_time(fn, reps=5):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t0)
        return sorted(times)[len(times) // 2]
    t_full = median_time(lambda: ma_frft_full(b, x))
    t_half = median_time(lambda: ma_frft_half(b, x))
    if t_half >= t_full:
        print(f"WARN soft benchmark: half ({t_half} ns) not faster than "
              f"full ({t_full} ns) at n={n}")
    else:
        print(f"PASS soft benchmark: half {t_half} ns < full {t_full} ns at n={n}")
