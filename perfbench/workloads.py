"""Workload definitions of the mafrft benchmark.

This module imports nothing heavy: ``run.py`` reads a workload's BLAS thread
count from here before numpy is imported.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: a single caller, one signal at a time.

    bases: ``(n, variant)`` pairs, visited round-robin in equal shares.
    saves_cache: set-up builds and validates each basis and, if true, also
        saves it with ``save_basis`` (the producer of a basis cache).
    blas_threads: BLAS threads pinned for the process.
    setup_reps: set-up passes; ``setup_s`` is their median.
    """

    name: str
    why: str
    bases: tuple
    saves_cache: bool
    blas_threads: int
    setup_reps: int


# Small and mid-size GEMMs run one BLAS thread: on a 2-core machine the
# second thread's wake-ups stall N=48..200 products for ~16 ms at a time,
# which swamps sub-millisecond calls. Only the N=2048 products gain from two.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stream_small",
            why="small N, odd and non-power-of-two: per-call work outside the "
            "row FFTs (change of basis, Z, mirror copy) is a large share",
            bases=((16, "standard"), (63, "centered"), (64, "standard"),
                   (96, "centered"), (128, "standard")),
            saves_cache=False,
            blas_threads=1,
            setup_reps=40,
        ),
        Workload(
            name="stream_large",
            why="N=2048 standard: row FFTs dominate each call and basis "
            "build plus validate plus save dominate set-up",
            bases=((2048, "standard"),),
            saves_cache=True,
            blas_threads=2,
            setup_reps=3,
        ),
    )
}
