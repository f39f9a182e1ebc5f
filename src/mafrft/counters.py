"""Operation counters for verifying FFT-count and multiply-count claims.

The counters are plain module state: reset them, run the code path under
test, then read them back. Each is counted where its work runs: one FFT
per row at the call that transforms it, one multiply per matrix entry of
every product ``frft._real_matvec`` runs, and one per fixed-point halving.
"""

from dataclasses import dataclass


@dataclass
class OpCounters:
    fft_calls: int = 0
    multiplies: int = 0

    def reset(self) -> None:
        self.fft_calls = 0
        self.multiplies = 0


counters = OpCounters()
