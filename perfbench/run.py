"""Command line of the mafrft benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload stream_small --seed 1 --seconds 45 --trace 0

The library is imported from ``src/`` of the same checkout. Standard output
lists each metric with its unit, then a ``report`` line (environment, call
counts and tail percentiles, oracle errors, failures, and in a traced run
the tracing overhead and exact counts). The last line is the result JSON
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics and writes its spans to ``.perfbench-out/``.

Exit codes: 0 every output correct, 1 some request failed, 2 usage error,
library missing, or a basis failing its self-check.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def _pin_blas_threads(n: int) -> None:
    """Must run before numpy is first imported to take effect."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(n)


def main(argv=None, workloads=WORKLOADS) -> int:
    args = parse_args(argv, workloads)
    workload = workloads[args.workload]
    if not (SRC / "mafrft" / "__init__.py").is_file():
        print(f"error: no mafrft sources under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads(workload.blas_threads)
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy and mafrft

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        result = harness.run(workload, args.seed, args.seconds, bool(args.trace), workdir)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        spans = [[s.name, s.start, s.end, s.parent, s.request] for s in result.spans]
        with open(out, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "spans": spans, "report": result.report}, fh)
        result.report["trace_file"] = str(out.relative_to(ROOT))

    for name, (value, unit) in result.metrics.items():
        print(f"{name:38s} {value!r:>24} {unit}")
    print("failed_frac".ljust(38), f"{result.report['failed_frac']!r:>24} ratio")
    print("report", json.dumps(result.report))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
