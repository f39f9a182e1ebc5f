"""Command-line interface: gen, compute, validate, bench, render.

File formats:
  signal CSV      one sample per line, "re,im", 17 significant digits
  matrix output   <prefix>_re.csv and <prefix>_im.csv (N rows, R columns)
                  plus <prefix>_orders.csv (single row of R order values)
  render output   binary PGM ("P5"), width R, height N, maxval 255

Exit codes: 0 ok, 1 validation failure, 2 parse/IO error, 3 flag conflict.
"""

import argparse
import json
import statistics
import sys
import time

import numpy as np

from . import __version__
from .eigenbasis import build_eigenbasis, validate_eigenbasis
from .counters import counters
from .exceptions import NonFiniteSignal, OddWithoutPad, ZeroSignal
from .multiangle import ma_frft_full, ma_frft_half, ma_frft_naive

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_CONFLICT = 3


def make_signal(
    n: int,
    kind: str,
    rate: float = 1.0,
    f0: float = 0.0,
    amplitude: float = 1.0,
    noise_std: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Synthesize a test signal.

    chirp: amplitude * exp(j*(pi*rate*n^2/N + 2*pi*f0*n/N)); rate=1 with
    f0 = -rate*(N-1)/2 sweeps symmetrically through zero frequency (the
    unit-chirp-rate test input). tone: the rate=0 chirp. delta: unit pulse
    at index 0. noise: amplitude-scaled complex Gaussian. Every kind adds
    noise_std-scaled complex Gaussian noise; identical seeds give identical
    samples.
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    if amplitude < 0 or noise_std < 0:
        raise ValueError("amplitude and noise_std must be >= 0")
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    if kind == "chirp":
        base = amplitude * np.exp(
            1j * (np.pi * rate * idx**2 / n + 2 * np.pi * f0 * idx / n)
        )
    elif kind == "tone":
        base = amplitude * np.exp(2j * np.pi * f0 * idx / n)
    elif kind == "delta":
        base = np.zeros(n, dtype=complex)
        base[0] = amplitude
    elif kind == "noise":
        base = amplitude * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ) / np.sqrt(2)
    else:
        raise ValueError(f"unknown signal kind {kind!r}")
    if noise_std > 0:
        base = base + noise_std * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ) / np.sqrt(2)
    return base


def write_signal(x: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for z in x:
            fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def read_signal(path) -> np.ndarray:
    samples = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            re_s, im_s = line.split(",")
            samples.append(complex(float(re_s), float(im_s)))
    if not samples:
        raise ValueError(f"no samples in {path}")
    return np.array(samples)


def _write_matrix_csv(M: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        for row in M:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _read_matrix_csv(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(v) for v in line.split(",")])
    return np.array(rows)


def _cmd_gen(args) -> int:
    try:
        x = make_signal(
            args.n, args.kind, args.rate, args.f0, args.amplitude,
            args.noise_std, args.seed,
        )
        write_signal(x, args.out)
    except (ValueError, OSError) as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _cmd_compute(args) -> int:
    try:
        x = read_signal(args.input)
    except (ValueError, OSError) as exc:
        print(f"compute: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    n = len(x)
    try:
        basis = build_eigenbasis(n, args.variant)
    except ValueError as exc:
        print(f"compute: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if args.path == "naive":
            result = ma_frft_naive(basis, x)
        elif args.path == "full":
            result = ma_frft_full(basis, x)
        else:
            result = ma_frft_half(basis, x, pad_odd=args.pad_odd)
    except OddWithoutPad as exc:
        print(f"compute: flag conflict (OddWithoutPad): {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except NonFiniteSignal as exc:
        print(f"compute: bad input (NonFiniteSignal): {exc}", file=sys.stderr)
        return EXIT_PARSE
    _write_matrix_csv(result.X.real, f"{args.out_prefix}_re.csv")
    _write_matrix_csv(result.X.imag, f"{args.out_prefix}_im.csv")
    _write_matrix_csv(result.orders[None, :], f"{args.out_prefix}_orders.csv")
    return EXIT_OK


def _cmd_validate(args) -> int:
    if args.n < 4:
        print(f"validate: n must be >= 4, got {args.n}", file=sys.stderr)
        return EXIT_PARSE
    basis = build_eigenbasis(args.n, args.variant)
    report = validate_eigenbasis(basis)
    print(json.dumps({
        "orthonormality_residual": report.orthonormality_residual,
        "eigen_residual": report.eigen_residual,
        "symmetry_residual": report.symmetry_residual,
        "multiplicities": list(report.multiplicities),
        "expected": list(report.multiplicities_expected),
        "pass": report.passed,
    }))
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.n.split(",")]
    except ValueError as exc:
        print(f"bench: bad size list: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.reps < 1:
        print("bench: reps must be >= 1", file=sys.stderr)
        return EXIT_PARSE
    for n in sizes:
        if n < 4:
            print(f"bench: n must be >= 4, got {n}", file=sys.stderr)
            return EXIT_PARSE
    rng = np.random.default_rng(0)
    print("n,path,wall_ns_median,fft_count")
    for n in sizes:
        basis = build_eigenbasis(n, args.variant)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        medians = {}
        for path, fn in (
            ("naive", lambda: ma_frft_naive(basis, x)),
            ("full", lambda: ma_frft_full(basis, x)),
            ("half", lambda: ma_frft_half(basis, x, pad_odd=n % 2 == 1)),
        ):
            times = []
            for _ in range(args.reps):
                counters.reset()
                t0 = time.perf_counter_ns()
                fn()
                times.append(time.perf_counter_ns() - t0)
            fft_count = 0 if path == "naive" else counters.fft_calls
            med = int(statistics.median(times))
            medians[path] = med
            print(f"{n},{path},{med},{fft_count}")
        if medians["half"] >= medians["full"]:
            print(
                f"bench: warning: half path not faster than full at n={n}",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_render(args) -> int:
    try:
        re = _read_matrix_csv(f"{args.in_prefix}_re.csv")
        im = _read_matrix_csv(f"{args.in_prefix}_im.csv")
    except (ValueError, OSError) as exc:
        print(f"render: cannot read matrices: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if re.shape != im.shape or re.size == 0:
        print("render: _re/_im shapes do not match", file=sys.stderr)
        return EXIT_PARSE
    mag = np.hypot(re, im)
    peak = mag.max()
    if peak == 0.0:
        print("render: ZeroSignal: all-zero matrix has no magnitude image",
              file=sys.stderr)
        return EXIT_VALIDATION
    pixels = np.round(255 * mag / peak).astype(np.uint8)
    height, width = pixels.shape
    try:
        with open(args.out, "wb") as fh:
            fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    except OSError as exc:
        print(f"render: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mafrft",
        description="Multiangle discrete fractional Fourier transform toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="synthesize a test signal CSV")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--kind", choices=("chirp", "tone", "delta", "noise"),
                     required=True)
    gen.add_argument("--rate", type=float, default=1.0)
    gen.add_argument("--f0", type=float, default=0.0)
    gen.add_argument("--amplitude", type=float, default=1.0)
    gen.add_argument("--noise-std", dest="noise_std", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    comp = sub.add_parser("compute", help="run a multiangle transform")
    comp.add_argument("--input", required=True)
    comp.add_argument("--variant", choices=("standard", "centered"),
                      default="standard")
    comp.add_argument("--path", choices=("naive", "full", "half"),
                      default="full")
    comp.add_argument("--pad-odd", dest="pad_odd", action="store_true")
    comp.add_argument("--out-prefix", dest="out_prefix", required=True)
    comp.set_defaults(func=_cmd_compute)

    val = sub.add_parser("validate", help="self-check an eigenbasis")
    val.add_argument("--n", type=int, required=True)
    val.add_argument("--variant", choices=("standard", "centered"),
                     default="standard")
    val.set_defaults(func=_cmd_validate)

    bench = sub.add_parser("bench", help="time the transform paths")
    bench.add_argument("--n", required=True,
                       help="comma-separated sizes, each >= 4 (odd sizes "
                       "run the padded half path)")
    bench.add_argument("--variant", choices=("standard", "centered"),
                       default="standard")
    bench.add_argument("--reps", type=int, default=5)
    bench.set_defaults(func=_cmd_bench)

    render = sub.add_parser("render", help="render magnitudes to a PGM image")
    render.add_argument("--in-prefix", dest="in_prefix", required=True)
    render.add_argument("--out", required=True)
    render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
