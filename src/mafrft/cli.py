"""Command-line interface: gen, compute, validate, render.

File formats:
  signal CSV      one sample per line, "re,im", 17 significant digits;
                  blank lines are skipped, anything else that is not two
                  numbers ("#" lines, ragged rows) is a parse error
  matrix output   <prefix>_re.csv and <prefix>_im.csv (N rows, R columns)
                  plus <prefix>_orders.csv (single row of R order values)
  render output   binary PGM ("P5"), width R, height N, maxval 255

Exit codes, from the exception a command raises (``EXIT_CODES``, first match):
  0  ok
  3  flag conflict: OddWithoutPad
  1  validation failure: ZeroSignal, DegenerateBasis, EigenMismatch
  2  parse or I/O error: any other ValueError (NonFiniteSignal included)
     or OSError
A mapped exception prints one line to stderr,
``<command>: <ExceptionType>: <message>``; any other exception is a bug and
keeps its traceback.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .eigenbasis import build_eigenbasis, validate_eigenbasis
from .exceptions import DegenerateBasis, EigenMismatch, OddWithoutPad, ZeroSignal
from .foundation import VARIANTS, check_size
from .multiangle import ma_frft_full, ma_frft_half, ma_frft_naive

# The one exit-code policy: the first row whose types match the exception a
# command raised gives the exit code; 0 means the command returned.
EXIT_CODES = (
    (OddWithoutPad, 3),  # flag conflict
    ((ZeroSignal, DegenerateBasis, EigenMismatch), 1),  # validation
    ((ValueError, OSError), 2),  # parse or I/O error, NonFiniteSignal included
)
_CSV = dict(fmt="%.17g", delimiter=",")


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
    samples. Raises TypeError for a non-integer n, ValueError for n < 4, a
    NaN or infinite rate, f0, amplitude or noise_std, or a negative
    amplitude or noise_std.
    """
    n = check_size(n, 4)
    if not np.isfinite([rate, f0, amplitude, noise_std]).all():
        raise ValueError("rate, f0, amplitude and noise_std must be finite")
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
    x = np.asarray(x)
    np.savetxt(path, np.column_stack((x.real, x.imag)), **_CSV)


def read_signal(path) -> np.ndarray:
    rows = _read_csv(path)
    if rows.shape[1] != 2:
        raise ValueError(f"expected 2 columns (re,im), got {rows.shape[1]} in {path}")
    return rows.view(complex)[:, 0]  # exact, unlike re + 1j*im


def _read_csv(path) -> np.ndarray:
    """Rows of a comma-separated float file; blank lines are skipped."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"no rows in {path}")
    return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)


def _cmd_gen(args) -> None:
    x = make_signal(
        args.n, args.kind, args.rate, args.f0, args.amplitude,
        args.noise_std, args.seed,
    )
    write_signal(x, args.out)


def _cmd_compute(args) -> None:
    x = read_signal(args.input)
    basis = build_eigenbasis(len(x), args.variant)
    if args.path == "half":
        result = ma_frft_half(basis, x, pad_odd=args.pad_odd)
    else:
        result = {"naive": ma_frft_naive, "full": ma_frft_full}[args.path](basis, x)
    for part, M in (("re", result.X.real), ("im", result.X.imag),
                    ("orders", result.orders[None, :])):
        np.savetxt(f"{args.out_prefix}_{part}.csv", M, **_CSV)


def _cmd_validate(args) -> None:
    report = validate_eigenbasis(build_eigenbasis(args.n, args.variant))
    print(json.dumps({**dataclasses.asdict(report), "pass": report.passed}))


def _cmd_render(args) -> None:
    re = _read_csv(f"{args.in_prefix}_re.csv")
    im = _read_csv(f"{args.in_prefix}_im.csv")
    if re.shape != im.shape:
        raise ValueError(f"_re/_im shapes {re.shape} and {im.shape} do not match")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("NaN or infinite entry in the matrices")
    mag = np.hypot(re, im)
    peak = mag.max()
    if peak == 0.0:
        raise ZeroSignal("all-zero matrix has no magnitude image")
    pixels = np.round(255 * mag / peak).astype(np.uint8)
    height, width = pixels.shape
    with open(args.out, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


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
    comp.add_argument("--variant", choices=VARIANTS, default="standard")
    comp.add_argument("--path", choices=("naive", "full", "half"),
                      default="full")
    comp.add_argument("--pad-odd", dest="pad_odd", action="store_true")
    comp.add_argument("--out-prefix", dest="out_prefix", required=True)
    comp.set_defaults(func=_cmd_compute)

    val = sub.add_parser("validate", help="self-check an eigenbasis")
    val.add_argument("--n", type=int, required=True)
    val.add_argument("--variant", choices=VARIANTS, default="standard")
    val.set_defaults(func=_cmd_validate)

    render = sub.add_parser("render", help="render magnitudes to a PGM image")
    render.add_argument("--in-prefix", dest="in_prefix", required=True)
    render.add_argument("--out", required=True)
    render.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        for types, code in EXIT_CODES:
            if isinstance(exc, types):
                print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
                return code
        raise  # anything else is a bug: keep the traceback
    return 0


if __name__ == "__main__":
    sys.exit(main())
