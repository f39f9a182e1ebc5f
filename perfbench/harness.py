"""Runs one workload of the mafrft benchmark and computes its metrics.

Untraced run: one set-up pass, one warm-up round, then a closed loop for
``seconds`` with the other ``setup_reps - 1`` set-up passes spread through
it. Every output goes through the oracle gate outside the timed region. The
end-to-end metrics come from this run.

Traced run: the same set-up with a span around every library call, one
standalone call into each layer function the set-up does not reach, then
the loop twice for ``seconds / 2`` each: untraced (with the set-up passes),
then traced. The traced loop also times the public stages of each call on
the same input and checks the exact FFT and multiply counts. The per-layer
metrics come from the spans, and the two loops give the tracing overhead.

Spans are measured from outside the library, around calls into it.
"""

import ctypes
import math
import os
import platform
import resource
import statistics
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mafrft import (
    build_eigenbasis,
    change_of_basis,
    change_of_basis_fast,
    commuting_matrix,
    counters,
    dft_matrix,
    frft_apply,
    load_basis,
    ma_frft_full,
    ma_frft_half,
    save_basis,
    validate_eigenbasis,
    z_matrix,
)
from mafrft.foundation import fft_rows_unnormalized, reversal_permutation

import oracle
POOL = 8  # distinct signals per basis; the loop cycles through them
# Tail percentiles, highest first. Higher ones are left out on purpose: with
# ~11000 calls per run, p99 is the slowest 0.2 s of a run and moved by up to
# 55% between runs with the host's neighbours, while the library did not.
TAIL_LADDER = (90.0, 75.0)
LAYER_REPS = 3  # passes of the standalone layer calls in a traced run
COB_TOL = 1e-10  # change_of_basis vs change_of_basis_fast, as in the tests
PATHS = ("full", "half")
WHOLE = {"full": "multiangle.ma_frft_full", "half": "multiangle.ma_frft_half"}
COB_FAST = "multiangle.change_of_basis_fast"
Z = "multiangle.z_matrix"
FFT = "foundation.fft_rows_unnormalized"


class SetupError(RuntimeError):
    """A basis failed its self-check; the run stops."""


# --- spans -----------------------------------------------------------------


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    request: str

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """Spans kept in memory: name, start and end (perf_counter_ns), index of
    the parent span (-1 for a root) and request id."""

    def __init__(self):
        self.spans = []

    def begin(self, name, request, parent=-1) -> int:
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, request))
        return len(self.spans) - 1

    def end(self, sid) -> None:
        self.spans[sid].end = time.perf_counter_ns()

    def add(self, name, start, end, request, parent) -> None:
        self.spans.append(Span(name, start, end, parent, request))

    def call(self, name, request, fn, *args, parent=-1):
        t0 = time.perf_counter_ns()
        out = fn(*args)
        self.add(name, t0, time.perf_counter_ns(), request, parent)
        return out


class NullTracer:
    """Stands in for :class:`Tracer` in untraced code: records nothing."""

    spans = ()

    def begin(self, name, request, parent=-1):
        return -1

    def end(self, sid):
        pass

    def call(self, name, request, fn, *args, parent=-1):
        return fn(*args)


# --- inputs ----------------------------------------------------------------


def chirp_signal(rng, n: int) -> np.ndarray:
    """Linear chirp of random rate and offset plus complex Gaussian noise."""
    t = np.arange(n) - (n - 1) / 2
    rate, f0 = rng.uniform(-1.0, 1.0), rng.uniform(-0.25, 0.25)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return np.exp(1j * np.pi * (rate * t * t / n + 2 * f0 * t)) + 0.35 * noise


@dataclass
class Prepared:
    """A ready basis with its signal pool and, for small N, dense oracle
    references per path and pool signal."""

    basis: object
    pad: bool
    reps: np.ndarray
    signals: list
    refs: dict


def prepare(basis, seed: int) -> Prepared:
    n, variant = basis.n, basis.variant
    rng = np.random.default_rng([seed, n, ("standard", "centered").index(variant)])
    signals = [chirp_signal(rng, n) for _ in range(POOL)]
    refs = {}
    if n <= oracle.DENSE_MAX_N:
        refs["full"] = [oracle.dense_reference(basis, x, n) for x in signals]
        R = oracle.grid_size(n, "half")
        refs["half"] = refs["full"] if R == n else [
            oracle.dense_reference(basis, x, R) for x in signals]
    perm = reversal_permutation(n, variant)
    rows = np.arange(n)
    return Prepared(basis, n % 2 == 1, rows[rows <= perm], signals, refs)


def cache_file(workdir: Path, n: int, variant: str) -> Path:
    return workdir / f"basis-{variant}-{n}.bin"


# --- exact counts ------------------------------------------------------------


def expected_fft_calls(n: int, variant: str, path: str) -> int:
    """Row FFTs per call: N for full; N/2 centered, N/2+1 standard for half
    on even N; (N+1)/2 for padded half on odd N."""
    if path == "full":
        return n
    if n % 2:
        return (n + 1) // 2
    return n // 2 + 1 if variant == "standard" else n // 2


def expected_cob_fast_multiplies(n: int, variant: str) -> int:
    """Multiplies of the symmetry-split change of basis.

    With f fixed points of the reversal, the even class has e = (N+f)/2
    dimensions and the odd class o = (N-f)/2: e*e + o*o products plus one
    halving per fixed point.
    """
    f = 1 if n % 2 else (2 if variant == "standard" else 0)
    e, o = (n + f) // 2, (n - f) // 2
    return e * e + o * o + f


# --- set-up ----------------------------------------------------------------


def setup(workload, workdir, tracer, request):
    """One set-up pass: every basis built, validated, and saved if the
    workload writes a cache. Returns the bases and validation reports."""
    sid = tracer.begin("setup", request)
    bases, reports = [], []
    for n, variant in workload.bases:
        b = tracer.call("eigenbasis.build_eigenbasis", request,
                        build_eigenbasis, n, variant, parent=sid)
        report = tracer.call("eigenbasis.validate_eigenbasis", request,
                             validate_eigenbasis, b, parent=sid)
        if not report.passed:
            raise SetupError(f"N={n} {variant} basis fails validation: {report}")
        if workload.saves_cache:
            tracer.call("eigenbasis.save_basis", request, save_basis, b,
                        cache_file(workdir, n, variant), parent=sid)
        bases.append(b)
        reports.append(report)
    tracer.end(sid)
    return bases, reports


def layer_calls(workload, bases, workdir, tracer) -> None:
    """Standalone calls into the layer functions the set-up does not make:
    the commuting matrix, the DFT matrix, load, and save where the workload
    itself does not save."""
    for i in range(LAYER_REPS):
        request = f"layers-{i}"
        sid = tracer.begin("layers", request)
        for b in bases:
            path = cache_file(workdir, b.n, b.variant)
            tracer.call("eigenbasis.commuting_matrix", request, commuting_matrix,
                        b.n, b.variant, parent=sid)
            tracer.call("foundation.dft_matrix", request, dft_matrix, b.n,
                        b.variant, parent=sid)
            if not workload.saves_cache:
                tracer.call("eigenbasis.save_basis", request, save_basis, b, path,
                            parent=sid)
            tracer.call("eigenbasis.load_basis", request, load_basis, path,
                        parent=sid)
        tracer.end(sid)


# --- the loop --------------------------------------------------------------


def _worst(a: float, b: float) -> float:
    """max() that keeps a nan."""
    return a if (a > b or a != a) else b


@dataclass
class Loop:
    """What one closed loop measured and checked. Call times are kept as
    packed integers (ns), so that the memory they take, and with it
    ``peak_rss_mb``, grows little with the number of calls."""

    times: dict = field(default_factory=lambda: {p: array("q") for p in PATHS})
    signal_ns: array = field(default_factory=lambda: array("q"))
    attempted: int = 0
    failed: int = 0
    errors: dict = field(default_factory=lambda: {
        "full": 0.0, "half": 0.0, "half_vs_full": 0.0, "cob": 0.0})
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def settle(self, label: str, reason) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {reason}")

    def merge_checks(self, other: "Loop") -> None:
        """Take over another loop's request tallies, errors and counts."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures[: 10 - len(self.failures)]
        for k, v in other.errors.items():
            self.errors[k] = _worst(self.errors[k], v)
        self.counts.update(other.counts)


def _stages(p, x, path, result, loop, tracer, request, parent):
    """Time the public stages of one call on its input; return a failure
    reason if they disagree with the whole call or the count is off."""
    b = p.basis
    counters.reset()
    tracer.call(COB_FAST, request, change_of_basis_fast, b, x, parent=parent)
    multiplies = counters.multiplies
    loop.counts[(b.n, b.variant, "cob_fast")] = multiplies
    zm = tracer.call(Z, request, z_matrix, b, x, parent=parent)
    Zin = zm.Zhat if zm.Zhat is not None else zm.Z
    whole = result.X
    if path == "half":
        if p.pad:
            Zin = np.hstack([Zin, np.zeros((b.n, 1), dtype=complex)])
        Zin, whole = Zin[p.reps], whole[p.reps]
    X = tracer.call(FFT, request, fft_rows_unnormalized, Zin, parent=parent)
    if not np.array_equal(X, whole):
        return "staged z_matrix + row FFT output differs from the whole call"
    want = expected_cob_fast_multiplies(b.n, b.variant)
    if multiplies != want:
        return f"change_of_basis_fast multiplies {multiplies} != {want}"
    return None


def _call(p, x, path, loop, tracer, request, parent, record):
    """One timed request. Returns (result or None, failure reason)."""
    b = p.basis
    sid = tracer.begin("path." + path, request, parent)
    traced = sid >= 0
    if traced:
        counters.reset()
    try:
        if path == "full":
            t0 = time.perf_counter_ns()
            result = ma_frft_full(b, x)
            t1 = time.perf_counter_ns()
        else:
            t0 = time.perf_counter_ns()
            result = ma_frft_half(b, x, pad_odd=p.pad)
            t1 = time.perf_counter_ns()
    except Exception as exc:  # a failing request is counted, the loop goes on
        tracer.end(sid)
        return None, f"raised {exc!r}"
    if record:
        loop.times[path].append(t1 - t0)
    reason = None
    if traced:
        fft_calls = counters.fft_calls
        tracer.add(WHOLE[path], t0, t1, request, sid)
        loop.counts[(b.n, b.variant, "fft_" + path)] = fft_calls
        want = expected_fft_calls(b.n, b.variant, path)
        if fft_calls != want:
            reason = f"fft_calls {fft_calls} != {want}"
        try:
            reason = _stages(p, x, path, result, loop, tracer, request, sid) or reason
        except Exception as exc:
            reason = f"stage raised {exc!r}"
        tracer.end(sid)
    return result, reason


def _yardstick(p, x, j, loop, tracer, request, parent):
    """Traced only: the direct change of basis (compared with the fast one,
    multiplies counted) and one single-order oracle call."""
    b = p.basis
    counters.reset()
    y = tracer.call("multiangle.change_of_basis", request, change_of_basis, b, x,
                    parent=parent)
    multiplies = counters.multiplies
    loop.counts[(b.n, b.variant, "cob")] = multiplies
    err = float(np.abs(y - change_of_basis_fast(b, x)).max())
    loop.errors["cob"] = _worst(loop.errors["cob"], err)
    tracer.call("frft.frft_apply", request, frft_apply, b, 4 * j / b.n, x,
                parent=parent)
    if multiplies != b.n * b.n:
        return f"change_of_basis multiplies {multiplies} != {b.n * b.n}"
    if not oracle.passes(err, COB_TOL):
        return f"change_of_basis vs change_of_basis_fast {err:.3g}"
    return None


def _signal(p, j, full_first, loop, rng, tracer, request, record):
    """One signal through both paths, then the oracle gate (untimed)."""
    b, x = p.basis, p.signals[j]
    sid = tracer.begin("signal", request)
    results, reasons = {}, {}
    for path in PATHS if full_first else PATHS[::-1]:
        results[path], reasons[path] = _call(p, x, path, loop, tracer, request,
                                             sid, record)
    if sid >= 0:
        try:
            reasons["change_of_basis"] = _yardstick(p, x, j, loop, tracer, request, sid)
        except Exception as exc:
            reasons["change_of_basis"] = f"raised {exc!r}"
    tracer.end(sid)
    for path in PATHS:
        if results[path] is None:
            continue
        ref = p.refs[path][j] if p.refs else None
        err = oracle.oracle_error(b, x, results[path], oracle.grid_size(b.n, path),
                                  ref, rng)
        loop.errors[path] = _worst(loop.errors[path], err)
        if not oracle.passes(err, oracle.ORACLE_TOL):
            reasons[path] = reasons[path] or f"oracle error {err:.3g}"
    if b.n % 2 == 0 and None not in results.values():
        err = oracle.half_full_error(x, results["full"], results["half"])
        loop.errors["half_vs_full"] = _worst(loop.errors["half_vs_full"], err)
        if not oracle.passes(err, oracle.HALF_FULL_TOL):
            reasons["half"] = reasons["half"] or f"half vs full {err:.3g}"
    for name, reason in reasons.items():
        loop.settle(f"N={b.n} {b.variant} {name}", reason)
    if record and None not in results.values():
        loop.signal_ns.append(loop.times["full"][-1] + loop.times["half"][-1])


def run_loop(prepared, seconds, rng, tracer, record=True, between=None,
             count=0) -> Loop:
    """Closed loop over whole rounds (one signal per basis each) for
    ``seconds`` of loop time; at least one round. Which path runs first
    alternates between signals. ``between`` runs ``count`` times, spread
    evenly over the loop with its clock paused: the host's speed changes
    every few seconds, and spreading the set-up passes lets them sample the
    same speeds as the calls."""
    loop = Loop()
    start, paused, done, rnd = time.perf_counter(), 0.0, 0, 0
    while True:
        for i, p in enumerate(prepared):
            _signal(p, rnd % POOL, (rnd + i) % 2 == 0, loop, rng, tracer,
                    f"s{rnd * len(prepared) + i}", record)
        rnd += 1
        elapsed = time.perf_counter() - start - paused
        if done < count and elapsed >= (done + 1) * seconds / (count + 1):
            t0 = time.perf_counter()
            between()
            paused += time.perf_counter() - t0
            done += 1
        if elapsed >= seconds:
            break
    for _ in range(count - done):
        between()
    return loop


# --- metrics ---------------------------------------------------------------


def tail(sorted_ms, cap=100.0):
    """Highest ladder percentile (at most ``cap``) with at least ten calls
    beyond it, nearest rank. With too few calls for any, the median.
    Returns (value, percentile, calls beyond)."""
    n = len(sorted_ms)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if pct <= cap and n - rank >= 10:
            return float(sorted_ms[rank - 1]), pct, n - rank
    return float(np.median(sorted_ms)), 50.0, n // 2


def timing_metrics(loop: Loop, cap=100.0):
    """Per-call medians and tails in ms, the tail percentile used with its
    call counts, and signals per second of time inside the calls. ``cap``
    caps the tail percentile."""
    metrics, info = {}, {}
    for path in PATHS:
        ms = np.sort(np.asarray(loop.times[path], dtype=float)) / 1e6
        if not len(ms):
            continue
        value, pct, beyond = tail(ms, cap)
        metrics[f"{path}_ms_p50"] = float(np.median(ms))
        metrics[f"{path}_ms_tail"] = value
        info[path] = {"calls": len(ms), "tail_percentile": pct,
                      "calls_beyond_tail": beyond}
    if loop.signal_ns:
        metrics["signals_per_s"] = len(loop.signal_ns) / (sum(loop.signal_ns) / 1e9)
    return metrics, info


def _median_pass_ms(spans, name):
    """Per pass (request id), the summed time of all ``name`` spans; median
    over passes, in ms."""
    totals = defaultdict(int)
    for s in spans:
        if s.name == name:
            totals[s.request] += s.ns
    return statistics.median(totals.values()) / 1e6 if totals else None


def layer_metrics(workload, spans, reports, loop, workdir):
    """Per-layer metrics from the spans, counts and checks of a traced run."""
    stages = defaultdict(dict)
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name.startswith("path."):
            stages[s.parent][s.name] = s.ns / 1e6
    per_call = defaultdict(list)
    for sid, d in stages.items():
        path = spans[sid].name[len("path."):]
        if len(d) < 4:  # the call raised or its stages did not run
            continue
        per_call["cob_fast"].append(d[COB_FAST])
        per_call["z_self"].append(d[Z] - d[COB_FAST])
        per_call["fft_" + path].append(d[FFT])
        per_call["glue_" + path].append(d[WHOLE[path]] - d[Z] - d[FFT])
    for name in ("multiangle.change_of_basis", "frft.frft_apply"):
        per_call[name] = [s.ns / 1e6 for s in spans if s.name == name]
    med = {k: statistics.median(v) if v else None for k, v in per_call.items()}

    def count(kind):
        return sum(loop.counts.get((n, v, kind), 0) for n, v in workload.bases)

    fft_full, fft_half = count("fft_full"), count("fft_half")
    return {
        "eigenbasis.build_ms": (_median_pass_ms(spans, "eigenbasis.build_eigenbasis"), "ms"),
        "eigenbasis.commuting_matrix_ms": (_median_pass_ms(spans, "eigenbasis.commuting_matrix"), "ms"),
        "eigenbasis.validate_ms": (_median_pass_ms(spans, "eigenbasis.validate_eigenbasis"), "ms"),
        "eigenbasis.save_ms": (_median_pass_ms(spans, "eigenbasis.save_basis"), "ms"),
        "eigenbasis.load_ms": (_median_pass_ms(spans, "eigenbasis.load_basis"), "ms"),
        "eigenbasis.cache_bytes": (sum(os.path.getsize(cache_file(workdir, n, v))
                                       for n, v in workload.bases), "bytes"),
        "eigenbasis.orth_residual": (max(r.orthonormality_residual for r in reports), "max_abs"),
        "eigenbasis.eigen_residual": (max(r.eigen_residual for r in reports), "max_abs"),
        "eigenbasis.symmetry_residual": (max(r.symmetry_residual for r in reports), "max_abs"),
        "multiangle.change_of_basis_fast_ms": (med.get("cob_fast"), "ms"),
        "multiangle.change_of_basis_ms": (med["multiangle.change_of_basis"], "ms"),
        "multiangle.z_self_ms": (med.get("z_self"), "ms"),
        "multiangle.full_glue_ms": (med.get("glue_full"), "ms"),
        "multiangle.half_glue_ms": (med.get("glue_half"), "ms"),
        "multiangle.cob_multiplies": (count("cob"), "count"),
        "multiangle.cob_fast_multiplies": (count("cob_fast"), "count"),
        "foundation.row_fft_full_ms": (med.get("fft_full"), "ms"),
        "foundation.row_fft_half_ms": (med.get("fft_half"), "ms"),
        "foundation.fft_calls_full": (fft_full, "count"),
        "foundation.fft_calls_half": (fft_half, "count"),
        "foundation.fft_calls_ratio": (fft_half / fft_full if fft_full else None, "ratio"),
        "foundation.dft_matrix_ms": (_median_pass_ms(spans, "foundation.dft_matrix"), "ms"),
        "frft.frft_apply_ms": (med["frft.frft_apply"], "ms"),
        "frft.oracle_err_full": (loop.errors["full"], "max_abs"),
        "frft.oracle_err_half": (loop.errors["half"], "max_abs"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload, seed) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": workload.blas_threads,
        "seed": seed,
        "sizes": [f"{n} {v}" for n, v in workload.bases],
    }


# --- one run ---------------------------------------------------------------


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    report: dict
    spans: list


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Result:
    tracer = Tracer() if trace else NullTracer()
    setup_s, reports = [], []

    def setup_pass():
        t0 = time.perf_counter()
        bases, pass_reports = setup(workload, workdir, tracer, f"setup-{len(setup_s)}")
        setup_s.append(time.perf_counter() - t0)
        reports.extend(pass_reports)
        return bases

    bases = setup_pass()  # the loop uses these; the other passes run inside it
    more = {"between": setup_pass, "count": workload.setup_reps - 1}
    if trace:
        layer_calls(workload, bases, workdir, tracer)
    prepared = [prepare(b, seed) for b in bases]
    rng = np.random.default_rng([seed, 1])  # oracle column samples

    checks = run_loop(prepared, 0, rng, NullTracer(), record=False)  # warm-up
    report = {"workload": workload.name, "environment": environment(workload, seed)}
    if not trace:
        loop = run_loop(prepared, seconds, rng, tracer, **more)
        checks.merge_checks(loop)
        timing, report["calls"] = timing_metrics(loop)
        units = {"full_ms_p50": "ms", "full_ms_tail": "ms", "half_ms_p50": "ms",
                 "half_ms_tail": "ms", "signals_per_s": "1/s"}
        metrics = {"setup_s": (statistics.median(setup_s), "s")}
        metrics.update({k: (v, units[k]) for k, v in timing.items()})
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        plain = run_loop(prepared, seconds / 2, rng, NullTracer(), **more)
        traced = run_loop(prepared, seconds / 2, rng, tracer)
        checks.merge_checks(plain)
        checks.merge_checks(traced)
        traced_t, report["calls"] = timing_metrics(traced)
        # the traced loop makes fewer calls: compare tails at its percentile
        cap = min((c["tail_percentile"] for c in report["calls"].values()), default=100.0)
        untraced_t, _ = timing_metrics(plain, cap)
        report["tracing_overhead"] = {
            k: {"untraced": untraced_t[k], "traced": traced_t[k],
                "ratio": traced_t[k] / untraced_t[k]}
            for k in untraced_t if k in traced_t}
        metrics = layer_metrics(workload, tracer.spans, reports, checks, workdir)
        report["counts_per_basis"] = {f"{n} {v} {kind}": c
                                      for (n, v, kind), c in checks.counts.items()}
        report["fft_calls_ratio_base"] = "foundation.fft_calls_full"
    report["setup_s_passes"] = setup_s
    report["oracle_errors"] = checks.errors
    report["failed_frac"] = checks.failed / checks.attempted
    report["failures"] = checks.failures
    return Result(checks.attempted, checks.failed, metrics, report, tracer.spans)
