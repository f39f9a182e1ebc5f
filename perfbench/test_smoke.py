"""Smoke test of the benchmark at tiny sizes; runs in a few seconds.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))
import harness  # noqa: E402  (needs src/ on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Same workloads at sizes that build in milliseconds. stream_large stays
# above the dense-oracle limit so the sampled-column gate runs; odd sizes
# keep the padded half path, on both gates.
TINY = {
    "stream_small": dataclasses.replace(
        WORKLOADS["stream_small"], bases=((16, "standard"), (9, "centered"), (10, "centered")),
        setup_reps=2),
    "stream_large": dataclasses.replace(
        WORKLOADS["stream_large"], bases=((160, "standard"), (131, "centered")),
        setup_reps=2),
}


def run_tiny(capsys, workload, trace=0):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                   "--trace", str(trace)], workloads=TINY)
    lines = capsys.readouterr().out.strip().splitlines()
    report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
    return rc, json.loads(lines[-1]), report


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_reported_with_unit(capsys, workload, trace):
    rc, result, report = run_tiny(capsys, workload, trace)
    assert rc == 0, report["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    assert report["failed_frac"] == 0.0
    assert report["environment"]["seed"] == 3
    if trace:
        assert set(report["tracing_overhead"]) >= {"full_ms_p50", "half_ms_p50"}
        assert (run.ROOT / report["trace_file"]).is_file()


def test_corrupted_output_counted_in_failed_frac(capsys, monkeypatch):
    real, calls = harness.ma_frft_full, []

    def corrupt_second_call(basis, x):
        result = real(basis, x)
        calls.append(1)
        if len(calls) == 2:
            X = result.X.copy()
            X[0, 1] += 1e-6
            result = dataclasses.replace(result, X=X)
        return result

    monkeypatch.setattr(harness, "ma_frft_full", corrupt_second_call)
    rc, result, report = run_tiny(capsys, "stream_small")
    assert rc == 1
    assert not result["correct"] and result["failed"] == 1
    assert report["failed_frac"] == 1 / result["attempted"]
    assert "oracle error" in report["failures"][0]


def test_without_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
