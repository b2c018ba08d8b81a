"""The demo scripts run end to end on small arguments."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("fragment_scan.py", ["--quantifiers", "E,mod[2,0]", "--depth", "1",
                          "--maxlen", "4"]),
    ("recognizer_walkthrough.py", ["--maxlen", "4"]),
    ("substitution_demo.py", ["--maxlen", "4"]),
])
def test_script_runs_cleanly(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _canned(jobs_per_s, p50):
    """The output of one benchmark run: a summary line, then the result."""
    result = {"correct": True, "attempted": 300, "failed": 0, "metrics": {
        "jobs_per_s": {"value": jobs_per_s, "unit": "1/s"},
        "job_ms.p50": {"value": p50, "unit": "ms"}}}
    return "compile: attempted 300, failed 0, wrong 0, rounds 3\n" + json.dumps(result)


def test_bench_record_aggregates_pairs_of_runs():
    bench = _bench_record()
    runs = [((100.0, 2.0), (130.0, 1.5)), ((110.0, 1.8), (120.0, 1.9)),
            ((90.0, 2.2), (140.0, 1.4)), ((105.0, 2.0), (100.0, 2.1))]
    pairs = [{side: bench.values(bench.result_of(_canned(*run)))
              for side, run in zip(("parent", "change"), pair)} for pair in runs]
    assert pairs[0]["change"] == {"correct": True, "attempted": 300, "failed": 0,
                                  "metrics": {"jobs_per_s": 130.0, "job_ms.p50": 1.5}}
    got = bench.aggregate(pairs, {"jobs_per_s": "higher", "job_ms.p50": "lower"})
    jobs, p50 = got["jobs_per_s"], got["job_ms.p50"]
    assert jobs["parent"] == {"median": 102.5, "q1": 92.5, "q3": 108.75}
    assert jobs["change"]["median"] == 125.0
    assert jobs["ratio"] == 125.0 / 102.5
    assert (jobs["wins"], jobs["pairs"], p50["wins"]) == (3, 4, 2)
    assert p50["change"]["median"] == 1.7 and p50["better"] == "lower"
    # without a parent only the change is summarized; one run has no spread
    alone = bench.aggregate([{"change": pairs[0]["change"]}], {"jobs_per_s": "higher"})
    assert alone == {"jobs_per_s": {"better": "higher", "change": {
        "median": 130.0, "q1": 130.0, "q3": 130.0}}}
