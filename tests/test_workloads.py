"""The benchmark's workloads still run against the library.

``perfbench/workloads.py`` is loaded read-only: no bytecode is written and
nothing under ``perfbench/`` changes.  A few jobs of every workload run
through ``run()``, ``fingerprint()`` and ``check()`` as the benchmark runs
them, so a public-API change that breaks the benchmark's calls fails here.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import wordlogic

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("compile", "semantics", "recognizers")


def snapshot():
    """Every path under perfbench/ with its size and modification time,
    leaving out ``out/``, where benchmark runs write their results."""
    return sorted((str(p.relative_to(BENCH)), p.stat().st_size,
                   p.stat().st_mtime_ns) for p in BENCH.rglob("*")
                  if p.relative_to(BENCH).parts[0] != "out")


@pytest.fixture(scope="module")
def bench():
    before = snapshot()
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
        sys.modules.pop("evaluator", None)  # the benchmark's helper module
    return module, before


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_first_jobs_of_every_workload_run_and_check(bench, workload):
    module, before = bench
    jobs = module.WORKLOADS[workload](wordlogic, random.Random(7))
    first = {}
    for i, job in enumerate(jobs):
        first.setdefault(job.kind, i)
    more = [i for i in range(len(jobs)) if i not in first.values()][:4]
    for i in sorted(first.values()) + more:
        out = jobs[i].run()
        hash(jobs[i].fingerprint(out))
        assert jobs[i].check(out) is None, jobs[i].label
    assert snapshot() == before
