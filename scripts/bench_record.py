#!/usr/bin/env python3
"""Record benchmark runs in a BENCH_<n>.json file at the repository root.

    python3 scripts/bench_record.py --number 16 --workloads compile \\
        --seeds 7,11 --parent ../parent-checkout

Runs ``perfbench/run.py`` of this checkout, and with ``--parent DIR`` of
that checkout too, as subprocesses.  A pair is one run of each, back to
back, ``PAIRS`` times; the order inside a pair alternates, so that drift
of the machine falls on both sides alike.  A run lasts ``--seconds``, by
default the ``run_seconds`` of ``BENCHMARK.json``.  Per workload and seed
the file keeps every pair's end-to-end metrics, their medians and
quartiles (``statistics.quantiles(n=4)``, as ``perfbench/steady.py``
computes them), how many pairs the change wins in each metric's better
direction, and the per-layer metrics of one traced run (``--trace 1``,
``TRACE_SECONDS`` long) per checkout.  A run that fails or outlasts
``RUN_TIMEOUT_S`` stops the recording.  Metric names and directions are
read from this checkout's ``BENCHMARK.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10           # the fewest pairs that can show a 9-of-10 win
TRACE_SECONDS = 10
RUN_TIMEOUT_S = 600  # as perfbench/steady.py


def result_of(stdout: str) -> dict:
    """The result object of one ``perfbench/run.py`` run: its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    return json.loads(lines[-1])


def run_once(checkout, workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} ran over "
                           f"{RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return result_of(proc.stdout)


def values(result) -> dict:
    """A run's metric values by name, with its correctness counts."""
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def summary(xs) -> dict:
    """Median and quartiles; with fewer than two values both quartiles are
    the median."""
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def aggregate(pairs, metrics) -> dict:
    """Per metric ({name: "higher" | "lower"}), the summary of each side over
    ``pairs`` (dicts with "change" and, optionally, "parent" run values),
    the ratio of the medians (change / parent), and the pairs in which the
    change is strictly better."""
    out = {}
    for name, better in metrics.items():
        entry = {"better": better}
        change = [p["change"]["metrics"][name] for p in pairs]
        entry["change"] = summary(change)
        if all(p.get("parent") for p in pairs):
            parent = [p["parent"]["metrics"][name] for p in pairs]
            entry["parent"] = summary(parent)
            base = entry["parent"]["median"]
            entry["ratio"] = entry["change"]["median"] / base if base else None
            entry["wins"] = sum((c > b) if better == "higher" else (c < b)
                                for c, b in zip(change, parent))
            entry["pairs"] = len(pairs)
        out[name] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--number", type=int, required=True,
                    help="n of the BENCH_<n>.json file to write")
    ap.add_argument("--workloads", default="compile,semantics,recognizers")
    ap.add_argument("--seeds", default="7")
    ap.add_argument("--seconds", type=float,
                    help="length of each paired run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--parent", metavar="DIR",
                    help="a checkout of the parent commit to run against")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    sides = {"change": ROOT}
    if args.parent:
        sides["parent"] = Path(args.parent).resolve()
    record = {"command": bench["command"], "seconds": seconds,
              "pairs": PAIRS, "trace_seconds": TRACE_SECONDS,
              "python": platform.python_version(),
              "machine": {"platform": platform.platform(),
                          "cpus": os.cpu_count()},
              "workloads": {}}
    for workload in args.workloads.split(","):
        by_seed = record["workloads"][workload] = {}
        for seed in args.seeds.split(","):
            pairs = []
            for i in range(PAIRS):
                order = list(sides) if i % 2 == 0 else list(sides)[::-1]
                pair = {side: values(run_once(sides[side], workload, seed,
                                              seconds, 0)) for side in order}
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i + 1}: " + ", ".join(
                    f"{side} {pair[side]['metrics']['jobs_per_s']:.1f} jobs/s"
                    for side in sides), file=sys.stderr)
            traced = {side: values(run_once(path, workload, seed,
                                            TRACE_SECONDS, 1))
                      for side, path in sides.items()}
            by_seed[seed] = {"summary": aggregate(pairs, metrics),
                             "runs": pairs, "traced": traced}
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
