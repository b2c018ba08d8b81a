"""Steadiness: run the benchmark repeatedly on the same code and print, for
each metric, the median, the quartiles and the spread against its bound.

    python3 perfbench/steady.py --workload compile --seeds 1-10
    python3 perfbench/steady.py --workload all --seeds 1-10 --seconds 25

Each run gets its own seed.  The spread is (Q3 - Q1) / median with
Python's ``statistics.quantiles(values, n=4)``; the bound is the metric's
entry in BENCHMARK.json.  Raw (unscaled) seconds are shown beside the
scaled ones.  With ``--trace 1`` the per-layer metrics are summarised, and
the tracing overhead is the ratio of untraced to traced ``jobs_per_s``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 600


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({' '.join(cmd)}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((HERE / "out" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all'")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = [w["name"] for w in SPEC["workloads"]] \
        if args.workload == "all" else [args.workload]
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    verdict = True
    for workload in names:
        runs = []
        for seed in seeds_of(args.seeds):
            result, detail = one_run(workload, seed, args.seconds, args.trace)
            runs.append((result, detail))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"rounds={detail['rounds']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r, _ in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{sorted(shares)}, all correct: "
              f"{all(r['correct'] for r, _ in runs)}")
        print(f"{'metric':42s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'spread':>7s} {'bound':>6s}   raw median, raw spread")
        for name in runs[0][0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r, _ in runs]
            if min(vals) <= 0:
                print(f"{name:42s} {statistics.median(vals):11.4f} (some 0)")
                continue
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name) if not args.trace else None
            mark = ""
            if bound is not None:
                ok = sp <= bound / 3 or name == "setup_s"
                verdict &= sp <= bound or name == "setup_s"
                mark = "" if ok else "  <-- above a third of the bound"
            raw = ""
            if not args.trace and name in runs[0][1]["raw"]:
                rvals = [d["raw"][name] for _, d in runs]
                rmed, _, _, rsp = spread(rvals)
                raw = f"   {rmed:.4f}, {rsp:.3f}"
            print(f"{name:42s} {med:11.4f} {q1:11.4f} {q3:11.4f} {sp:7.3f} "
                  f"{bound if bound is not None else '':>6}{raw}{mark}")
        print()
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
