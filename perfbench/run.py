"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Untraced (``--trace 0``) it prints the end-to-end metrics; traced
(``--trace 1``) it wraps the library's public functions and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  Raw seconds, every job's time
and the spans of a traced run go to ``perfbench/out/``.
"""

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import NOMINAL_REF_S, reference, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7      # fresh interpreters per run; setup_s is their median
MIN_JOBS = 100        # so that ten jobs lie beyond the 90th percentile
PROBE_TIMEOUT_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload, seed):
    """SETUP_PROBES fresh interpreters, each timing its own set-up."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout)
        probe["scaled_s"] = scale(probe["raw_s"], probe["ref_before"],
                                  probe["ref_after"])
        probes.append(probe)
    return probes


def run_jobs(jobs, seconds, tracer):
    """Whole rounds of the job list until both ``seconds`` have passed and
    MIN_JOBS jobs were attempted.  Every job is bracketed by reference
    timings; its output is checked afterwards, untimed, once per distinct
    output."""
    records, failed, wrong = [], [], []
    seen = [set() for _ in jobs]
    attempted = rounds = 0
    start = time.perf_counter()
    while True:
        for idx, job in enumerate(jobs):
            attempted += 1
            before = reference()
            if tracer:
                tracer.start_job(attempted)
            t0 = time.perf_counter()
            try:
                out, err = job.run(), None
            except Exception:  # a refusal or crash of the code under test
                out, err = None, traceback.format_exc()
            raw = time.perf_counter() - t0
            if tracer:
                tracer.stop_job()
            after = reference()
            factor = scale(1.0, before, after)
            if tracer:
                tracer.finish_job(factor if err is None else 0.0)
            if err is not None:
                failed.append({"job": job.label, "error": err})
                continue
            records.append({"job": idx, "kind": job.kind, "raw_s": raw,
                            "scaled_s": raw * factor,
                            "ref_s": [before, after]})
            try:
                fp = job.fingerprint(out)
                witness = None if fp in seen[idx] else job.check(out)
            except Exception:  # an output the checks cannot read is wrong
                fp, witness = None, traceback.format_exc()
            if witness is None:
                seen[idx].add(fp)
            else:
                wrong.append({"job": job.label, "witness": witness})
        rounds += 1
        if time.perf_counter() - start >= seconds and attempted >= MIN_JOBS:
            return records, failed, wrong, attempted, rounds


def end_to_end(records, setup):
    times = [r["scaled_s"] for r in records]
    raw = [r["raw_s"] for r in records]

    def summary(xs):
        return {"jobs_per_s": len(xs) / sum(xs),
                "job_ms.p50": statistics.median(xs) * 1e3,
                "job_ms.p90": statistics.quantiles(xs, n=10)[-1] * 1e3}

    scaled, unscaled = summary(times), summary(raw)
    scaled["setup_s"] = statistics.median(p["scaled_s"] for p in setup)
    unscaled["setup_s"] = statistics.median(p["raw_s"] for p in setup)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled["peak_rss_mb"] = unscaled["peak_rss_mb"] = peak
    units = {"setup_s": "s", "jobs_per_s": "1/s", "job_ms.p50": "ms",
             "job_ms.p90": "ms", "peak_rss_mb": "MB"}
    metrics = {k: {"value": scaled[k], "unit": u} for k, u in units.items()}
    return metrics, unscaled


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wordlogic" / "__init__.py").is_file():
        fail(f"no wordlogic package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import wordlogic

    from tracer import Tracer
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    setup = None if args.trace else measure_setup(args.workload, args.seed)
    jobs = WORKLOADS[args.workload](wordlogic, random.Random(args.seed))
    warmed = set()
    for job in jobs:  # lazy set-up inside the library, once per job kind
        if job.kind not in warmed:
            warmed.add(job.kind)
            try:
                job.run()
            except Exception:  # counted when the timed loop meets it again
                pass

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(wordlogic)
    records, failed, wrong, attempted, rounds = run_jobs(jobs, args.seconds,
                                                         tracer)
    if not records:
        fail("every job failed; first error:\n" + failed[0]["error"])

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
              "round_size": len(jobs), "nominal_ref_s": NOMINAL_REF_S,
              "attempted": attempted, "failed": failed, "wrong": wrong}
    if args.trace:
        sum_scaled = sum(r["scaled_s"] for r in records)
        sum_raw = sum(r["raw_s"] for r in records)
        metrics = tracer.layer_metrics(rounds)
        metrics["trace.jobs_per_s"] = {"value": len(records) / sum_scaled,
                                       "unit": "1/s"}
        coverage = tracer.top_s / sum_raw
        metrics["trace.top_span_coverage"] = {"value": coverage,
                                              "unit": "ratio"}
        if not 0.9 <= coverage <= 1.1:
            wrong.append({"job": "trace", "witness":
                          f"top-level spans cover {coverage:.3f} of job time"})
        detail["missing_functions"] = tracer.missing
    else:
        metrics, raw_metrics = end_to_end(records, setup)
        detail["raw"] = raw_metrics
        detail["setup"] = setup
    detail["metrics"] = metrics
    detail["jobs"] = records

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        t0 = min((s["start"] for s in tracer.spans), default=0)
        spans = [{**s, "start": s["start"] - t0} for s in tracer.spans]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    for w in wrong:
        print(f"WRONG {w['job']}: {w['witness']}", file=sys.stderr)
    for f in failed[:5]:
        print(f"FAILED {f['job']}: {f['error'].splitlines()[-1]}",
              file=sys.stderr)
    if not args.trace:
        for name, m in metrics.items():
            print(f"  {name:14s} {m['value']:12.4f} {m['unit']:4s} "
                  f"(raw {detail['raw'][name]:.4f})", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {len(failed)}, "
          f"wrong {len(wrong)}, rounds {rounds}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
