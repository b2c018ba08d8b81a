"""What a fresh interpreter pays before the first job: import ``wordlogic``
and build one workload's inputs.  The probe times this itself, bracketed by
reference timings taken in the same process (a parent's timings can come
from another processor than the one the probe runs on), and prints
{"raw_s", "ref_before", "ref_after"} as JSON.

    python3 perfbench/setup_probe.py --workload compile --seed 1
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

from refclock import reference

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    reference()  # the loop's own first run warms it up
    before = reference()
    t0 = time.perf_counter()
    sys.path[:0] = [str(HERE.parent / "src")]
    import wordlogic

    from workloads import WORKLOADS
    WORKLOADS[args.workload](wordlogic, random.Random(args.seed))
    raw = time.perf_counter() - t0
    after = reference()
    print(json.dumps({"raw_s": raw, "ref_before": before, "ref_after": after}))


if __name__ == "__main__":
    main()
