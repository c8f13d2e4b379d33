"""Benchmark entry point.

    python3 casebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Prints one line per metric, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  Exits 1 when an output check failed, 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One compute thread: numpy's BLAS pools would add threads of their own.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("truecaser-pretrain", "tagger-fixed", "tagger-finetuned")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "casetag", "cli.py")):
        print(f"casebench: no casetag sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]
    from casebench.measure import measure

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
