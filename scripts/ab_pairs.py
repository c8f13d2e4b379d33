#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts.

    python3 scripts/ab_pairs.py --parent DIR --change DIR --workload W --pairs N \\
        [--seed 1] [--trace 0] [--json FILE]

Runs ``casebench/run.py`` from the root of each checkout N times, for
BENCHMARK.json's ``run_seconds``, swapping which side runs first in each
pair.  Prints each run's exit code, correctness, failed operations and
metric values, then one line per metric: the parent's and the change's
medians, the parent's quartiles, and in how many pairs the change was
better.  The metrics are BENCHMARK.json's
end-to-end ones, or its per-layer ones with ``--trace 1``; BENCHMARK.json is
read from the change.  With --json, also records every run in FILE, a JSON
list of one record per workload, under the record's
``paired_runs["seed<S>"]`` (``"seed<S>_trace1"`` with --trace 1): exit
codes, correctness, failed operations and each metric's runs, median and
quartiles, parent as ``before`` and change as ``after``.  Exits 1 if any run
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[int, dict | None]:
    """The exit code and the result line of one benchmark run; None when the
    run printed no result line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "casebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(specs: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """One row per metric spec ({"name", "better"}) that every run reports:
    the two medians, the parent's quartiles, and the pairs the change won.
    parent[i] and change[i] are the metric values of pair i."""
    rows = []
    for spec in specs:
        name = spec["name"]
        if not parent or any(name not in run for run in parent + change):
            continue
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if spec["better"] == "higher" else -1
        q1, q3 = quartiles(p)
        rows.append({
            "name": name,
            "parent_median": statistics.median(p),
            "change_median": statistics.median(c),
            "parent_q1": q1,
            "parent_q3": q3,
            "wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "pairs": len(p),
        })
    return rows


def paired_entry(specs: list[dict], runs: dict[str, list[dict]]) -> dict:
    """The JSON record of one set of pairs.  runs maps "parent" and "change"
    to one dict per run, in pair order: its exit code under "exit", and its
    result line's "correct", "failed" and "metrics" when it printed one."""
    sides = (("before", "parent"), ("after", "change"))
    values = {side: [{name: m["value"] for name, m in run.get("metrics", {}).items()}
                     for run in runs[side]] for _, side in sides}
    entry = {"pairs": len(runs["parent"]),
             "order": "alternating which side runs first; runs listed in pair order"}
    for field, key in (("exit", "exits"), ("correct", "correct"), ("failed", "failed")):
        entry[key] = {name: [run.get(field) for run in runs[side]] for name, side in sides}
    entry["metrics"] = {}
    for row in summarize(specs, values["parent"], values["change"]):
        name = row["name"]
        metric = {"unit": runs["parent"][0]["metrics"][name]["unit"]}
        for key, side in sides:
            series = [run[name] for run in values[side]]
            q1, q3 = quartiles(series)
            metric[key] = {"median": statistics.median(series), "q1": q1, "q3": q3,
                           "runs": series}
        metric["change_better_pairs"] = row["wins"]
        metric["tied_pairs"] = sum(a == b for a, b in zip(metric["before"]["runs"],
                                                          metric["after"]["runs"]))
        entry["metrics"][name] = metric
    return entry


def record(path: str, workload: str, key: str, command: str, entry: dict) -> None:
    """Store entry in path's record of workload, under paired_runs[key]."""
    records = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            records = json.load(f)
    rec = next((r for r in records if r["workload"] == workload), None)
    if rec is None:
        rec = {"workload": workload, "command": command,
               "machine": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                          f"Python {platform.python_version()}",
               "paired_runs": {}}
        records.append(rec)
    rec["paired_runs"][key] = entry
    with open(path, "w", encoding="utf-8") as f:
        json.dump(records, f, indent=1)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also record the runs in this JSON file")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    runs = {"parent": [], "change": []}
    failed = False
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            code, result = run_once(sides[side], args.workload, args.seed,
                                    bench["run_seconds"], args.trace)
            result = result or {}
            runs[side].append({"exit": code, **result})
            print(f"pair {i + 1} {side}: exit {code}, correct {result.get('correct')}, "
                  f"failed operations {result.get('failed')}", flush=True)
            failed |= code != 0 or not result.get("correct") or result.get("failed") != 0
            values = {name: m["value"] for name, m in result.get("metrics", {}).items()}
            print("   ", " ".join(f"{spec['name']}={values[spec['name']]:.6g}"
                                  for spec in specs if spec["name"] in values))
            results[side].append(values)
    print(f"{'metric':24s} {'parent':>12s} {'change':>12s} {'parent q1-q3':>25s}  wins")
    for row in summarize(specs, results["parent"], results["change"]):
        spread = f"{row['parent_q1']:.6g}-{row['parent_q3']:.6g}"
        print(f"{row['name']:24s} {row['parent_median']:12.6g} {row['change_median']:12.6g} "
              f"{spread:>25s}  {row['wins']}/{row['pairs']}")
    if args.json:
        command = (f"python3 casebench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {bench['run_seconds']} --trace {args.trace}")
        record(args.json, args.workload, f"seed{args.seed}" + ("_trace1" if args.trace else ""),
               command, paired_entry(specs, runs))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
