"""One benchmark run: set up, then whole speed rounds until the time is up,
then one quality probe; then the metrics.

Speed rounds are short, so that a run holds several; throughputs are the
median over them, in reference seconds (see ``calibrate``).  The probe is
one longer round on inputs that do not vary with the seed, so its scores
repeat exactly from run to run and any change in the arithmetic shows in
them.

End-to-end metrics come from untraced runs.  A traced run alternates
untraced and traced speed rounds, takes the per-layer metrics from the
traced ones and reports how much longer they took as the tracing overhead.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import zlib

import numpy as np

from casebench import calibrate
from casebench.trace import Tracer
from casebench.workloads import Round, Session, workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".casebench")
SETUPS = 3  # set-ups per untraced run; setup_s is their median


def median_rate(records: list[Round], stage: str) -> float:
    return statistics.median(r.work[stage] / r.seconds[stage]
                             for r in records if stage in r.seconds)


def run_round(wl, s: Session, kind: str) -> Round:
    try:
        return wl.round(s, kind)
    except Exception:  # an operation that raises fails; the run reports it
        return Round(ops={"round": 1}, failed=1, problems=[traceback.format_exc()])


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    wl = workload(name, tiny)
    rng_seed = [seed, zlib.crc32(wl.data_key.encode())]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    tracer = Tracer()
    s = Session(workdir, tracer, calibrate.Clock())
    setups: list[Round] = []
    setup_times: list[float] = []
    rounds: list[Round] = []
    probe = None
    try:
        for _ in range(1 if trace else SETUPS):
            records, seconds_taken = s.clock.measure(
                lambda: wl.setup(s, np.random.default_rng(rng_seed)))
            setups += records
            setup_times.append(seconds_taken)
        if trace:
            tracer.install()
        try:
            start = time.perf_counter()
            while True:
                tracer.active = trace and len(rounds) % 2 == 1
                tracer.round_index = len(rounds)
                with tracer.span("round"):
                    rounds.append(run_round(wl, s, "speed"))
                tracer.active = False
                if "round" in rounds[-1].ops:
                    break
                if time.perf_counter() - start >= seconds and len(rounds) >= (2 if trace else 1):
                    break
        finally:
            tracer.remove()
        if not trace:
            probe = run_round(wl, s, "probe")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for r in rounds[1:]:
        if r.digests != rounds[0].digests and "round" not in r.ops:
            r.fail_all(wl.train_stage, ["model file differs from the first round's"])
    records = setups + rounds + ([probe] if probe else [])
    problems = [p for r in records for p in r.problems]
    for p in problems[:20]:
        print(f"casebench: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(sum(r.ops.values()) for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": {},
    }
    if problems:
        return result
    if trace:
        busy = [sum(r.seconds.values()) for r in rounds]
        traced, untraced = busy[1::2], busy[0::2]
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0), "%")
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.jsonl"))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "prep_lines_per_s": (median_rate(setups + rounds, "prep"), "lines/s"),
            "train_chars_per_s": (median_rate(rounds, wl.train_stage), "chars/s"),
            "infer_chars_per_s": (median_rate(rounds, wl.infer_stage), "chars/s"),
            "tc_char_f1": (probe.f1["tc_char_f1"], "%"),
            "task_f1": (probe.f1["task_f1"], "%"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result
