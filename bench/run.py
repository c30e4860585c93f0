"""stabwalk benchmark: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload point_queries --seed 1 --seconds 30 --trace 0

Set-up (import, fixtures, inputs) is timed SETUP_REPEATS times through
the run.  Whole rounds of the workload's ops run back to back until
--seconds have passed; every output is checked against the oracles after
its round.  --trace 0 prints the end-to-end
metrics; --trace 1 alternates untraced and traced rounds and prints the
per-layer metrics of the traced ones with the tracing overhead.  The
last line of stdout is one JSON object; result and trace files are
written under bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def run_round(ops):
    """Run every op once; returns (outputs, per-op seconds, round seconds)."""
    clock = time.perf_counter
    outs, times = [], []
    t_round = clock()
    for op in ops:
        t0 = clock()
        try:
            out = op.run()
        except Exception as exc:  # a fault escaping the program is an output to check
            out = exc
        times.append(clock() - t0)
        outs.append(out)
    return outs, times, clock() - t_round


class Verdicts:
    """Tallies checks: failed ops, and whether every other op was correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = {}

    def record(self, ops, outs):
        for op, out in zip(ops, outs):
            self.attempted += 1
            if isinstance(out, Exception):
                bad = f"{type(out).__name__}: {out}"
            else:
                try:
                    bad = op.check(out)
                except Exception as exc:  # a malformed output fails its check
                    bad = f"check raised {type(exc).__name__}: {exc}"
            if bad is None:
                continue
            self.failed += 1
            if op.fault is None:
                self.correct = False
            self.messages.setdefault(op.name, (op.fault or "UNEXPECTED", bad))


def timed_setup(workload, seed: int, workdir: Path):
    gc.collect()
    t0 = time.perf_counter()
    ops = workload(seed, workdir)
    return ops, time.perf_counter() - t0


def run_plain(workload, seed: int, workdir: Path, seconds: float, verdicts: Verdicts) -> dict:
    """Set-ups, one warm-up round, then whole rounds until `seconds` have passed.

    Every round repeats the same ops on the same inputs, and the host's
    CPU speed drifts: a fixed loop runs at a steady floor speed in busy
    phases and up to 1.8 times faster, erratically, in the others, each
    phase lasting 10 to 60 seconds.  Each op is therefore timed by its
    slowest round, which lands on the steady floor in nearly every run;
    p50 and p90 are taken over the ops, and ops_per_s is the rate of a
    round made of those times.  The warm-up round is checked but not
    timed, so first-call costs stay out.  The set-up is timed the same
    way: SETUP_REPEATS set-ups are spread evenly through the run (their
    time is added to it) and setup_s is the slowest; the first one's ops
    are the ones run, the others are dropped.
    """
    ops, first = timed_setup(workload, seed, workdir)
    setup_times = [first]
    verdicts.record(ops, run_round(ops)[0])
    worst = [0.0] * len(ops)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        outs, op_times, _ = run_round(ops)
        worst = [max(w, t) for w, t in zip(worst, op_times)]
        verdicts.record(ops, outs)
        done = time.perf_counter() >= deadline
        while len(setup_times) < SETUP_REPEATS and (
                done or time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(timed_setup(workload, seed, workdir)[1])
            deadline += setup_times[-1]
        if done:
            break
    return {
        "setup_s": (max(setup_times), "s"),
        "ops_per_s": (len(ops) / sum(worst), "1/s"),
        "op_p50_ms": (statistics.median(worst) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(worst, n=10, method="inclusive")[8] * 1e3, "ms"),
    }


def run_traced(ops, seconds: float, verdicts: Verdicts, trace_file: Path) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics of the traced ones."""
    from spans import Tracer

    verdicts.record(ops, run_round(ops)[0])
    plain_walls, traced_walls, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        outs, _, wall = run_round(ops)
        plain_walls.append(wall)
        verdicts.record(ops, outs)
        tracer = Tracer()
        tracer.install()
        try:
            outs, _, wall = run_round(ops)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        verdicts.record(ops, outs)
        rounds.append(tracer)
        if time.perf_counter() >= deadline:
            break
    per_round = [t.metrics() for t in rounds]
    metrics = {}
    for name, (_, unit) in per_round[0].items():
        metrics[name] = (statistics.median_low(m[name][0] for m in per_round), unit)
    # each traced round follows its untraced twin, so the host's drift cancels in the pair
    metrics["trace.overhead"] = (statistics.median(t / p for t, p in zip(traced_walls, plain_walls)),
                                 "ratio")
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps({"rounds": len(rounds), "spans": rounds[0].spans_table()},
                                     indent=1, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stabwalk" / "__init__.py").is_file():
        print(f"no stabwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload]
        verdicts = Verdicts()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            ops, _ = timed_setup(workload, args.seed, workdir)
            metrics = run_traced(ops, args.seconds, verdicts, HERE / "out" / f"{stem}-spans.json")
        else:
            metrics = run_plain(workload, args.seed, workdir, args.seconds, verdicts)
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (fault, msg) in sorted(verdicts.messages.items()):
        print(f"{'known fault' if fault != 'UNEXPECTED' else 'WRONG'}: {name}: {msg}", file=sys.stderr)
    result = {"correct": verdicts.correct, "attempted": verdicts.attempted,
              "failed": verdicts.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
