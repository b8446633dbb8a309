#!/usr/bin/env python3
"""Benchmark of the crnregions user paths: analyze, witness, probe, corpus.

    python3 bench/run.py --workload analyze --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

One workload runs single-threaded in this process, against the source tree
beside this directory, as a closed loop: each operation starts when the
previous one has ended.  After set-up and an untimed warm-up it runs whole
rounds of operations for about --seconds of timed operations, checking
every output outside the timed part.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
metrics are the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1.  --workload all runs every workload in its own process and
prints one table.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks  # the benchmark's own modules: this script's directory is on sys.path
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS have
# passed (at most SETUP_MAX times), and its median is reported
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 25, 2.0
WARMUP_PASS = -1

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}


def set_up(cls, seed: int):
    """Build the workload several times, each from a cold import; the
    median build time is setup_s."""
    times: list[float] = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        workloads.Program.forget()
        start = perf_counter()
        wl = cls(workloads.Program(ROOT), ROOT, seed)
        times.append(perf_counter() - start)
        gc.collect()  # free the previous build's modules before the next
    return wl, statistics.median(times)


class Tally:
    """Outcome of every checked operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.status: Counter = Counter()
        self.reasons: Counter = Counter()
        self.states = 0

    def add(self, wl, op, out, error) -> None:
        self.attempted += 1
        if error is not None:
            verdict = checks.fault(f"{type(error).__name__}: {error}")
        else:
            verdict = wl.check(op, out)
            self.states += wl.states_listed(out)
        self.status[verdict.status] += 1
        if verdict.status != "ok":
            self.reasons[(verdict.status, op.net, verdict.reason)] += 1

    @property
    def failed(self) -> int:
        return self.status["fault"]

    @property
    def correct(self) -> bool:
        return self.status["wrong"] == 0

    def report(self) -> None:
        for (status, net, reason), n in sorted(self.reasons.items()):
            print(f"  {n} x {status} {net}: {reason}", file=sys.stderr)


def run_one(wl, op, runner=None):
    try:
        return (runner or wl.run)(op), None
    except Exception as exc:  # a crash of the program is a failed operation
        return None, exc


def warm_up(wl) -> None:
    for op in wl.round(WARMUP_PASS)[: wl.warmup]:
        out, error = run_one(wl, op)
        if error is None:
            wl.check(op, out)


def measure(wl, seconds: float):
    """Whole rounds, the first always, then each one that the mean round so
    far predicts will end within `seconds` of timed operations."""
    tally = Tally()
    latencies: list[float] = []
    p = 0
    while p == 0 or sum(latencies) * (p + 1) / p <= seconds:
        for op in wl.round(p):
            start = perf_counter()
            out, error = run_one(wl, op)
            latencies.append(perf_counter() - start)
            tally.add(wl, op, out, error)
        p += 1
    return tally, latencies, p


def end_to_end(latencies: list[float], setup_s: float) -> dict[str, float]:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(wl, seed: int):
    """A fixed number of rounds, so that the counts repeat exactly.  Each
    operation runs twice, untraced and traced, in alternating order, so the
    difference in time is the tracing overhead."""
    tracer = Tracer()
    tally = Tally()
    plain = []
    index = 0
    for p in range(wl.trace_rounds):
        for op in wl.round(p):
            for traced_turn in ((False, True) if index % 2 else (True, False)):
                if traced_turn:
                    tracer.install()
                    try:
                        out, error = run_one(wl, op, lambda o: tracer.run_op(index, wl.run, o))
                    finally:
                        tracer.uninstall()
                    tally.add(wl, op, out, error)
                else:
                    start = perf_counter()
                    run_one(wl, op)
                    plain.append(perf_counter() - start)
            index += 1
    tracer.write(OUT / f"trace-{wl.name}-seed{seed}.tsv")
    return tally, per_layer(tracer, tally, plain)


def per_layer(tracer, tally: Tally, plain: list[float]) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from the spans of a traced run."""
    self_ns, calls = tracer.layer_totals()
    counts = tracer.counts
    n = calls["op"]

    def ms(layer):
        return (self_ns.get(layer, 0) / n / 1e6, "ms")

    def per_op(value):
        return (value / n, "count")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    op_ms = (self_ns["op"] + sum(v for k, v in self_ns.items() if k != "op")) / n / 1e6
    return {
        "cli.self_ms": ms("op"),
        "network.parse_ms": ms("network.parse"),
        "classify.classify_ms": ms("classify.classify"),
        "regions.build_ms": ms("regions.build"),
        "regions.verdict_ms": ms("regions.verdict"),
        "regions.json_ms": ms("regions.json"),
        "regions.membership_calls": per_op(calls["regions.membership"]),
        "regions.membership_ms": ms("regions.membership"),
        "regions.membership_float_calls": per_op(calls["regions.membership_float"]),
        "regions.membership_float_ms": ms("regions.membership_float"),
        "regions.holds_float_calls": per_op(calls["regions.holds_float"]),
        "regions.holds_float_ms": ms("regions.holds_float"),
        "massaction.system_ms": ms("massaction.system"),
        "massaction.oracle_calls": per_op(calls["massaction.oracle"]),
        "massaction.oracle_self_ms": ms("massaction.oracle"),
        "massaction.uncertified": per_op(counts["massaction.uncertified"]),
        "unipoly.sturm_calls": per_op(calls["unipoly.sturm"]),
        "unipoly.sturm_ms": ms("unipoly.sturm"),
        "unipoly.isolate_calls": per_op(calls["unipoly.isolate"]),
        "unipoly.isolate_ms": ms("unipoly.isolate"),
        "unipoly.refine_calls": per_op(calls["unipoly.refine"]),
        "unipoly.refine_ms": ms("unipoly.refine"),
        "unipoly.squarefree_per_oracle": ratio(
            counts["unipoly.squarefree_in_oracle"], calls["massaction.oracle"]
        ),
        "unipoly.refine_read_ratio": ratio(tally.states, calls["unipoly.refine"]),
        "connectivity.probe_self_ms": ms("connectivity.probe"),
        "connectivity.accept_ratio": ratio(
            counts["connectivity.accepted"], counts["connectivity.samples"]
        ),
        "connectivity.edges": per_op(counts["connectivity.edges"]),
        "connectivity.components": per_op(counts["connectivity.components"]),
        "trace.op_ms": (op_ms, "ms"),
        "trace.overhead_ms": (op_ms - statistics.fmean(plain) * 1e3, "ms"),
    }


def run_workload(args) -> int:
    wl, setup_s = set_up(workloads.WORKLOADS[args.workload], args.seed)
    warm_up(wl)
    if args.trace:
        tally, metrics = traced(wl, args.seed)
        print(f"{wl.name}: traced {tally.attempted} operations in {wl.trace_rounds} round(s)")
    else:
        tally, latencies, rounds = measure(wl, args.seconds)
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(latencies, setup_s).items()}
        print(f"{wl.name}: {tally.attempted} operations in {rounds} round(s)")
    print(f"  attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    tally.report()
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    results = {}
    for name in ("analyze", "witness", "probe", "corpus"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"{name}: attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze", "witness", "probe", "corpus", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crnregions" / "__init__.py").is_file() or not (
        ROOT / "tests" / "nets"
    ).is_dir():
        print(f"error: no crnregions source tree (src/, tests/nets/) under {ROOT}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
