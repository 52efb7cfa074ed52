"""Benchmark for metricwb: time to an exact verdict on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads are bisim_tower, search_tower
and cli_random (see workloads.py for what each stresses and why). One
client in one thread sends the workload's queries in order and waits for
each answer (a closed loop); every query starts with an empty eval memo.
Passes over the query list repeat until S seconds have gone by; there is
always at least one.

Times are scaled to a reference CPU speed by the gauge of gauge.py, which
samples the machine's speed during the passes: on a shared VM raw wall
time swings by up to half within seconds. With --trace 0 the last
line of stdout is a JSON object whose metrics are the end-to-end ones:
run_s (one pass, each query at its median scaled time over the run's
passes), query_p50_s (the median query, timed the same way), setup_s
(median of several set-ups, most in fresh processes) and peak_rss_mb.
With --trace 1 the run adds one traced pass and reports the per-layer
counts and self times of tracer.py instead. `attempted` and `failed`
count the queries of one pass, which every pass must answer alike. Every
answer is checked against a reference after the timed passes; a wrong
answer makes the command exit non-zero. A fuller record of the run, with
failure classes, tail latency, raw wall times and the machine, goes to
perfbench/results/.

--tiny keeps a few queries per workload, for selfcheck.py.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("bisim_tower", "search_tower", "cli_random")
SETUP_SAMPLES = 11  # set-ups per run: this process and SETUP_SAMPLES - 1 fresh ones
SETUP_GAUGE_PERIOD = 0.02  # set-up takes a tenth of a second: sample it densely
TAIL_PERCENTILES = (99.9, 99, 95, 90)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few queries only")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Import the program and build the workload's queries; returns the
    queries and the scaled seconds it took."""
    sys.path.insert(0, str(SRC))
    speed = gauge.Gauge(SETUP_GAUGE_PERIOD)
    speed.start()
    try:
        t0 = time.perf_counter()
        import workloads

        queries = workloads.build(args.workload, args.seed, args.tiny)
        t1 = time.perf_counter()
    finally:
        speed.stop()
    return queries, speed.scaled(t0, t1)


def fresh_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class CountingHandler(logging.Handler):
    """Counts the program's log records instead of printing them."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        self.count += 1


def quiet_logging() -> CountingHandler:
    handler = CountingHandler()
    logger = logging.getLogger("metricwb")
    logger.setLevel(logging.WARNING)
    logger.addHandler(handler)
    logger.propagate = False
    # With a root handler in place the CLI's logging.basicConfig is a no-op.
    logging.getLogger().addHandler(logging.NullHandler())
    return handler


class Pass:
    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # wall clock at each query's start and end
        self.times: list[float] = []  # seconds per query: scaled, or wall time if untimed by the gauge
        self.answers: list = []
        self.errors: list = []  # exception class name, or None

    @property
    def raw(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.spans]

    @property
    def seconds(self) -> float:
        return sum(self.times)


def run_pass(queries, after_query=None) -> Pass:
    from metricwb import semantics
    from workloads import QueryFailed

    clock = time.perf_counter
    p = Pass()
    for q in queries:
        semantics.clear_memo()
        t0 = clock()
        answer = error = None
        try:
            answer = q.call()
        except QueryFailed as e:
            error = str(e)
        except Exception as e:  # a failed query is recorded, and the pass goes on
            error = type(e).__name__
        p.spans.append((t0, clock()))
        p.answers.append(answer)
        p.errors.append(error)
        if after_query is not None:
            after_query()
    p.times = p.raw
    return p


def run_passes(queries, seconds: float) -> tuple[list[Pass], gauge.Gauge]:
    """Passes until `seconds` have gone by, and at least one, with the
    gauge running."""
    passes = []
    speed = gauge.Gauge()
    speed.start()
    try:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(queries))
    finally:
        speed.stop()
    for p in passes:
        p.times = [speed.scaled(t0, t1) for t0, t1 in p.spans]
    return passes, speed


def per_query_median(passes: list[Pass], attr: str) -> list[float]:
    return [statistics.median(ts) for ts in zip(*(getattr(p, attr) for p in passes))]


def check_answers(queries, passes: list[Pass]) -> list[dict]:
    """Wrong answers: the first pass against the references, later passes
    against the first."""
    wrong = []
    first = passes[0]
    for q, answer, error in zip(queries, first.answers, first.errors):
        if error is not None:
            continue
        try:
            reason = q.check(answer)
        except Exception as e:  # a reference that cannot replay the answer rejects it
            reason = f"check raised {type(e).__name__}: {e}"
        if reason is not None:
            wrong.append({"query": q.label, "reason": reason})
    for i, p in enumerate(passes[1:], start=2):
        for q, a0, e0, a, e in zip(queries, first.answers, first.errors, p.answers, p.errors):
            if (a, e) != (a0, e0):
                wrong.append({"query": q.label, "reason": f"pass {i} answered differently"})
    return wrong


def tail(times: list[float]) -> "dict | None":
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it,
    or None when there are too few samples for any."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return {"percentile": pct, "value": ordered[rank - 1], "samples": n,
                    "beyond": n - rank}
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "GIT_DIR": str(ROOT / ".git")}, timeout=30,
    )
    return out.stdout.strip() or None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "metricwb" / "__init__.py").is_file():
        sys.stderr.write(f"error: the program's source is missing: {SRC / 'metricwb'}\n")
        return 2
    queries, own_setup = setup(args)
    if args.setup_only:
        print(repr(own_setup))
        return 0
    from metricwb import semantics

    handler = quiet_logging()
    setup_samples = [own_setup]
    if not args.trace:
        setup_samples += [fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    passes, speed = run_passes(queries, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = per_query_median(passes, "times")
    run_s = sum(best)

    per_layer = None
    if args.trace:
        import tracer

        t = tracer.Tracer()
        memo_entries = 0

        def count_memo():
            nonlocal memo_entries
            memo_entries += len(semantics._memo)

        handler.count = 0
        t.install()
        try:
            traced = run_pass(queries, after_query=count_memo)
        finally:
            t.uninstall()
        per_layer = t.per_layer(memo_entries, handler.count)
        # wall time over wall time: self times in the traced pass are unscaled
        untraced = sum(per_query_median(passes, "raw"))
        per_layer["trace_overhead_ratio"] = (traced.seconds / untraced, "ratio")
        passes.append(traced)

    wrong = check_answers(queries, passes)
    attempted = len(queries)
    failed_classes = Counter(f"failed.{e}" for e in passes[0].errors if e is not None)
    failed = sum(failed_classes.values())

    end_to_end = {
        "run_s": (run_s, "s"),
        "query_p50_s": (statistics.median(best), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    shown = per_layer if args.trace else end_to_end
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "queries_per_pass": len(queries),
        "passes": len(passes) - bool(args.trace),
        "traced_passes": int(bool(args.trace)),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failed_classes": dict(failed_classes),
        "wrong_answers": len(wrong),
        "wrong": wrong,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "query_p50_samples": len(best),
        "query_tail": tail(best),
        "setup_samples": setup_samples,
        "pass_seconds": [p.seconds for p in passes],
        "pass_wall_seconds": [sum(p.raw) for p in passes],
        "gauge": {
            "reference_s": gauge.REFERENCE_S,
            "samples": len(speed.gauge),
            "median_s": statistics.median(speed.gauge),
        },
        "per_layer": (
            {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
            if per_layer else None
        ),
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")
    print(f"record: {(RESULTS / name).relative_to(ROOT)}; failures: {dict(failed_classes) or 'none'}; "
          f"wrong answers: {len(wrong)}")
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
