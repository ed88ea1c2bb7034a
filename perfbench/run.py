"""Seeded closed-loop benchmark of agodel's verdict engines.

    python3 perfbench/run.py --workload translate --seed 33001 --seconds 25 --trace 0

One client sends queries one after another (a closed loop, no worker
threads) for ``--seconds`` seconds, cycling through the workload's
seeded query list.  Every verdict is checked against its known answer.
The last line of stdout is one JSON object: with ``--trace 0`` it holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced replay of the queries an untraced pass completed first.

The program under test is built from ``src/`` of the checkout that holds
this file; ``tests/conftest.py`` supplies the input generators.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("translate", "solve", "family", "eval")

SETUP_REPEATS = 2        # extra set-ups in child processes; setup_s is the median
TRACE_UNTRACED_SHARE = 0.25   # share of --seconds for the untraced pass of a traced run


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's documented seed)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and exit")
    return parser.parse_args(argv)


def load_program():
    """Import agodel from this checkout's src/ and the benchmark modules."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    import agodel
    if Path(agodel.__file__).resolve().parent != ROOT / "src" / "agodel":
        raise SystemExit(f"agodel imported from {agodel.__file__}, not from {ROOT / 'src'}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# The closed loop


class Loop:
    """Outcomes and timings of one closed-loop pass over the queries."""

    def __init__(self):
        self.index = []      # query index of each attempt, in order
        self.verdicts = []
        self.latency = []    # seconds per attempt
        self.ends = []       # completion time of each attempt, from the start
        self.payloads = {}   # query index -> payload of its first attempt
        self.limits = []     # (query id, raising public call)
        self.elapsed = 0.0
        self.scale = []      # host-speed scale of each attempt (see calibrate)


def limit_origin(exc: BaseException) -> str:
    """The innermost public agodel function the resource limit came from."""
    import agodel

    origin = "unknown"
    tb = exc.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        public = getattr(agodel, code.co_name, None)
        if callable(public) and getattr(inspect.unwrap(public), "__code__", None) is code:
            origin = code.co_name
        tb = tb.tb_next
    return origin


def closed_loop(queries, seconds: float, max_queries=None, tracer=None) -> Loop:
    """Run the queries in turn until the time or query budget is spent.

    A calibration kernel runs between queries every SAMPLE_EVERY_S
    (outside every query's timing), and each attempt gets the host-speed
    scale measured around it.
    """
    from agodel.errors import ResourceLimitError

    loop = Loop()
    clock = time.perf_counter
    meter = calibrate.Meter()
    meter.burst()
    start = clock()
    deadline = start + seconds
    n = len(queries)
    i = 0
    while True:
        k = i % n
        query = queries[k]
        if tracer is not None:
            tracer.qid = query.qid
        t0 = clock()
        try:
            verdict, payload = query.run()
        except ResourceLimitError as exc:
            verdict, payload = f"limit:{limit_origin(exc)}", None
        except Exception:  # a crash is data: it counts as a failed query
            verdict, payload = "error", traceback.format_exc()
        t1 = clock()
        loop.index.append(k)
        loop.verdicts.append(verdict)
        loop.latency.append(t1 - t0)
        loop.ends.append(t1 - start)
        if k not in loop.payloads:
            loop.payloads[k] = payload
        i += 1
        if t1 >= deadline or (max_queries is not None and i >= max_queries):
            break
        if t1 - meter.last >= calibrate.SAMPLE_EVERY_S:
            meter.sample()
    loop.elapsed = clock() - start
    meter.burst()
    loop.scale = [meter.scale(start + end - lat, start + end)
                  for end, lat in zip(loop.ends, loop.latency)]
    for k, verdict in zip(loop.index, loop.verdicts):
        if verdict.startswith("limit:"):
            loop.limits.append((queries[k].qid, verdict.split(":", 1)[1]))
    return loop


def judge(workload, loops, reference):
    """Failed attempts and a few reasons; each distinct query is checked once."""
    first = {}
    reasons = {}
    for loop in loops:
        for k, verdict in zip(loop.index, loop.verdicts):
            if k not in first:
                first[k] = verdict
                if verdict == "error":
                    reasons[k] = loop.payloads[k].strip().splitlines()[-1]
                elif not verdict.startswith("limit:"):  # undecided, not wrong
                    ref = reference[k] if reference is not None else None
                    why = workload.check(k, verdict, loop.payloads[k], ref)
                    if why is not None:
                        reasons[k] = why
            elif verdict != first[k] and k not in reasons:
                reasons[k] = f"verdict changed from {first[k]!r} to {verdict!r}"
    failed = sum(1 for loop in loops for k in loop.index if k in reasons)
    queries = workload.queries
    return failed, [f"{queries[k].qid}: {why}" for k, why in sorted(reasons.items())]


# ---------------------------------------------------------------------------
# Metrics


def p95(samples):
    return statistics.quantiles(samples, n=20)[18]


def end_to_end(loop: Loop, setup_s: float, failed: int):
    """The end-to-end metrics; times are in reference seconds (calibrate)."""
    attempted = len(loop.verdicts)
    decided = sum(1 for v in loop.verdicts if not v.startswith("limit:") and v != "error")
    latency = [lat * scale for lat, scale in zip(loop.latency, loop.scale)]
    return {
        "throughput_qps": (attempted / sum(latency), "1/s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_p95_ms": (p95(latency) * 1e3, "ms"),
        "decided_ratio": (decided / attempted, "ratio"),
        # 1 - failed_ratio: a crash or a wrong verdict counts against it
        "correct_ratio": (1 - failed / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def child_setups(args) -> list:
    """(reference, wall) set-up times of fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((result["setup_s"], result["setup_wall_s"]))
    return times


def slowest(workload, loop: Loop) -> str:
    i = max(range(len(loop.latency)), key=loop.latency.__getitem__)
    return (f"slowest query: {workload.queries[loop.index[i]].qid} "
            f"{loop.latency[i] * 1e3:.1f} ms")


def summarize_limits(loop: Loop) -> list:
    return [f"undecided {qid}: ResourceLimitError from {origin} (x{n})"
            for (qid, origin), n in sorted(Counter(loop.limits).items())]


def main(argv=None) -> int:
    args = parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        # set-up is timed in reference seconds too: kernel bursts before
        # and after it give the host's speed
        calibrate.warm_up()
        meter = calibrate.Meter()
        meter.burst()
        started = time.perf_counter()
        workloads = load_program()
        if args.seed is None:
            args.seed = workloads.DEFAULT_SEEDS[args.workload]
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        # the inputs are long-lived: keep the collector from rescanning them
        gc.collect()
        gc.freeze()
        setup_wall = time.perf_counter() - started
        meter.burst()
        setup_s = setup_wall * meter.scale()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall}))
            return 0
        reference = workload.load_reference()
        if args.trace:
            return traced_run(args, workload, reference)
        loop = closed_loop(workload.queries, args.seconds)
        failed, reasons = judge(workload, [loop], reference)
    setups = [(setup_s, setup_wall)] + child_setups(args)
    metrics = end_to_end(loop, statistics.median(s for s, _ in setups), failed)
    attempted = len(loop.verdicts)
    lines = [
        f"workload {args.workload} seed {args.seed}: {attempted} queries "
        f"({len(set(loop.index))} distinct of {len(workload.queries)}) in "
        f"{loop.elapsed:.2f} s, closed loop, 1 client; "
        f"{attempted - int(0.95 * attempted)} samples at or beyond p95",
        f"reference: {workload.reference_path().name if reference else 'none for this seed'}",
        f"setup runs (reference s / wall s): "
        f"{', '.join(f'{s:.4f}/{w:.4f}' for s, w in setups)}",
        f"host speed: median scale {statistics.median(loop.scale):.3f} "
        f"(range {min(loop.scale):.3f}-{max(loop.scale):.3f}); wall figures: "
        f"{attempted / loop.elapsed:.4g} q/s, p50 {statistics.median(loop.latency) * 1e3:.4g} ms, "
        f"p95 {p95(loop.latency) * 1e3:.4g} ms",
        slowest(workload, loop),
    ]
    lines += summarize_limits(loop) + [f"FAILED {r}" for r in reasons[:20]]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return emit(lines, failed == 0, attempted, failed, metrics)


def traced_run(args, workload, reference) -> int:
    from tracer import Tracer, layer_metrics

    untraced = closed_loop(workload.queries, args.seconds * TRACE_UNTRACED_SHARE)
    tracer = Tracer()
    with tracer.installed():
        traced = closed_loop(workload.queries, args.seconds * (1 - TRACE_UNTRACED_SHARE),
                             max_queries=len(untraced.verdicts), tracer=tracer)
    k = len(traced.verdicts)
    # a traced verdict that differs from the untraced one fails here
    failed, reasons = judge(workload, [untraced, traced], reference)
    if not tracer.restored:
        reasons.append("a wrapped attribute was not restored")
    metrics = layer_metrics(tracer, k)
    untraced_qps = k / untraced.ends[k - 1]
    traced_qps = k / traced.elapsed
    metrics["trace.overhead_qps"] = (traced_qps - untraced_qps, "1/s", "higher")
    spans_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json.gz"
    written = tracer.write(spans_path)
    lines = [
        f"workload {args.workload} seed {args.seed}: traced replay of {k} of "
        f"{len(untraced.verdicts)} untraced queries; untraced {untraced_qps:.4g} q/s, "
        f"traced {traced_qps:.4g} q/s",
        f"{written} spans written to {spans_path.relative_to(ROOT)}",
    ]
    lines += summarize_limits(traced) + [f"FAILED {r}" for r in reasons[:20]]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit, _) in metrics.items()]
    ok = failed == 0 and tracer.restored
    attempted = len(untraced.verdicts) + k
    return emit(lines, ok, attempted, failed,
                {name: (value, unit) for name, (value, unit, _) in metrics.items()})


def emit(lines, correct: bool, attempted: int, failed: int, metrics) -> int:
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
