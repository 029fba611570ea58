"""The balleans benchmark: one seeded closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload lattice-dist --seed 0 --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off. With
--trace 1 it runs the queries untraced, then a fresh stream of the same mix
traced, reports the per-layer metrics from the spans, reruns a sample of the
untraced queries traced to compare the answers, and then climbs the size
ladders. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Spans, ladder rungs and descriptor
files go under .perfbench_out/ in the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

OUT_DIR = ".perfbench_out"
SETUP_PROBES = 13         # fresh processes per run, spread over it; setup_s is their median
SPEED_EVERY_S = 0.1       # wall seconds between samples of the machine's speed
SPEED_NEIGHBOURS = 2      # samples on either side of a round that also set its speed
# Seconds the reference kernel took on the 2-core machine that defined the
# benchmark, running at full speed. Times are reported scaled by
# REFERENCE_S / (the kernel's time while they were measured).
REFERENCE_S = 0.00035
TRACED_WALL_FACTOR = 3    # the traced pass stops after this many times --seconds
# The traced pass draws its queries from this seed offset, so that none of
# them repeats one of the untraced pass: a cache in balleans would otherwise
# turn them into hits. Every round has the same mix, so per-query figures of
# the two streams are comparable.
TRACED_SEED_OFFSET = 2 * 10 ** 9
SAME_ANSWER_SHARE = 0.2   # rerun traced this share of --seconds of untraced queries
REQUIRED = ("src/balleans/__init__.py", "src/balleans/cli.py", "tests/oracles.py")


class Lib:
    """The `balleans` modules, reached by attribute at call time so that a
    traced run's wrappers are the functions called."""

    def __init__(self):
        import balleans.cli
        from balleans import ballean, exactmat, groups, lattices, suites, witnesses

        self.exactmat, self.lattices, self.groups = exactmat, lattices, groups
        self.ballean, self.witnesses, self.suites = ballean, witnesses, suites
        self.cli = balleans.cli
        self.out_bytes = 0

    def run_cli(self, argv):
        """`balleans <argv>` in this process: (exit code, captured stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.run(argv)
        text = buf.getvalue()
        self.out_bytes += len(text)
        return code, text


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python job that shares no code with balleans:
    big-integer arithmetic and a dict, like the package's own work. Its time
    tracks how fast the machine runs Python at the moment, and no change to
    balleans can move it. It allocates no container objects and runs with
    the cyclic garbage collector paused, so the size of the heap the
    workload leaves behind does not show in it either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x, table = 0x9E3779B97F4A7C15, {}
        for _ in range(900):
            x = (x * 6364136223846793005 + 1442695040888963407) % ((1 << 127) - 1)
            table[x % 509] = x >> 100
        return time.perf_counter() - t0 if table else 0.0
    finally:
        if enabled:
            gc.enable()


def _speed_factor(samples: list[float]) -> float:
    return REFERENCE_S / statistics.median(samples)


class QueryTimeout(BaseException):
    """Raised by the alarm when a query passes its time limit."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def _guarded(run, limit: float):
    """run() -> (seconds, answer) under a time limit; returns (seconds, answer, error)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            seconds, answer = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        return time.perf_counter() - t0, None, f"passed the {limit} s time limit"
    except Exception as e:  # a query that raises is a failed query; the loop goes on
        return time.perf_counter() - t0, None, f"raised {type(e).__name__}: {e}"
    return seconds, answer, None


def _timed(call, lib):
    t0 = time.perf_counter()
    answer = call(lib)
    return time.perf_counter() - t0, answer


def _digest(answer) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()


class Pass:
    """Latencies, failures and answer digests of one pass over the queries."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[tuple[int, str]] = []   # (query index, error)
        self.slots: list[str] = []
        self.digests: list[str] = []
        self.repeats = 0
        self.rounds = 0
        self.round_ends: list[int] = []   # query count after each round
        self.speed: list[tuple[int, float]] = []  # (query count, reference_kernel())

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def closed_loop(wl, seed: int, seconds: float, lib, tracer=None, max_queries=None,
                keep_digests: bool = False, interlude=None) -> Pass:
    """One client, one query at a time, whole rounds until `seconds` pass
    (or, given max_queries, until that many queries ran).

    Each query is timed alone; its answer check runs after the clock stops.
    interlude(elapsed_share), if given, runs between rounds, off the clock.
    """
    out = Pass()
    seen: set[int] = set()
    deadline = time.perf_counter() + seconds
    sampled = 0.0
    for round_queries in wl.rounds(seed):
        for q in round_queries:
            if max_queries is not None and out.attempted >= max_queries:
                break
            key = hash(q.key)
            if key in seen:
                out.repeats += 1
            seen.add(key)
            if tracer is None:
                run = lambda q=q: _timed(q.call, lib)
            else:
                run = lambda q=q, qid=out.attempted: tracer.query(qid, q.call, lib)
            secs, answer, error = _guarded(run, wl.time_limit_s)
            if error is None:
                try:
                    error = q.check(answer)
                except Exception as e:
                    error = f"answer check raised {type(e).__name__}: {e}"
            if error is not None:
                out.failures.append((out.attempted, error))
            out.latencies.append(secs)
            out.slots.append(q.slot)
            if keep_digests:
                out.digests.append(_digest(answer))
            answer = None  # so that peak_rss_mb never holds two answers at once
            if time.perf_counter() - sampled >= SPEED_EVERY_S:
                out.speed.append((out.attempted, reference_kernel()))
                sampled = time.perf_counter()
        out.speed.append((out.attempted, reference_kernel()))
        sampled = time.perf_counter()
        out.rounds += 1
        out.round_ends.append(out.attempted)
        if interlude is not None:
            interlude((time.perf_counter() - deadline + seconds) / seconds)
        if max_queries is not None:
            if out.attempted >= max_queries or time.perf_counter() > deadline:
                break
        elif time.perf_counter() >= deadline:
            break
    return out


def _rounds(p: Pass) -> list[tuple[int, int, float]]:
    """(start, end, speed factor) of each round. The factor scales the
    round's times to the reference speed; it comes from the reference
    samples taken during the round and the two taken on either side."""
    out, first = [], 0
    for start, end in zip([0] + p.round_ends, p.round_ends):
        while first < len(p.speed) and p.speed[first][0] <= start:
            first += 1
        last = first
        while last < len(p.speed) and p.speed[last][0] <= end:
            last += 1
        window = p.speed[max(0, first - SPEED_NEIGHBOURS):last + SPEED_NEIGHBOURS]
        out.append((start, end, _speed_factor([k for _, k in window])))
    return out


def _scaled_seconds(p: Pass, n: int) -> float:
    """Query time of the first n queries, scaled to the reference speed."""
    return sum(sum(p.latencies[start:min(end, n)]) * f
               for start, end, f in _rounds(p) if start < n)


def _nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """(value at the percentile, number of samples beyond it)."""
    idx = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[idx], len(sorted_values) - idx - 1


def _setup_probe(workload: str, seed: int) -> tuple[float, bool]:
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    res = subprocess.run([sys.executable, probe, workload, "--seed", str(seed)],
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        return math.nan, False
    data = json.loads(res.stdout.strip().splitlines()[-1])
    return data["setup_s"], data["ok"]


def _check_checkout() -> bool:
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return False
    sys.path.insert(0, os.path.abspath("src"))
    import balleans

    src = os.path.abspath("src") + os.sep
    if not os.path.abspath(balleans.__file__).startswith(src):
        print(f"perfbench: imported balleans from {balleans.__file__}, not from {src}",
              file=sys.stderr)
        return False
    return True


def _end_to_end(wl, args, lib) -> tuple[dict, int, int, list[str]]:
    """Tracing off.

    The shared machine this was built on runs Python up to 50% slower for
    stretches of seconds to minutes. So every time is scaled by the machine's
    speed while it was measured (REFERENCE_S over the reference kernel's
    time), throughput and the p50 latency are medians over rounds, and
    setup_s is the median of probes spread over the run. The unscaled
    figures are printed too.

    Every round holds the same mix, and in several workloads the median
    query falls on a gap between two kinds of query, where the pooled median
    jumps between seeds. The median of the rounds' medians does not.
    """
    notes = []
    setups: list[tuple[float, float]] = []  # (seconds, speed factor)
    failed = 0

    def probe(share: float) -> None:
        nonlocal failed
        while len(setups) < SETUP_PROBES and share >= len(setups) / (SETUP_PROBES - 1):
            factor = _speed_factor([reference_kernel() for _ in range(5)])
            secs, ok = _setup_probe(wl.name, args.seed)
            setups.append((secs, factor))
            failed += not ok

    probe(0.0)
    first = wl.first_query(args.seed)
    _guarded(lambda: _timed(first.call, lib), wl.time_limit_s)
    p = closed_loop(wl, args.seed, args.seconds, lib, interlude=probe)
    probe(1.0)
    bad = {i for i, _ in p.failures}
    rates, scaled, factors, raw_rates, medians, raw_medians = [], [], [], [], [], []
    for start, end, factor in _rounds(p):
        lat = p.latencies[start:end]
        ok = sum(1 for i in range(start, end) if i not in bad)
        raw_rates.append(ok / sum(lat))
        rates.append(raw_rates[-1] / factor)
        raw_medians.append(statistics.median(lat))
        medians.append(raw_medians[-1] * factor)
        scaled += [t * factor for t in lat]
        factors.append(factor)
    scaled.sort()
    tail, beyond = _nearest_rank(scaled, wl.tail_pct)
    raw_tail, _ = _nearest_rank(sorted(p.latencies), wl.tail_pct)
    metrics = {
        "throughput_qps": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(medians), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "setup_s": (statistics.median(s * f for s, f in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes.append(f"latency_tail_ms is p{wl.tail_pct} of {p.attempted} samples, "
                 f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than ten)"))
    notes.append(f"error_rate = {len(p.failures)}/{p.attempted} = "
                 f"{len(p.failures) / p.attempted:.4f}")
    notes.append(f"{p.rounds} rounds; "
                 f"{p.repeats}/{p.attempted} inputs repeat an earlier one")
    notes.append(f"speed factor per round: median {statistics.median(factors):.3f}, "
                 f"range {min(factors):.3f}..{max(factors):.3f} "
                 f"({len(p.speed)} reference samples)")
    notes.append(f"unscaled: throughput_qps = {statistics.median(raw_rates):.6g}, "
                 f"latency_p50_ms = {1e3 * statistics.median(raw_medians):.6g}, "
                 f"latency_tail_ms = {1e3 * raw_tail:.6g}, "
                 f"setup_s = {statistics.median(s for s, _ in setups):.6g}")
    notes.append("setup_s probes (s, speed factor): "
                 + ", ".join(f"{s:.4f} {f:.3f}" for s, f in setups))
    notes += [f"failed: {p.slots[i]}: {err}" for i, err in p.failures[:10]]
    return metrics, p.attempted + len(setups), len(p.failures) + failed, notes


def _per_layer(wl, args, lib) -> tuple[dict, int, int, list[str]]:
    import ladder
    import trace

    notes = []
    first = wl.first_query(args.seed)
    _guarded(lambda: _timed(first.call, lib), wl.time_limit_s)
    plain = closed_loop(wl, args.seed, args.seconds, lib, keep_digests=True)
    tracer = trace.Tracer()
    undo = trace.install(tracer)
    lib.out_bytes = 0
    try:
        traced = closed_loop(wl, args.seed + TRACED_SEED_OFFSET,
                             TRACED_WALL_FACTOR * args.seconds, lib,
                             tracer=tracer, max_queries=plain.attempted)
    finally:
        trace.uninstall(undo)
    n = traced.attempted
    metrics = {k: (v, _unit(k)) for k, v in trace.layer_metrics(
        tracer, n, sum(traced.latencies), lib.out_bytes / n).items()}
    # n queries of each stream, both scaled to the reference speed
    metrics["trace.overhead_ratio"] = (_scaled_seconds(traced, n) / _scaled_seconds(plain, n),
                                       "ratio")
    spans = tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}.csv.gz"))

    # answers must not depend on tracing: rerun the first untraced queries
    # traced, with spans kept apart from the per-layer metrics
    sample_tracer = trace.Tracer()
    undo = trace.install(sample_tracer)
    try:
        same = closed_loop(wl, args.seed, SAME_ANSWER_SHARE * args.seconds, lib,
                           tracer=sample_tracer, max_queries=plain.attempted,
                           keep_digests=True)
    finally:
        trace.uninstall(undo)
    differ = sum(a != b for a, b in zip(plain.digests, same.digests))
    notes.append(f"traced {n} fresh queries after {plain.attempted} untraced ones; "
                 f"{spans} spans written; {differ} of {same.attempted} answers differ "
                 f"when the first untraced queries are rerun traced")

    ladders, ladder_attempted, ladder_failed = [], 0, 0
    for name in ladder.LADDERS:
        res = ladder.run_ladder(name, args.seed)
        ladders.append(res)
        metrics[res["metric"]] = (res["max"], _unit(res["metric"]))
        ladder_attempted += len(res["rungs"])
        ladder_failed += res["failed"]
        rungs = ", ".join(f"{r['size']}:" + ("-" if r["seconds"] is None else f"{r['seconds']:.3f}s")
                          + (" wrong" if r["ok"] is False else "") for r in res["rungs"])
        notes.append(f"{res['metric']} = {res['max']} ({res['size_means']}; "
                     f"{res['stopped']}) rungs {rungs}")
    with open(os.path.join(OUT_DIR, f"ladder-{wl.name}.json"), "w") as fh:
        json.dump(ladders, fh, indent=1)
    failures = [(p.slots[i], err) for p in (plain, traced, same) for i, err in p.failures]
    notes += [f"failed: {slot}: {err}" for slot, err in failures[:10]]
    return (metrics, plain.attempted + n + same.attempted + ladder_attempted,
            len(failures) + differ + ladder_failed, notes)


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count/query"
    if name.endswith(".self_ms"):
        return "ms/query"
    if name.endswith(".out_bytes"):
        return "bytes/query"
    if name.endswith(".out_bits_max"):
        return "bits"
    if name.startswith("ladder."):
        return "size"
    return "ratio"


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import workloads

    parser = argparse.ArgumentParser(description="balleans benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _check_checkout():
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    wl.setup(args.seed, OUT_DIR)
    lib = Lib()
    measure = _per_layer if args.trace else _end_to_end
    metrics, attempted, failed, notes = measure(wl, args, lib)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
