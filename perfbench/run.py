"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the world up several times (``setup_s`` is their
median), then repeats the workload's operation with no instrumentation
until ``--seconds`` of operations are measured, and prints the end-to-end
metrics.  Their times and rates are stated at a reference machine speed:
the shared machine this was tuned on drifts by a fifth or more over
minutes, so a fixed kernel (:class:`SpeedProbe`) is timed before every
set-up and once per half second of operations, in the gaps between them,
and every time is scaled by the kernel's median against
:data:`REFERENCE_PROBE_S`.  The unscaled figures go to standard error.

``--trace 1`` sets up once with the layer probes installed, runs the
operation once bare and once traced, and prints the per-layer metrics;
its spans are written to ``.perfbench/traces/``.  Either way the outputs
are checked, and a failed check makes the exit code 1.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

#: World set-ups per timed run; ``setup_s`` is their median.
SETUPS = 3

#: Answer-latency samples a timed run collects at least, so that ten of
#: them lie beyond the 99th percentile.
MIN_SAMPLES = 1000

#: Median :class:`SpeedProbe` time on the machine the benchmark was tuned
#: on (two vCPUs of an Intel Xeon at 2.0 GHz, CPython 3.11).
REFERENCE_PROBE_S = 0.024

#: One speed probe is taken per this much time spent in operations.
PROBE_INTERVAL_S = 0.5


class SpeedProbe:
    """Times a fixed kernel: random reads of a 50,000-entry table of strings,
    hashing, and churn in a small dict, the memory-bound mix the program
    runs on.  The table is built once and reused, and the kernel runs with
    the collector off, so neither the program's code nor its heap moves
    the time, only the machine."""

    def __init__(self) -> None:
        self.table = {index: str(index) for index in range(50000)}
        self.keys = list(range(0, 50000, 7))
        random.Random(0).shuffle(self.keys)

    def __call__(self) -> float:
        table, keys = self.table, self.keys
        gc.disable()
        try:
            start = time.perf_counter()
            mixed, recent = 0, {}
            for index in range(20000):
                key = keys[index % len(keys)]
                mixed ^= hash(table[key]) & 0xFFFF
                recent[key, mixed & 255] = index
                if len(recent) > 4096:
                    recent.clear()
            return time.perf_counter() - start
        finally:
            gc.enable()


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def timed_run(workload, seconds: float) -> dict:
    """Set up ``SETUPS`` times, measure operations, check them."""
    clock = time.perf_counter
    speed_probe = SpeedProbe()
    setups, probes = [], []
    for index in range(SETUPS):
        if index:
            workload.teardown()
        gc.collect()
        probes.append(speed_probe())
        start = clock()
        workload.setup()
        setups.append(clock() - start)
    try:
        outcomes, failed, probed = [], 0, clock()
        while (sum(o.wall_s for o in outcomes) < seconds
               or sum(o.answers for o in outcomes) < MIN_SAMPLES):
            # One probe per PROBE_INTERVAL_S of operations, however long
            # each operation is.
            owed = int((clock() - probed) / PROBE_INTERVAL_S)
            if owed:
                probes.extend(speed_probe() for _ in range(owed))
                probed = clock()
            workload.prepare()
            outcome = workload.op()
            failed += outcome.failed + workload.check(outcome)
            outcome.report = None   # checked; free it
            outcomes.append(outcome)
        probes.append(speed_probe())
        failed += workload.verify()
    finally:
        workload.teardown()

    answers = sum(outcome.answers for outcome in outcomes)
    window = sum(outcome.wall_s for outcome in outcomes)
    latencies = sorted(latency for outcome in outcomes
                       for latency in outcome.latencies_s)
    raw = {
        "setup_s": statistics.median(setups),
        "contracts_per_s": statistics.median(
            outcome.answers / outcome.wall_s for outcome in outcomes),
        "query_ms_p50": 1000 * statistics.median(latencies),
        "query_ms_p99": 1000 * percentile(latencies, 0.99),
        "queries_per_s": answers / window,
    }
    slowdown = statistics.median(probes) / REFERENCE_PROBE_S
    print(f"perfbench: unscaled {json.dumps(raw)}; the machine ran at "
          f"{1 / slowdown:.3f} x reference speed ({len(probes)} probes)",
          file=sys.stderr)
    return result_line(answers, failed, {
        "setup_s": metric(raw["setup_s"] / slowdown, "s"),
        "contracts_per_s": metric(raw["contracts_per_s"] * slowdown, "1/s"),
        "query_ms_p50": metric(raw["query_ms_p50"] / slowdown, "ms"),
        "query_ms_p99": metric(raw["query_ms_p99"] / slowdown, "ms"),
        "queries_per_s": metric(raw["queries_per_s"] * slowdown, "1/s"),
        "success_rate": metric(max(0.0, 1 - failed / answers), "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    })


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, workload, bare, traced) -> dict:
    """The per-layer split of one traced operation (see BENCHMARK.json)."""
    totals = tracer.totals("run")

    def calls(span: str) -> int:
        return int(totals.get(span, {}).get("calls", 0))

    def self_s(*spans: str) -> float:
        return sum(totals.get(span, {}).get("self_s", 0.0) for span in spans)

    keccak = totals.get("keccak", {"calls": 0, "bytes": 0, "self_s": 0.0})
    distinct = len(tracer.keccak_inputs.get("run", ()))
    rpc = ("rpc.get_code", "rpc.get_storage_at", "rpc.call")
    report, registry = traced.report, traced.metrics

    def hit_ratio(cache: str) -> float:
        if report is None:
            return 0.0
        hits = getattr(report, f"{cache}_cache_hits")
        return _ratio(hits, hits + getattr(report, f"{cache}_cache_misses"))

    def counter(name: str) -> float:
        return registry.counter_value(name) if registry is not None else 0.0

    extra = traced.extra
    server_s = totals.get("serve.query", {}).get("total_s", 0.0)
    out = {
        "keccak.calls": metric(keccak["calls"], "count"),
        "keccak.bytes": metric(keccak["bytes"], "bytes"),
        "keccak.self_s": metric(keccak["self_s"], "s"),
        "keccak.mb_per_s": metric(
            _ratio(keccak["bytes"] / 1e6, keccak["self_s"]), "MB/s"),
        "keccak.distinct_ratio": metric(_ratio(distinct, keccak["calls"]),
                                        "ratio"),
        "explorer.resolve_calls": metric(calls("explorer.resolve"), "count"),
        "explorer.resolve_s": metric(self_s("explorer.resolve"), "s"),
        "rpc.get_code_calls": metric(calls("rpc.get_code"), "count"),
        "rpc.get_storage_at_calls": metric(calls("rpc.get_storage_at"),
                                           "count"),
        "rpc.call_calls": metric(calls("rpc.call"), "count"),
        "rpc.self_s": metric(self_s(*rpc), "s"),
        "rpc.getstorageat_per_proxy": metric(_ratio(
            counter("logic_recovery.getstorageat_calls"),
            counter("logic_recovery.storage_proxies")), "count"),
        "dedup.proxy_check_hit_ratio": metric(hit_ratio("proxy_check"),
                                              "ratio"),
        "dedup.function_hit_ratio": metric(hit_ratio("function"), "ratio"),
        "dedup.storage_hit_ratio": metric(hit_ratio("storage"), "ratio"),
        "store.commits": metric(calls("store.write"), "count"),
        "store.write_s": metric(self_s("store.write"), "s"),
        "store.restore_s": metric(self_s("store.restore"), "s"),
        "store.hydrate_s": metric(self_s("store.hydrate"), "s"),
        "store.point_read_s": metric(self_s("store.point_read"), "s"),
        "serialize.self_s": metric(self_s("serialize"), "s"),
        "api.encode_s": metric(self_s("api.encode"), "s"),
        # Server time includes the point read below QueryService.query; the
        # rest of what the client waited is HTTP (encoding aside).
        "serve.server_s": metric(server_s, "s"),
        "serve.http_s": metric(
            sum(traced.latencies_s) - server_s - self_s("api.encode")
            if workload.name == "serve_hits" else 0.0, "s"),
        "parallel.shard_s": metric(self_s("parallel.shard"), "s"),
        "parallel.merge_s": metric(self_s("parallel.merge"), "s"),
        "parallel.sum_shard_cpu_s": metric(extra.get("sum_shard_cpu_s", 0.0),
                                           "s"),
        "parallel.max_shard_cpu_s": metric(extra.get("max_shard_cpu_s", 0.0),
                                           "s"),
        "parallel.fanout_overhead_s": metric(
            traced.wall_s - extra["max_shard_cpu_s"]
            if "max_shard_cpu_s" in extra else 0.0, "s"),
        "parallel.respawns": metric(extra.get("respawns", 0), "count"),
        "generator.s": metric(
            tracer.totals("setup").get("generator", {}).get("total_s", 0.0),
            "s"),
        "unattributed_s": metric(
            traced.wall_s - sum(row["self_s"] for row in totals.values()),
            "s"),
        "trace_overhead_ratio": metric(traced.wall_s / bare.wall_s, "ratio"),
    }
    for span in ("evm.execute", "evm.disassemble", "symexec.summarize",
                 "proxy_detector.check", "logic_finder.find",
                 "function_collision.detect", "storage_collision.detect"):
        out[f"{span}_calls"] = metric(calls(span), "count")
        out[f"{span}_self_s"] = metric(self_s(span), "s")
    return out


def traced_run(workload, trace_path: Path) -> dict:
    """Set up traced, run once bare and once traced, check both."""
    from layers import Tracer

    tracer = Tracer()
    tracer.phase = "setup"
    with tracer:
        workload.setup()
    try:
        failed = 0
        outcomes = []
        for traced in (False, True):
            workload.prepare()
            if traced:
                tracer.phase = "run"
                with tracer:
                    outcome = workload.op()
            else:
                outcome = workload.op()
            failed += outcome.failed + workload.check(outcome)
            outcomes.append(outcome)
        failed += workload.verify()
    finally:
        workload.teardown()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_jsonl(str(trace_path))
    bare, traced_outcome = outcomes
    attempted = sum(outcome.answers for outcome in outcomes)
    return result_line(attempted, failed,
                       layer_metrics(tracer, workload, bare, traced_outcome))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to benchmark at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    # Everything the run writes, the supervisor's temp files included,
    # stays inside the checkout and is removed afterwards.
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    previous_tempdir = tempfile.tempdir
    tempfile.tempdir = workdir
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            result = traced_run(workload, trace_path)
        else:
            result = timed_run(workload, args.seconds)
    finally:
        tempfile.tempdir = previous_tempdir
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
