"""Exporters: Prometheus text format, JSON snapshot, human summary tables.

Three audiences for the same :class:`~repro.obs.registry.MetricsRegistry`:

* :func:`to_prometheus` — the standard text exposition format (metric
  names sanitized to ``[a-zA-Z0-9_]``, histograms in cumulative ``le``
  form), for scraping a long-running monitor;
* :func:`to_json` / ``registry.snapshot()`` — machine-readable dump,
  embedded in ``survey --json --metrics`` output and consumed by CI;
* :func:`survey_metrics_summary` — the ``--metrics`` table printed by the
  CLI, which reproduces the §6.1 "getStorageAt calls per proxy" figure
  directly from the registry.

:func:`bench_summary` renders a ``repro.bench/1`` payload (see
:mod:`repro.obs.bench`) as the table ``repro bench`` prints.
"""

from __future__ import annotations

import json
import re

from repro.obs.registry import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Raw (dotted) metric name → ``# HELP`` description.  One sentence each,
#: keyed before sanitization so the table reads like the registry call
#: sites; names missing here export without a HELP line rather than with
#: an invented one.
METRIC_HELP: dict[str, str] = {
    "chain.endpoint_health":
        "Per-endpoint success ratio observed by the failover node "
        "(1.0 = every call served).",
    "chain.failover_switches":
        "Times the failover node switched serving endpoints, per cause.",
    "dedup.hits": "Dedup cache hits per cache (6.1 bytecode dedup).",
    "dedup.misses": "Dedup cache misses per cache (6.1 bytecode dedup).",
    "evm.base_gas": "Base gas consumed by profiled EVM instructions.",
    "evm.creates": "CREATE/CREATE2 operations observed during emulation.",
    "evm.instructions": "EVM instructions executed under profiling.",
    "evm.logs": "LOG* operations observed during emulation.",
    "evm.max_call_depth": "High-water call depth reached during emulation.",
    "evm.opcodes": "Executed EVM instructions per opcode class.",
    "faults.injected": "Faults injected by the chaos layer, per kind and "
                       "RPC method.",
    "logic_recovery.getstorageat_calls":
        "getStorageAt calls spent recovering logic histories "
        "(Algorithm 1; paper 6.1 reports ~26 per proxy).",
    "logic_recovery.storage_proxies":
        "Storage-slot proxies whose logic history Algorithm 1 recovered.",
    "monitor.alerts": "Live-monitor alerts raised, per kind.",
    "monitor.blocks_scanned": "Blocks scanned by the live monitor.",
    "monitor.poll_lag": "Blocks the live monitor trails the chain head by.",
    "monitor.reorgs":
        "Chain reorganizations the live monitor detected and rolled "
        "back through.",
    "obs.histogram_bound_mismatches":
        "Registry merges that overflowed a histogram with mismatched "
        "bucket bounds into the +Inf bucket.",
    "parallel.bisections":
        "Poison-shard splits performed by the sweep supervisor.",
    "parallel.heartbeat_lag_seconds":
        "High-water staleness of any worker heartbeat.",
    "parallel.hung_kills": "Workers killed for heartbeat staleness.",
    "parallel.poison_contracts":
        "Contracts quarantined by poison-shard bisection.",
    "parallel.respawns": "Dead or hung workers relaunched with resume.",
    "pipeline.quarantined":
        "Contracts quarantined by the sweep instead of aborting it, "
        "per cause.",
    "pipeline.store_restored_contracts":
        "Contracts restored from the durable store instead of re-analyzed "
        "(survey --store --incremental, or a respawned shard worker).",
    "pipeline.store_restored_skips":
        "Dead addresses restored from the durable store.",
    "proxy_check.emulation_failures":
        "4.2 proxy-check emulation failures, per cause.",
    "resilience.backoff_seconds":
        "Total backoff waited before retries (virtual or real), per "
        "RPC method.",
    "resilience.breaker_state":
        "Circuit state per RPC method (0 closed, 1 half-open, 2 open).",
    "resilience.breaker_transitions":
        "Circuit-breaker state changes, per RPC method and target state.",
    "resilience.circuit_open_rejections":
        "Calls rejected without an RPC while a circuit was open.",
    "resilience.deadline_exceeded":
        "Calls that exhausted their retry budget or deadline.",
    "resilience.retries": "Transient RPC failures retried, per method.",
    "rpc.calls": "Archive-node RPC calls issued, per method.",
    "serve.follower_polls":
        "Chain polls by the serve daemon's follower thread.",
    "serve.queries":
        "Point queries answered by the serve daemon, per result "
        "(hit = from the store, fresh = analyzed on miss).",
    "serve.query_seconds": "Serve daemon query latency.",
    "serve.queue_depth": "Requests waiting in the admission queue.",
    "serve.shed":
        "Requests shed by admission control (503), per reason.",
    "serve.throttled": "Requests refused by the rate limiter (429).",
    "rpc.emulation_failures":
        "eth_call emulations that terminated abnormally, per cause.",
    "rpc.latency_seconds": "Archive-node RPC latency, per method.",
    "span.seconds": "Wall-clock duration of pipeline stages, per span name.",
    "store.invalidated_instances":
        "Stored per-address rows discarded because the address's bytecode "
        "changed since they were committed.",
    "store.reorg_invalidations":
        "Stored per-address rows discarded because their deployment was "
        "orphaned by a chain reorg (hash-keyed facts survive).",
    "store.write_errors":
        "Store writes that failed and switched the binding to in-memory "
        "operation (run `repro store fsck` afterwards).",
}


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _prom_labels(labels, extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    typed: set[str] = set()

    def declare(name: str, raw_name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            help_text = METRIC_HELP.get(raw_name)
            if help_text is not None:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

    for counter in registry.iter_counters():
        name = prefix + _prom_name(counter.name)
        declare(name, counter.name, "counter")
        lines.append(f"{name}{_prom_labels(counter.labels)} "
                     f"{_fmt(counter.value)}")
    for gauge in registry.iter_gauges():
        name = prefix + _prom_name(gauge.name)
        declare(name, gauge.name, "gauge")
        lines.append(f"{name}{_prom_labels(gauge.labels)} {_fmt(gauge.value)}")
    for histogram in registry.iter_histograms():
        name = prefix + _prom_name(histogram.name)
        declare(name, histogram.name, "histogram")
        for bound, cumulative in histogram.cumulative_buckets():
            le_label = 'le="%s"' % _fmt(bound)
            lines.append(
                f"{name}_bucket{_prom_labels(histogram.labels, le_label)} "
                f"{cumulative}")
        lines.append(f"{name}_sum{_prom_labels(histogram.labels)} "
                     f"{repr(histogram.sum)}")
        lines.append(f"{name}_count{_prom_labels(histogram.labels)} "
                     f"{histogram.count}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    """The registry snapshot as a JSON string."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True)


# ------------------------------------------------------------- summary table
def _label_value(labels, key: str) -> str:
    for label_key, value in labels:
        if label_key == key:
            return value
    return ""


def _hit_rate(hits: float, misses: float) -> str:
    total = hits + misses
    if not total:
        return "n/a"
    return f"{hits / total:.1%}"


def survey_metrics_summary(registry: MetricsRegistry) -> str:
    """The human-readable ``--metrics`` block for survey/accuracy runs."""
    lines: list[str] = ["", "== observability (repro.obs) =="]

    # Per-stage wall time from the span histograms.
    span_rows = [h for h in registry.iter_histograms()
                 if h.name == "span.seconds" and h.count]
    if span_rows:
        lines.append("\nper-stage wall time (spans):")
        lines.append(f"  {'stage':28s} {'calls':>8s} {'total s':>10s} "
                     f"{'mean ms':>10s}")
        for histogram in sorted(span_rows,
                                key=lambda h: h.sum, reverse=True):
            stage = _label_value(histogram.labels, "name")
            lines.append(f"  {stage:28s} {histogram.count:>8d} "
                         f"{histogram.sum:>10.3f} "
                         f"{histogram.mean * 1000:>10.3f}")

    # Per-RPC-method counts and latency.
    rpc_counts = registry.counters_named("rpc.calls")
    if rpc_counts:
        lines.append("\nRPC usage (per method):")
        lines.append(f"  {'method':36s} {'calls':>8s} {'mean µs':>10s}")
        for labels, counter in sorted(rpc_counts.items(),
                                      key=lambda kv: -kv[1].value):
            method = _label_value(labels, "method")
            latency = registry.histogram("rpc.latency_seconds", method=method)
            lines.append(f"  {method:36s} {int(counter.value):>8d} "
                         f"{latency.mean * 1e6:>10.2f}")

    # Dedup cache effectiveness (§6.1), for all three caches.
    lines.append("\ndedup caches (§6.1):")
    for cache in ("proxy_check", "function_collision", "storage_collision"):
        hits = registry.counter_value("dedup.hits", cache=cache)
        misses = registry.counter_value("dedup.misses", cache=cache)
        lines.append(f"  {cache:20s} hits={int(hits):<7d} "
                     f"misses={int(misses):<7d} "
                     f"hit rate={_hit_rate(hits, misses)}")

    # The §6.1 headline: getStorageAt calls per storage proxy.
    recovery_calls = registry.counter_value("logic_recovery.getstorageat_calls")
    storage_proxies = registry.counter_value("logic_recovery.storage_proxies")
    if storage_proxies:
        per_proxy = recovery_calls / storage_proxies
        lines.append(
            f"\ngetStorageAt calls per proxy: {per_proxy:.1f} "
            f"({int(recovery_calls)} calls / {int(storage_proxies)} storage "
            f"proxies; paper §6.1: ~26)")
    else:
        lines.append("\ngetStorageAt calls per proxy: n/a "
                     "(no storage proxies recovered)")

    # EVM profile, when profiling was enabled.
    instructions = registry.counter_value("evm.instructions")
    if instructions:
        lines.append(f"\nEVM profile: {int(instructions)} instructions, "
                     f"base gas {int(registry.counter_value('evm.base_gas'))}, "
                     f"max call depth "
                     f"{int(registry.gauge('evm.max_call_depth').value)}")
        classes = registry.counters_named("evm.opcodes")
        top = sorted(classes.items(), key=lambda kv: -kv[1].value)[:6]
        for labels, counter in top:
            lines.append(f"  {_label_value(labels, 'class'):16s} "
                         f"{int(counter.value):>10d}")

    # Emulation failure causes, when any were recorded.
    failures = registry.counters_named("proxy_check.emulation_failures")
    if failures:
        lines.append("\nemulation failures by cause:")
        for labels, counter in sorted(failures.items(),
                                      key=lambda kv: -kv[1].value):
            lines.append(f"  {_label_value(labels, 'cause'):28s} "
                         f"{int(counter.value):>6d}")

    # Fault-injection / resilience counters, when a chaos run happened.
    injected = registry.counters_named("faults.injected")
    if injected:
        total_injected = sum(int(c.value) for c in injected.values())
        lines.append(f"\nfault injection: {total_injected} faults injected")
        for labels, counter in sorted(injected.items(),
                                      key=lambda kv: -kv[1].value):
            lines.append(f"  {_label_value(labels, 'kind'):12s} "
                         f"{_label_value(labels, 'method'):36s} "
                         f"{int(counter.value):>6d}")
    retries = registry.counters_named("resilience.retries")
    if retries:
        total_retries = sum(int(c.value) for c in retries.values())
        backoff = sum(c.value for c in registry.counters_named(
            "resilience.backoff_seconds").values())
        deadline = sum(int(c.value) for c in registry.counters_named(
            "resilience.deadline_exceeded").values())
        rejected = sum(int(c.value) for c in registry.counters_named(
            "resilience.circuit_open_rejections").values())
        lines.append(f"\nresilience: {total_retries} retries, "
                     f"{backoff:.3f}s backoff (virtual), "
                     f"{deadline} deadline-exceeded, "
                     f"{rejected} circuit-open rejections")
    quarantined = registry.counters_named("pipeline.quarantined")
    if quarantined:
        lines.append("\nquarantined contracts by cause:")
        for labels, counter in sorted(quarantined.items(),
                                      key=lambda kv: -kv[1].value):
            lines.append(f"  {_label_value(labels, 'cause'):28s} "
                         f"{int(counter.value):>6d}")

    # Monitor counters, when a monitor ran in this process.
    blocks_scanned = registry.counter_value("monitor.blocks_scanned")
    if blocks_scanned:
        lines.append(f"\nmonitor: {int(blocks_scanned)} blocks scanned, "
                     f"poll lag "
                     f"{int(registry.gauge('monitor.poll_lag').value)} blocks")
        for labels, counter in sorted(
                registry.counters_named("monitor.alerts").items()):
            lines.append(f"  alerts[{_label_value(labels, 'kind')}]: "
                         f"{int(counter.value)}")

    return "\n".join(lines)


# ------------------------------------------------------------ bench summary
def bench_summary(payload: dict) -> str:
    """Human rendering of a ``repro.bench/1`` payload (``repro bench``)."""
    meta = payload.get("meta", {})
    lines = [
        "",
        f"== repro bench ({payload.get('schema', '?')}) ==",
        f"python {meta.get('python', '?')} on {meta.get('platform', '?')}; "
        f"commit {meta.get('git_commit') or 'n/a'}; "
        f"{meta.get('repeats', '?')} repeats"
        f"{' (quick)' if meta.get('quick') else ''}",
        "",
        f"  {'workload':20s} {'median ms':>10s} {'iqr ms':>8s} "
        f"{'stddev ms':>10s} {'rpc':>7s} {'dedup':>6s} {'evm instr':>10s}",
    ]
    for name, row in payload.get("workloads", {}).items():
        stats = row.get("stats", {})
        rpc_total = sum(row.get("rpc", {}).values())
        hit_rates = [cache.get("hit_rate")
                     for cache in row.get("dedup", {}).values()
                     if cache.get("hit_rate") is not None]
        dedup = (f"{sum(hit_rates) / len(hit_rates):.0%}"
                 if hit_rates else "n/a")
        instructions = row.get("evm", {}).get("instructions", 0)
        lines.append(
            f"  {name:20s} {stats.get('median', 0) * 1000:>10.2f} "
            f"{stats.get('iqr', 0) * 1000:>8.2f} "
            f"{stats.get('stddev', 0) * 1000:>10.2f} "
            f"{rpc_total:>7d} {dedup:>6s} {instructions:>10d}")

        # The dominant pipeline stages, so a row explains itself.
        spans = row.get("spans", {})
        top = sorted(spans.items(),
                     key=lambda kv: -kv[1].get("total_s", 0))[:3]
        if top:
            detail = ", ".join(f"{stage} {info.get('total_s', 0):.3f}s"
                               for stage, info in top)
            lines.append(f"  {'':20s} └─ {detail}")
    return "\n".join(lines)
