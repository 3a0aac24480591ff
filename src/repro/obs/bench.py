"""Continuous benchmarking: deterministic workloads, trajectory files, gates.

The paper's scaling claims are throughput numbers — §6.1's per-stage
runtimes, ~26 ``getStorageAt`` calls per proxy, the dedup that turns years
of sweeping into 48 days — so the reproduction keeps a benchmarking spine
that every perf PR can cite.  Three layers, all dependency-free:

* **Workload suite** — :data:`WORKLOADS`: the landscape sweep at two/three
  scales, proxy-check only, Algorithm 1 logic recovery, function/storage
  collision scoring on the accuracy corpus, and §2.3 selector mining.
  Every workload runs on a fixed seed, with warmup plus N timed repeats.
* **Result schema** — :func:`run_suite` produces a schema-versioned
  payload (``repro.bench/1``) with robust timing stats (min / median /
  IQR / stddev) **and** the observability dimensions the registry already
  collects — per-stage span breakdown, ``rpc.calls`` by method, §6.1
  dedup hit rates, EVM opcode-class profile — so each row explains *where*
  the time went.  ``repro bench`` serializes it to ``BENCH_proxion.json``.
* **Regression gate** — :func:`compare_payloads` diffs two payloads with
  per-workload thresholds (fail > 25 % median regression, warn > 10 %,
  tolerant of zero/missing baselines); ``tools/check_bench_regression.py``
  wraps it for CI.

See ``docs/benchmarking.md`` for the JSON schema and how to read the
numbers.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer, clock

#: Version tag of the result payload layout.
SCHEMA = "repro.bench/1"

#: Default serialization target at the repo root.
DEFAULT_RESULT_FILE = "BENCH_proxion.json"

#: Median-regression thresholds (fractions of the baseline median).
FAIL_THRESHOLD = 0.25
WARN_THRESHOLD = 0.10

#: Per-workload *fail* threshold overrides.  Selector mining is a tight
#: hash loop whose wall time is the noisiest of the suite, so it gets more
#: headroom before the gate trips.
PER_WORKLOAD_FAIL: dict[str, float] = {
    "selector_mining": 0.50,
}

#: The three §6.1 dedup caches, mirrored from the pipeline.
_DEDUP_CACHES = ("proxy_check", "function_collision", "storage_collision")


# --------------------------------------------------------------------- config
@dataclass(slots=True)
class BenchConfig:
    """Knobs of one suite run (``--quick`` flips the reduced profile)."""

    quick: bool = False
    repeats: int | None = None     # None → 2 quick / 5 full
    warmup: int = 1
    seed: int = 2024
    only: tuple[str, ...] | None = None   # workload-name filter

    @property
    def effective_repeats(self) -> int:
        if self.repeats is not None:
            return max(1, self.repeats)
        return 2 if self.quick else 5

    def scale(self, quick_value: int, full_value: int) -> int:
        return quick_value if self.quick else full_value


# ------------------------------------------------------------------ workloads
@dataclass(frozen=True, slots=True)
class Workload:
    """One benchmarkable unit of the reproduction.

    ``setup`` builds the (reused) world once; ``run`` executes one timed
    repeat and returns the registry to harvest observability dimensions
    from, plus workload-specific metadata for the result row.
    """

    name: str
    description: str
    setup: Callable[[BenchConfig], Any]
    run: Callable[[Any, BenchConfig], tuple[MetricsRegistry, dict]]
    quick: bool = True             # included in --quick runs


#: Landscapes are deterministic for a (total, seed) pair — share them
#: across workloads so the suite pays generation once per scale.
_LANDSCAPE_CACHE: dict[tuple[int, int], Any] = {}


def _landscape(total: int, seed: int):
    key = (total, seed)
    world = _LANDSCAPE_CACHE.get(key)
    if world is None:
        from repro.corpus.generator import generate_landscape
        world = generate_landscape(total=total, seed=seed)
        _LANDSCAPE_CACHE[key] = world
    return world


def _sweep_workload(total_quick: int, total_full: int,
                    quick: bool = True) -> Workload:
    def setup(config: BenchConfig):
        return _landscape(config.scale(total_quick, total_full), config.seed)

    def run(world, config: BenchConfig):
        from repro.core.pipeline import Proxion, ProxionOptions
        world.node.metrics.reset()
        proxion = Proxion(world.node, registry=world.registry, dataset=world.dataset,
                          options=ProxionOptions(profile_evm=True))
        report = proxion.analyze_all()
        return world.node.metrics, {
            "contracts": len(report),
            "proxies": len(report.proxies()),
            "function_collision_pairs": report.function_collision_pairs(),
            "storage_collision_pairs": report.storage_collision_pairs(),
        }

    return Workload(
        name=f"sweep_{total_full}",
        description=f"full §7 pipeline sweep over a {total_full}-contract "
                    f"landscape ({total_quick} in --quick)",
        setup=setup, run=run, quick=quick)


def _proxy_check_workload() -> Workload:
    def setup(config: BenchConfig):
        world = _landscape(config.scale(50, 80), config.seed)
        return world, world.addresses()

    def run(context, config: BenchConfig):
        from repro.core.pipeline import Proxion, ProxionOptions
        world, addresses = context
        world.node.metrics.reset()
        proxion = Proxion(world.node, registry=world.registry, dataset=world.dataset,
                          options=ProxionOptions(profile_evm=True))
        proxies = sum(1 for address in addresses
                      if proxion.check_proxy(address).is_proxy)
        # analyze_all() normally flushes the EVM profile; checking only
        # proxy verdicts bypasses it, so flush here.
        proxion.evm_profiler.flush_to(world.node.metrics)
        return world.node.metrics, {
            "contracts": len(addresses),
            "proxies": proxies,
        }

    return Workload(
        name="proxy_check",
        description="two-step proxy detection only (§4.1–§4.2), with the "
                    "bytecode-hash dedup cache",
        setup=setup, run=run)


def _logic_recovery_workload() -> Workload:
    def setup(config: BenchConfig):
        from repro.core.proxy_detector import ProxyDetector
        world = _landscape(config.scale(50, 80), config.seed)
        detector = ProxyDetector(world.chain.state,
                                 world.chain.block_context())
        checks = []
        for address in world.true_proxies():
            check = detector.check(address)
            if check.is_proxy and check.logic_slot is not None:
                checks.append(check)
        return world, checks

    def run(context, config: BenchConfig):
        from repro.core.logic_finder import LogicFinder
        world, checks = context
        world.node.metrics.reset()
        tracer = SpanTracer(registry=world.node.metrics)
        finder = LogicFinder(world.node)
        histories = []
        for check in checks:
            with tracer.span("logic_history"):
                histories.append(finder.find(check))
        calls = [history.api_calls_used for history in histories]
        return world.node.metrics, {
            "storage_proxies": len(checks),
            "mean_getstorageat_calls":
                statistics.mean(calls) if calls else 0.0,
        }

    return Workload(
        name="logic_recovery",
        description="Algorithm 1 logic-history recovery (binary search over "
                    "the block range) for every storage proxy",
        setup=setup, run=run)


def _collision_accuracy_workload() -> Workload:
    def setup(config: BenchConfig):
        from repro.corpus.ground_truth import build_accuracy_corpus
        return build_accuracy_corpus(
            pairs_per_case=config.scale(3, 6), seed=config.seed)

    def run(corpus, config: BenchConfig):
        from repro.landscape.accuracy import table2
        registry = MetricsRegistry()
        tracer = SpanTracer(registry=registry)
        collisions = 0
        for methodology in ("union", "all"):
            with tracer.span("table2", methodology=methodology):
                scored = table2(corpus, methodology=methodology)
            collisions += sum(matrix.tp + matrix.fn
                              for tools in scored.values()
                              for tool, matrix in tools.items()
                              if tool == "Proxion")
        return registry, {
            "labelled_pairs": len(corpus.pairs),
            "proxion_positive_pairs": collisions,
        }

    return Workload(
        name="collision_accuracy",
        description="function + storage collision scoring (Table 2, both "
                    "methodologies) on the labelled accuracy corpus",
        setup=setup, run=run)


def _selector_mining_workload() -> Workload:
    def setup(config: BenchConfig):
        from repro.utils.abi import function_selector
        return function_selector("free_ether_withdrawal()")

    def run(target, config: BenchConfig):
        from repro.core.selector_miner import mine_selector
        registry = MetricsRegistry()
        tracer = SpanTracer(registry=registry)
        result = mine_selector(target, prefix_bits=12,
                               max_attempts=200_000, tracer=tracer)
        return registry, {
            "attempts": result.attempts,
            "found": result.found,
            "attempts_per_second": round(result.attempts_per_second),
        }

    return Workload(
        name="selector_mining",
        description="§2.3 selector-collision mining, 12-bit prefix against "
                    "free_ether_withdrawal()",
        setup=setup, run=run)


def _pipeline_faulty_workload() -> Workload:
    def setup(config: BenchConfig):
        return _landscape(config.scale(50, 80), config.seed)

    def run(world, config: BenchConfig):
        from repro.chain.faults import FaultyNode, canned_plan
        from repro.chain.resilient import ResilientNode
        from repro.core.pipeline import Proxion, ProxionOptions
        world.node.metrics.reset()
        # A fresh FaultyNode per repeat resets its call counters, so every
        # repeat sees the identical deterministic fault schedule.
        plan = canned_plan("transient", seed=config.seed)
        node = ResilientNode(FaultyNode(world.node, plan),
                             seed=config.seed, sleep=None)
        proxion = Proxion(node, registry=world.registry, dataset=world.dataset,
                          options=ProxionOptions())
        report = proxion.analyze_all()
        registry = world.node.metrics
        retries = sum(int(counter.value) for counter
                      in registry.counters_named("resilience.retries").values())
        injected = sum(int(counter.value) for counter
                       in registry.counters_named("faults.injected").values())
        return registry, {
            "contracts": len(report),
            "quarantined": len(report.failures),
            "faults_injected": injected,
            "retries": retries,
        }

    return Workload(
        name="pipeline_faulty",
        description="the sweep_80 pipeline under the canned 'transient' "
                    "fault plan, absorbed by the resilient RPC layer "
                    "(retry/backoff overhead measurement)",
        setup=setup, run=run)


def _pipeline_parallel_workload(workers: int = 4) -> Workload:
    def setup(config: BenchConfig):
        return _landscape(config.scale(120, 250), config.seed)

    def run(world, config: BenchConfig):
        import os

        from repro.core.pipeline import ProxionOptions
        from repro.parallel import SweepSpec, run_sharded_sweep

        spec = SweepSpec(total=config.scale(120, 250), seed=config.seed,
                         options=ProxionOptions(profile_evm=True))
        result = run_sharded_sweep(spec, workers=workers,
                                   strategy="codehash", world=world)
        # Wall-clock speedup is a property of the host (free cores, pool
        # start-up); the CPU critical path is the hardware-independent
        # number: total shard CPU over the slowest shard.
        return result.metrics, {
            "contracts": len(result.report),
            "workers": workers,
            "strategy": result.strategy,
            "host_cpus": os.cpu_count(),
            "sum_shard_cpu_s": round(result.sum_shard_cpu_s, 4),
            "max_shard_cpu_s": round(result.max_shard_cpu_s, 4),
            "critical_path_speedup": round(result.critical_path_speedup, 3),
        }

    return Workload(
        name="pipeline_parallel",
        description=f"the sweep_250 pipeline sharded across {workers} "
                    f"worker processes (codehash strategy, merged "
                    f"byte-identically; measures fan-out overhead and the "
                    f"CPU critical path)",
        setup=setup, run=run)


def _pipeline_supervised_workload(workers: int = 4) -> Workload:
    def setup(config: BenchConfig):
        return _landscape(config.scale(120, 250), config.seed)

    def run(world, config: BenchConfig):
        from repro.core.pipeline import ProxionOptions
        from repro.parallel import (
            SupervisorConfig,
            SweepSpec,
            run_sharded_sweep,
        )

        # The windowed worker-crash plan kills every attempt that still
        # makes 16+ eth_getCode calls (a per-process call index), so a
        # shard dies repeatedly; respawns resume from the sweep's store and
        # bisection finishes the job.  The median-wall delta against
        # pipeline_parallel (same scale, crash-free) is the price of
        # those crashes — the supervisor's self-healing overhead under
        # fire.
        spec = SweepSpec(total=config.scale(120, 250), seed=config.seed,
                         options=ProxionOptions(profile_evm=True),
                         chaos="worker-crash", chaos_seed=config.seed)
        result = run_sharded_sweep(
            spec, workers=workers, strategy="codehash", world=world,
            supervise=SupervisorConfig(shard_timeout_s=30.0,
                                       max_shard_retries=2))
        return result.metrics, {
            "contracts": len(result.report),
            "quarantined": len(result.report.failures),
            "workers": workers,
            "respawns": result.respawns,
            "hung_kills": result.hung_kills,
            "poison_contracts": result.poison_contracts,
            "sum_shard_cpu_s": round(result.sum_shard_cpu_s, 4),
            "critical_path_speedup": round(result.critical_path_speedup, 3),
        }

    return Workload(
        name="pipeline_supervised",
        description=f"the sweep_250 pipeline across {workers} supervised "
                    f"workers under the worker-crash plan, which kills "
                    f"every attempt with 16+ eth_getCode calls left: "
                    f"measures the kill/respawn/resume/bisect "
                    f"self-healing overhead vs pipeline_parallel",
        setup=setup, run=run)


def _pipeline_supervised_events_workload(workers: int = 4) -> Workload:
    def setup(config: BenchConfig):
        return _landscape(config.scale(120, 250), config.seed)

    def run(world, config: BenchConfig):
        import tempfile

        from repro.core.pipeline import ProxionOptions
        from repro.parallel import (
            SupervisorConfig,
            SweepSpec,
            run_sharded_sweep,
        )

        # pipeline_supervised with the flight recorder switched on: same
        # scale, same crash plan, plus the merged events journal (parent
        # narration, per-worker journals, cross-process ingestion).  The
        # median delta against pipeline_supervised is the recorder's
        # whole-sweep overhead — the acceptance bar is <5%.
        spec = SweepSpec(total=config.scale(120, 250), seed=config.seed,
                         options=ProxionOptions(profile_evm=True),
                         chaos="worker-crash", chaos_seed=config.seed)
        with tempfile.TemporaryDirectory(prefix="repro-bench-events-") as d:
            result = run_sharded_sweep(
                spec, workers=workers, strategy="codehash", world=world,
                supervise=SupervisorConfig(shard_timeout_s=30.0,
                                           max_shard_retries=2),
                events_path=os.path.join(d, "sweep.events.jsonl"))
            from repro.obs.events import read_journal
            journal_events = len(read_journal(
                os.path.join(d, "sweep.events.jsonl")).events)
        return result.metrics, {
            "contracts": len(result.report),
            "quarantined": len(result.report.failures),
            "workers": workers,
            "respawns": result.respawns,
            "journal_events": journal_events,
            "sum_shard_cpu_s": round(result.sum_shard_cpu_s, 4),
            "critical_path_speedup": round(result.critical_path_speedup, 3),
        }

    return Workload(
        name="pipeline_supervised_events",
        description=f"pipeline_supervised with the repro.events/1 flight "
                    f"recorder journaling the whole run across {workers} "
                    f"workers: the median delta against pipeline_supervised "
                    f"is the journal's overhead (<5% required)",
        setup=setup, run=run)


def _pipeline_audited_workload(workers: int = 4) -> Workload:
    def setup(config: BenchConfig):
        return _landscape(config.scale(120, 250), config.seed)

    def run(world, config: BenchConfig):
        import tempfile

        from repro.core.pipeline import ProxionOptions
        from repro.parallel import SweepSpec, run_sharded_sweep

        # pipeline_parallel with verdict provenance switched on: same
        # scale, crash-free, plus per-contract repro.evidence/1 trails
        # recorded in every worker and persisted to a shared audit
        # directory.  The median delta against pipeline_parallel is the
        # price of *full* evidence recording; the un-audited default path
        # (NULL_TRAIL) must stay within the regression gate's bar of the
        # committed pipeline_parallel baseline — that is what proves the
        # no-op trail really is free.
        spec = SweepSpec(total=config.scale(120, 250), seed=config.seed,
                         options=ProxionOptions(profile_evm=True))
        with tempfile.TemporaryDirectory(prefix="repro-bench-audit-") as d:
            audit_dir = os.path.join(d, "audit")
            result = run_sharded_sweep(spec, workers=workers,
                                       strategy="codehash", world=world,
                                       audit_dir=audit_dir)
            from repro.obs.provenance import AuditDir
            evidence_files = len(AuditDir(audit_dir).addresses())
        return result.metrics, {
            "contracts": len(result.report),
            "workers": workers,
            "evidence_files": evidence_files,
            "sum_shard_cpu_s": round(result.sum_shard_cpu_s, 4),
            "critical_path_speedup": round(result.critical_path_speedup, 3),
        }

    return Workload(
        name="pipeline_audited",
        description=f"pipeline_parallel with repro.evidence/1 verdict "
                    f"provenance recorded in all {workers} workers (one "
                    f"evidence file per contract): the median delta "
                    f"against pipeline_parallel bounds the audit overhead",
        setup=setup, run=run)


def _pipeline_incremental_workload() -> Workload:
    def setup(config: BenchConfig):
        import tempfile

        from repro.core.pipeline import Proxion
        from repro.store import attach_store

        # The "corpus before growth": the first half of the landscape,
        # swept once into a warm store.  Each timed repeat then re-sweeps
        # the full (2x grown) corpus incrementally from a pristine copy
        # of that store — the O(delta) claim under test.  One untimed
        # cold full sweep is clocked here for the warm/cold ratio.
        world = _landscape(config.scale(120, 250), config.seed)
        addresses = world.addresses()
        workdir = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
        warm_path = os.path.join(workdir.name, "warm.store")
        with attach_store(warm_path) as binding:
            proxion = Proxion.from_chain(world.chain,
                                         registry=world.registry,
                                         dataset=world.dataset,
                                         store=binding)
            proxion.analyze_all(addresses[:len(addresses) // 2])
        start = clock()
        cold = Proxion.from_chain(world.chain, registry=world.registry,
                                  dataset=world.dataset)
        cold.analyze_all(addresses)
        cold_wall_s = clock() - start
        # The TemporaryDirectory object rides along so the warm store
        # outlives setup (it is deleted with the context).
        return world, workdir, warm_path, cold_wall_s

    def run(context, config: BenchConfig):
        import shutil

        from repro.core.pipeline import Proxion
        from repro.store import attach_store

        world, workdir, warm_path, cold_wall_s = context
        run_path = os.path.join(workdir.name, "run.store")
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(warm_path + suffix):
                shutil.copyfile(warm_path + suffix, run_path + suffix)
        start = clock()
        with attach_store(run_path, incremental=True) as binding:
            proxion = Proxion.from_chain(world.chain,
                                         registry=world.registry,
                                         dataset=world.dataset,
                                         store=binding)
            report = proxion.analyze_all()
        warm_wall_s = clock() - start
        counters = proxion.metrics.snapshot()["counters"]
        return proxion.metrics, {
            "contracts": len(report),
            "restored_contracts": counters.get(
                "pipeline.store_restored_contracts", 0),
            "emulated_code_hashes": counters.get(
                'dedup.misses{cache="proxy_check"}', 0),
            "cold_wall_s": round(cold_wall_s, 4),
            "warm_over_cold": (round(warm_wall_s / cold_wall_s, 3)
                               if cold_wall_s else None),
        }

    return Workload(
        name="pipeline_incremental",
        description="warm --store --incremental re-sweep of a 2x grown "
                    "corpus (first half already settled in the store) vs "
                    "the cold from-scratch sweep: the warm_over_cold "
                    "ratio is the O(delta) headline",
        setup=setup, run=run)


def _serve_queries_workload() -> Workload:
    def setup(config: BenchConfig):
        import tempfile

        from repro.core.pipeline import Proxion
        from repro.store import attach_store

        # A settled store fronted by the daemon: every benched query is
        # a point read through a WAL reader connection, the service
        # mode's hot path.
        world = _landscape(config.scale(60, 150), config.seed)
        workdir = tempfile.TemporaryDirectory(prefix="repro-bench-serve-")
        store_path = os.path.join(workdir.name, "serve.store")
        with attach_store(store_path) as binding:
            proxion = Proxion.from_chain(world.chain,
                                         registry=world.registry,
                                         dataset=world.dataset,
                                         store=binding)
            report = proxion.analyze_all()
        rendered = ["0x" + address.hex() for address in report.analyses]
        return world, workdir, store_path, rendered

    def run(context, config: BenchConfig):
        from http.client import HTTPConnection

        from repro.serve import ServeApp, ServeConfig

        world, workdir, store_path, rendered = context
        world.node.metrics.reset()
        queries = config.scale(200, 800)
        serve_config = ServeConfig(
            store_path=store_path,
            # The bench measures query latency, not the throttle: one
            # keep-alive client must never be rate limited here.
            rate_per_s=1e9, burst=queries + 1)
        latencies: list[float] = []
        opened = clock()
        with ServeApp(serve_config, landscape=world) as app:
            # qps covers the query loop only; the daemon's start-up is
            # reported on its own.
            startup_s = clock() - opened
            connection = HTTPConnection("127.0.0.1", app.port, timeout=30)
            start = clock()
            try:
                for index in range(queries):
                    address = rendered[index % len(rendered)]
                    began = clock()
                    connection.request("GET", f"/v1/contract/{address}")
                    response = connection.getresponse()
                    body = response.read()
                    latencies.append(clock() - began)
                    assert response.status == 200, body[:200]
            finally:
                connection.close()
            wall_s = clock() - start
        latencies.sort()

        def percentile(fraction: float) -> float:
            return latencies[min(len(latencies) - 1,
                                 int(fraction * len(latencies)))]

        return world.node.metrics, {
            "queries": queries,
            "contracts": len(rendered),
            "qps": round(queries / wall_s, 1) if wall_s else None,
            "startup_s": round(startup_s, 6),
            "p50_ms": round(percentile(0.50) * 1000, 3),
            "p99_ms": round(percentile(0.99) * 1000, 3),
        }

    return Workload(
        name="serve_queries",
        description="GET /v1/contract/ADDR against a settled store over "
                    "one keep-alive connection (800 queries, 200 in "
                    "--quick): p50/p99 latency and qps of the serve "
                    "daemon's hot path, with its start-up timed apart "
                    "(startup_s)",
        setup=setup, run=run)


def _build_workloads() -> dict[str, Workload]:
    suite = [
        _sweep_workload(50, 80),
        _sweep_workload(120, 250),
        _sweep_workload(500, 500, quick=False),
        _pipeline_faulty_workload(),
        _pipeline_parallel_workload(),
        _pipeline_audited_workload(),
        _pipeline_incremental_workload(),
        _serve_queries_workload(),
        _pipeline_supervised_workload(),
        _pipeline_supervised_events_workload(),
        _proxy_check_workload(),
        _logic_recovery_workload(),
        _collision_accuracy_workload(),
        _selector_mining_workload(),
    ]
    return {workload.name: workload for workload in suite}


#: The registered suite, in execution order.
WORKLOADS: dict[str, Workload] = _build_workloads()


def select_workloads(config: BenchConfig) -> list[Workload]:
    """The workloads one config runs, honoring ``--quick`` and filters."""
    selected = []
    for workload in WORKLOADS.values():
        if config.quick and not workload.quick:
            continue
        if config.only is not None and workload.name not in config.only:
            continue
        selected.append(workload)
    if config.only is not None:
        unknown = set(config.only) - set(WORKLOADS)
        if unknown:
            raise KeyError(f"unknown workload(s): {', '.join(sorted(unknown))}"
                           f" (known: {', '.join(WORKLOADS)})")
    return selected


# ------------------------------------------------------------------- the run
@dataclass(slots=True)
class WorkloadResult:
    """Timings + observability dimensions of one benchmarked workload."""

    name: str
    description: str
    timings_s: list[float]
    dims: dict[str, Any]
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def stats(self) -> dict[str, float]:
        return timing_stats(self.timings_s)

    def to_dict(self) -> dict[str, Any]:
        return {
            "description": self.description,
            "repeats": len(self.timings_s),
            "timings_s": [round(t, 6) for t in self.timings_s],
            "stats": {k: round(v, 6) for k, v in self.stats.items()},
            "spans": self.dims.get("spans", {}),
            "rpc": self.dims.get("rpc", {}),
            "dedup": self.dims.get("dedup", {}),
            "evm": self.dims.get("evm", {}),
            "meta": self.meta,
        }


def timing_stats(timings: list[float]) -> dict[str, float]:
    """Robust summary stats: min/median plus IQR and stddev for spread."""
    if not timings:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "median": 0.0,
                "stddev": 0.0, "p25": 0.0, "p75": 0.0, "iqr": 0.0}
    ordered = sorted(timings)
    if len(ordered) >= 2:
        # statistics.quantiles needs n>=2; exclusive matches numpy default.
        quartiles = statistics.quantiles(ordered, n=4, method="inclusive")
        p25, median, p75 = quartiles
        stddev = statistics.stdev(ordered)
    else:
        p25 = median = p75 = ordered[0]
        stddev = 0.0
    return {
        "min": ordered[0],
        "max": ordered[-1],
        "mean": statistics.fmean(ordered),
        "median": median,
        "stddev": stddev,
        "p25": p25,
        "p75": p75,
        "iqr": p75 - p25,
    }


def _labels_dict(labels) -> dict[str, str]:
    return dict(labels)


def dims_from_registry(registry: MetricsRegistry) -> dict[str, Any]:
    """Harvest the explanatory dimensions of one repeat from a registry."""
    spans: dict[str, dict[str, float]] = {}
    for histogram in registry.iter_histograms():
        if histogram.name != "span.seconds" or not histogram.count:
            continue
        stage = _labels_dict(histogram.labels).get("name", "")
        spans[stage] = {
            "calls": histogram.count,
            "total_s": round(histogram.sum, 6),
            "mean_ms": round(histogram.mean * 1000, 4),
        }

    rpc = {
        _labels_dict(labels).get("method", ""): int(counter.value)
        for labels, counter in registry.counters_named("rpc.calls").items()
        if counter.value
    }

    dedup: dict[str, dict[str, Any]] = {}
    for cache in _DEDUP_CACHES:
        hits = int(registry.counter_value("dedup.hits", cache=cache))
        misses = int(registry.counter_value("dedup.misses", cache=cache))
        total = hits + misses
        dedup[cache] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else None,
        }

    evm = {
        "instructions": int(registry.counter_value("evm.instructions")),
        "base_gas": int(registry.counter_value("evm.base_gas")),
        "creates": int(registry.counter_value("evm.creates")),
        "logs": int(registry.counter_value("evm.logs")),
        "max_call_depth": int(registry.gauge("evm.max_call_depth").value),
        "opcode_classes": {
            _labels_dict(labels).get("class", ""): int(counter.value)
            for labels, counter
            in registry.counters_named("evm.opcodes").items()
            if counter.value
        },
    }
    return {"spans": spans, "rpc": rpc, "dedup": dedup, "evm": evm}


def run_workload(workload: Workload, config: BenchConfig) -> WorkloadResult:
    """Warmup + N timed repeats of one workload, on the shared obs clock."""
    context = workload.setup(config)
    timings: list[float] = []
    registry: MetricsRegistry | None = None
    meta: dict[str, Any] = {}
    for iteration in range(config.warmup + config.effective_repeats):
        start = clock()
        registry, meta = workload.run(context, config)
        elapsed = clock() - start
        if iteration >= config.warmup:
            timings.append(elapsed)
    assert registry is not None
    return WorkloadResult(
        name=workload.name,
        description=workload.description,
        timings_s=timings,
        dims=dims_from_registry(registry),
        meta=meta,
    )


def environment_meta(config: BenchConfig) -> dict[str, Any]:
    """Host / interpreter / git provenance of one suite run."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "hostname": socket.gethostname(),
        "git_commit": commit,
        "quick": config.quick,
        "repeats": config.effective_repeats,
        "warmup": config.warmup,
        "seed": config.seed,
        "created_unix": round(time.time(), 3),
        "argv": sys.argv[1:],
    }


def run_suite(config: BenchConfig | None = None,
              progress: Callable[[str], None] | None = None) -> dict[str, Any]:
    """Run the selected workloads; return the ``repro.bench/1`` payload."""
    config = config or BenchConfig()
    results: list[WorkloadResult] = []
    selected = select_workloads(config)
    for index, workload in enumerate(selected, start=1):
        if progress is not None:
            progress(f"[{index}/{len(selected)}] {workload.name}: "
                     f"{workload.description}")
        result = run_workload(workload, config)
        if progress is not None:
            stats = result.stats
            progress(f"    median {stats['median'] * 1000:.1f} ms "
                     f"(min {stats['min'] * 1000:.1f}, "
                     f"iqr {stats['iqr'] * 1000:.1f}) "
                     f"over {len(result.timings_s)} repeats")
        results.append(result)
    return {
        "schema": SCHEMA,
        "meta": environment_meta(config),
        "workloads": {result.name: result.to_dict() for result in results},
    }


# ------------------------------------------------------------- serialization
def write_payload(payload: dict[str, Any], path: str) -> None:
    """Serialize one payload; surfaces ``OSError`` with the target path."""
    try:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2, sort_keys=True)
            stream.write("\n")
    except OSError as error:
        raise OSError(f"cannot write benchmark results to {path!r}: "
                      f"{error}") from error


def load_payload(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


def validate_payload(payload: Any) -> list[str]:
    """All schema problems of one payload (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema is {payload.get('schema')!r}, "
                        f"expected {SCHEMA!r}")
    meta = payload.get("meta")
    if not isinstance(meta, dict) or "python" not in meta:
        problems.append("meta missing or lacks interpreter provenance")
    workloads = payload.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        return problems + ["no workloads recorded"]
    for name, row in workloads.items():
        if not isinstance(row, dict):
            problems.append(f"{name}: row is not an object")
            continue
        stats = row.get("stats", {})
        for key in ("min", "median", "stddev", "iqr"):
            if key not in stats:
                problems.append(f"{name}: stats missing {key!r}")
        if not row.get("timings_s"):
            problems.append(f"{name}: no timings recorded")
        for dimension in ("spans", "rpc", "dedup", "evm"):
            if dimension not in row:
                problems.append(f"{name}: missing {dimension!r} breakdown")
    return problems


# ----------------------------------------------------------------- comparator
@dataclass(frozen=True, slots=True)
class ComparisonRow:
    """One workload's baseline-vs-current verdict."""

    workload: str
    status: str                    # ok | improved | warn | fail | new |
    #                                missing | zero-baseline
    baseline_median: float | None
    current_median: float | None
    delta: float | None            # (current - baseline) / baseline

    def describe(self) -> str:
        if self.status == "new":
            return f"{self.workload}: new workload (no baseline) — ok"
        if self.status == "missing":
            return (f"{self.workload}: present in baseline only — "
                    f"was it removed?")
        if self.status == "zero-baseline":
            return (f"{self.workload}: baseline median is zero — "
                    f"cannot compare, skipping")
        assert self.delta is not None
        direction = "slower" if self.delta >= 0 else "faster"
        return (f"{self.workload}: {abs(self.delta):.1%} {direction} "
                f"(median {self.baseline_median * 1000:.2f} ms → "
                f"{self.current_median * 1000:.2f} ms) [{self.status}]")


@dataclass(slots=True)
class BenchComparison:
    """The full diff of two payloads, with the gate verdict."""

    rows: list[ComparisonRow]

    @property
    def failures(self) -> list[ComparisonRow]:
        return [row for row in self.rows if row.status == "fail"]

    @property
    def warnings(self) -> list[ComparisonRow]:
        return [row for row in self.rows
                if row.status in ("warn", "missing")]

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def render(self) -> str:
        lines = ["== bench regression gate =="]
        for row in self.rows:
            lines.append("  " + row.describe())
        if self.failed:
            lines.append(f"FAIL: {len(self.failures)} workload(s) regressed "
                         f"beyond the fail threshold")
        elif self.warnings:
            lines.append(f"WARN: {len(self.warnings)} workload(s) need "
                         f"attention (gate passes)")
        else:
            lines.append("OK: no regressions")
        return "\n".join(lines)


def _median_of(row: Any) -> float | None:
    if not isinstance(row, dict):
        return None
    median = row.get("stats", {}).get("median")
    return float(median) if isinstance(median, (int, float)) else None


def compare_payloads(baseline: Any, current: Any, *,
                     warn_threshold: float = WARN_THRESHOLD,
                     fail_threshold: float = FAIL_THRESHOLD,
                     per_workload_fail: dict[str, float] | None = None,
                     ) -> BenchComparison:
    """Diff two ``repro.bench/1`` payloads, tolerant of sparse baselines.

    A workload **fails** when its current median exceeds the baseline
    median by strictly more than its fail threshold (exactly at the
    threshold still only warns), **warns** above ``warn_threshold``, and is
    reported but never failed for missing/zero baselines — an empty
    baseline must not brick the gate on first adoption.
    """
    overrides = dict(PER_WORKLOAD_FAIL)
    overrides.update(per_workload_fail or {})
    baseline_rows = (baseline or {}).get("workloads", {}) \
        if isinstance(baseline, dict) else {}
    current_rows = (current or {}).get("workloads", {}) \
        if isinstance(current, dict) else {}

    rows: list[ComparisonRow] = []
    for name in sorted(set(baseline_rows) | set(current_rows)):
        base_median = _median_of(baseline_rows.get(name))
        cur_median = _median_of(current_rows.get(name))
        if cur_median is None:
            rows.append(ComparisonRow(name, "missing", base_median, None,
                                      None))
            continue
        if base_median is None:
            rows.append(ComparisonRow(name, "new", None, cur_median, None))
            continue
        if base_median <= 0:
            rows.append(ComparisonRow(name, "zero-baseline", base_median,
                                      cur_median, None))
            continue
        delta = (cur_median - base_median) / base_median
        # Overrides only ever grant extra headroom (noisy workloads); a
        # looser global threshold is never tightened back down by one.
        workload_fail = max(overrides.get(name, fail_threshold),
                            fail_threshold)
        if delta > workload_fail:
            status = "fail"
        elif delta > warn_threshold:
            status = "warn"
        elif delta < -warn_threshold:
            status = "improved"
        else:
            status = "ok"
        rows.append(ComparisonRow(name, status, base_median, cur_median,
                                  delta))
    return BenchComparison(rows=rows)
