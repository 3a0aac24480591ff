"""The sharded sweep engine: N workers, one merged, deterministic report.

``run_sharded_sweep`` partitions a landscape's address list with
:mod:`repro.parallel.shard`, runs one :class:`~repro.core.pipeline.Proxion`
per shard, and folds the partial results back into a single
:class:`~repro.core.report.LandscapeReport` plus one merged
:class:`~repro.obs.registry.MetricsRegistry`.

Determinism is the design center, not an afterthought:

* workers ship results as the *serialized* analysis/failure dicts
  (:func:`~repro.landscape.serialize.analysis_to_dict`), whose round-trip
  through :func:`~repro.landscape.serialize.dict_to_analysis` is exact
  w.r.t. ``report_to_dict`` — so nothing is lost crossing the process
  boundary;
* :func:`~repro.landscape.merge.merge_reports` re-emits contracts in the
  original sweep order, making the merged report independent of worker
  completion order;
* no cache counter crosses the process boundary: ``summary.dedup`` is
  replayed over the final report's analyses
  (:meth:`~repro.core.report.LandscapeReport.replay_dedup`), so under
  either shard strategy the merged report serializes
  **byte-identically** to a serial ``analyze_all`` over the same
  addresses.

Process model: the ``fork`` start method is preferred — the parent plants
its generated world in a module global before launching workers, and
children inherit it copy-on-write, skipping regeneration.  Under
``spawn`` (or when a child's inherited world does not match the spec) the
worker rebuilds the world from its pickle-able
:class:`~repro.parallel.spec.SweepSpec` and memoizes it per process.
``processes=False`` runs every shard sequentially in-process through the
*same* worker function — the fast, deterministic path the test suite
leans on.

The multi-process path is no longer a bare ``Pool.map``: it delegates to
the **sweep supervisor** (:mod:`repro.parallel.supervisor`), which
launches one monitored process per shard, respawns dead or hung workers
from the sweep's one store, and bisects poison shards down to the
single quarantinable contract.  Crash-free, the supervised sweep computes
exactly what the pool did — same workers' code path, same merge — so
every determinism guarantee above carries over unchanged.

With ``store_path`` every worker, in-process or supervised, commits into
that one store.  The parent opens (or creates) it before dispatch and
drops the instance rows of the addresses it dispatches, so every such
row was committed by this sweep, and a parent killed at any point leaves
them for the next ``--incremental`` sweep.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.report import LandscapeReport
from repro.landscape.merge import merge_reports
from repro.landscape.serialize import (
    analysis_to_dict,
    dict_to_analysis,
    dict_to_failure,
    failure_to_dict,
)
from repro.obs.registry import MetricsRegistry
from repro.parallel.shard import shard_addresses
from repro.parallel.spec import SweepSpec

# Planted by the parent before forking so children inherit the generated
# world copy-on-write instead of regenerating it.  Keyed by
# ``SweepSpec.world_key()`` — a child whose spec does not match rebuilds.
_PARENT_WORLD: tuple[tuple, Any] | None = None

# Per-worker-process memo for spawn-style rebuilds (one worker may run
# several shards of the same sweep).
_WORLD_CACHE: dict[tuple, Any] = {}


def _plant_parent_world(spec: SweepSpec, world: Any) -> None:
    global _PARENT_WORLD
    _PARENT_WORLD = (spec.world_key(), world)


def _world_for(spec: SweepSpec) -> Any:
    key = spec.world_key()
    if _PARENT_WORLD is not None and _PARENT_WORLD[0] == key:
        return _PARENT_WORLD[1]
    world = _WORLD_CACHE.get(key)
    if world is None:
        world = spec.build_world()
        _WORLD_CACHE[key] = world
    return world


def _analyze_shard(proxion: Any, shard_index: int,
                   addresses: Sequence[bytes],
                   on_settled: Callable[[int], None] | None = None,
                   ) -> dict[str, Any]:
    """Analyze one shard and shape the result as a JSON-able wire dict.

    Shared by the in-process worker (:func:`_run_shard`) and the
    supervisor's monitored worker, which passes its heartbeat as
    ``on_settled`` — everything in the return value is
    plain JSON-able data, and the parent reconstructs the partial report
    through the exact serialization round-trip, which is what makes the
    merge byte-faithful.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    report = proxion.analyze_all(addresses, on_settled=on_settled)
    return {
        "shard": shard_index,
        "addresses": len(addresses),
        "analyses": [analysis_to_dict(analysis)
                     for analysis in report.analyses.values()],
        "failures": [failure_to_dict(failure)
                     for failure in report.failures.values()],
        "metrics": proxion.metrics.state(),
        "wall_s": time.perf_counter() - wall_start,
        "cpu_s": time.process_time() - cpu_start,
    }


def _run_shard(task: tuple, events=None) -> dict[str, Any]:
    """In-process worker: analyze one shard, return a pickle-able dict.

    ``task`` is ``(spec, shard_index, addresses, audit_dir, store_path)``.
    The backbone of the sequential (``processes=False``) path; the
    supervised path runs the same :func:`_analyze_shard` core with a
    heartbeat.  ``events`` (an
    :class:`~repro.obs.events.EventRecorder`, sequential path only) lets
    the in-process shards narrate into the caller's flight recorder.
    """
    spec, shard_index, addresses, audit_dir, store_path = task
    world = _world_for(spec)
    binding = None
    if store_path is not None:
        from repro.store.binding import open_worker_binding
        binding = open_worker_binding(store_path, shard_index)
    proxion = spec.build_proxion(world, events=events, audit=audit_dir,
                                 store=binding)
    try:
        return _analyze_shard(proxion, shard_index, addresses)
    finally:
        if binding is not None:
            binding.close()


def _partial_report(result: dict[str, Any]) -> LandscapeReport:
    """Rebuild one shard's :class:`LandscapeReport` from the wire dict."""
    report = LandscapeReport()
    for record in result["analyses"]:
        report.add(dict_to_analysis(record))
    for record in result["failures"]:
        report.add_failure(dict_to_failure(record))
    return report


@dataclass(slots=True)
class ShardStats:
    """Per-shard accounting of one sharded sweep."""

    shard: int
    addresses: int
    wall_s: float
    cpu_s: float


@dataclass(slots=True)
class ShardedSweepResult:
    """Everything a sharded sweep produces, merged and per-shard."""

    report: LandscapeReport
    metrics: MetricsRegistry
    shards: list[ShardStats]
    workers: int
    strategy: str
    wall_s: float = 0.0
    #: Supervision accounting — only populated by the supervised
    #: (multi-process) path; the sequential path leaves the defaults.
    supervised: bool = False
    respawns: int = 0
    hung_kills: int = 0
    poison_contracts: int = 0
    #: Contracts restored from the durable store instead of re-analyzed
    #: (``--store --incremental`` sweeps only).
    store_restored: int = 0

    @property
    def sum_shard_cpu_s(self) -> float:
        return sum(stats.cpu_s for stats in self.shards)

    @property
    def max_shard_cpu_s(self) -> float:
        return max((stats.cpu_s for stats in self.shards), default=0.0)

    @property
    def critical_path_speedup(self) -> float:
        """CPU-work parallelism: total shard CPU over the slowest shard.

        On a host with at least ``workers`` free cores this is (up to
        pool overhead) the achievable wall-clock speedup; on a saturated
        or single-core host wall time cannot beat the CPU sum, so this
        is the honest hardware-independent number to report.
        """
        slowest = self.max_shard_cpu_s
        return self.sum_shard_cpu_s / slowest if slowest else 1.0


def _fold_store(result: ShardedSweepResult, restored,
                addresses: list[bytes], code_of,
                spec: SweepSpec) -> ShardedSweepResult:
    """Finish a sweep's report: fold in an incremental sweep's restored
    prefix, then replay ``summary.dedup`` over the whole of it."""
    if restored is not None and restored.completed:
        prefix = LandscapeReport()
        for analysis in restored.analyses:
            prefix.add(analysis)
        for failure in restored.failures:
            prefix.add_failure(failure)
        result.report = merge_reports([prefix, result.report],
                                      order=addresses)
        result.store_restored = (len(restored.analyses)
                                 + len(restored.failures))
        result.metrics.counter("pipeline.store_restored_contracts").inc(
            result.store_restored)
        result.metrics.counter("pipeline.store_restored_skips").inc(
            len(restored.skips))
        if restored.invalidated:
            result.metrics.counter("store.invalidated_instances").inc(
                restored.invalidated)
    result.report.replay_dedup(code_of, spec.options)
    return result


def run_sharded_sweep(spec: SweepSpec, *,
                      workers: int = 4,
                      strategy: str = "codehash",
                      addresses: Sequence[bytes] | None = None,
                      world: Any = None,
                      processes: bool = True,
                      progress: Callable[[str], None] | None = None,
                      supervise: Any = None,
                      events_path: str | None = None,
                      audit_dir: str | None = None,
                      store_path: str | None = None,
                      incremental: bool = False,
                      ) -> ShardedSweepResult:
    """Run one landscape sweep across ``workers`` shards and merge.

    ``world`` (optional) is a pre-generated landscape matching ``spec`` —
    passed by callers that already hold one (the CLI, the bench harness)
    so the parent does not regenerate it.  ``addresses`` defaults to the
    world's full address list.  ``processes=False`` runs the shards
    sequentially in this process (identical results, no worker
    processes); ``processes=True`` runs them under the sweep supervisor,
    tuned by ``supervise`` (a
    :class:`~repro.parallel.supervisor.SupervisorConfig`, defaulted).
    ``events_path``, when set, writes the ``repro.events/1``
    flight-recorder journal there (see :mod:`repro.obs.events`) — the
    supervised path journals the full worker lifecycle, the sequential
    path the pipeline-level narrative.  ``audit_dir``, when set, turns
    on verdict provenance (:mod:`repro.obs.provenance`): every worker
    writes one ``repro.evidence/1`` file per contract into that shared
    directory (shards partition addresses, so each contract has exactly
    one writer), and the merged report's analyses carry evidence
    digests.

    ``store_path`` binds the sweep to a durable ``repro.store/1``
    database (:mod:`repro.store`): the parent opens (or creates,
    quarantining corruption) the store, drops the instance rows of every
    address it dispatches, and every worker commits into it, one
    transaction per contract.  With ``incremental`` the parent first
    restores every instance the store has already settled (validating
    stored codehashes against the live code) and dispatches only the
    pending delta; the merged report is byte-identical to a from-scratch
    sweep of the same corpus.  ``--store PATH --incremental`` is
    therefore also how a killed sweep resumes.
    """
    wall_start = time.perf_counter()
    say = progress or (lambda message: None)

    if world is None:
        world = _world_for(spec)
    _plant_parent_world(spec, world)

    if addresses is None:
        addresses = world.addresses()
    addresses = list(addresses)

    def code_of(address: bytes) -> bytes:
        # Metrics-free read straight off the simulated state: sharding and
        # store restore are bookkeeping, not RPC traffic, and must not
        # perturb counters (or be perturbed by chaos wrappers).
        return world.chain.state.get_code(address)

    restored = None
    pending = addresses
    if store_path is not None:
        from repro.store.binding import open_store, restore_instances
        store = open_store(store_path)
        if store is None:
            store_path = None
        else:
            try:
                if incremental:
                    restored = restore_instances(store, addresses, code_of)
                    pending = [address for address in addresses
                               if address not in restored.completed]
                    say(f"store: restored {len(restored.analyses)} "
                        f"analyses, {len(restored.failures)} failures, "
                        f"{len(restored.skips)} skips from {store_path} — "
                        f"{len(pending)} contract(s) pending")
                # Afterwards every instance row of a dispatched address
                # is this sweep's own work, which is all a respawn or a
                # salvage may restore.
                store.invalidate_instances(pending)
            except sqlite3.Error as error:
                say(f"store: cannot use {store_path!r} ({error}) — "
                    f"sweeping without it")
                store_path = None
            finally:
                store.close()

    if not pending:
        result = ShardedSweepResult(
            report=LandscapeReport(), metrics=MetricsRegistry(),
            shards=[], workers=workers, strategy=strategy,
            wall_s=time.perf_counter() - wall_start)
        say("store: nothing pending — the store already settles the "
            "whole corpus")
        return _fold_store(result, restored, addresses, code_of, spec)

    if processes and workers > 1:
        from repro.parallel.supervisor import run_supervised_sweep
        result = run_supervised_sweep(
            spec, workers=workers, strategy=strategy, addresses=pending,
            world=world, config=supervise, progress=progress,
            events_path=events_path, audit_dir=audit_dir,
            store_path=store_path)
        return _fold_store(result, restored, addresses, code_of, spec)

    partitions = shard_addresses(pending, workers, strategy,
                                 code_of=code_of)
    tasks = [(spec, index, partition, audit_dir, store_path)
             for index, partition in enumerate(partitions)]
    say(f"sweeping {len(pending)} contracts across {workers} "
        f"shard(s), strategy={strategy}")

    journal = None
    events = None
    if events_path is not None:
        from repro.obs import events as ev
        journal = ev.EventJournal.create(events_path)
        events = ev.EventRecorder(sinks=(journal,))
        events.emit(ev.SWEEP_START, contracts=len(pending),
                    workers=workers, strategy=strategy, chaos=spec.chaos)

    results = [_run_shard(task, events=events) for task in tasks]

    if events is not None:
        from repro.obs import events as ev
        events.emit(ev.SWEEP_END,
                    analyses=sum(len(r["analyses"]) for r in results),
                    failures=sum(len(r["failures"]) for r in results),
                    wall_s=round(time.perf_counter() - wall_start, 6))
        journal.close()

    results.sort(key=lambda result: result["shard"])
    report = merge_reports([_partial_report(result) for result in results],
                           order=pending)
    metrics = MetricsRegistry()
    for result in results:
        metrics.merge_state(result["metrics"])
    shards = [ShardStats(shard=result["shard"],
                         addresses=result["addresses"],
                         wall_s=result["wall_s"],
                         cpu_s=result["cpu_s"])
              for result in results]
    outcome = ShardedSweepResult(report=report, metrics=metrics,
                                 shards=shards, workers=workers,
                                 strategy=strategy,
                                 wall_s=time.perf_counter() - wall_start)
    say(f"merged {len(report.analyses)} analyses, "
        f"{len(report.failures)} failures "
        f"(critical-path speedup {outcome.critical_path_speedup:.2f}x)")
    return _fold_store(outcome, restored, addresses, code_of, spec)


__all__ = [
    "ShardStats",
    "ShardedSweepResult",
    "run_sharded_sweep",
]
