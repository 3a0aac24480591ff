"""The sweep supervisor: self-healing process-level fault tolerance.

``run_sharded_sweep`` used to drive a bare ``multiprocessing.Pool.map``:
one OOM-killed worker aborted the whole sweep, and one wedged worker hung
it forever — precisely the failure modes a §6.1-scale multi-day run hits.
This module replaces the pool with a **supervisor**: per-shard worker
processes launched individually, each with

* a **heartbeat channel** — the worker pings a ``multiprocessing`` queue
  once at startup and once per settled contract (the pipeline's
  ``on_settled`` callback), so the parent always knows how stale every
  worker is;
* a **monitor loop** — the parent detects dead workers by ``exitcode``
  and hung workers by heartbeat age (``shard_timeout_s``), kills the hung
  ones, and respawns either kind *resuming from the shard's own
  ``repro.store/1`` shard store* (every supervised shard writes one: the
  caller's ``PATH.shardNN`` under ``--store``, otherwise a throwaway one
  in a private temp directory), which commits once per contract;
* **poison-shard bisection** — a shard that keeps sinking its worker past
  ``max_shard_retries`` is salvaged (committed prefix restored from its
  shard store) and its *pending* suffix
  is split in two; each half gets a fresh retry budget, recursively, until
  the crash is pinned to a single contract, which is quarantined as a
  cause-classified ``worker-crash`` :class:`~repro.core.report.ContractFailure`
  — the merged report stays complete, and every healthy contract is
  analyzed exactly once.

Crash-free, the supervised sweep is **byte-identical** to both the old
pool engine and the serial sweep (codehash strategy): supervision changes
how workers are babysat, never what they compute.  Under crash injection
(the ``worker-*`` fault plans in :mod:`repro.chain.faults`) the contracts
and failures match: every analyzed record equals the serial one and every
other address is a counted ``worker-crash`` quarantine.  ``summary.dedup``
does not match: a salvaged prefix carries no cache counters, so the
merged hit/miss totals undercount.  The ``worker-chaos`` and
``worker-poison`` cells of ``tests/integration/test_equivalence.py``
check this.

Supervision is observable: ``parallel.respawns``, ``parallel.hung_kills``,
``parallel.poison_contracts`` counters and the high-water
``parallel.heartbeat_lag_seconds`` gauge land in the merged registry, and
poison contracts also count under ``pipeline.quarantined{cause=worker-crash}``
like every other quarantine.

With ``events_path`` set, the supervisor is also the flight recorder's
primary author (:mod:`repro.obs.events`): it journals every spawn, exit,
respawn, hung-kill, bisection and quarantine, plus a throttled
``supervisor.tick`` per live worker carrying completed-count and
heartbeat lag (the raw feed of ``repro status`` / ``/healthz``).  Each
worker keeps a *private* per-attempt journal in the supervisor's
workdir — narrating its pipeline starts, shard-store resumes, contract
quarantines and breaker trips from inside the process — and when the
worker is reaped (cleanly or not) the parent folds that file into the
parent journal over the same crash-safe channel as results; readers
recover the total order from the events' monotonic timestamps.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import queue as queue_module
import shutil
import sqlite3
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, WorkerCrash, classify_cause
from repro.core.report import ContractFailure
from repro.landscape.merge import _COUNTER_FIELDS
from repro.landscape.serialize import analysis_to_dict, failure_to_dict
from repro.obs import events as ev
from repro.obs.events import EventJournal, EventRecorder, NULL_RECORDER
# Imported in the parent so forked workers inherit the module instead of
# each paying its import.
from repro.store.binding import (
    open_worker_binding,
    restore_instances,
    shard_store_path,
)
from repro.store.store import AnalysisStore


@dataclass(slots=True)
class SupervisorConfig:
    """Knobs of the monitor loop (CLI: ``--shard-timeout`` /
    ``--max-shard-retries``).

    ``shard_timeout_s`` is a *per-contract* staleness bound, not a shard
    duration: the heartbeat ticks once per completed contract, so it must
    exceed worker startup (world build) plus the slowest single contract
    — never the whole shard.  ``max_shard_retries`` is how many failures
    one task absorbs by plain respawn-and-resume before the supervisor
    escalates to bisection.
    """

    shard_timeout_s: float = 30.0
    max_shard_retries: int = 2
    poll_interval_s: float = 0.02
    #: Throttle for ``supervisor.tick`` flight-recorder events (one per
    #: live worker per interval) when an events journal is wired.
    tick_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.shard_timeout_s <= 0:
            raise ConfigurationError("shard_timeout_s must be positive")
        if self.max_shard_retries < 1:
            raise ConfigurationError("max_shard_retries must be >= 1 "
                                     "(0 would bisect on the first crash)")


@dataclass(slots=True)
class SupervisionStats:
    """What the monitor loop did to keep the sweep alive."""

    respawns: int = 0            # dead/hung workers relaunched (resume)
    hung_kills: int = 0          # workers killed for heartbeat staleness
    poison_contracts: int = 0    # single contracts quarantined by bisection
    bisections: int = 0          # task splits performed
    worker_launches: int = 0     # processes started, all causes
    max_heartbeat_lag_s: float = 0.0


def _supervised_worker(task: tuple, heartbeat_queue) -> None:
    """Worker entry point: analyze one task, write its result atomically.

    Results travel as a JSON *file* (written to ``.tmp`` then
    ``os.replace``\\ d), not through a queue: a worker killed mid-transfer
    must never corrupt the parent's channel, and an ``os._exit`` mid-write
    leaves only an invisible temp file.  The heartbeat queue carries only
    ``(task_id, settled_count)`` — small enough for atomic pipe writes.
    The pipeline beats once per settled contract, after its store commit,
    whether or not the shard store could be opened.

    ``events_path`` (optional) names this attempt's *private*
    flight-recorder journal: the worker narrates its pipeline and breaker
    events there, one flushed line each, and the parent folds the file
    into the merged journal after reaping the process — so even an
    ``os._exit`` or SIGKILL loses at most one half-written line, which
    the tail-tolerant reader drops.

    ``audit_dir`` (optional) is the *shared* verdict
    provenance directory: the worker writes one atomic
    ``repro.evidence/1`` file per contract straight into it.  No folding
    needed — shards partition addresses, so each contract has exactly
    one writer, and a respawned attempt simply rewrites the files for
    contracts it re-analyzes (store-restored contracts keep the
    evidence the dead attempt already persisted).

    ``store_spec`` is the durable-store binding spec
    ``(main_store_path, incremental)``: the worker writes analysis facts
    and per-contract rows through to its shard's ``PATH.shardNN`` store,
    restores from it what a dead predecessor committed and, when
    incremental, warms its caches read-only from the main store.
    Bisected halves of one shard share the shard store; SQLite WAL plus
    the 30s busy timeout absorbs that concurrency.
    """
    (spec, task_id, shard_index, addresses, result_path, events_path,
     audit_dir, store_spec) = task

    def beat(settled: int = 0) -> None:
        try:
            heartbeat_queue.put((task_id, settled))
        except (OSError, ValueError):
            pass  # parent gone; finishing the shard is still useful

    beat()  # alive before the (possibly slow) world build
    from repro.parallel.engine import _analyze_shard, _world_for

    journal: EventJournal | None = None
    events = NULL_RECORDER
    if events_path is not None:
        journal = EventJournal.create(events_path)
        events = EventRecorder(sinks=(journal,), shard=shard_index)
    binding = None
    try:
        try:
            world = _world_for(spec)
            binding = open_worker_binding(store_spec, shard_index)
            proxion = spec.build_proxion(world, events=events,
                                         audit=audit_dir, store=binding)
            beat()  # world built, analysis starting
            result = _analyze_shard(proxion, shard_index, addresses,
                                    on_settled=beat)
        except ConfigurationError as error:
            # Misconfiguration (e.g. an unknown fault plan, a store of a
            # foreign schema) is NOT a crash: respawning or bisecting
            # would silently "heal" an operator mistake.  Ship it to the
            # parent, which fails loudly.
            result = {"fatal": str(error)}
    finally:
        if binding is not None:
            binding.close()
        if journal is not None:
            journal.close()

    tmp_path = result_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as stream:
        json.dump(result, stream, separators=(",", ":"))
    os.replace(tmp_path, result_path)


@dataclass(slots=True)
class _Task:
    """One supervised unit of work: a root shard or a bisected sub-range."""

    task_id: int
    shard: int                   # original shard index (stats/merge key)
    addresses: list[bytes]
    attempts: int = 0            # failed launches of this task so far
    depth: int = 0               # bisection depth (0 = root shard)


@dataclass(slots=True)
class _Running:
    process: Any
    task: _Task
    last_beat: float
    events_path: str | None = None   # this attempt's private journal
    completed: int = 0               # last heartbeat's settled count


def _empty_result(shard: int) -> dict[str, Any]:
    return {
        "shard": shard,
        "addresses": 0,
        "analyses": [],
        "failures": [],
        "counters": dict.fromkeys(_COUNTER_FIELDS, 0),
        "metrics": {},
        "wall_s": 0.0,
        "cpu_s": 0.0,
    }


def _salvage(task: _Task, store_path: str,
             code_of: Callable[[bytes], bytes],
             ) -> tuple[dict[str, Any], set[bytes]]:
    """Recover a failed task's committed prefix from its shard store.

    Returns a partial result dict (possibly empty) plus the settled
    address set (skips included).  Runs precisely after workers died
    ungracefully, so a shard store that is missing or unreadable simply
    salvages nothing: its contracts are re-analyzed.
    """
    result = _empty_result(task.shard)
    path = shard_store_path(store_path, task.shard)
    if not os.path.exists(path):
        return result, set()
    try:
        with AnalysisStore(path) as store:
            restored = restore_instances(store, task.addresses, code_of)
    except (sqlite3.Error, OSError, ValueError):
        # ValueError covers ConfigurationError and garbled JSON rows.
        return result, set()
    result["analyses"] = [analysis_to_dict(analysis)
                          for analysis in restored.analyses]
    result["failures"] = [failure_to_dict(failure)
                          for failure in restored.failures]
    return result, restored.completed


def run_supervised_sweep(spec, *,
                         workers: int = 4,
                         strategy: str = "codehash",
                         addresses: Sequence[bytes] | None = None,
                         world: Any = None,
                         config: SupervisorConfig | None = None,
                         progress: Callable[[str], None] | None = None,
                         events_path: str | None = None,
                         audit_dir: str | None = None,
                         store_spec: tuple[str, bool] | None = None):
    """Run one landscape sweep under supervision and merge deterministically.

    The drop-in process backend of
    :func:`repro.parallel.engine.run_sharded_sweep` — same parameters plus
    ``config`` and ``events_path``.  ``events_path``, when set, is where
    the merged ``repro.events/1`` flight-recorder journal is written;
    ``repro status`` / ``repro tail``
    and the ``/healthz`` probe read it live.  ``audit_dir``, when set,
    turns on verdict provenance: every worker attaches an
    :class:`~repro.obs.provenance.AuditDir` over that shared directory
    and persists one evidence file per contract — atomically, so crashed
    attempts never leave a corrupt file, and respawn/bisection replays
    only rewrite what they re-analyze.  ``store_spec``
    (``(main_store_path, incremental)``, optional) names the caller's
    durable analysis store: workers write through to its
    ``PATH.shardNN`` shard stores (the parent — ``run_sharded_sweep`` —
    folds them back into the main store after the merge).  Without one,
    the shard stores live in a private temp directory and are discarded
    with it.  Either way a respawned or bisected task resumes from its
    shard store.  Returns the same
    :class:`~repro.parallel.engine.ShardedSweepResult` (with its
    supervision fields populated).
    """
    # Imported here, not at module top: engine imports this module lazily
    # and the two would otherwise be circular.
    from repro.obs.registry import MetricsRegistry
    from repro.parallel.engine import (
        ShardStats,
        ShardedSweepResult,
        _partial_report,
        _plant_parent_world,
        _world_for,
    )
    from repro.landscape.merge import merge_reports
    from repro.parallel.shard import shard_addresses

    config = config or SupervisorConfig()
    wall_start = time.perf_counter()
    say = progress or (lambda message: None)

    if world is None:
        world = _world_for(spec)
    _plant_parent_world(spec, world)
    if addresses is None:
        addresses = world.addresses()
    addresses = list(addresses)

    def code_of(address: bytes) -> bytes:
        return world.chain.state.get_code(address)

    partitions = shard_addresses(addresses, workers, strategy,
                                 code_of=code_of)
    say(f"sweeping {len(addresses)} contracts across {workers} supervised "
        f"shard(s), strategy={strategy}, timeout={config.shard_timeout_s}s, "
        f"retries={config.max_shard_retries}")

    journal: EventJournal | None = None
    events = NULL_RECORDER
    if events_path is not None:
        journal = EventJournal.create(events_path)
        events = EventRecorder(sinks=(journal,))
    events.emit(ev.SWEEP_START, contracts=len(addresses), workers=workers,
                strategy=strategy, chaos=spec.chaos,
                timeout_s=config.shard_timeout_s)

    # Every supervised shard writes through a shard store — respawns
    # resume from it.  Callers without a store of their own get a
    # throwaway one in a private temp directory.
    workdir = tempfile.mkdtemp(prefix="repro-supervised-")
    if store_spec is None:
        store_spec = (os.path.join(workdir, "sweep.store"), False)
    store_path = store_spec[0]

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")
    heartbeats = context.Queue()

    stats = SupervisionStats()
    task_ids = itertools.count()

    def new_task(shard: int, task_addresses: list[bytes],
                 depth: int = 0) -> _Task:
        return _Task(task_id=next(task_ids), shard=shard,
                     addresses=task_addresses, depth=depth)

    pending: deque[_Task] = deque(
        new_task(index, list(partition))
        for index, partition in enumerate(partitions))

    running: dict[int, _Running] = {}
    results: list[dict[str, Any]] = []
    shard_wall: dict[int, float] = dict.fromkeys(range(workers), 0.0)
    shard_cpu: dict[int, float] = dict.fromkeys(range(workers), 0.0)

    def result_path_of(task: _Task) -> str:
        return os.path.join(workdir, f"task{task.task_id:03d}.result.json")

    def launch(task: _Task) -> None:
        stats.worker_launches += 1
        worker_events = None
        if journal is not None:
            # One private journal per attempt: a respawn must not append
            # to (or clobber mid-read) its predecessor's file.
            worker_events = os.path.join(
                workdir,
                f"task{task.task_id:03d}.a{task.attempts}.events.jsonl")
        payload = (spec, task.task_id, task.shard, task.addresses,
                   result_path_of(task), worker_events, audit_dir,
                   store_spec)
        process = context.Process(target=_supervised_worker,
                                  args=(payload, heartbeats), daemon=True)
        process.start()
        running[task.task_id] = _Running(process=process, task=task,
                                         last_beat=time.monotonic(),
                                         events_path=worker_events)
        events.emit(ev.WORKER_SPAWN, shard=task.shard, task=task.task_id,
                    attempt=task.attempts, depth=task.depth,
                    total=len(task.addresses), worker_pid=process.pid)

    def ingest_worker_journal(worker: _Running) -> None:
        """Fold a reaped worker's private journal into the merged one.

        Runs precisely when workers may have died ungracefully, so it
        tolerates everything a crash leaves behind: no file (died before
        the header fsync), or a truncated final line (dropped by the
        tail-tolerant reader).  Events are re-emitted verbatim — the
        worker's own pid/mono/seq provenance is the merge key.
        """
        if journal is None or worker.events_path is None:
            return
        try:
            loaded = ev.read_journal(worker.events_path)
        except (ConfigurationError, OSError):
            return
        for event in loaded.events:
            journal.append_record(event.to_dict())

    def collect(task: _Task) -> bool:
        """Ingest a finished worker's result file; False if it is unusable."""
        path = result_path_of(task)
        try:
            with open(path, encoding="utf-8") as stream:
                result = json.load(stream)
        except (OSError, json.JSONDecodeError):
            return False
        if "fatal" in result:
            raise ConfigurationError(
                f"shard {task.shard} worker: {result['fatal']}")
        # Addresses crossed the JSON boundary: analyses/failures carry hex
        # strings and _partial_report reverses them, nothing to fix here.
        results.append(result)
        shard_wall[task.shard] = shard_wall.get(task.shard, 0.0) \
            + float(result.get("wall_s", 0.0))
        shard_cpu[task.shard] = shard_cpu.get(task.shard, 0.0) \
            + float(result.get("cpu_s", 0.0))
        return True

    def quarantine_poison(task: _Task, address: bytes,
                          error: WorkerCrash) -> None:
        stats.poison_contracts += 1
        failure = ContractFailure(address=address,
                                  cause=classify_cause(error),
                                  error=str(error), stage="worker")
        result = _empty_result(task.shard)
        result["failures"] = [failure_to_dict(failure)]
        results.append(result)
        events.emit(ev.SUPERVISOR_QUARANTINE, shard=task.shard,
                    task=task.task_id, address="0x" + address.hex(),
                    error=str(error))
        say(f"poison contract 0x{address.hex()} quarantined "
            f"({error})")

    def escalate(task: _Task, error: WorkerCrash) -> None:
        """Past the retry budget: salvage, then bisect or quarantine."""
        salvaged, completed = _salvage(task, store_path, code_of)
        if salvaged["analyses"] or salvaged["failures"]:
            results.append(salvaged)
            events.emit(ev.SUPERVISOR_SALVAGE, shard=task.shard,
                        task=task.task_id,
                        analyses=len(salvaged["analyses"]),
                        failures=len(salvaged["failures"]))
        remaining = [address for address in task.addresses
                     if address not in completed]
        if not remaining:
            return  # the crash hit after the final record — nothing lost
        if len(remaining) == 1:
            quarantine_poison(task, remaining[0], error)
            return
        stats.bisections += 1
        middle = len(remaining) // 2
        events.emit(ev.SUPERVISOR_BISECT, shard=task.shard,
                    task=task.task_id, pending=len(remaining),
                    depth=task.depth)
        say(f"bisecting shard {task.shard} (depth {task.depth}): "
            f"{len(remaining)} contracts still pending after "
            f"{task.attempts} failures")
        for half in (remaining[:middle], remaining[middle:]):
            pending.append(new_task(task.shard, half, depth=task.depth + 1))

    def on_failure(task: _Task, error: WorkerCrash) -> None:
        task.attempts += 1
        if task.attempts <= config.max_shard_retries:
            stats.respawns += 1  # the respawn resumes from the shard store
            events.emit(ev.WORKER_RESPAWN, shard=task.shard,
                        task=task.task_id, attempt=task.attempts,
                        error=str(error))
            say(f"worker for shard {task.shard} died ({error}); respawn "
                f"{task.attempts}/{config.max_shard_retries}")
            pending.append(task)
        else:
            escalate(task, error)

    def drain_heartbeats() -> None:
        """Apply queued heartbeats (stale task ids — from workers already
        collected or killed — are simply ignored)."""
        while True:
            try:
                task_id, completed = heartbeats.get_nowait()
            except queue_module.Empty:
                return
            worker = running.get(task_id)
            if worker is not None:
                worker.last_beat = time.monotonic()
                if completed > worker.completed:
                    worker.completed = completed

    last_tick = time.monotonic()
    try:
        while pending or running:
            while pending and len(running) < workers:
                launch(pending.popleft())

            drain_heartbeats()

            now = time.monotonic()
            if (events.enabled and running
                    and now - last_tick >= config.tick_interval_s):
                last_tick = now
                for worker in running.values():
                    events.emit(ev.SUPERVISOR_TICK, shard=worker.task.shard,
                                task=worker.task.task_id,
                                completed=worker.completed,
                                total=len(worker.task.addresses),
                                lag_s=round(now - worker.last_beat, 3))

            for task_id in list(running):
                worker = running[task_id]
                process, task = worker.process, worker.task
                exitcode = process.exitcode
                if exitcode is not None:
                    # A worker's last beats may land after the drain
                    # above; an exited writer has flushed them.
                    drain_heartbeats()
                    process.join()
                    del running[task_id]
                    ingest_worker_journal(worker)
                    if exitcode == 0 and collect(task):
                        events.emit(ev.WORKER_EXIT, shard=task.shard,
                                    task=task.task_id, exitcode=0,
                                    clean=True, completed=worker.completed)
                        continue
                    events.emit(ev.WORKER_EXIT, shard=task.shard,
                                task=task.task_id, exitcode=exitcode,
                                clean=False, completed=worker.completed)
                    on_failure(task, WorkerCrash(
                        f"worker exited with code {exitcode}"
                        + ("" if exitcode else " without a result"),
                        shard=task.shard, exitcode=exitcode,
                        attempts=task.attempts + 1))
                    continue
                lag = now - worker.last_beat
                if lag > stats.max_heartbeat_lag_s:
                    stats.max_heartbeat_lag_s = lag
                if lag > config.shard_timeout_s:
                    stats.hung_kills += 1
                    process.terminate()
                    process.join(timeout=0.5)
                    if process.is_alive():
                        process.kill()
                        process.join()
                    del running[task_id]
                    ingest_worker_journal(worker)
                    events.emit(ev.WORKER_HUNG_KILL, shard=task.shard,
                                task=task.task_id, lag_s=round(lag, 3),
                                completed=worker.completed)
                    on_failure(task, WorkerCrash(
                        f"worker hung (heartbeat {lag:.2f}s > "
                        f"shard timeout {config.shard_timeout_s}s)",
                        shard=task.shard, exitcode=process.exitcode,
                        hung=True, attempts=task.attempts + 1))

            if running:
                time.sleep(config.poll_interval_s)
    finally:
        for worker in running.values():
            worker.process.kill()
            worker.process.join()
        heartbeats.close()
        heartbeats.join_thread()
        # Result files, worker journals and throwaway shard stores are
        # transient; a caller's ``PATH.shardNN`` stores live beside
        # ``PATH`` and are folded by ``run_sharded_sweep``.
        shutil.rmtree(workdir, ignore_errors=True)

    results.sort(key=lambda result: result["shard"])
    report = merge_reports([_partial_report(result) for result in results],
                           order=addresses)
    metrics = MetricsRegistry()
    for result in results:
        metrics.merge_state(result["metrics"])
    metrics.counter("parallel.respawns").inc(stats.respawns)
    metrics.counter("parallel.hung_kills").inc(stats.hung_kills)
    metrics.counter("parallel.poison_contracts").inc(stats.poison_contracts)
    metrics.counter("parallel.bisections").inc(stats.bisections)
    metrics.gauge("parallel.heartbeat_lag_seconds").max(
        stats.max_heartbeat_lag_s)
    if stats.poison_contracts:
        metrics.counter("pipeline.quarantined", cause="worker-crash").inc(
            stats.poison_contracts)

    events.emit(ev.SWEEP_END, analyses=len(report.analyses),
                failures=len(report.failures), respawns=stats.respawns,
                hung_kills=stats.hung_kills,
                poison_contracts=stats.poison_contracts,
                bisections=stats.bisections,
                wall_s=round(time.perf_counter() - wall_start, 6))
    if journal is not None:
        journal.close()

    shards = [ShardStats(shard=index, addresses=len(partition),
                         wall_s=shard_wall.get(index, 0.0),
                         cpu_s=shard_cpu.get(index, 0.0))
              for index, partition in enumerate(partitions)]
    outcome = ShardedSweepResult(
        report=report, metrics=metrics, shards=shards, workers=workers,
        strategy=strategy, wall_s=time.perf_counter() - wall_start,
        supervised=True, respawns=stats.respawns,
        hung_kills=stats.hung_kills,
        poison_contracts=stats.poison_contracts)
    say(f"merged {len(report.analyses)} analyses, "
        f"{len(report.failures)} failures under supervision "
        f"({stats.respawns} respawns, {stats.hung_kills} hung kills, "
        f"{stats.poison_contracts} poison contracts)")
    return outcome


__all__ = [
    "SupervisionStats",
    "SupervisorConfig",
    "run_supervised_sweep",
]
