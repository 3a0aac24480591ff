"""The sweep supervisor: self-healing process-level fault tolerance.

``run_sharded_sweep`` used to drive a bare ``multiprocessing.Pool.map``:
one OOM-killed worker aborted the whole sweep, and one wedged worker hung
it forever — precisely the failure modes a §6.1-scale multi-day run hits.
This module replaces the pool with a **supervisor**: per-shard worker
processes launched individually, each with

* **its own pipe** — every attempt gets a one-way
  ``multiprocessing.Pipe``.  The worker sends a heartbeat once at
  startup and once per settled contract (the pipeline's ``on_settled``
  callback, after the contract's store commit), then its result dict as
  the last message.  Nothing is shared between workers, so a worker
  killed mid-send can truncate only its own pipe;
* a **monitor loop** — the parent blocks in
  :func:`multiprocessing.connection.wait` on every pipe and process
  sentinel, detects dead workers by ``exitcode`` and hung workers by
  heartbeat age (``shard_timeout_s``), kills the hung ones, and respawns
  either kind *resuming from the sweep's one store*.  Every worker
  commits into that store once per contract: the caller's ``--store
  PATH``, otherwise a throwaway ``sweep.store`` in a private temp
  directory;
* **poison-shard bisection** — a shard that keeps sinking its worker past
  ``max_shard_retries`` is salvaged (committed prefix restored from the
  store) and its *pending* suffix
  is split in two; each half gets a fresh retry budget, recursively, until
  the crash is pinned to a single contract, which is quarantined as a
  cause-classified ``worker-crash`` :class:`~repro.core.report.ContractFailure`
  and committed to the store — the merged report stays complete, and
  every healthy contract is analyzed exactly once.

Supervision changes how workers are babysat, never what they compute.
Whatever crashes and respawns the ``worker-*`` fault plans of
:mod:`repro.chain.faults` inject, every analyzed record equals the serial
one and every other address is a counted ``worker-crash`` quarantine.
No cache counter crosses the pipe: ``summary.dedup`` is replayed over the
merged report, so a sweep that quarantines nothing is **byte-identical**
to the serial sweep, under either shard strategy.  A poison quarantine
drops its contract from that replay.  The ``supervised``, ``worker-chaos``
and ``worker-poison`` cells of ``tests/integration/test_equivalence.py``
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
workdir — narrating its pipeline starts, store resumes, contract
quarantines and breaker trips from inside the process — and when the
worker is reaped (cleanly or not) the parent folds that file into the
parent journal; readers recover the total order from the events'
monotonic timestamps.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import sqlite3
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, WorkerCrash, classify_cause
from repro.core.report import ContractFailure
from repro.landscape.serialize import analysis_to_dict, failure_to_dict
from repro.obs import events as ev
from repro.obs.events import EventJournal, EventRecorder, NULL_RECORDER
# Imported in the parent so forked workers inherit the module instead of
# each paying its import.
from repro.store.binding import (
    open_store,
    open_worker_binding,
    restore_instances,
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
    #: Longest the monitor loop blocks waiting for a pipe or an exit.
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


def _supervised_worker(task: tuple, pipe) -> None:
    """Worker entry point: analyze one task, report over its own pipe.

    ``pipe`` is the write end of this attempt's one-way pipe.  It carries
    heartbeats — the settled-contract count, sent once at startup, once
    when the world is built and once per settled contract, after the
    contract's store commit — and then, as the last message, the result
    dict, or ``{"fatal": ...}``.  The pipeline beats whether or not the
    store could be opened.  The results ride the pipe, not the store: a
    worker whose store cannot be opened, or whose binding disables itself
    after a write error, holds its results only in memory.

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

    ``store_path`` is the sweep's one store, which the parent created
    before dispatch; ``None`` sweeps on in-memory caches.  ``resume``
    (a respawned attempt) restores what the attempts before it
    committed there.  SQLite WAL plus the 30s busy timeout absorbs the
    concurrent writers.
    """
    (spec, shard_index, addresses, events_path, audit_dir, store_path,
     resume) = task

    def send(message: int | dict[str, Any] = 0) -> None:
        try:
            pipe.send(message)
        except OSError:
            pass  # parent gone; finishing the shard is still useful

    send()  # alive before the (possibly slow) world build
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
            binding = open_worker_binding(store_path, shard_index,
                                          incremental=resume)
            proxion = spec.build_proxion(world, events=events,
                                         audit=audit_dir, store=binding)
            send()  # world built, analysis starting
            result = _analyze_shard(proxion, shard_index, addresses,
                                    on_settled=send)
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
    send(result)


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
    pipe: Any                        # read end of this attempt's pipe
    last_beat: float
    events_path: str | None = None   # this attempt's private journal
    completed: int = 0               # last heartbeat's settled count
    result: dict[str, Any] | None = None  # the final message, once read
    open: bool = True                # False once the pipe reached EOF

    def receive(self) -> None:
        """Apply every message already waiting on the pipe."""
        try:
            while self.open and self.pipe.poll():
                message = self.pipe.recv()
                self.last_beat = time.monotonic()
                if isinstance(message, dict):
                    self.result = message
                else:
                    self.completed = message
        except (EOFError, OSError):
            # The worker exited or died, possibly mid-send; its exit
            # code decides what that means.
            self.open = False


def _empty_result(shard: int) -> dict[str, Any]:
    return {
        "shard": shard,
        "addresses": 0,
        "analyses": [],
        "failures": [],
        "metrics": {},
        "wall_s": 0.0,
        "cpu_s": 0.0,
    }


def _salvage(task: _Task, store_path: str | None,
             code_of: Callable[[bytes], bytes],
             ) -> tuple[dict[str, Any], set[bytes]]:
    """Recover a failed task's committed prefix from the sweep's store.

    Returns a partial result dict (possibly empty) plus the settled
    address set (skips included).  The parent dropped every dispatched
    address's instance rows before dispatch, so what this finds is this
    sweep's own work.  Runs precisely after workers died ungracefully,
    so a store that is missing or unreadable simply salvages nothing:
    the task's contracts are re-analyzed.
    """
    result = _empty_result(task.shard)
    if store_path is None:
        return result, set()
    try:
        with AnalysisStore(store_path) as store:
            restored = restore_instances(store, task.addresses, code_of)
    except (sqlite3.Error, OSError, ValueError):
        # ValueError covers ConfigurationError and garbled JSON rows.
        return result, set()
    result["analyses"] = [analysis_to_dict(analysis)
                          for analysis in restored.analyses]
    result["failures"] = [failure_to_dict(failure)
                          for failure in restored.failures]
    return result, restored.completed


def _commit_failure(store_path: str | None, failure: ContractFailure,
                    say: Callable[[str], None]) -> None:
    """Persist a supervisor-side quarantine in the sweep's store, so that
    ``--incremental`` restores it and ``repro serve`` answers it."""
    if store_path is None:
        return
    try:
        with AnalysisStore(store_path) as store:
            store.save_failure(failure)
    except (sqlite3.Error, OSError, ValueError) as error:
        say(f"store: cannot record the quarantine of "
            f"0x{failure.address.hex()} in {store_path!r} ({error})")


def run_supervised_sweep(spec, *,
                         workers: int = 4,
                         strategy: str = "codehash",
                         addresses: Sequence[bytes] | None = None,
                         world: Any = None,
                         config: SupervisorConfig | None = None,
                         progress: Callable[[str], None] | None = None,
                         events_path: str | None = None,
                         audit_dir: str | None = None,
                         store_path: str | None = None):
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
    only rewrite what they re-analyze.  ``store_path`` (optional) names
    the caller's durable analysis store, already opened by the parent —
    ``run_sharded_sweep`` creates it and drops the instance rows of the
    addresses it dispatches.  Every worker commits into it.  Without one,
    the parent creates a throwaway ``sweep.store`` in a private temp
    directory, discarded with it.  Either way a respawned or bisected
    task resumes from that one store.  Returns the same
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

    # Every worker writes through the sweep's one store, and respawns
    # resume from it.  Callers without a store of their own get a
    # throwaway one in a private temp directory.  Only the parent creates
    # it; if that fails, workers sweep on in-memory caches and a respawn
    # restarts its task from the top.
    workdir = tempfile.mkdtemp(prefix="repro-supervised-")
    if store_path is None:
        store = open_store(os.path.join(workdir, "sweep.store"))
        if store is not None:
            store.close()
            store_path = store.path

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")

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

    def launch(task: _Task) -> None:
        stats.worker_launches += 1
        worker_events = None
        if journal is not None:
            # One private journal per attempt: a respawn must not append
            # to (or clobber mid-read) its predecessor's file.
            worker_events = os.path.join(
                workdir,
                f"task{task.task_id:03d}.a{task.attempts}.events.jsonl")
        payload = (spec, task.shard, task.addresses, worker_events,
                   audit_dir, store_path, task.attempts > 0)
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(target=_supervised_worker,
                                  args=(payload, writer), daemon=True)
        process.start()
        # The child holds the only write end left, so its exit is EOF.
        writer.close()
        running[task.task_id] = _Running(process=process, task=task,
                                         pipe=reader,
                                         last_beat=time.monotonic(),
                                         events_path=worker_events)
        events.emit(ev.WORKER_SPAWN, shard=task.shard, task=task.task_id,
                    attempt=task.attempts, depth=task.depth,
                    total=len(task.addresses), worker_pid=process.pid)

    def reap(worker: _Running) -> None:
        """Forget a finished worker and fold its private journal into the
        merged one.

        Runs precisely when workers may have died ungracefully, so it
        tolerates everything a crash leaves behind: no file (died before
        the header fsync), or a truncated final line (dropped by the
        tail-tolerant reader).  Events are re-emitted verbatim — the
        worker's own pid/mono/seq provenance is the merge key.
        """
        del running[worker.task.task_id]
        worker.pipe.close()
        if journal is None or worker.events_path is None:
            return
        try:
            loaded = ev.read_journal(worker.events_path)
        except (ConfigurationError, OSError):
            return
        for event in loaded.events:
            journal.append_record(event.to_dict())

    def collect(task: _Task, result: dict[str, Any]) -> None:
        if "fatal" in result:
            raise ConfigurationError(
                f"shard {task.shard} worker: {result['fatal']}")
        # Addresses crossed the process boundary: analyses/failures carry
        # hex strings and _partial_report reverses them.
        results.append(result)
        shard_wall[task.shard] += float(result.get("wall_s", 0.0))
        shard_cpu[task.shard] += float(result.get("cpu_s", 0.0))

    def quarantine_poison(task: _Task, address: bytes,
                          error: WorkerCrash) -> None:
        stats.poison_contracts += 1
        failure = ContractFailure(address=address,
                                  cause=classify_cause(error),
                                  error=str(error), stage="worker")
        _commit_failure(store_path, failure, say)
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
            stats.respawns += 1  # the respawn resumes from the store
            events.emit(ev.WORKER_RESPAWN, shard=task.shard,
                        task=task.task_id, attempt=task.attempts,
                        error=str(error))
            say(f"worker for shard {task.shard} died ({error}); respawn "
                f"{task.attempts}/{config.max_shard_retries}")
            pending.append(task)
        else:
            escalate(task, error)

    last_tick = time.monotonic()
    try:
        while pending or running:
            while pending and len(running) < workers:
                launch(pending.popleft())

            wait([worker.pipe for worker in running.values() if worker.open]
                 + [worker.process.sentinel for worker in running.values()],
                 timeout=config.poll_interval_s)

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

            for worker in list(running.values()):
                process, task = worker.process, worker.task
                # Read the exit code first: once it is set, everything
                # the worker sent is already in its pipe.
                exitcode = process.exitcode
                worker.receive()
                if exitcode is not None:
                    process.join()
                    reap(worker)
                    if exitcode == 0 and worker.result is not None:
                        collect(task, worker.result)
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
                    reap(worker)
                    events.emit(ev.WORKER_HUNG_KILL, shard=task.shard,
                                task=task.task_id, lag_s=round(lag, 3),
                                completed=worker.completed)
                    on_failure(task, WorkerCrash(
                        f"worker hung (heartbeat {lag:.2f}s > "
                        f"shard timeout {config.shard_timeout_s}s)",
                        shard=task.shard, exitcode=process.exitcode,
                        hung=True, attempts=task.attempts + 1))
    except BaseException:
        # A fatal worker error or an interrupt ends the sweep here; the
        # journal keeps what it recorded so far.
        if journal is not None:
            journal.close()
        raise
    finally:
        for worker in running.values():
            worker.process.kill()
            worker.process.join()
            worker.pipe.close()
        # Worker journals and the throwaway store are transient; a
        # caller's store lives on.
        shutil.rmtree(workdir, ignore_errors=True)

    results.sort(key=lambda result: result["shard"])
    report = merge_reports([_partial_report(result) for result in results],
                           order=addresses)
    report.replay_dedup(code_of, spec.options)
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
