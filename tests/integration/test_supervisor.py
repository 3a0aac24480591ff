"""The sweep supervisor: heartbeats, respawns, bisection, quarantine.

Chaos plans here use the process-level ``crash``/``hang`` fault kinds —
they take the *worker* down, not the RPC call — so every test asserts the
supervisor's contract: the sweep completes, no contract is silently lost,
and the merged report matches the serial sweep modulo explicitly
quarantined ``worker-crash`` records.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.pipeline import Proxion
from repro.errors import ConfigurationError, WorkerCrash, classify_cause
from repro.landscape import report_to_json
from repro.obs import events as ev
from repro.parallel import (
    SupervisorConfig,
    SweepSpec,
    run_sharded_sweep,
    run_supervised_sweep,
)

TOTAL, SEED = 24, 7

#: Tight-but-safe monitor settings for tests: the heartbeat ticks per
#: contract, and a single simulated contract analyzes in well under a
#: second, so 10s only ever triggers on a genuinely wedged worker.
FAST = dict(shard_timeout_s=10.0, max_shard_retries=1)


@pytest.fixture(scope="module")
def spec() -> SweepSpec:
    return SweepSpec(total=TOTAL, seed=SEED)


@pytest.fixture(scope="module")
def world(spec: SweepSpec):
    return spec.build_world()


@pytest.fixture(scope="module")
def serial(world) -> dict:
    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset)
    return json.loads(report_to_json(proxion.analyze_all(world.addresses())))


def _merged(result) -> dict:
    return json.loads(report_to_json(result.report))


def test_crash_free_supervision_is_byte_identical(spec, world,
                                                  serial) -> None:
    result = run_supervised_sweep(spec, workers=3, world=world,
                                  config=SupervisorConfig(**FAST))
    assert _merged(result) == serial
    assert result.supervised
    assert result.respawns == 0
    assert result.metrics.counter_value("parallel.respawns") == 0


def test_engine_delegates_process_path_to_supervisor(spec, world) -> None:
    result = run_sharded_sweep(spec, workers=3, world=world, processes=True,
                               supervise=SupervisorConfig(**FAST))
    assert result.supervised
    assert len(result.shards) == 3
    assert sum(stats.addresses for stats in result.shards) == len(
        world.addresses())


def test_windowed_crash_recovers_by_respawn(spec, world, serial,
                                           tmp_path) -> None:
    """A window-scoped crash models an OOM kill.  The window is a
    per-process call index, so every attempt with enough calls left dies
    there again; each respawn resumes from what its predecessors
    committed to the sweep's store, a task past its retry budget is
    bisected, and the sweep converges with nothing quarantined."""
    from repro.obs.console import journal_snapshot

    journal_path = str(tmp_path / "sweep.events.jsonl")
    chaotic = SweepSpec(total=TOTAL, seed=SEED, chaos="worker-crash",
                        chaos_seed=3)
    result = run_sharded_sweep(chaotic, workers=3, world=world,
                               processes=True, events_path=journal_path,
                               supervise=SupervisorConfig(**FAST))
    assert result.respawns > 0
    assert result.poison_contracts == 0
    merged = _merged(result)
    assert merged["contracts"] == serial["contracts"]
    assert merged["failures"] == serial["failures"]
    assert result.metrics.counter_value("parallel.respawns") \
        == result.respawns

    # A respawned attempt restored its predecessor's committed contracts
    # from the store, journaled it, and `repro status` counts it.
    events = ev.read_journal(journal_path).events
    respawned = {event.attrs["worker_pid"] for event in events
                 if event.kind == ev.WORKER_SPAWN
                 and event.attrs["attempt"] > 0}
    resumes = [event for event in events
               if event.kind == ev.CHECKPOINT_RESUME]
    assert any(event.pid in respawned and event.attrs["restored"] > 0
               for event in resumes)
    assert journal_snapshot(journal_path).resumed \
        == sum(event.attrs["restored"] for event in resumes) > 0


def test_sticky_poison_is_bisected_and_quarantined(spec, world,
                                                   serial) -> None:
    """A probability-scoped crash strikes the same contract on every
    attempt — respawning cannot help, so the supervisor bisects down to
    the single poison contract and quarantines it as ``worker-crash``."""
    chaotic = SweepSpec(total=TOTAL, seed=SEED, chaos="worker-poison",
                        chaos_seed=99)
    result = run_sharded_sweep(chaotic, workers=3, world=world,
                               processes=True,
                               supervise=SupervisorConfig(**FAST))
    assert result.poison_contracts > 0
    merged = _merged(result)
    quarantined = {record["address"] for record in merged["failures"]}
    assert len(quarantined) == result.poison_contracts
    for record in merged["failures"]:
        assert record["cause"] == "worker-crash"
        assert record["stage"] == "worker"
    # Zero lost contracts: every address is an analysis or a quarantine...
    assert len(merged["contracts"]) + len(quarantined) \
        == len(serial["contracts"]) + len(serial["failures"])
    # ...and every non-quarantined analysis is byte-for-byte the serial one.
    serial_by_addr = {record["address"]: record
                      for record in serial["contracts"]}
    for record in merged["contracts"]:
        assert record == serial_by_addr[record["address"]]
    assert result.metrics.counter_value("parallel.poison_contracts") \
        == result.poison_contracts
    assert result.metrics.counter_value("pipeline.quarantined",
                                        cause="worker-crash") \
        == result.poison_contracts


def test_hung_worker_is_killed_and_recovered(spec, world, serial) -> None:
    chaotic = SweepSpec(total=TOTAL, seed=SEED, chaos="worker-hang",
                        chaos_seed=5)
    result = run_sharded_sweep(
        chaotic, workers=3, world=world, processes=True,
        supervise=SupervisorConfig(shard_timeout_s=1.0,
                                   max_shard_retries=1))
    assert result.hung_kills > 0
    assert result.metrics.counter_value("parallel.hung_kills") \
        == result.hung_kills
    assert result.metrics.gauge("parallel.heartbeat_lag_seconds").value \
        >= 1.0
    merged = _merged(result)
    quarantined = {record["address"] for record in merged["failures"]}
    assert len(merged["contracts"]) + len(quarantined) \
        == len(serial["contracts"]) + len(serial["failures"])


def test_flight_recorder_replays_the_supervised_lifecycle(spec, world,
                                                          tmp_path) -> None:
    """The merged journal narrates everything the registry counts: every
    respawn, bisection and quarantine has its event, worker lifecycles
    close, and the live console renders even a mid-write journal."""
    from repro.obs import events as ev
    from repro.obs.console import journal_health, journal_snapshot, \
        render_status

    journal_path = str(tmp_path / "sweep.events.jsonl")
    chaotic = SweepSpec(total=TOTAL, seed=SEED, chaos="worker-poison",
                        chaos_seed=99)
    result = run_sharded_sweep(chaotic, workers=3, world=world,
                               processes=True, events_path=journal_path,
                               supervise=SupervisorConfig(**FAST))

    loaded = ev.read_journal(journal_path)
    assert loaded.header["schema"] == ev.SCHEMA
    assert loaded.truncated_tail == 0
    kinds: dict[str, int] = {}
    for event in loaded.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    assert kinds[ev.SWEEP_START] == 1 and kinds[ev.SWEEP_END] == 1
    assert kinds.get(ev.WORKER_RESPAWN, 0) == result.respawns
    assert kinds.get(ev.WORKER_HUNG_KILL, 0) == result.hung_kills
    assert kinds.get(ev.SUPERVISOR_QUARANTINE, 0) == result.poison_contracts
    assert kinds.get(ev.SUPERVISOR_BISECT, 0) \
        == result.metrics.counter_value("parallel.bisections")
    # Every spawned worker's lifecycle closes with an exit or a kill.
    assert kinds[ev.WORKER_SPAWN] == kinds.get(ev.WORKER_EXIT, 0) \
        + kinds.get(ev.WORKER_HUNG_KILL, 0)
    # Workers' own pipeline events were folded in with their provenance.
    pids = {event.pid for event in loaded.events
            if event.kind == ev.PIPELINE_START}
    assert len(pids) > 1

    quarantined = {event.attrs["address"] for event in loaded.events
                   if event.kind == ev.SUPERVISOR_QUARANTINE}
    assert quarantined == {record["address"]
                           for record in _merged(result)["failures"]}

    status = journal_snapshot(journal_path)
    assert status.finished
    assert status.quarantined >= result.poison_contracts
    assert "sweep finished" in render_status(status)
    assert journal_health(journal_path, hung_after_s=0.001)["healthy"]

    # A reader racing the writer sees a prefix, possibly cut mid-line:
    # the console must still render it (checkpoint tail-tolerance rules).
    payload = open(journal_path, "rb").read()
    partial = str(tmp_path / "partial.events.jsonl")
    with open(partial, "wb") as stream:
        stream.write(payload[:len(payload) * 2 // 3])
    assert render_status(journal_snapshot(partial))


def test_supervised_checkpoints_use_shard_naming(spec, world, tmp_path,
                                                 parent_killed_before_fold
                                                 ) -> None:
    """Supervised workers commit into the one store, not into
    ``PATH.shardNN`` files: a parent killed before its fold leaves one
    database, plus at most its WAL sidecars, that settles every
    contract."""
    from repro.store import AnalysisStore, fsck

    base = str(tmp_path / "sweep.store")
    with parent_killed_before_fold():
        run_sharded_sweep(spec, workers=2, world=world, processes=True,
                          store_path=base,
                          supervise=SupervisorConfig(**FAST))
    assert {"sweep.store"} <= set(os.listdir(tmp_path)) \
        <= {"sweep.store", "sweep.store-wal", "sweep.store-shm"}
    assert fsck(base).clean
    with AnalysisStore(base) as store:
        settled = (set(store.load_analyses()) | set(store.load_failures())
                   | store.load_skips())
    assert settled == set(world.addresses())


def test_fatal_misconfiguration_fails_loudly_not_healed(world,
                                                        tmp_path) -> None:
    """A worker-side ConfigurationError (here an unknown fault plan) is an
    operator error — the supervisor must surface it, never 'heal' it by
    respawn or bisection."""
    journal_path = str(tmp_path / "sweep.events.jsonl")
    broken = SweepSpec(total=TOTAL, seed=SEED, chaos="no-such-plan")
    with pytest.raises(ConfigurationError, match="no-such-plan"):
        run_sharded_sweep(broken, workers=2, world=world, processes=True,
                          events_path=journal_path,
                          supervise=SupervisorConfig(**FAST))
    kinds = {event.kind for event in ev.read_journal(journal_path).events}
    assert ev.WORKER_SPAWN in kinds
    assert not kinds & {ev.WORKER_RESPAWN, ev.SUPERVISOR_BISECT}


def test_unopenable_shard_store_still_heartbeats_per_contract(
        spec, world, serial, tmp_path, monkeypatch) -> None:
    """The heartbeat comes from the pipeline, not the store: when the
    sweep's store cannot be created, workers sweep on in-memory caches,
    still beat once per settled contract, so they are never hung-killed,
    and their results reach the report over their pipes."""
    from repro.parallel import supervisor

    monkeypatch.setattr(supervisor, "open_store",
                        lambda path, warn=None: None)
    journal_path = str(tmp_path / "sweep.events.jsonl")
    result = run_sharded_sweep(spec, workers=2, world=world, processes=True,
                               events_path=journal_path,
                               supervise=SupervisorConfig(**FAST))
    assert _merged(result) == serial
    assert result.hung_kills == 0 and result.respawns == 0
    events = ev.read_journal(journal_path).events
    totals = {event.attrs["task"]: event.attrs["total"] for event in events
              if event.kind == ev.WORKER_SPAWN}
    exits = [event for event in events if event.kind == ev.WORKER_EXIT]
    assert len(exits) == 2
    for event in exits:
        assert event.attrs["clean"]
        assert event.attrs["completed"] == totals[event.attrs["task"]] > 0


def test_supervisor_config_validation() -> None:
    with pytest.raises(ConfigurationError, match="positive"):
        SupervisorConfig(shard_timeout_s=0.0)
    with pytest.raises(ConfigurationError, match="max_shard_retries"):
        SupervisorConfig(max_shard_retries=0)


def test_worker_crash_classifies_as_worker_crash() -> None:
    error = WorkerCrash("worker exited with code 70", shard=2,
                        exitcode=70, attempts=3)
    assert classify_cause(error) == "worker-crash"
    assert error.shard == 2
    assert not error.hung
