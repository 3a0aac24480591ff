"""The sharded sweep engine: equivalence, store resume, chaos, processes.

The load-bearing property throughout: a codehash-sharded sweep merges to
a report that serializes *byte-identically* to the serial sweep over the
same addresses — the parallel path is an optimization, never a different
answer.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.core.pipeline import Proxion
from repro.landscape import report_to_json
from repro.parallel import SweepSpec, run_sharded_sweep, shard_addresses

TOTAL, SEED = 40, 7


@pytest.fixture(scope="module")
def spec() -> SweepSpec:
    return SweepSpec(total=TOTAL, seed=SEED)


@pytest.fixture(scope="module")
def world(spec: SweepSpec):
    return spec.build_world()


@pytest.fixture(scope="module")
def serial_json(world) -> str:
    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset)
    return report_to_json(proxion.analyze_all(world.addresses()))


def test_codehash_inline_sweep_is_byte_identical(spec, world,
                                                 serial_json) -> None:
    result = run_sharded_sweep(spec, workers=4, strategy="codehash",
                               world=world, processes=False)
    assert report_to_json(result.report) == serial_json


def test_roundrobin_preserves_verdicts(spec, world, serial_json) -> None:
    """Roundrobin scatters clone families across shards; the replayed
    ``summary.dedup`` still makes the merge byte-identical."""
    result = run_sharded_sweep(spec, workers=4, strategy="roundrobin",
                               world=world, processes=False)
    assert report_to_json(result.report) == serial_json


def test_multiprocessing_sweep_is_byte_identical(spec, world,
                                                 serial_json) -> None:
    result = run_sharded_sweep(spec, workers=4, strategy="codehash",
                               world=world, processes=True)
    assert report_to_json(result.report) == serial_json
    assert len(result.shards) == 4
    assert sum(stats.addresses for stats in result.shards) == len(
        world.addresses())


def test_spawn_rebuilds_world_from_spec(spec, serial_json) -> None:
    """A worker with no inherited world regenerates it from the spec."""
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    from repro.parallel.engine import _run_shard

    world = spec.build_world()
    partitions = shard_addresses(world.addresses(), 2, "codehash",
                                 code_of=world.chain.state.get_code)
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=2) as pool:
        results = pool.map(_run_shard,
                           [(spec, i, partition, None, None)
                            for i, partition in enumerate(partitions)])
    analyzed = sum(len(result["analyses"]) for result in results)
    assert analyzed == len(world.addresses())


def test_spawn_worker_composes_chaos_stack_from_spec(spec) -> None:
    """Under ``spawn`` nothing is inherited: the worker must rebuild the
    world *and* the chaos sandwich (``build_chaos_stack``) purely from the
    pickled spec — `--chaos` composing with `--workers` on every start
    method, not just ``fork``."""
    if "spawn" not in multiprocessing.get_all_start_methods():
        pytest.skip("spawn start method unavailable")
    from repro.obs.registry import MetricsRegistry
    from repro.parallel.engine import _run_shard

    chaotic = SweepSpec(total=TOTAL, seed=SEED, chaos="transient",
                        chaos_seed=5)
    world = chaotic.build_world()
    partitions = shard_addresses(world.addresses(), 2, "codehash",
                                 code_of=world.chain.state.get_code)
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=2) as pool:
        results = pool.map(_run_shard,
                           [(chaotic, i, partition, None, None)
                            for i, partition in enumerate(partitions)])
    analyzed = sum(len(result["analyses"]) for result in results)
    assert analyzed == len(world.addresses())
    merged = MetricsRegistry()
    for result in results:
        merged.merge_state(result["metrics"])
    # The injected transient faults fired inside the spawned workers and
    # the resilient layer absorbed them — proof the sandwich was rebuilt.
    assert merged.counter_total("resilience.retries") > 0
    assert merged.counter_total("faults.injected") > 0


def test_merged_metrics_match_serial_rpc_totals(spec, world) -> None:
    """Codehash sharding sums per-worker RPC counters to the serial values."""
    serial = Proxion.from_chain(world.chain, registry=world.registry,
                                dataset=world.dataset)
    serial.analyze_all(world.addresses())
    result = run_sharded_sweep(spec, workers=4, strategy="codehash",
                               world=world, processes=False)
    for method in ("eth_getCode", "eth_getStorageAt", "eth_call"):
        assert (result.metrics.counter_value("rpc.calls", method=method)
                == serial.metrics.counter_value("rpc.calls", method=method))


def test_chaos_stack_composes_with_sharding(spec, world, serial_json) -> None:
    """`--chaos transient --workers N` still converges to the clean report."""
    chaotic = SweepSpec(total=TOTAL, seed=SEED, chaos="transient",
                        chaos_seed=5)
    result = run_sharded_sweep(chaotic, workers=4, strategy="codehash",
                               world=world, processes=False)
    assert report_to_json(result.report) == serial_json
    assert result.metrics.counter_total("resilience.retries") > 0


def test_shard_stats_account_for_cpu_critical_path(spec, world) -> None:
    result = run_sharded_sweep(spec, workers=3, strategy="roundrobin",
                               world=world, processes=False)
    assert result.sum_shard_cpu_s >= result.max_shard_cpu_s > 0
    assert result.critical_path_speedup >= 1.0


def test_invalidated_instances_are_recomputed_on_resume(spec, world,
                                                        tmp_path,
                                                        serial_json) -> None:
    """Drop a third of a settled store's instance rows; an incremental
    sharded resweep restores the rest and re-analyzes exactly the
    dropped ones — the serial bytes out.  Hash facts survive
    invalidation, so the re-analyzed contracts hit warm caches; the
    replayed ``summary.dedup`` does not see that."""
    from repro.store import AnalysisStore

    path = str(tmp_path / "sweep.store")
    run_sharded_sweep(spec, workers=3, strategy="codehash", world=world,
                      processes=False, store_path=path)
    with AnalysisStore(path) as store:
        settled = (set(store.load_analyses()) | set(store.load_failures())
                   | set(store.load_skips()))
        dropped = [address for address in world.addresses()
                   if address in settled][::3]
        store.invalidate_instances(dropped)
        store.commit()

    result = run_sharded_sweep(spec, workers=3, strategy="codehash",
                               world=world, processes=False,
                               store_path=path, incremental=True)
    assert sum(stats.addresses for stats in result.shards) == len(dropped)
    counters = result.metrics.snapshot()["counters"]
    assert (counters["pipeline.store_restored_contracts"]
            + counters.get("pipeline.store_restored_skips", 0)) \
        == len(settled) - len(dropped)
    assert report_to_json(result.report) == serial_json


class TestShardedCheckpoints:
    """The sweep's one store is a sharded sweep's checkpoint: every shard
    commits into it, and a resume restores from it."""

    def test_each_shard_writes_its_own_file(self, spec, world, tmp_path,
                                            parent_killed_before_fold
                                            ) -> None:
        """Each shard writes its own rows into the one store and leaves
        no file of its own."""
        import os

        from repro.store import AnalysisStore

        base = str(tmp_path / "sweep.store")
        with parent_killed_before_fold():
            run_sharded_sweep(spec, workers=3, strategy="codehash",
                              world=world, processes=False, store_path=base)
        assert {"sweep.store"} <= set(os.listdir(tmp_path)) \
            <= {"sweep.store", "sweep.store-wal", "sweep.store-shm"}
        with AnalysisStore(base) as store:
            settled = (set(store.load_analyses())
                       | set(store.load_failures()) | store.load_skips())
        partitions = shard_addresses(world.addresses(), 3, "codehash",
                                     code_of=world.chain.state.get_code)
        for partition in partitions:
            assert partition and set(partition) <= settled
        assert settled == set(world.addresses())

    def test_fully_restored_resume_issues_no_analysis_rpcs(
            self, spec, world, tmp_path, serial_json) -> None:
        path = str(tmp_path / "sweep.store")
        run_sharded_sweep(spec, workers=2, strategy="codehash", world=world,
                          processes=False, store_path=path)
        result = run_sharded_sweep(spec, workers=2, strategy="codehash",
                                   world=world, processes=False,
                                   store_path=path, incremental=True)
        merged = json.loads(report_to_json(result.report))
        serial = json.loads(serial_json)
        assert merged["contracts"] == serial["contracts"]
        assert result.store_restored \
            == len(serial["contracts"]) + len(serial["failures"])
        assert result.metrics.counter_value(
            "rpc.calls", method="eth_getCode") == 0
