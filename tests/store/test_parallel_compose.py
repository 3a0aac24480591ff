"""`--store` composes with --workers, --chaos and resume.

The legacy ResultStore hung off the end of the *serial* path only; the
durable store is wired through the sharded engine and the supervisor, so
every robustness feature composes.  Every shard worker commits into the
sweep's one store, and nothing is folded afterwards — these tests pin
both the byte-identity of the report and that no file but the store is
left behind.
"""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import Proxion
from repro.landscape import report_to_json
from repro.parallel import SweepSpec, run_sharded_sweep

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


def _no_shard_leftovers(tmp_path) -> None:
    leftovers = [name for name in os.listdir(tmp_path)
                 if ".shard" in name or name.endswith(("-wal", "-shm"))]
    assert leftovers == []


def test_store_with_inline_workers_is_byte_identical(tmp_path, spec, world,
                                                     serial_json) -> None:
    path = str(tmp_path / "w.store")
    result = run_sharded_sweep(spec, workers=3, world=world,
                               processes=False, store_path=path)
    assert report_to_json(result.report) == serial_json
    _no_shard_leftovers(tmp_path)
    assert os.path.exists(path)


def test_store_with_worker_processes_is_byte_identical(tmp_path, spec,
                                                       world,
                                                       serial_json) -> None:
    path = str(tmp_path / "p.store")
    result = run_sharded_sweep(spec, workers=2, world=world,
                               processes=True, store_path=path)
    assert result.supervised
    assert report_to_json(result.report) == serial_json
    _no_shard_leftovers(tmp_path)


def test_incremental_parallel_resweep_is_byte_identical(tmp_path, spec,
                                                        world,
                                                        serial_json) -> None:
    """Grown corpus: warm the prefix, re-sweep the whole incrementally."""
    path = str(tmp_path / "grown.store")
    addresses = world.addresses()
    run_sharded_sweep(spec, workers=3, world=world, processes=False,
                      addresses=addresses[:len(addresses) // 2],
                      store_path=path)
    result = run_sharded_sweep(spec, workers=3, world=world,
                               processes=False, store_path=path,
                               incremental=True)
    assert report_to_json(result.report) == serial_json
    assert result.store_restored > 0
    counters = result.metrics.snapshot()["counters"]
    assert counters["pipeline.store_restored_contracts"] \
        == result.store_restored
    _no_shard_leftovers(tmp_path)


def test_fully_settled_parallel_resweep_skips_dispatch(tmp_path, spec,
                                                       world,
                                                       serial_json) -> None:
    path = str(tmp_path / "settled.store")
    run_sharded_sweep(spec, workers=2, world=world, processes=False,
                      store_path=path)
    result = run_sharded_sweep(spec, workers=2, world=world,
                               processes=False, store_path=path,
                               incremental=True)
    assert report_to_json(result.report) == serial_json
    assert result.shards == []  # no worker had anything to do


def test_store_composes_with_chaos(tmp_path, world, serial_json) -> None:
    """Transient faults are retried away; the stored sweep stays exact."""
    chaotic = SweepSpec(total=TOTAL, seed=SEED, chaos="transient")
    path = str(tmp_path / "chaos.store")
    result = run_sharded_sweep(chaotic, workers=3, world=world,
                               processes=False, store_path=path)
    assert report_to_json(result.report) == serial_json
    incremental = run_sharded_sweep(chaotic, workers=3, world=world,
                                    processes=False, store_path=path,
                                    incremental=True)
    assert report_to_json(incremental.report) == serial_json


def test_three_shard_prefix_resumes_on_two_workers(tmp_path, spec, world,
                                                   serial_json) -> None:
    """Resume is keyed by address and codehash, not by the partition: a
    prefix committed by a 3-shard sweep resumes with ``--workers 2
    --incremental`` into the cold sweep's bytes, ``summary.dedup``
    included."""
    path = str(tmp_path / "resume.store")
    addresses = world.addresses()
    run_sharded_sweep(spec, workers=3, world=world, processes=False,
                      addresses=addresses[:len(addresses) // 2],
                      store_path=path)
    result = run_sharded_sweep(spec, workers=2, world=world,
                               processes=True, store_path=path,
                               incremental=True)
    assert result.supervised
    assert result.store_restored > 0
    assert report_to_json(result.report) == serial_json
    _no_shard_leftovers(tmp_path)


def test_unwritable_store_is_swept_around(tmp_path, spec, world,
                                          serial_json, monkeypatch) -> None:
    """A store the parent cannot write before dispatch is left as it is:
    the workers sweep on the supervisor's own store instead, and the
    report is still the serial one."""
    import sqlite3

    from repro.store import AnalysisStore

    def refuse(self, addresses):
        raise sqlite3.OperationalError("attempt to write a readonly database")

    monkeypatch.setattr(AnalysisStore, "invalidate_instances", refuse)
    path = str(tmp_path / "readonly.store")
    result = run_sharded_sweep(spec, workers=2, world=world, processes=True,
                               store_path=path)
    assert report_to_json(result.report) == serial_json
    with AnalysisStore(path) as store:
        assert store.load_analyses() == {}


def test_stale_shard_stores_are_salvaged(tmp_path, spec, world,
                                         serial_json,
                                         parent_killed_before_fold) -> None:
    """A parent killed before its fold leaves its workers' rows in the
    one store, and the next sweep counts them as settled.  A leftover
    ``PATH.shardNN`` file of an older version is no longer read."""
    from repro.store import attach_store

    path = str(tmp_path / "salvage.store")
    addresses = world.addresses()
    half = len(addresses) // 2
    with parent_killed_before_fold():
        run_sharded_sweep(spec, workers=2, world=world, processes=True,
                          addresses=addresses[:half], store_path=path)
    # An older version's wreckage, settling the other half.
    legacy = path + ".shard01"
    with attach_store(legacy) as shard_binding:
        proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                     dataset=world.dataset,
                                     store=shard_binding)
        proxion.analyze_all(addresses[half:])

    result = run_sharded_sweep(spec, workers=2, world=world,
                               processes=False, store_path=path,
                               incremental=True)
    assert report_to_json(result.report) == serial_json
    assert result.store_restored > 0  # the killed sweep's commits
    assert sum(stats.addresses for stats in result.shards) \
        == len(addresses) - half  # the legacy file's were re-analyzed
    assert os.path.exists(legacy)
