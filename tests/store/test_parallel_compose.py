"""`--store` composes with --workers, --chaos and resume.

The legacy ResultStore hung off the end of the *serial* path only; the
durable store is wired through the sharded engine and the supervisor, so
every robustness feature composes.  Shard workers write their own
``PATH.shardNN`` stores (single writer per file) and the parent folds
them back — these tests pin both the byte-identity of the report and
the cleanup of the shard stores.
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


def test_stale_shard_stores_are_salvaged(tmp_path, spec, world,
                                         serial_json) -> None:
    """A parent killed before folding leaves PATH.shardNN files; the next
    sweep merges them so their contracts count as already settled."""
    from repro.store import AnalysisStore, attach_store, shard_store_path

    path = str(tmp_path / "salvage.store")
    addresses = world.addresses()
    half = len(addresses) // 2
    # Emulate the wreckage: a shard store with committed work (facts and
    # instances, exactly as a worker binding writes them), no parent fold
    # (the parent "died" between worker exit and merge).
    with attach_store(shard_store_path(path, 1)) as shard_binding:
        proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                     dataset=world.dataset,
                                     store=shard_binding)
        proxion.analyze_all(addresses[:half])
    AnalysisStore(path).close()

    result = run_sharded_sweep(spec, workers=2, world=world,
                               processes=False, store_path=path,
                               incremental=True)
    assert report_to_json(result.report) == serial_json
    assert result.store_restored > 0  # the wreck's commits were recovered
    assert not os.path.exists(shard_store_path(path, 1))
