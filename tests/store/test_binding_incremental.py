"""Incremental sweeps and graceful degradation of the store binding.

The headline guarantee: a ``--store --incremental`` re-sweep of a grown
corpus analyzes only the delta — and its merged report serializes
**byte-identically** to a from-scratch sweep of the same corpus.
"""

from __future__ import annotations

import os

import pytest

from repro.core.pipeline import Proxion
from repro.corpus.generator import generate_landscape
from repro.errors import ConfigurationError
from repro.landscape import report_to_json
from repro.store import AnalysisStore, attach_store
from repro.utils.keccak import keccak256

TOTAL, SEED = 60, 9
PREFIX = 30  # the "old" corpus: the first PREFIX addresses


@pytest.fixture(scope="module")
def world():
    return generate_landscape(total=TOTAL, seed=SEED)


@pytest.fixture(scope="module")
def cold_json(world) -> str:
    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset)
    return report_to_json(proxion.analyze_all(world.addresses()))


def _sweep(world, binding, addresses=None):
    """One serial sweep on a fresh node stack (isolated metrics)."""
    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset, store=binding)
    report = proxion.analyze_all(addresses)
    return report, proxion.metrics


def _warm_store(world, path: str) -> None:
    """Sweep the PREFIX-address 'old' corpus into ``path``."""
    with attach_store(path) as binding:
        _sweep(world, binding, world.addresses()[:PREFIX])


def test_incremental_resweep_is_byte_identical(tmp_path, world,
                                               cold_json) -> None:
    path = str(tmp_path / "grown.store")
    _warm_store(world, path)
    with attach_store(path, incremental=True) as binding:
        report, _ = _sweep(world, binding)
    assert report_to_json(report) == cold_json


def test_incremental_resweep_emulates_only_new_codehashes(tmp_path,
                                                          world) -> None:
    """O(delta) work: proxy-check misses == codehashes the store lacks."""
    path = str(tmp_path / "delta.store")
    _warm_store(world, path)
    with AnalysisStore(path) as store:
        settled = store.settled_code_hashes()
        restored_addresses = set(store.load_analyses())
    fresh_hashes = {
        keccak256(world.chain.state.get_code(address))
        for address in world.addresses()
        if address not in restored_addresses
        and world.chain.state.get_code(address)
    } - settled

    with attach_store(path, incremental=True) as binding:
        _, metrics = _sweep(world, binding)
    counters = metrics.snapshot()["counters"]
    assert counters['dedup.misses{cache="proxy_check"}'] \
        == len(fresh_hashes)
    assert counters["pipeline.store_restored_contracts"] \
        == len(restored_addresses)


def test_fully_settled_resweep_does_no_emulation(tmp_path, world,
                                                 cold_json) -> None:
    path = str(tmp_path / "settled.store")
    with attach_store(path) as binding:
        _sweep(world, binding)
    with attach_store(path, incremental=True) as binding:
        report, metrics = _sweep(world, binding)
    assert report_to_json(report) == cold_json
    counters = metrics.snapshot()["counters"]
    assert counters.get('dedup.misses{cache="proxy_check"}', 0) == 0


def test_settled_store_resumes_in_any_address_order(tmp_path, world
                                                     ) -> None:
    """Resume is keyed by address and codehash, not list position: a
    settled store resumed over the reversed address list equals a cold
    sweep of the reversed list, ``summary.dedup`` included."""
    path = str(tmp_path / "settled.store")
    with attach_store(path) as binding:
        _sweep(world, binding)
    reversed_addresses = world.addresses()[::-1]
    cold, _ = _sweep(world, None, reversed_addresses)
    with attach_store(path, incremental=True) as binding:
        resumed, _ = _sweep(world, binding, reversed_addresses)
    assert report_to_json(resumed) == report_to_json(cold)


def test_restored_dead_skip_issues_no_liveness_probe(tmp_path) -> None:
    """A stored §3.1 skip restores without re-probing liveness and counts
    in ``pipeline.store_restored_skips``, apart from restored contracts."""
    world = generate_landscape(total=30, seed=3)
    dead = b"\xde\xad" + b"\x00" * 18          # never deployed: no code
    addresses = world.addresses() + [dead]
    path = str(tmp_path / "skips.store")
    with attach_store(path) as binding:
        first, _ = _sweep(world, binding, addresses)
    assert dead not in first.analyses and dead not in first.failures

    with attach_store(path, incremental=True) as binding:
        resumer = Proxion.from_chain(world.chain, registry=world.registry,
                                     dataset=world.dataset, store=binding)
        probes: list[bytes] = []
        is_alive = resumer.node.is_alive
        resumer.node.is_alive = (               # spy: count liveness probes
            lambda address: probes.append(address) or is_alive(address))
        second = resumer.analyze_all(addresses)
    assert probes == []
    assert resumer.node.api_calls.get("eth_getCode") == 0
    assert report_to_json(second) == report_to_json(first)
    counters = resumer.metrics.snapshot()["counters"]
    restored = len(first.analyses) + len(first.failures)
    assert counters["pipeline.store_restored_contracts"] == restored
    assert counters["pipeline.store_restored_skips"] \
        == len(addresses) - restored


def test_store_binding_adds_no_keccak_calls(tmp_path, world,
                                            monkeypatch) -> None:
    """Each bytecode is hashed once: the store's selector cache is keyed
    by the codehash the pipeline already holds, so a sweep with a fresh
    store makes exactly as many keccak256 calls as one without."""
    import sys

    from repro.utils import keccak as keccak_module

    original = keccak_module.keccak256
    calls = [0]

    def counting(data: bytes) -> bytes:
        calls[0] += 1
        return original(data)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") \
                and getattr(module, "keccak256", None) is original:
            monkeypatch.setattr(module, "keccak256", counting)

    _sweep(world, None)
    without_store = calls[0]
    calls[0] = 0
    with attach_store(str(tmp_path / "fresh.store")) as binding:
        _sweep(world, binding)
    assert calls[0] == without_store > 0


def test_unreadable_store_is_quarantined_not_fatal(tmp_path, world,
                                                   cold_json) -> None:
    path = str(tmp_path / "garbage.store")
    with open(path, "wb") as stream:
        stream.write(b"this is not SQLite at all" * 40)
    warnings: list[str] = []
    binding = attach_store(path, warn=warnings.append)
    assert binding is not None  # quarantined + recreated, sweep proceeds
    report, _ = _sweep(world, binding)
    binding.close()
    assert report_to_json(report) == cold_json
    assert any("quarantined" in message for message in warnings)
    assert any(candidate.startswith("garbage.store.quarantined")
               for candidate in os.listdir(tmp_path))


def test_write_failure_degrades_to_in_memory_caches(tmp_path, world,
                                                    cold_json) -> None:
    """A store that dies mid-sweep must never abort the sweep."""
    path = str(tmp_path / "dying.store")
    warnings: list[str] = []
    binding = attach_store(path, warn=warnings.append)
    binding.store.close()  # every later write raises ProgrammingError
    report, metrics = _sweep(world, binding)
    assert report_to_json(report) == cold_json
    assert binding.disabled
    assert len(warnings) == 1  # one warning, not one per contract
    assert "repro store fsck" in warnings[0]
    assert metrics.snapshot()["counters"]["store.write_errors"] >= 1


def test_schema_mismatch_propagates_loudly(tmp_path) -> None:
    """Corruption degrades; a *future* store must refuse, not degrade."""
    path = str(tmp_path / "future.store")
    AnalysisStore(path).close()
    import sqlite3
    connection = sqlite3.connect(path)
    connection.execute("UPDATE meta SET value = 'repro.store/99' "
                       "WHERE key = 'schema'")
    connection.commit()
    connection.close()
    with pytest.raises(ConfigurationError, match="newer"):
        attach_store(path)
