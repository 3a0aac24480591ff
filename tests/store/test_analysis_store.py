"""The durable analysis store: instances and schema discipline."""

from __future__ import annotations

import sqlite3

import pytest

from repro.core.pipeline import Proxion
from repro.core.report import ContractFailure
from repro.corpus.generator import generate_landscape
from repro.errors import ConfigurationError
from repro.landscape.serialize import analysis_to_dict
from repro.store import AnalysisStore, StoreBinding
from repro.store import schema as store_schema

TOTAL, SEED = 60, 9


@pytest.fixture(scope="module")
def report():
    world = generate_landscape(total=TOTAL, seed=SEED)
    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset)
    return proxion.analyze_all(world.addresses())


@pytest.fixture(scope="module")
def analyses(report):
    return list(report.analyses.values())


def test_analyses_round_trip_exactly(tmp_path, report) -> None:
    path = str(tmp_path / "a.store")
    with AnalysisStore(path) as store:
        store.save_report(report)
    with AnalysisStore(path) as store:
        restored = store.restored_analyses()
    by_address = {analysis.address: analysis for analysis in restored}
    assert len(by_address) == len(report.analyses)
    for analysis in report.analyses.values():
        assert analysis_to_dict(by_address[analysis.address]) \
            == analysis_to_dict(analysis)


def test_settled_code_hashes_cover_the_swept_corpus(tmp_path,
                                                    report) -> None:
    """A binding-driven sweep settles every alive codehash it saw."""
    path = str(tmp_path / "b.store")
    world = generate_landscape(total=TOTAL, seed=SEED)
    with StoreBinding(AnalysisStore(path)) as binding:
        proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                     dataset=world.dataset, store=binding)
        proxion.analyze_all(world.addresses())
        settled = binding.store.settled_code_hashes()
    assert settled == {analysis.code_hash
                       for analysis in report.analyses.values()}


def test_instance_tables_are_mutually_exclusive(analyses) -> None:
    analysis = analyses[0]
    address = analysis.address
    store = AnalysisStore(":memory:")
    store.save_analysis(analysis)
    store.save_failure(ContractFailure(address=address, cause="rpc",
                                       error="boom", stage="probe"))
    assert store.load_analyses() == {}
    assert set(store.load_failures()) == {address}
    # Re-analyzing the address moves it back out of the failure table.
    store.save_analysis(analysis)
    assert store.load_failures() == {}
    assert set(store.load_analyses()) == {address}
    store.save_skip(address)
    assert store.load_analyses() == {}
    assert store.load_skips() == {address}
    store.close()


def test_newer_schema_is_refused_loudly(tmp_path) -> None:
    path = str(tmp_path / "future.store")
    AnalysisStore(path).close()
    connection = sqlite3.connect(path)
    connection.execute("UPDATE meta SET value = 'repro.store/99' "
                       "WHERE key = 'schema'")
    connection.commit()
    connection.close()
    with pytest.raises(ConfigurationError, match="newer"):
        AnalysisStore(path)


def test_foreign_sqlite_file_is_refused(tmp_path) -> None:
    path = str(tmp_path / "foreign.sqlite")
    connection = sqlite3.connect(path)
    connection.execute("CREATE TABLE unrelated (x INTEGER)")
    connection.commit()
    connection.close()
    with pytest.raises(ConfigurationError, match="not a repro store"):
        AnalysisStore(path)


def test_missing_migration_hook_refuses_not_guesses(tmp_path,
                                                    monkeypatch) -> None:
    path = str(tmp_path / "old.store")
    AnalysisStore(path).close()
    monkeypatch.setattr(store_schema, "VERSION", 2)
    with pytest.raises(ConfigurationError, match="no migration hook"):
        AnalysisStore(path)


def test_registered_migration_hook_upgrades_in_order(tmp_path,
                                                     monkeypatch) -> None:
    path = str(tmp_path / "old.store")
    with AnalysisStore(path) as store:
        store.save_skip(b"\x77" * 20)
        store.commit()
    steps: list[int] = []

    def to_v2(connection) -> None:
        steps.append(2)
        connection.execute("CREATE TABLE v2_marker (x INTEGER)")

    def to_v3(connection) -> None:
        steps.append(3)
        connection.execute("CREATE TABLE v3_marker (x INTEGER)")

    monkeypatch.setattr(store_schema, "VERSION", 3)
    monkeypatch.setattr(store_schema, "MIGRATIONS", {1: to_v2, 2: to_v3})
    with AnalysisStore(path) as store:
        assert store.load_skips() == {b"\x77" * 20}  # data carried over
    assert steps == [2, 3]
    connection = sqlite3.connect(path)
    tag = connection.execute("SELECT value FROM meta WHERE key = 'schema'"
                             ).fetchone()[0]
    connection.close()
    assert tag == "repro.store/3"


def test_binding_writes_are_per_contract_transactions(tmp_path,
                                                      analyses) -> None:
    """Another connection sees each contract exactly at its commit."""
    path = str(tmp_path / "txn.store")
    binding = StoreBinding(AnalysisStore(path))
    reader = sqlite3.connect(path)

    def committed() -> int:
        return reader.execute("SELECT COUNT(*) FROM analyses").fetchone()[0]

    for index, analysis in enumerate(analyses[:5]):
        binding.record_analysis(analysis)
        assert committed() == index + 1
    reader.close()
    binding.close()
