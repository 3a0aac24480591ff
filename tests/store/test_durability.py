"""Durability edges: kill -9 mid-commit, concurrent writers, fsck.

These tests earn the "crash-safe" in the store's headline: a SIGKILL at
any point leaves a database that opens clean, fscks clean, and resumes
incrementally to the byte-identical full report.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time

from repro.core.pipeline import Proxion
from repro.corpus.generator import generate_landscape
from repro.landscape import report_to_json
from repro.store import AnalysisStore, attach_store, fsck

TOTAL, SEED = 60, 9

_CHILD_SWEEP = textwrap.dedent("""
    import sys
    from repro.core.pipeline import Proxion
    from repro.corpus.generator import generate_landscape
    from repro.store import attach_store

    store_path = sys.argv[1]
    world = generate_landscape(total={total}, seed={seed})
    binding = attach_store(store_path)
    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset, store=binding)
    proxion.analyze_all(world.addresses())
    binding.close()
""").format(total=TOTAL, seed=SEED)


def _spawn_sweep(store_path: str) -> subprocess.Popen:
    environment = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    environment["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.Popen([sys.executable, "-c", _CHILD_SWEEP,
                             store_path], env=environment)


def _committed_rows(store_path: str) -> int:
    try:
        connection = sqlite3.connect(store_path)
        try:
            return connection.execute(
                "SELECT COUNT(*) FROM analyses").fetchone()[0]
        finally:
            connection.close()
    except sqlite3.Error:
        return 0


def test_kill9_mid_sweep_leaves_a_resumable_store(tmp_path) -> None:
    """SIGKILL during commits: fsck clean, incremental resume identical."""
    world = generate_landscape(total=TOTAL, seed=SEED)
    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset)
    cold_json = report_to_json(proxion.analyze_all(world.addresses()))

    path = str(tmp_path / "killed.store")
    child = _spawn_sweep(path)
    try:
        deadline = time.monotonic() + 120
        while _committed_rows(path) < 5:
            assert child.poll() is None, "child finished before the kill"
            assert time.monotonic() < deadline, "child made no progress"
            time.sleep(0.01)
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.wait()

    report = fsck(path)
    assert report.ok, report.issues  # committed prefix is consistent

    survivors = _committed_rows(path)
    assert survivors >= 5  # the kill landed mid-corpus, not post-sweep

    with attach_store(path, incremental=True) as binding:
        resumed = Proxion.from_chain(world.chain, registry=world.registry,
                                     dataset=world.dataset, store=binding)
        final = resumed.analyze_all(world.addresses())
        restored = resumed.metrics.snapshot()["counters"].get(
            "pipeline.store_restored_contracts", 0)
    assert report_to_json(final) == cold_json
    assert restored >= survivors  # the killed run's commits all counted


def test_concurrent_writers_share_one_store_via_wal(tmp_path) -> None:
    """The workers of a sharded sweep write the same file; WAL absorbs it."""
    world = generate_landscape(total=TOTAL, seed=SEED)
    proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                 dataset=world.dataset)
    report = proxion.analyze_all(world.addresses())
    analyses = list(report.analyses.values())
    half = len(analyses) // 2
    path = str(tmp_path / "shared.store")
    AnalysisStore(path).close()
    errors: list[BaseException] = []

    def writer(chunk) -> None:
        try:
            with AnalysisStore(path) as store:
                for analysis in chunk:
                    store.save_analysis(analysis)
                    store.commit()
        except BaseException as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(chunk,))
               for chunk in (analyses[:half], analyses[half:])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    with AnalysisStore(path) as store:
        assert len(store.load_analyses()) == len(analyses)
    assert fsck(path).clean


def test_fsck_flags_truncated_database_as_fatal(tmp_path) -> None:
    path = str(tmp_path / "truncated.store")
    with AnalysisStore(path) as store:
        for index in range(64):
            store.save_skip(bytes([index]) * 20)
        store.commit()
        store._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    size = os.path.getsize(path)
    with open(path, "rb+") as stream:
        stream.truncate(size // 2)
    report = fsck(path)
    assert report.fatal
    assert not report.ok


def test_fsck_repairs_garbled_fact_rows(tmp_path) -> None:
    world = generate_landscape(total=40, seed=3)
    path = str(tmp_path / "garbled.store")
    with attach_store(path) as binding:
        proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                     dataset=world.dataset, store=binding)
        proxion.analyze_all(world.addresses())

    connection = sqlite3.connect(path)
    connection.execute("UPDATE proxy_verdicts SET check_json = '{oops' "
                       "WHERE rowid = 1")
    connection.execute("UPDATE analyses SET analysis_json = 'not json' "
                       "WHERE rowid = 1")
    connection.commit()
    connection.close()

    first = fsck(path)
    assert not first.clean and not first.fatal

    repaired = fsck(path, repair=True)
    assert repaired.ok
    assert repaired.repaired
    assert fsck(path).clean  # idempotent: nothing left to flag


def test_fsck_reports_a_missing_store(tmp_path) -> None:
    report = fsck(str(tmp_path / "nope.store"))
    assert report.fatal and not report.ok
