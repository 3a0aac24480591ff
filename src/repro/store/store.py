""":class:`AnalysisStore` — the durable sweep database.

One SQLite file (schema ``repro.store/1``, see
:mod:`repro.store.schema`) holding hash-keyed facts, instance-keyed
facts and the derived query tables.  Writes follow a strict
per-contract transaction discipline: the pipeline's
:class:`~repro.store.binding.StoreBinding` stages fact and instance
writes, then commits exactly once per finished contract — so a
``kill -9`` at any instant rolls back to the last finished contract and
the store is always a *consistent prefix* of the sweep.

Besides the sweep-facing writes, the store carries an offline query
surface (``proxies``, ``logic_chain``, ``collisions``, censuses) over
the derived tables, and the single-row point reads
(``load_analysis_record`` and friends) behind the ``repro.api`` query
records served by ``repro explain --store`` and ``repro serve``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from repro.core.report import ContractAnalysis, ContractFailure, LandscapeReport
from repro.landscape.serialize import (
    analysis_to_dict,
    dict_to_analysis,
    dict_to_failure,
    failure_to_dict,
)
from repro.store import facts as factser
from repro.store.schema import connect, ensure_schema

_JSON = {"separators": (",", ":"), "sort_keys": True}


def _hex(data: bytes | None) -> str | None:
    return None if data is None else "0x" + data.hex()


class AnalysisStore:
    """Persist and query one corpus's analysis facts.

    ``":memory:"`` gives an ephemeral store (handy in tests).  The
    instance is also a context manager; ``close()`` commits first, so a
    clean exit never loses staged writes.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._connection = connect(path)
        try:
            ensure_schema(self._connection, path)
        except BaseException:
            self._connection.close()
            raise

    # ------------------------------------------------------------ lifecycle
    def commit(self) -> None:
        self._connection.commit()

    def close(self) -> None:
        try:
            self._connection.commit()
        finally:
            self._connection.close()

    def __enter__(self) -> "AnalysisStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ----------------------------------------------------- hash-keyed facts
    def save_check(self, code_hash: bytes, check) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO proxy_verdicts VALUES (?, ?)",
            (_hex(code_hash),
             json.dumps(factser.check_to_record(check), **_JSON)))

    def save_selectors(self, code_hash: bytes, selectors) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO selector_sets VALUES (?, ?)",
            (_hex(code_hash),
             json.dumps(factser.selectors_to_record(selectors), **_JSON)))

    def save_collision_report(self, pair: tuple[bytes, bytes], kind: str,
                              record: dict[str, Any]) -> None:
        self._connection.execute(
            "INSERT OR REPLACE INTO collision_results VALUES (?, ?, ?, ?)",
            (_hex(pair[0]), _hex(pair[1]), kind,
             json.dumps(record, **_JSON)))

    def load_checks(self) -> dict[bytes, Any]:
        rows = self._connection.execute(
            "SELECT code_hash, check_json FROM proxy_verdicts").fetchall()
        return {factser.unhex(code_hash): factser.record_to_check(
                    json.loads(check_json))
                for code_hash, check_json in rows}

    def load_selector_sets(self) -> dict[bytes, tuple[bytes, ...]]:
        rows = self._connection.execute(
            "SELECT code_hash, selectors_json FROM selector_sets").fetchall()
        return {factser.unhex(code_hash): factser.record_to_selectors(
                    json.loads(selectors_json))
                for code_hash, selectors_json in rows}

    def load_collision_reports(self, kind: str,
                               ) -> dict[tuple[bytes, bytes], Any]:
        rebuild = (factser.record_to_function_report if kind == "function"
                   else factser.record_to_storage_report)
        rows = self._connection.execute(
            "SELECT proxy_hash, logic_hash, report_json FROM "
            "collision_results WHERE kind = ?", (kind,)).fetchall()
        return {(factser.unhex(proxy_hash), factser.unhex(logic_hash)):
                rebuild(json.loads(report_json))
                for proxy_hash, logic_hash, report_json in rows}

    def settled_code_hashes(self) -> set[bytes]:
        """Every codehash with a persisted proxy verdict."""
        rows = self._connection.execute(
            "SELECT code_hash FROM proxy_verdicts").fetchall()
        return {factser.unhex(code_hash) for (code_hash,) in rows}

    # ------------------------------------------------- instance-keyed facts
    def save_analysis(self, analysis: ContractAnalysis) -> None:
        """Stage one contract's full analysis (no commit).

        Writes the instance row, clears any stale failure/skip for the
        same address (the three instance tables are mutually exclusive)
        and rebuilds the derived ``logic_links``/``collisions`` rows.
        """
        check = analysis.check
        address_hex = _hex(analysis.address)
        record = analysis_to_dict(analysis)
        self._connection.execute(
            "INSERT OR REPLACE INTO analyses VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                address_hex,
                _hex(analysis.code_hash),
                int(analysis.is_proxy),
                analysis.standard.value if analysis.standard else None,
                check.logic_location.value if check else None,
                (hex(check.logic_slot)
                 if check and check.logic_slot is not None else None),
                analysis.deploy_block,
                analysis.deploy_year,
                int(analysis.has_source),
                int(analysis.has_transactions),
                int(analysis.emulation_failed),
                json.dumps(record, **_JSON),
            ))
        self._connection.execute(
            "DELETE FROM failures WHERE address = ?", (address_hex,))
        self._connection.execute(
            "DELETE FROM skips WHERE address = ?", (address_hex,))
        self._write_derived(address_hex, analysis)

    def _write_derived(self, address_hex: str,
                       analysis: ContractAnalysis) -> None:
        self._connection.execute(
            "DELETE FROM logic_links WHERE proxy = ?", (address_hex,))
        self._connection.execute(
            "DELETE FROM collisions WHERE proxy = ?", (address_hex,))
        if analysis.logic_history is not None:
            self._connection.executemany(
                "INSERT OR REPLACE INTO logic_links VALUES (?, ?, ?)",
                [(address_hex, position, _hex(logic))
                 for position, logic in enumerate(
                     analysis.logic_history.logic_addresses)])
        for report in analysis.function_reports:
            for collision in report.collisions:
                self._connection.execute(
                    "INSERT INTO collisions VALUES "
                    "(?, ?, 'function', ?, 0, 0)",
                    (address_hex, _hex(report.logic),
                     _hex(collision.selector)))
        for report in analysis.storage_reports:
            for collision in report.collisions:
                self._connection.execute(
                    "INSERT INTO collisions VALUES (?, ?, 'storage', ?, ?, ?)",
                    (address_hex, _hex(report.logic), str(collision.slot),
                     int(collision.sensitive), int(collision.verified)))

    def save_failure(self, failure: ContractFailure) -> None:
        address_hex = _hex(failure.address)
        self._connection.execute(
            "INSERT OR REPLACE INTO failures VALUES (?, ?)",
            (address_hex, json.dumps(failure_to_dict(failure), **_JSON)))
        self._connection.execute(
            "DELETE FROM analyses WHERE address = ?", (address_hex,))
        self._connection.execute(
            "DELETE FROM skips WHERE address = ?", (address_hex,))
        self._connection.execute(
            "DELETE FROM logic_links WHERE proxy = ?", (address_hex,))
        self._connection.execute(
            "DELETE FROM collisions WHERE proxy = ?", (address_hex,))

    def invalidate_instances(self, addresses: Iterable[bytes]) -> int:
        """Drop every instance-keyed fact for ``addresses`` (no commit).

        The reorg rollback path: a deployment orphaned by a chain
        reorganization no longer exists on the canonical branch, so its
        per-address rows (``analyses``/``failures``/``skips`` plus the
        derived ``logic_links``/``collisions``) must go.  Hash-keyed facts
        are deliberately untouched — a bytecode verdict is true on any
        branch.  Returns how many instance rows were removed.
        """
        removed = 0
        for address in addresses:
            address_hex = _hex(address)
            for table in ("analyses", "failures", "skips"):
                cursor = self._connection.execute(
                    f"DELETE FROM {table} WHERE address = ?", (address_hex,))
                removed += cursor.rowcount
            for table in ("logic_links", "collisions"):
                self._connection.execute(
                    f"DELETE FROM {table} WHERE proxy = ?", (address_hex,))
        return removed

    def save_skip(self, address: bytes) -> None:
        address_hex = _hex(address)
        self._connection.execute(
            "INSERT OR REPLACE INTO skips VALUES (?)", (address_hex,))
        self._connection.execute(
            "DELETE FROM analyses WHERE address = ?", (address_hex,))
        self._connection.execute(
            "DELETE FROM failures WHERE address = ?", (address_hex,))
        self._connection.execute(
            "DELETE FROM logic_links WHERE proxy = ?", (address_hex,))
        self._connection.execute(
            "DELETE FROM collisions WHERE proxy = ?", (address_hex,))

    # ------------------------------------------------------------ point reads
    # The `repro.api` query surface: one address, one row, no full scan.
    # WAL mode lets any number of reader connections run these while a
    # sweep's StoreBinding commits — the serve daemon's whole read path.
    def load_analysis_record(self, address: bytes) -> dict[str, Any] | None:
        row = self._connection.execute(
            "SELECT analysis_json FROM analyses WHERE address = ?",
            (_hex(address),)).fetchone()
        return json.loads(row[0]) if row else None

    def load_failure_record(self, address: bytes) -> dict[str, Any] | None:
        row = self._connection.execute(
            "SELECT failure_json FROM failures WHERE address = ?",
            (_hex(address),)).fetchone()
        return json.loads(row[0]) if row else None

    def has_skip(self, address: bytes) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM skips WHERE address = ?",
            (_hex(address),)).fetchone()
        return row is not None

    def load_analyses(self) -> dict[bytes, dict[str, Any]]:
        """Serialized analysis records by address (restore parses lazily)."""
        rows = self._connection.execute(
            "SELECT address, analysis_json FROM analyses").fetchall()
        return {factser.unhex(address): json.loads(analysis_json)
                for address, analysis_json in rows}

    def load_failures(self) -> dict[bytes, ContractFailure]:
        rows = self._connection.execute(
            "SELECT address, failure_json FROM failures").fetchall()
        return {factser.unhex(address): dict_to_failure(
                    json.loads(failure_json))
                for address, failure_json in rows}

    def load_skips(self) -> set[bytes]:
        rows = self._connection.execute(
            "SELECT address FROM skips").fetchall()
        return {factser.unhex(address) for (address,) in rows}

    # ------------------------------------------------------------- bulk API
    def save_report(self, report: LandscapeReport) -> None:
        """Persist a finished sweep in one transaction (post-hoc dump)."""
        for analysis in report.analyses.values():
            self.save_analysis(analysis)
        for failure in report.failures.values():
            self.save_failure(failure)
        self._connection.commit()

    # ------------------------------------------------- offline query surface
    def contract_count(self) -> int:
        row = self._connection.execute(
            "SELECT COUNT(*) FROM analyses").fetchone()
        return row[0]

    def proxies(self, standard: str | None = None,
                year: int | None = None,
                hidden_only: bool = False) -> list[tuple]:
        query = ("SELECT address, code_hash, has_source, has_tx, "
                 "deploy_year, is_proxy, standard FROM analyses "
                 "WHERE is_proxy = 1")
        parameters: list = []
        if standard is not None:
            query += " AND standard = ?"
            parameters.append(standard)
        if year is not None:
            query += " AND deploy_year = ?"
            parameters.append(year)
        if hidden_only:
            query += " AND has_source = 0 AND has_tx = 0"
        return self._connection.execute(query, parameters).fetchall()

    def logic_chain(self, proxy_address: str) -> list[str]:
        rows = self._connection.execute(
            "SELECT logic FROM logic_links WHERE proxy = ? "
            "ORDER BY position", (proxy_address,)).fetchall()
        return [row[0] for row in rows]

    def collisions(self, kind: str | None = None,
                   verified_only: bool = False) -> list[tuple[str, str, str]]:
        query = "SELECT proxy, logic, detail FROM collisions WHERE 1=1"
        parameters: list = []
        if kind is not None:
            query += " AND kind = ?"
            parameters.append(kind)
        if verified_only:
            query += " AND verified = 1"
        return self._connection.execute(query, parameters).fetchall()

    def standards_census(self) -> dict[str, int]:
        rows = self._connection.execute(
            "SELECT standard, COUNT(*) FROM analyses "
            "WHERE is_proxy = 1 GROUP BY standard").fetchall()
        return {standard: count for standard, count in rows}

    def yearly_counts(self) -> dict[int, int]:
        rows = self._connection.execute(
            "SELECT deploy_year, COUNT(*) FROM analyses "
            "WHERE deploy_year IS NOT NULL GROUP BY deploy_year").fetchall()
        return {year: count for year, count in rows}

    # ------------------------------------------------------------ utilities
    def restored_analyses(self, addresses: Iterable[bytes] | None = None,
                          ) -> list[ContractAnalysis]:
        """Rebuilt analyses, in ``addresses`` order when given."""
        records = self.load_analyses()
        if addresses is None:
            return [dict_to_analysis(record) for record in records.values()]
        return [dict_to_analysis(records[address]) for address in addresses
                if address in records]


__all__ = ["AnalysisStore"]
