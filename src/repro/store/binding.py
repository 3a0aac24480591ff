"""Wiring between :class:`~repro.store.store.AnalysisStore` and the pipeline.

:class:`StoreBinding` is what a :class:`~repro.core.pipeline.Proxion`
actually holds: the three §6.1 dedup caches (plus the selector-set
cache) as *write-through dicts* hydrated from the store, and the
per-contract record hooks that commit one transaction per finished
contract.  The pipeline keeps using plain ``dict`` operations — the
binding makes them durable.  A cache insert is staged in memory and
written in the next contract's commit, so a binding holds SQLite's write
lock only while it commits, never while it analyzes.

Failure philosophy (the robustness headline):

* a store that cannot be *opened* is quarantined (renamed to
  ``PATH.quarantined``) and replaced, or — when even that fails — the
  sweep runs with plain in-memory caches.  An operator-paid sweep is
  never aborted over its cache layer;
* a store write that fails mid-sweep :meth:`~StoreBinding.disable`\\ s
  the binding — one warning, a ``store.write_errors`` tick, and the
  dicts keep working purely in memory;
* schema mismatches are the one *loud* failure
  (:class:`~repro.errors.ConfigurationError`): silently ignoring a
  future layout risks corrupting it.

A sharded sweep has one store too.  The parent opens or creates it, and
every worker binds to that same file with :func:`open_worker_binding`:
it opens the file as it is, never quarantines it, and falls back to
in-memory caches if it cannot.  SQLite's WAL and busy timeout let the
workers commit side by side: each waits at most for another's commit.

Incremental restore lives here too: :func:`restore_instances`
re-surveys a grown corpus by fetching each address's code and validating
it against the stored codehash (only byte-identical deployments are
trusted).  No dedup counter is stored: a sweep replays ``summary.dedup``
over its final report
(:meth:`~repro.core.report.LandscapeReport.replay_dedup`), restored rows
included, so a ``kill -9`` can never leave it stale.
"""

from __future__ import annotations

import os
import sqlite3
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.core.report import ContractAnalysis, ContractFailure
from repro.errors import ConfigurationError
from repro.landscape.serialize import dict_to_analysis
from repro.store import facts as factser
from repro.store.store import AnalysisStore
from repro.utils.keccak import keccak256


def _default_warn(message: str) -> None:
    print(message, file=sys.stderr)


# ----------------------------------------------------------------- fact sets
@dataclass(slots=True)
class FactSet:
    """The hash-keyed cache contents, as plain dicts."""

    checks: dict[bytes, Any] = field(default_factory=dict)
    selectors: dict[bytes, tuple[bytes, ...]] = field(default_factory=dict)
    function_reports: dict[tuple[bytes, bytes], Any] = field(
        default_factory=dict)
    storage_reports: dict[tuple[bytes, bytes], Any] = field(
        default_factory=dict)


def load_facts(store: AnalysisStore) -> FactSet:
    """Hydrate every hash-keyed fact of a store."""
    return FactSet(
        checks=store.load_checks(),
        selectors={code_hash: selectors for code_hash, selectors
                   in store.load_selector_sets().items()},
        function_reports=store.load_collision_reports("function"),
        storage_reports=store.load_collision_reports("storage"),
    )


class _WriteThrough(dict):
    """A dict whose inserts are also handed to a writer."""

    __slots__ = ("_write",)

    def __init__(self, initial: dict, write: Callable[[Any, Any], None],
                 ) -> None:
        super().__init__(initial)
        self._write = write

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self._write(key, value)


# ------------------------------------------------------------------ binding
class StoreBinding:
    """One pipeline's live connection to an :class:`AnalysisStore`."""

    def __init__(self, store: AnalysisStore, *,
                 incremental: bool = False,
                 facts: FactSet | None = None,
                 warn: Callable[[str], None] | None = None) -> None:
        self.store = store
        self.path = store.path
        #: When set, ``analyze_all`` restores instance facts from the
        #: store and sweeps only the delta.
        self.incremental = incremental
        self.disabled = False
        self._warn = warn if warn is not None else _default_warn
        self._write_errors = None  # bound by :meth:`bind_metrics`
        self._reorg_invalidations = None
        #: Fact writes waiting for the next commit.
        self._staged: list[tuple[Callable, tuple]] = []
        facts = facts if facts is not None else load_facts(store)
        self.check_cache: dict = _WriteThrough(
            facts.checks,
            lambda key, value: self._stage(store.save_check, key, value))
        self.selector_cache: dict = _WriteThrough(
            facts.selectors,
            lambda key, value: self._stage(store.save_selectors, key, value))
        self.function_cache: dict = _WriteThrough(
            facts.function_reports,
            lambda key, value: self._stage(self._save_function, key, value))
        self.storage_cache: dict = _WriteThrough(
            facts.storage_reports,
            lambda key, value: self._stage(self._save_storage, key, value))

    # ------------------------------------------------------------- plumbing
    def bind_metrics(self, registry) -> None:
        self._write_errors = registry.counter("store.write_errors")
        self._reorg_invalidations = registry.counter(
            "store.reorg_invalidations")

    def disable(self, reason: str) -> None:
        """Degrade to in-memory caches; warn once, never abort the sweep."""
        if self.disabled:
            return
        self.disabled = True
        self._staged.clear()
        if self._write_errors is not None:
            self._write_errors.inc()
        self._warn(f"store: {reason} — continuing with in-memory caches "
                   f"only (run `repro store fsck {self.path}` afterwards)")

    def _guard(self, write: Callable, *args) -> None:
        if self.disabled:
            return
        try:
            write(*args)
        except ConfigurationError:
            raise
        except Exception as error:
            self.disable(f"write to {self.path!r} failed ({error})")

    def _stage(self, write: Callable, *args) -> None:
        if not self.disabled:
            self._staged.append((write, args))

    def _flush(self) -> None:
        """Write the staged facts into the open transaction."""
        staged, self._staged = self._staged, []
        for write, args in staged:
            write(*args)

    def _save_function(self, pair: tuple[bytes, bytes], report) -> None:
        self.store.save_collision_report(
            pair, "function", factser.function_report_to_record(report))

    def _save_storage(self, pair: tuple[bytes, bytes], report) -> None:
        self.store.save_collision_report(
            pair, "storage", factser.storage_report_to_record(report))

    # ------------------------------------------------- per-contract commits
    def record_analysis(self, analysis: ContractAnalysis) -> None:
        """Persist one finished contract — facts staged since the last
        commit ride in the same transaction, so a ``kill -9`` leaves the
        store at an exact contract boundary."""
        self._guard(self._commit_analysis, analysis)

    def _commit_analysis(self, analysis: ContractAnalysis) -> None:
        self._flush()
        self.store.save_analysis(analysis)
        self.store.commit()

    def record_failure(self, failure: ContractFailure) -> None:
        self._guard(self._commit_failure, failure)

    def _commit_failure(self, failure: ContractFailure) -> None:
        self._flush()
        self.store.save_failure(failure)
        self.store.commit()

    def record_skip(self, address: bytes) -> None:
        self._guard(self._commit_skip, address)

    def _commit_skip(self, address: bytes) -> None:
        self._flush()
        self.store.save_skip(address)
        self.store.commit()

    def invalidate_instances(self, addresses: Sequence[bytes]) -> int:
        """Roll back instance facts for reorg-orphaned deployments.

        Same guarded, one-transaction discipline as the record hooks;
        hash-keyed caches stay warm (a bytecode verdict holds on any
        branch).  Returns the number of rows removed (0 when the binding
        is disabled or the write fails).
        """
        if self.disabled or not addresses:
            return 0
        removed = 0
        try:
            removed = self.store.invalidate_instances(addresses)
            self.store.commit()
        except ConfigurationError:
            raise
        except Exception as error:
            self.disable(f"write to {self.path!r} failed ({error})")
            return 0
        if self._reorg_invalidations is not None and removed:
            self._reorg_invalidations.inc(removed)
        return removed

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        self._guard(self._flush)
        try:
            self.store.close()
        except Exception as error:
            if not self.disabled:
                self._warn(f"store: closing {self.path!r} failed ({error})")

    def __enter__(self) -> "StoreBinding":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ------------------------------------------------------- opening & fallback
def quarantine_store(path: str) -> str:
    """Move an unreadable store (and WAL sidecars) out of the way."""
    target = path + ".quarantined"
    suffix = 0
    while os.path.exists(target):
        suffix += 1
        target = f"{path}.quarantined.{suffix}"
    os.replace(path, target)
    for ext in ("-wal", "-shm"):
        if os.path.exists(path + ext):
            os.replace(path + ext, target + ext)
    return target


def open_store(path: str,
               warn: Callable[[str], None] = _default_warn,
               ) -> AnalysisStore | None:
    """Open (or create) a store; quarantine corruption; never raise I/O.

    Returns ``None`` when no durable store can be had — the caller runs
    with in-memory caches.  :class:`ConfigurationError` (schema
    mismatch, foreign database) still propagates: those are refused
    loudly, not silently replaced.
    """
    try:
        return AnalysisStore(path)
    except ConfigurationError:
        raise
    except sqlite3.DatabaseError as error:
        try:
            quarantined = quarantine_store(path)
        except OSError as move_error:
            warn(f"store: {path!r} is unreadable ({error}) and could not "
                 f"be quarantined ({move_error}) — running with in-memory "
                 f"caches only")
            return None
        warn(f"store: {path!r} is unreadable ({error}); quarantined to "
             f"{quarantined!r} and starting fresh")
        try:
            return AnalysisStore(path)
        except Exception as create_error:
            warn(f"store: cannot recreate {path!r} ({create_error}) — "
                 f"running with in-memory caches only")
            return None
    except OSError as error:
        warn(f"store: cannot open {path!r} ({error}) — running with "
             f"in-memory caches only")
        return None


def attach_store(path: str, *, incremental: bool = False,
                 warn: Callable[[str], None] = _default_warn,
                 ) -> StoreBinding | None:
    """Open ``path`` and hydrate a pipeline binding, degrading gracefully."""
    store = open_store(path, warn=warn)
    if store is None:
        return None
    try:
        facts = load_facts(store)
    except ConfigurationError:
        raise
    except Exception as error:
        try:
            store.close()
        except Exception:
            pass
        try:
            quarantined = quarantine_store(path)
        except OSError:
            warn(f"store: {path!r} has unreadable fact rows ({error}) — "
                 f"running with in-memory caches only (try `repro store "
                 f"fsck {path} --repair`)")
            return None
        warn(f"store: {path!r} has unreadable fact rows ({error}); "
             f"quarantined to {quarantined!r} and starting fresh")
        try:
            store = AnalysisStore(path)
        except Exception:
            return None
        facts = FactSet()
    return StoreBinding(store, incremental=incremental, facts=facts,
                        warn=warn)


def open_worker_binding(store_path: str | None,
                        shard_index: int, *,
                        incremental: bool = False,
                        warn: Callable[[str], None] = _default_warn,
                        ) -> StoreBinding | None:
    """One shard worker's binding over the sweep's one store.

    The parent created the store and dropped the instance rows of every
    address it dispatches, so the worker opens the existing file as it
    is: any error but a schema mismatch leaves it on in-memory caches.
    Every worker hydrates the store's hash-keyed facts, as a serial
    ``--store`` sweep does.  ``incremental`` is for a respawned attempt:
    it restores what the attempts before it committed, so a first
    attempt never scans a large warm store.
    """
    if store_path is None:
        return None
    try:
        store = AnalysisStore(store_path)
    except ConfigurationError:
        raise
    except Exception as error:
        warn(f"store: cannot open {store_path!r} ({error}) — shard "
             f"{shard_index} runs with in-memory caches only")
        return None
    try:
        facts = load_facts(store)
    except Exception as error:
        warn(f"store: {store_path!r} has unreadable fact rows ({error}) — "
             f"shard {shard_index} runs with in-memory caches only")
        try:
            store.close()
        except Exception:
            pass
        return None
    return StoreBinding(store, incremental=incremental, facts=facts,
                        warn=warn)


# ------------------------------------------------------- incremental restore
@dataclass(slots=True)
class RestoredInstances:
    """What an incremental sweep recovered from the store."""

    analyses: list[ContractAnalysis] = field(default_factory=list)
    failures: list[ContractFailure] = field(default_factory=list)
    skips: set[bytes] = field(default_factory=set)
    completed: set[bytes] = field(default_factory=set)
    #: Stored instances whose on-chain code no longer matches the stored
    #: codehash (redeploys, resurrections) — re-analyzed, not trusted.
    invalidated: int = 0


def restore_instances(store: AnalysisStore,
                      addresses: Sequence[bytes],
                      code_of: Callable[[bytes], bytes],
                      ) -> RestoredInstances:
    """Re-survey a corpus against the store, trusting only verified rows.

    For every address (in sweep order) the *current* code is fetched and
    its keccak256 compared to the stored instance's codehash — a stored
    analysis is restored only for a byte-identical deployment, a stored
    skip only for a still-code-less address.  Anything else is left to
    the live sweep, so corpus mutation degrades to re-analysis, never to
    stale results.
    """
    records = store.load_analyses()
    failures = store.load_failures()
    skips = store.load_skips()
    restored = RestoredInstances()
    for address in addresses:
        record = records.get(address)
        if record is not None:
            code = code_of(address)
            stored_hash = record.get("code_hash")
            if code and "0x" + keccak256(code).hex() == stored_hash:
                restored.analyses.append(dict_to_analysis(record))
                restored.completed.add(address)
            else:
                restored.invalidated += 1
            continue
        failure = failures.get(address)
        if failure is not None:
            # Failures restore unconditionally: a quarantined contract
            # stays quarantined until the operator re-sweeps without
            # --incremental.
            restored.failures.append(failure)
            restored.completed.add(address)
            continue
        if address in skips:
            if not code_of(address):
                restored.skips.add(address)
                restored.completed.add(address)
            else:
                restored.invalidated += 1
    return restored


__all__ = [
    "FactSet",
    "RestoredInstances",
    "StoreBinding",
    "attach_store",
    "load_facts",
    "open_store",
    "open_worker_binding",
    "quarantine_store",
    "restore_instances",
]
