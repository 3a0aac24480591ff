"""``repro.store`` — the durable, content-addressed analysis store.

The paper's §6.1 dedup caches made durable: one crash-safe SQLite file
(schema ``repro.store/1``) splitting **hash-keyed facts** (proxy-check
verdicts, selector sets, per-pair collision reports — keyed by
``keccak256(bytecode)``) from **instance-keyed facts** (per-address
analyses, failures, skips), so verdicts are computed once per unique
blob and survive restarts, ``kill -9`` and corpus growth.  See
``docs/persistence.md`` for the schema, the incremental-sweep semantics
and the fsck runbook.
"""

from repro.store.binding import (
    FactSet,
    RestoredInstances,
    StoreBinding,
    attach_store,
    load_facts,
    open_store,
    open_worker_binding,
    quarantine_store,
    restore_instances,
)
from repro.store.maintenance import FsckReport, fsck, stats, vacuum
from repro.store.schema import MIGRATIONS, SCHEMA, VERSION
from repro.store.store import AnalysisStore

__all__ = [
    "AnalysisStore",
    "FactSet",
    "FsckReport",
    "MIGRATIONS",
    "RestoredInstances",
    "SCHEMA",
    "StoreBinding",
    "VERSION",
    "attach_store",
    "fsck",
    "load_facts",
    "open_store",
    "open_worker_binding",
    "quarantine_store",
    "restore_instances",
    "stats",
    "vacuum",
]
