"""The ``repro.store/1`` SQLite schema: versioning, DDL, migrations.

One durable database holds everything a sweep learns, split the way the
paper's own persistence splits it (Postgres tables keyed by
``bytecode_hash`` in the real Proxion):

* **hash-keyed facts** — properties of a *bytecode blob*, valid for every
  deployment of that blob: the proxy-check verdict
  (``proxy_verdicts``), the dispatcher selector set (``selector_sets``)
  and per-(proxy-code, logic-code) collision reports
  (``collision_results``).  These hydrate the §6.1 dedup caches and
  survive restarts, kill -9s and corpus growth.
* **instance-keyed facts** — properties of one *deployment*: the full
  per-address analysis (``analyses``, with its logic history and
  storage-dependent state), quarantined failures (``failures``) and §3.1
  dead-contract skips (``skips``).  These make re-sweeps incremental.
* **derived query tables** — ``logic_links`` and ``collisions``, the
  offline query surface (``AnalysisStore.proxies/logic_chain/...``),
  rebuilt from the instance rows they denormalize (and rebuildable by
  ``repro store fsck --repair``).

Durability discipline: connections run in WAL mode with a generous
``busy_timeout`` (concurrent shard writers block, they do not fail), and
every per-contract write commits in one transaction — a ``kill -9`` at
any instant loses at most the contract in flight, never the store.

The schema is versioned (:data:`SCHEMA`).  Opening a store written by a
*newer* layout — or by something that is not a repro store at all —
refuses loudly with :class:`~repro.errors.ConfigurationError`; an *older*
version is upgraded in place through :data:`MIGRATIONS` (explicit hooks,
one per version step, each running inside a transaction).
"""

from __future__ import annotations

import sqlite3
from typing import Callable

from repro.errors import ConfigurationError

#: Version tag of the store layout, as stored in the ``meta`` table.
SCHEMA = "repro.store/1"
SCHEMA_PREFIX = "repro.store/"
VERSION = 1

#: Explicit migration hooks: ``MIGRATIONS[n]`` upgrades a version-``n``
#: store to version ``n + 1`` (applied in sequence inside one
#: transaction each).  Empty while only version 1 exists — the registry
#: and its driver are in place so version 2 ships as a function here,
#: not as an ad-hoc script.
MIGRATIONS: dict[int, Callable[[sqlite3.Connection], None]] = {}

#: Every table of the current layout (fsck checks presence).
TABLES = (
    "meta",
    "proxy_verdicts",
    "selector_sets",
    "collision_results",
    "analyses",
    "failures",
    "skips",
    "logic_links",
    "collisions",
)

DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
-- hash-keyed facts (content-addressed by 0x-hex keccak256(bytecode))
CREATE TABLE IF NOT EXISTS proxy_verdicts (
    code_hash  TEXT PRIMARY KEY,
    check_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS selector_sets (
    code_hash      TEXT PRIMARY KEY,
    selectors_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS collision_results (
    proxy_hash  TEXT NOT NULL,
    logic_hash  TEXT NOT NULL,
    kind        TEXT NOT NULL,            -- 'function' | 'storage'
    report_json TEXT NOT NULL,
    PRIMARY KEY (proxy_hash, logic_hash, kind)
);
-- instance-keyed facts (addressed by 0x-hex deployment address)
CREATE TABLE IF NOT EXISTS analyses (
    address          TEXT PRIMARY KEY,
    code_hash        TEXT NOT NULL,
    is_proxy         INTEGER NOT NULL,
    standard         TEXT,
    logic_location   TEXT,
    logic_slot       TEXT,
    deploy_block     INTEGER,
    deploy_year      INTEGER,
    has_source       INTEGER NOT NULL,
    has_tx           INTEGER NOT NULL,
    emulation_failed INTEGER NOT NULL,
    analysis_json    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS failures (
    address      TEXT PRIMARY KEY,
    failure_json TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS skips (
    address TEXT PRIMARY KEY
);
-- derived query tables (denormalized from analyses; fsck can rebuild)
CREATE TABLE IF NOT EXISTS logic_links (
    proxy    TEXT NOT NULL,
    position INTEGER NOT NULL,
    logic    TEXT NOT NULL,
    PRIMARY KEY (proxy, position)
);
CREATE TABLE IF NOT EXISTS collisions (
    proxy     TEXT NOT NULL,
    logic     TEXT NOT NULL,
    kind      TEXT NOT NULL,              -- 'function' | 'storage'
    detail    TEXT NOT NULL,              -- selector hex / slot description
    sensitive INTEGER NOT NULL DEFAULT 0,
    verified  INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_analyses_proxy ON analyses(is_proxy);
CREATE INDEX IF NOT EXISTS idx_analyses_year ON analyses(deploy_year);
CREATE INDEX IF NOT EXISTS idx_collisions_kind ON collisions(kind);
"""


def connect(path: str, *, busy_timeout_ms: int = 30_000) -> sqlite3.Connection:
    """Open ``path`` with the store's durability pragmas.

    WAL journaling gives single-writer-many-reader concurrency (the
    workers of a sharded sweep all commit into one store while readers
    query it) and crash-safe commits; ``busy_timeout`` makes a concurrent
    writer *wait* instead of raising ``database is locked`` — the WAL
    discipline the concurrent-writer test exercises.
    """
    # check_same_thread=False: the serve daemon commits miss-path writes
    # from HTTP request threads while the chain follower holds the same
    # connection — all writers serialize on one lock, and sweeps are
    # single-threaded, so cross-thread handoff of the handle is safe.
    connection = sqlite3.connect(path, timeout=busy_timeout_ms / 1000.0,
                                 check_same_thread=False)
    connection.execute(f"PRAGMA busy_timeout = {busy_timeout_ms}")
    # ":memory:" stores silently keep the default journal (WAL needs a
    # file); on-disk stores get WAL + NORMAL sync — fsync at checkpoint
    # boundaries, torn writes recovered from the log on next open.
    connection.execute("PRAGMA journal_mode = WAL")
    connection.execute("PRAGMA synchronous = NORMAL")
    return connection


def stored_schema(connection: sqlite3.Connection) -> str | None:
    """The schema tag recorded in ``meta``, or ``None`` for a fresh db."""
    has_meta = connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table' AND "
        "name = 'meta'").fetchone()
    if has_meta is None:
        return None
    row = connection.execute(
        "SELECT value FROM meta WHERE key = 'schema'").fetchone()
    return row[0] if row else None


def parse_version(tag: str, path: str) -> int:
    """The integer version of a ``repro.store/N`` tag, or refuse loudly."""
    if not tag.startswith(SCHEMA_PREFIX):
        raise ConfigurationError(
            f"store {path!r} has schema tag {tag!r}, which is not a "
            f"{SCHEMA_PREFIX}* store — refusing to touch it")
    try:
        return int(tag.removeprefix(SCHEMA_PREFIX))
    except ValueError:
        raise ConfigurationError(
            f"store {path!r} has a garbled schema tag {tag!r} — "
            f"refusing to touch it") from None


def ensure_schema(connection: sqlite3.Connection, path: str) -> None:
    """Create a fresh store, accept the current one, migrate, or refuse.

    * empty database → create the version-:data:`VERSION` layout;
    * current version → no-op;
    * older version → run each :data:`MIGRATIONS` step in order (missing
      step = loud refusal: an upgrade hook must exist, never guesswork);
    * newer version or non-store tag → :class:`ConfigurationError` — a
      store written by future code is refused loudly, not half-read.
    """
    tag = stored_schema(connection)
    if tag is None:
        tables = connection.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'"
        ).fetchone()[0]
        if tables:
            raise ConfigurationError(
                f"store {path!r} is an SQLite database but not a repro "
                f"store (no meta.schema tag) — refusing to touch it")
        connection.executescript(DDL)
        connection.execute(
            "INSERT OR REPLACE INTO meta VALUES ('schema', ?)", (SCHEMA,))
        connection.commit()
        return
    version = parse_version(tag, path)
    if version == VERSION:
        return
    if version > VERSION:
        raise ConfigurationError(
            f"store {path!r} has schema {tag!r}, newer than this "
            f"build's {SCHEMA!r} — refusing to read it (upgrade the "
            f"tool, not the store)")
    while version < VERSION:
        migrate = MIGRATIONS.get(version)
        if migrate is None:
            raise ConfigurationError(
                f"store {path!r} has schema {SCHEMA_PREFIX}{version} and "
                f"no migration hook to {SCHEMA_PREFIX}{version + 1} is "
                f"registered — refusing to guess")
        migrate(connection)
        version += 1
        connection.execute(
            "INSERT OR REPLACE INTO meta VALUES ('schema', ?)",
            (f"{SCHEMA_PREFIX}{version}",))
        connection.commit()


__all__ = [
    "DDL",
    "MIGRATIONS",
    "SCHEMA",
    "SCHEMA_PREFIX",
    "TABLES",
    "VERSION",
    "connect",
    "ensure_schema",
    "parse_version",
    "stored_schema",
]
