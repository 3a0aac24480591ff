"""The sweep flight recorder: a structured operational event journal.

Metrics answer "how much"; the journal answers "what happened, when, in
which process".  A §6.1-scale supervised sweep is a multi-process,
multi-day run, and its operational narrative — workers spawned, killed,
respawned, shards bisected, contracts quarantined, breakers tripping —
must be reconstructible *while the sweep is running* and after any crash.
This module is that narrative's storage layer:

* :class:`Event` — one typed operational event, carrying **both** clocks
  (wall ``ts`` for humans, monotonic ``mono`` for ordering — comparable
  across processes on one host since ``CLOCK_MONOTONIC`` is system-wide),
  plus pid/shard provenance and a per-writer sequence number;
* :class:`EventRecorder` — the emit surface components hold
  (``recorder.emit(WORKER_SPAWN, shard=3, attempt=1)``); hands events to
  its sinks; :data:`NULL_RECORDER` is the shared no-op for
  overhead-critical runs (emit collapses to a constant return);
* :class:`EventJournal` — the durable JSONL sink, schema-versioned
  ``repro.events/1`` with a kill-9 discipline: the header line is
  fsynced so a readable file is
  never headerless, every event line is flushed immediately, and readers
  drop (and count) a crash-truncated **final** line while refusing
  corruption anywhere earlier;
* :func:`read_journal` / :func:`total_order` — the read side: load one
  journal tail-tolerantly, and order events from many writers into the
  single merged timeline (``(mono, pid, seq)`` — within one writer this
  is exactly emission order).

Event attributes are serialized with ``default=repr``: a live sweep must
never die because someone attached a non-JSON value to an event (or a
span — :class:`~repro.obs.spans.JsonLinesSink` shares the rule).

The supervisor (:mod:`repro.parallel.supervisor`) writes the parent
journal and folds each worker's private journal into it when the worker
exits — over the same atomic-file channel as results, so a SIGKILL can
never corrupt the merged file.  ``repro status`` / ``repro tail`` and the
HTTP exporter (:mod:`repro.obs.http`) are the read-only consumers; the
taxonomy is catalogued in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any, Iterable

from repro.errors import ConfigurationError

#: Version tag of the journal file layout.
SCHEMA = "repro.events/1"

# ------------------------------------------------------------ event taxonomy
# Supervisor lifecycle (parent process).
SWEEP_START = "sweep.start"            # supervised sweep begins
SWEEP_END = "sweep.end"                # supervised sweep merged and done
WORKER_SPAWN = "worker.spawn"          # a worker process launched
WORKER_EXIT = "worker.exit"            # a worker process observed dead
WORKER_RESPAWN = "worker.respawn"      # dead/hung worker re-queued (resume)
WORKER_HUNG_KILL = "worker.hung-kill"  # heartbeat-stale worker killed
SUPERVISOR_TICK = "supervisor.tick"    # throttled per-shard progress/lag
SUPERVISOR_BISECT = "supervisor.bisect"            # poison shard split
SUPERVISOR_SALVAGE = "supervisor.salvage"          # store prefix recovered
SUPERVISOR_QUARANTINE = "supervisor.quarantine"    # poison contract isolated

# Pipeline (per worker, or the serial sweep).
PIPELINE_START = "pipeline.start"          # analyze_all over N addresses
PIPELINE_END = "pipeline.end"              # analyze_all returned
PIPELINE_QUARANTINE = "pipeline.quarantine"  # one contract quarantined

# Store resume: an incremental analyze_all restored settled contracts.
# The kind predates the store; renaming it would change repro.events/1.
CHECKPOINT_RESUME = "checkpoint.resume"

# Resilient RPC layer.
BREAKER_OPEN = "breaker.open"
BREAKER_HALF_OPEN = "breaker.half-open"
BREAKER_CLOSE = "breaker.close"
RETRY_EXHAUSTED = "retry.exhausted"

# Chain following: the monitor rolled facts back to a common ancestor.
CHAIN_REORG = "chain.reorg"

# Multi-endpoint RPC: the failover node switched primaries.
ENDPOINT_FAILOVER = "endpoint.failover"

#: Every kind this version of the schema emits, for docs and validation.
EVENT_KINDS = (
    SWEEP_START, SWEEP_END,
    WORKER_SPAWN, WORKER_EXIT, WORKER_RESPAWN, WORKER_HUNG_KILL,
    SUPERVISOR_TICK, SUPERVISOR_BISECT, SUPERVISOR_SALVAGE,
    SUPERVISOR_QUARANTINE,
    PIPELINE_START, PIPELINE_END, PIPELINE_QUARANTINE,
    CHECKPOINT_RESUME,
    BREAKER_OPEN, BREAKER_HALF_OPEN, BREAKER_CLOSE, RETRY_EXHAUSTED,
    CHAIN_REORG, ENDPOINT_FAILOVER,
)


@dataclass(slots=True)
class Event:
    """One operational event with full provenance.

    ``ts`` is wall-clock (``time.time``) for display; ``mono`` is the
    monotonic clock (``time.monotonic``) used for ordering and lag math —
    on Linux it is system-wide, so events from the parent and its workers
    share one timeline.  ``seq`` restores a total order between events of
    one writer that land on the same monotonic reading.
    """

    kind: str
    ts: float
    mono: float
    pid: int
    seq: int
    shard: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "kind": self.kind,
            "ts": round(self.ts, 6),
            "mono": round(self.mono, 6),
            "pid": self.pid,
            "seq": self.seq,
        }
        if self.shard is not None:
            record["shard"] = self.shard
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "Event":
        return cls(
            kind=record.get("kind", "?"),
            ts=float(record.get("ts", 0.0)),
            mono=float(record.get("mono", 0.0)),
            pid=int(record.get("pid", 0)),
            seq=int(record.get("seq", 0)),
            shard=record.get("shard"),
            attrs=dict(record.get("attrs", {})),
        )

    def order_key(self) -> tuple[float, int, int]:
        return (self.mono, self.pid, self.seq)


def total_order(events: Iterable[Event]) -> list[Event]:
    """Merge events from any number of writers into one timeline.

    Sorted by ``(mono, pid, seq)``: monotonic time first (shared across
    processes on one host), then pid and per-writer sequence as stable
    tie-breakers.  For a single writer this is exactly emission order.
    """
    return sorted(events, key=Event.order_key)


class EventJournal:
    """Append-only JSONL sink with kill-9 durability rules: fsynced
    header, one flushed line per event, crash-truncated tails
    recoverable on read.

    Build with :meth:`create` (fresh file, truncates) or :meth:`append_to`
    (continue an existing journal — the parent re-opening its own file, or
    tests).  ``append_record`` takes a raw dict, which is how the
    supervisor re-emits a worker's events verbatim into the merged
    journal without re-stamping their provenance.
    """

    def __init__(self, path: str, stream: IO[str]) -> None:
        self.path = path
        self._stream = stream
        self._lock = threading.Lock()

    # ----------------------------------------------------------- constructors
    @classmethod
    def create(cls, path: str) -> "EventJournal":
        """Start a fresh journal (truncates), header flushed **and** fsynced
        so a concurrent/post-crash reader can never see a headerless file."""
        stream = open(path, "w", encoding="utf-8")
        header = {"schema": SCHEMA, "created_unix": round(time.time(), 6),
                  "pid": os.getpid()}
        stream.write(json.dumps(header, separators=(",", ":")) + "\n")
        stream.flush()
        os.fsync(stream.fileno())
        return cls(path, stream)

    @classmethod
    def append_to(cls, path: str) -> "EventJournal":
        """Re-open an existing journal for appending (header verified)."""
        read_header(path)
        return cls(path, open(path, "a", encoding="utf-8"))

    # -------------------------------------------------------------- recording
    def append_record(self, record: dict[str, Any]) -> None:
        # ``default=repr`` — a non-JSON attribute value must never crash a
        # live sweep; it degrades to its repr in the journal.
        line = json.dumps(record, separators=(",", ":"), default=repr)
        with self._lock:
            self._stream.write(line + "\n")
            # One flush per event: a kill -9 loses at most the event being
            # written, and a concurrent reader sees every finished line.
            self._stream.flush()

    def on_event(self, event: Event) -> None:
        self.append_record(event.to_dict())

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            if not self._stream.closed:
                self._stream.close()

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class EventRecorder:
    """The emit surface: stamps provenance, fans out to sinks.

    ``shard`` (optional) is the default shard stamped on every event this
    recorder emits — workers carry their shard identity here so call
    sites never repeat it.  Sinks need one method, ``on_event(event)``
    (an :class:`EventJournal`, a list-like test sink, ...).
    """

    enabled = True

    def __init__(self, sinks: tuple = (), shard: int | None = None) -> None:
        self._sinks = list(sinks)
        self._shard = shard
        self._seq = 0
        self._lock = threading.Lock()

    def add_sink(self, sink) -> None:
        self._sinks.append(sink)

    def emit(self, kind: str, shard: int | None = None,
             **attrs: Any) -> Event:
        with self._lock:
            seq = self._seq
            self._seq += 1
        event = Event(kind=kind, ts=time.time(), mono=time.monotonic(),
                      pid=os.getpid(), seq=seq,
                      shard=self._shard if shard is None else shard,
                      attrs=attrs)
        for sink in self._sinks:
            sink.on_event(event)
        return event


class NullEventRecorder(EventRecorder):
    """Records nothing; ``emit`` is a constant-cost no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_event = Event(kind="null", ts=0.0, mono=0.0, pid=0, seq=0)

    def emit(self, kind: str, shard: int | None = None,
             **attrs: Any) -> Event:
        return self._null_event


#: Shared no-op recorder — the default everywhere events are optional.
NULL_RECORDER = NullEventRecorder()


# ------------------------------------------------------------------ read side
@dataclass(slots=True)
class JournalRead:
    """One journal's parsed content plus its recovery accounting."""

    path: str
    header: dict[str, Any]
    events: list[Event]
    truncated_tail: int = 0          # dropped crash-mid-write final lines

    def ordered(self) -> list[Event]:
        return total_order(self.events)


def read_header(path: str) -> dict[str, Any]:
    """Validate and return a journal's header line."""
    try:
        with open(path, encoding="utf-8") as stream:
            first = stream.readline()
    except OSError as error:
        raise ConfigurationError(
            f"cannot read event journal {path!r}: {error}") from None
    if not first.strip():
        raise ConfigurationError(
            f"event journal {path!r} is empty (no header)")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as error:
        raise ConfigurationError(
            f"event journal {path!r} has an unreadable header "
            f"({error})") from None
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise ConfigurationError(
            f"event journal {path!r} has schema "
            f"{header.get('schema') if isinstance(header, dict) else '?'!r}, "
            f"expected {SCHEMA!r}")
    return header


def read_journal(path: str) -> JournalRead:
    """Load one journal, tolerating exactly what a crash can leave behind.

    A partial/garbled **final** line is dropped and counted in
    ``truncated_tail`` (the event it described is lost, never corrupted);
    garbling anywhere earlier is real corruption and refuses loudly,
    which makes the journal safe to read while a sweep is still
    appending to it.
    """
    header = read_header(path)
    with open(path, encoding="utf-8") as stream:
        lines = stream.read().splitlines()
    events: list[Event] = []
    truncated = 0
    last = len(lines) - 1
    for index, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if index == last:
                truncated += 1
                continue
            raise ConfigurationError(
                f"event journal {path!r} is corrupt at line {index + 1} "
                f"(not the final line, so not a crash-truncation "
                f"artifact)") from None
        events.append(Event.from_dict(record))
    return JournalRead(path=path, header=header, events=events,
                       truncated_tail=truncated)


__all__ = [
    "BREAKER_CLOSE",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "CHAIN_REORG",
    "CHECKPOINT_RESUME",
    "ENDPOINT_FAILOVER",
    "EVENT_KINDS",
    "Event",
    "EventJournal",
    "EventRecorder",
    "JournalRead",
    "NULL_RECORDER",
    "NullEventRecorder",
    "PIPELINE_END",
    "PIPELINE_QUARANTINE",
    "PIPELINE_START",
    "RETRY_EXHAUSTED",
    "SCHEMA",
    "SUPERVISOR_BISECT",
    "SUPERVISOR_QUARANTINE",
    "SUPERVISOR_SALVAGE",
    "SUPERVISOR_TICK",
    "SWEEP_END",
    "SWEEP_START",
    "WORKER_EXIT",
    "WORKER_HUNG_KILL",
    "WORKER_RESPAWN",
    "WORKER_SPAWN",
    "read_header",
    "read_journal",
    "total_order",
]
