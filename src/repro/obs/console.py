"""Read-only consumers of the flight recorder: status, tail, health.

These are the live ops views over a ``repro.events/1`` journal
(:mod:`repro.obs.events`) — everything here opens the journal read-only
and tolerates a sweep that is *still writing to it*: a crash- or
race-truncated final line is skipped, corruption anywhere earlier
refuses loudly.

* :func:`journal_snapshot` folds the journal into a :class:`SweepStatus`
  — per-shard progress, heartbeat lag, respawn/bisection accounting, and
  a throughput-derived ETA — rendered by :func:`render_status` for
  ``repro status`` and serialized via :meth:`SweepStatus.to_dict` for the
  HTTP ``/progress`` endpoint;
* :func:`tail_journal` streams events as they land (``repro tail
  --follow``), holding its offset at the start of any incomplete line so
  a half-written event is delivered once, whole, on the next poll;
* :func:`journal_health` is the ``/healthz`` verdict: a finished sweep is
  healthy forever; a live one is healthy while the supervisor keeps
  emitting and no worker's heartbeat lag (latest tick lag plus the tick's
  own age) exceeds the threshold.

Lag math leans on the journal carrying *monotonic* timestamps comparable
across processes on one host: ``time.monotonic() - event.mono`` in the
reader is a true age, no wall-clock skew involved.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ConfigurationError
from repro.obs.events import (
    CHECKPOINT_RESUME,
    Event,
    PIPELINE_QUARANTINE,
    SUPERVISOR_BISECT,
    SUPERVISOR_QUARANTINE,
    SUPERVISOR_TICK,
    SWEEP_END,
    SWEEP_START,
    WORKER_EXIT,
    WORKER_HUNG_KILL,
    WORKER_RESPAWN,
    WORKER_SPAWN,
    read_header,
    read_journal,
)


@dataclass(slots=True)
class ShardStatus:
    """Latest-known state of one shard (its root task plus any splits)."""

    shard: int
    total: int = 0               # contracts in the root task
    completed: int = 0           # high-water completed count
    state: str = "pending"       # pending | running | done | bisecting
    lag_s: float | None = None   # heartbeat lag at last tick (age-adjusted)
    respawns: int = 0
    hung_kills: int = 0
    bisections: int = 0
    quarantined: int = 0


@dataclass(slots=True)
class SweepStatus:
    """One point-in-time reading of a sweep's journal."""

    path: str
    started: bool = False
    finished: bool = False
    contracts: int = 0           # total contracts (from sweep.start)
    workers: int = 0
    completed: int = 0           # sum of shard high-water marks
    elapsed_s: float | None = None
    eta_s: float | None = None   # throughput-derived; None before data
    throughput_cps: float | None = None   # contracts per second
    analyses: int | None = None  # final counts, from sweep.end only
    failures: int | None = None
    respawns: int = 0
    hung_kills: int = 0
    bisections: int = 0
    quarantined: int = 0         # poison + pipeline quarantines
    resumed: int = 0             # contracts restored from a store
    recovered_truncations: int = 0   # kept in the shape; store resumes say 0
    truncated_tail: int = 0      # journal lines dropped by the reader
    events: int = 0
    shards: dict[int, ShardStatus] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        record = {name: getattr(self, name)
                  for name in ("path", "started", "finished", "contracts",
                               "workers", "completed", "elapsed_s", "eta_s",
                               "throughput_cps", "analyses", "failures",
                               "respawns", "hung_kills",
                               "bisections", "quarantined", "resumed",
                               "recovered_truncations", "truncated_tail",
                               "events")}
        record["shards"] = {
            str(index): {
                "total": shard.total,
                "completed": shard.completed,
                "state": shard.state,
                "lag_s": shard.lag_s,
                "respawns": shard.respawns,
                "hung_kills": shard.hung_kills,
                "bisections": shard.bisections,
                "quarantined": shard.quarantined,
            }
            for index, shard in sorted(self.shards.items())
        }
        return record


def _shard_of(status: SweepStatus, event: Event) -> ShardStatus | None:
    if event.shard is None:
        return None
    shard = status.shards.get(event.shard)
    if shard is None:
        shard = ShardStatus(shard=event.shard)
        status.shards[event.shard] = shard
    return shard


def journal_snapshot(path: str, now_mono: float | None = None) -> SweepStatus:
    """Fold a journal (possibly still being written) into a status."""
    loaded = read_journal(path)
    now = time.monotonic() if now_mono is None else now_mono
    status = SweepStatus(path=path, truncated_tail=loaded.truncated_tail,
                         events=len(loaded.events))

    start_mono: float | None = None
    for event in loaded.ordered():
        shard = _shard_of(status, event)
        if event.kind == SWEEP_START:
            status.started = True
            start_mono = event.mono
            status.contracts = int(event.attrs.get("contracts", 0))
            status.workers = int(event.attrs.get("workers", 0))
        elif event.kind == SWEEP_END:
            status.finished = True
            if "analyses" in event.attrs:
                status.analyses = int(event.attrs["analyses"])
                status.failures = int(event.attrs.get("failures", 0))
            for entry in status.shards.values():
                entry.state = "done"
                entry.lag_s = None
        elif event.kind == WORKER_SPAWN and shard is not None:
            if int(event.attrs.get("depth", 0)) == 0:
                shard.total = int(event.attrs.get("total", shard.total))
            shard.state = "running"
        elif event.kind == SUPERVISOR_TICK and shard is not None:
            completed = int(event.attrs.get("completed", 0))
            if completed > shard.completed:
                shard.completed = completed
            shard.lag_s = (float(event.attrs.get("lag_s", 0.0))
                           + max(0.0, now - event.mono))
        elif event.kind == WORKER_EXIT and shard is not None:
            if event.attrs.get("clean"):
                shard.state = "done"
                shard.lag_s = None
                completed = int(event.attrs.get("completed", shard.total))
                if completed > shard.completed:
                    shard.completed = completed
        elif event.kind == WORKER_RESPAWN and shard is not None:
            shard.respawns += 1
            status.respawns += 1
            shard.state = "running"
        elif event.kind == WORKER_HUNG_KILL and shard is not None:
            shard.hung_kills += 1
            status.hung_kills += 1
        elif event.kind == SUPERVISOR_BISECT and shard is not None:
            shard.bisections += 1
            status.bisections += 1
            shard.state = "bisecting"
        elif event.kind in (SUPERVISOR_QUARANTINE, PIPELINE_QUARANTINE):
            status.quarantined += 1
            if shard is not None:
                shard.quarantined += 1
        elif event.kind == CHECKPOINT_RESUME:
            status.resumed += int(event.attrs.get("restored", 0))
            status.recovered_truncations += int(
                event.attrs.get("recovered_truncations", 0))

    status.completed = sum(shard.completed
                           for shard in status.shards.values())
    if start_mono is not None:
        status.elapsed_s = max(0.0, now - start_mono)
        if not status.finished and status.elapsed_s > 0 and status.completed:
            status.throughput_cps = status.completed / status.elapsed_s
            remaining = max(0, status.contracts - status.completed
                            - status.quarantined)
            status.eta_s = remaining / status.throughput_cps
    return status


# ---------------------------------------------------------------- rendering
def _fmt_duration(seconds: float | None) -> str:
    if seconds is None:
        return "n/a"
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def render_status(status: SweepStatus) -> str:
    """The human block ``repro status`` prints."""
    if status.finished:
        # The merged report's own accounting beats per-shard high-water
        # marks (bisected sub-tasks recount from their own subsets).
        lines = [f"sweep finished — {status.analyses} analyzed, "
                 f"{status.failures} failed of {status.contracts} "
                 f"contracts across {status.workers} shard(s)"]
    else:
        phase = "running" if status.started else "starting"
        lines = [f"sweep {phase} — {status.completed}/{status.contracts} "
                 f"contracts across {status.workers} shard(s)"]
    lines.append(
        f"  elapsed {_fmt_duration(status.elapsed_s)}"
        + (f", eta {_fmt_duration(status.eta_s)}"
           if status.eta_s is not None else "")
        + (f", {status.throughput_cps:.1f} contracts/s"
           if status.throughput_cps is not None else ""))
    lines.append(f"  {status.respawns} respawns, {status.hung_kills} hung "
                 f"kills, {status.bisections} bisections, "
                 f"{status.quarantined} quarantined"
                 + (f", {status.resumed} restored from store"
                    if status.resumed else ""))
    if status.truncated_tail:
        lines.append(f"  ({status.truncated_tail} in-flight journal line(s) "
                     f"skipped)")
    if status.shards:
        lines.append(f"  {'shard':>5s} {'state':10s} {'progress':>12s} "
                     f"{'lag':>8s} {'respawns':>8s} {'quar':>5s}")
        for index, shard in sorted(status.shards.items()):
            progress = (f"{shard.completed}/{shard.total}"
                        if shard.total else str(shard.completed))
            lag = f"{shard.lag_s:.1f}s" if shard.lag_s is not None else "-"
            lines.append(f"  {index:>5d} {shard.state:10s} {progress:>12s} "
                         f"{lag:>8s} {shard.respawns:>8d} "
                         f"{shard.quarantined:>5d}")
    return "\n".join(lines)


def format_event(event: Event) -> str:
    """One human line per event, for ``repro tail``."""
    clock = time.strftime("%H:%M:%S", time.localtime(event.ts))
    millis = int((event.ts % 1) * 1000)
    origin = f"pid {event.pid}"
    if event.shard is not None:
        origin += f" shard {event.shard}"
    rendered = " ".join(f"{key}={value}"
                        for key, value in event.attrs.items())
    return (f"{clock}.{millis:03d} [{origin}] {event.kind}"
            + (f" {rendered}" if rendered else ""))


# ------------------------------------------------------------------- tailing
def tail_journal(path: str, *, follow: bool = False,
                 poll_s: float = 0.25,
                 sleep=time.sleep) -> Iterator[Event]:
    """Yield journal events in file order; with ``follow``, keep watching.

    The offset only ever advances past *complete* lines: a half-written
    final line (the writer is mid-append, or died there) is left for the
    next poll, so following delivers every event exactly once and whole.
    Following ends when the journal records ``sweep.end``; a one-shot
    (non-follow) read ends at end-of-file, skipping a dangling partial
    line the way :func:`~repro.obs.events.read_journal` does.
    """
    read_header(path)  # validate schema before streaming
    with open(path, encoding="utf-8") as stream:
        stream.readline()  # the (validated) header
        offset = stream.tell()
        while True:
            stream.seek(offset)
            line = stream.readline()
            if not line:
                if not follow:
                    return
                sleep(poll_s)
                continue
            if not line.endswith("\n"):
                # Incomplete final line: in-progress append or crash tail.
                if not follow:
                    return
                sleep(poll_s)
                continue
            offset = stream.tell()
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                raise ConfigurationError(
                    f"event journal {path!r} has a corrupt complete line "
                    f"at byte offset {offset}") from None
            event = Event.from_dict(record)
            yield event
            if follow and event.kind == SWEEP_END:
                return


# -------------------------------------------------------------------- health
def journal_health(path: str, *, hung_after_s: float = 30.0,
                   now_mono: float | None = None) -> dict[str, Any]:
    """The ``/healthz`` verdict for one journal.

    Healthy iff the sweep finished, or it is live and neither the
    supervisor nor any worker looks wedged: supervisor staleness is the
    age of the newest event, worker staleness is each shard's last tick
    lag plus that tick's own age (both ages are true monotonic deltas).
    """
    now = time.monotonic() if now_mono is None else now_mono
    try:
        loaded = read_journal(path)
    except ConfigurationError as error:
        return {"healthy": False, "reason": str(error)}
    events = loaded.ordered()
    if not events:
        return {"healthy": False, "reason": "journal has no events yet"}
    if any(event.kind == SWEEP_END for event in events):
        return {"healthy": True, "reason": "sweep finished"}

    supervisor_lag = max(0.0, now - events[-1].mono)
    worker_lag = 0.0
    last_tick: dict[int, Event] = {}
    done: set[int] = set()
    for event in events:
        if event.kind == SUPERVISOR_TICK and event.shard is not None:
            last_tick[event.shard] = event
        elif (event.kind == WORKER_EXIT and event.shard is not None
              and event.attrs.get("clean")):
            done.add(event.shard)
    for shard, tick in last_tick.items():
        if shard in done:
            continue
        lag = float(tick.attrs.get("lag_s", 0.0)) + max(0.0, now - tick.mono)
        worker_lag = max(worker_lag, lag)

    max_lag = max(supervisor_lag, worker_lag)
    healthy = max_lag <= hung_after_s
    return {
        "healthy": healthy,
        "reason": ("live" if healthy
                   else f"max heartbeat lag {max_lag:.2f}s exceeds "
                        f"{hung_after_s}s"),
        "supervisor_lag_s": round(supervisor_lag, 3),
        "max_worker_lag_s": round(worker_lag, 3),
        "hung_after_s": hung_after_s,
    }


__all__ = [
    "ShardStatus",
    "SweepStatus",
    "format_event",
    "journal_health",
    "journal_snapshot",
    "render_status",
    "tail_journal",
]
