"""Live ops views: journal snapshot/status, tail, health verdicts."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs.console import (
    format_event,
    journal_health,
    journal_snapshot,
    render_status,
    tail_journal,
)
from repro.obs.events import (
    CHECKPOINT_RESUME,
    SUPERVISOR_BISECT,
    SUPERVISOR_QUARANTINE,
    SUPERVISOR_TICK,
    SWEEP_END,
    SWEEP_START,
    WORKER_EXIT,
    WORKER_RESPAWN,
    WORKER_SPAWN,
    Event,
    EventJournal,
)


def _write(path, *records) -> str:
    """A journal from (kind, mono, shard, attrs) rows; one synthetic pid."""
    with EventJournal.create(str(path)) as journal:
        for seq, (kind, mono, shard, attrs) in enumerate(records):
            journal.on_event(Event(kind=kind, ts=1000.0 + mono, mono=mono,
                                   pid=101, seq=seq, shard=shard,
                                   attrs=attrs))
    return str(path)


LIVE_ROWS = (
    (SWEEP_START, 10.0, None, {"contracts": 20, "workers": 2}),
    (WORKER_SPAWN, 10.1, 0, {"task": 0, "total": 12, "depth": 0}),
    (WORKER_SPAWN, 10.1, 1, {"task": 1, "total": 8, "depth": 0}),
    (SUPERVISOR_TICK, 11.0, 0, {"completed": 5, "lag_s": 0.2}),
    (SUPERVISOR_TICK, 11.0, 1, {"completed": 3, "lag_s": 0.1}),
    (WORKER_RESPAWN, 11.5, 1, {"attempt": 2, "error": "crash"}),
    (SUPERVISOR_BISECT, 12.0, 1, {"pending": 2, "depth": 1}),
    (SUPERVISOR_QUARANTINE, 12.5, 1, {"address": "0xdead"}),
    (CHECKPOINT_RESUME, 12.6, 1, {"restored": 3,
                                  "recovered_truncations": 1}),
)


def test_snapshot_folds_a_live_journal(tmp_path) -> None:
    path = _write(tmp_path / "live.jsonl", *LIVE_ROWS)
    status = journal_snapshot(path, now_mono=13.0)
    assert status.started and not status.finished
    assert (status.contracts, status.workers) == (20, 2)
    assert status.completed == 8                 # 5 + 3 high-water marks
    assert status.elapsed_s == pytest.approx(3.0)
    assert status.throughput_cps == pytest.approx(8 / 3.0)
    # remaining = 20 - 8 completed - 1 quarantined
    assert status.eta_s == pytest.approx(11 / (8 / 3.0))
    assert (status.respawns, status.bisections, status.quarantined) \
        == (1, 1, 1)
    assert (status.resumed, status.recovered_truncations) == (3, 1)
    zero, one = status.shards[0], status.shards[1]
    assert (zero.state, zero.total, zero.completed) == ("running", 12, 5)
    # lag = tick's own 0.2s + (now 13.0 - tick mono 11.0)
    assert zero.lag_s == pytest.approx(2.2)
    assert one.state == "bisecting"
    assert (one.respawns, one.bisections, one.quarantined) == (1, 1, 1)


def test_snapshot_of_a_finished_sweep(tmp_path) -> None:
    rows = LIVE_ROWS + (
        (WORKER_EXIT, 13.0, 0, {"exitcode": 0, "clean": True,
                                "completed": 12}),
        (SWEEP_END, 14.0, None, {"analyses": 19, "failures": 1}),
    )
    status = journal_snapshot(_write(tmp_path / "done.jsonl", *rows),
                              now_mono=99.0)
    assert status.finished
    assert (status.analyses, status.failures) == (19, 1)
    assert status.eta_s is None                  # no ETA once finished
    assert all(shard.state == "done" and shard.lag_s is None
               for shard in status.shards.values())
    assert status.shards[0].completed == 12      # clean-exit final count


def test_render_status_live_and_finished(tmp_path) -> None:
    live = render_status(journal_snapshot(
        _write(tmp_path / "live.jsonl", *LIVE_ROWS), now_mono=13.0))
    assert "sweep running — 8/20 contracts across 2 shard(s)" in live
    assert "1 respawns" in live and "1 bisections" in live
    assert "3 restored from store" in live
    assert "bisecting" in live
    done = render_status(journal_snapshot(_write(
        tmp_path / "done.jsonl", *LIVE_ROWS,
        (SWEEP_END, 14.0, None, {"analyses": 19, "failures": 1}))))
    assert "sweep finished — 19 analyzed, 1 failed of 20 contracts" in done


def test_snapshot_tolerates_a_truncated_tail(tmp_path) -> None:
    path = _write(tmp_path / "cut.jsonl", *LIVE_ROWS)
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"kind":"supervisor.tick","ts"')  # writer mid-append
    status = journal_snapshot(path, now_mono=13.0)
    assert status.truncated_tail == 1
    assert "journal line(s) skipped" in render_status(status)


def test_format_event_is_one_line_with_provenance() -> None:
    event = Event(kind=WORKER_SPAWN, ts=1700000000.125, mono=5.0, pid=77,
                  seq=0, shard=2, attrs={"attempt": 1})
    line = format_event(event)
    assert "[pid 77 shard 2] worker.spawn attempt=1" in line
    assert line.split(" ")[0].endswith(".125")
    assert "\n" not in line


def test_tail_reads_complete_lines_and_skips_dangling(tmp_path) -> None:
    path = _write(tmp_path / "tail.jsonl", *LIVE_ROWS)
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"kind":"worker.exit"')   # no newline: in-flight
    kinds = [event.kind for event in tail_journal(path)]
    assert len(kinds) == len(LIVE_ROWS)
    assert kinds[0] == SWEEP_START


def test_tail_follow_picks_up_appends_and_stops_at_sweep_end(
        tmp_path) -> None:
    path = _write(tmp_path / "follow.jsonl", LIVE_ROWS[0])
    journal = EventJournal.append_to(path)
    script = iter([
        lambda: journal.on_event(Event(kind=WORKER_SPAWN, ts=1.0, mono=20.0,
                                       pid=101, seq=1, shard=0)),
        lambda: journal.on_event(Event(kind=SWEEP_END, ts=2.0, mono=21.0,
                                       pid=101, seq=2)),
    ])

    def fake_sleep(_seconds: float) -> None:
        next(script)()  # each idle poll, the "writer" appends one event

    kinds = [event.kind
             for event in tail_journal(path, follow=True, sleep=fake_sleep)]
    assert kinds == [SWEEP_START, WORKER_SPAWN, SWEEP_END]
    journal.close()


def test_tail_raises_on_a_corrupt_complete_line(tmp_path) -> None:
    path = _write(tmp_path / "bad.jsonl", LIVE_ROWS[0])
    with open(path, "a", encoding="utf-8") as stream:
        stream.write("not json but newline-terminated\n")
    with pytest.raises(ConfigurationError, match="corrupt complete line"):
        list(tail_journal(path))


def test_health_finished_sweep_is_healthy_forever(tmp_path) -> None:
    path = _write(tmp_path / "done.jsonl", *LIVE_ROWS,
                  (SWEEP_END, 14.0, None, {}))
    verdict = journal_health(path, hung_after_s=0.001, now_mono=1e9)
    assert verdict == {"healthy": True, "reason": "sweep finished"}


def test_health_live_sweep_within_threshold(tmp_path) -> None:
    path = _write(tmp_path / "live.jsonl", *LIVE_ROWS)
    verdict = journal_health(path, hung_after_s=30.0, now_mono=13.0)
    assert verdict["healthy"] and verdict["reason"] == "live"
    # worker lag: tick lag 0.2 + age (13.0 - 11.0)
    assert verdict["max_worker_lag_s"] == pytest.approx(2.2)
    assert verdict["supervisor_lag_s"] == pytest.approx(13.0 - 12.6)


def test_health_flips_unhealthy_on_stale_worker_tick(tmp_path) -> None:
    path = _write(tmp_path / "hung.jsonl", *LIVE_ROWS)
    verdict = journal_health(path, hung_after_s=30.0, now_mono=60.0)
    assert not verdict["healthy"]
    assert "exceeds 30.0s" in verdict["reason"]


def test_health_clean_exit_silences_that_shards_lag(tmp_path) -> None:
    rows = LIVE_ROWS + (
        (WORKER_EXIT, 12.8, 0, {"exitcode": 0, "clean": True}),
        (SUPERVISOR_TICK, 59.5, 1, {"completed": 8, "lag_s": 0.0}),
    )
    # Shard 0's tick is ancient but shard 0 exited cleanly; shard 1
    # ticked again recently, so only live lag counts.
    verdict = journal_health(_write(tmp_path / "mixed.jsonl", *rows),
                             hung_after_s=30.0, now_mono=60.0)
    assert verdict["healthy"]
    assert verdict["max_worker_lag_s"] == pytest.approx(0.5)


def test_health_of_empty_or_unreadable_journals(tmp_path) -> None:
    path = str(tmp_path / "header-only.jsonl")
    EventJournal.create(path).close()
    assert journal_health(path) == {"healthy": False,
                                    "reason": "journal has no events yet"}
    verdict = journal_health(str(tmp_path / "absent.jsonl"))
    assert not verdict["healthy"] and "cannot read" in verdict["reason"]


def test_eta_absent_while_throughput_is_zero(tmp_path) -> None:
    """A started sweep with zero completed contracts has no throughput
    and no ETA — and the renderer must not divide by it."""
    path = _write(tmp_path / "stall.jsonl",
                  (SWEEP_START, 10.0, None, {"contracts": 20, "workers": 1}),
                  (WORKER_SPAWN, 10.1, 0, {"task": 0, "total": 20,
                                           "depth": 0}),
                  (SUPERVISOR_TICK, 11.0, 0, {"completed": 0,
                                              "lag_s": 0.1}))
    status = journal_snapshot(path, now_mono=15.0)
    assert status.started and not status.finished
    assert status.completed == 0
    assert status.elapsed_s == pytest.approx(5.0)
    assert status.throughput_cps is None
    assert status.eta_s is None
    rendered = render_status(status)
    assert "eta" not in rendered
    assert "contracts/s" not in rendered
    assert "0/20" in rendered


def test_tail_follow_delivers_a_partial_line_once_and_whole(
        tmp_path) -> None:
    """A writer caught mid-append: the dangling half-line is held back,
    then delivered exactly once when its newline lands."""
    import json as _json

    path = _write(tmp_path / "midline.jsonl", LIVE_ROWS[0])
    spawn = Event(kind=WORKER_SPAWN, ts=1.0, mono=20.0, pid=101, seq=1,
                  shard=0, attrs={"task": 0})
    spawn_line = _json.dumps(spawn.to_dict(), separators=(",", ":")) + "\n"
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(spawn_line[:17])  # mid-append, no newline yet

    def finish_the_line() -> None:
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(spawn_line[17:])

    def end_the_sweep() -> None:
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(_json.dumps(
                Event(kind=SWEEP_END, ts=2.0, mono=21.0, pid=101,
                      seq=2).to_dict(), separators=(",", ":")) + "\n")

    script = iter([finish_the_line, end_the_sweep])

    def fake_sleep(_seconds: float) -> None:
        next(script)()

    events = list(tail_journal(path, follow=True, sleep=fake_sleep))
    kinds = [event.kind for event in events]
    assert kinds == [SWEEP_START, WORKER_SPAWN, SWEEP_END]
    # Delivered whole: the reassembled event carries its full attributes.
    assert events[1].attrs == {"task": 0}
    assert events[1].seq == 1


def test_total_order_breaks_mono_and_pid_ties_by_seq() -> None:
    """Events sharing one monotonic reading *and* one writer keep their
    per-writer emission order (seq); across writers, pid breaks the tie."""
    from repro.obs.events import total_order

    def at(mono: float, pid: int, seq: int) -> Event:
        return Event(kind="supervisor.tick", ts=0.0, mono=mono, pid=pid,
                     seq=seq)

    same_writer = [at(5.0, 7, 2), at(5.0, 7, 0), at(5.0, 7, 1)]
    assert [e.seq for e in total_order(same_writer)] == [0, 1, 2]

    across = [at(5.0, 9, 0), at(5.0, 7, 5), at(4.0, 9, 9)]
    ordered = total_order(across)
    assert [(e.mono, e.pid, e.seq) for e in ordered] \
        == [(4.0, 9, 9), (5.0, 7, 5), (5.0, 9, 0)]
