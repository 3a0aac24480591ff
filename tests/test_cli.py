"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command() -> None:
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_survey_command(capsys) -> None:
    assert main(["survey", "--total", "60", "--seed", "3"]) == 0
    output = capsys.readouterr().out
    assert "proxies:" in output
    assert "EIP-1167" in output
    assert "never-upgraded" in output


def test_survey_with_diamonds(capsys) -> None:
    assert main(["survey", "--total", "40", "--seed", "5",
                 "--diamonds"]) == 0
    assert "proxies:" in capsys.readouterr().out


def test_accuracy_command(capsys) -> None:
    assert main(["accuracy", "--pairs", "2", "--seed", "1"]) == 0
    output = capsys.readouterr().out
    assert "methodology: union" in output
    assert "Proxion" in output and "USCHunt" in output and "CRUSH" in output


def test_mine_selector_success(capsys) -> None:
    assert main(["mine-selector", "free_ether_withdrawal()",
                 "--bits", "8", "--max-attempts", "100000"]) == 0
    output = capsys.readouterr().out
    assert "0xdf4a3106" in output
    assert "found" in output


def test_mine_selector_budget_exhausted(capsys) -> None:
    assert main(["mine-selector", "transfer(address,uint256)",
                 "--bits", "32", "--max-attempts", "10"]) == 1
    assert "not found" in capsys.readouterr().out


def test_demo_quickstart(capsys) -> None:
    assert main(["demo", "quickstart"]) == 0
    output = capsys.readouterr().out
    assert "is proxy:        True" in output


def test_demo_rejects_unknown() -> None:
    with pytest.raises(SystemExit):
        main(["demo", "nonsense"])


def test_bench_list(capsys) -> None:
    assert main(["bench", "--list"]) == 0
    output = capsys.readouterr().out
    assert "proxy_check" in output and "selector_mining" in output


def test_bench_writes_schema_valid_payload(tmp_path, capsys) -> None:
    import json

    from repro.obs.bench import validate_payload

    target = tmp_path / "BENCH_test.json"
    assert main(["bench", "--quick", "--repeats", "1", "--warmup", "0",
                 "--workloads", "proxy_check,logic_recovery",
                 "--out", str(target)]) == 0
    output = capsys.readouterr().out
    assert "repro bench" in output and "proxy_check" in output
    payload = json.loads(target.read_text())
    assert validate_payload(payload) == []


def test_bench_compare_missing_baseline_passes(tmp_path, capsys) -> None:
    target = tmp_path / "BENCH_test.json"
    assert main(["bench", "--repeats", "1", "--warmup", "0",
                 "--workloads", "logic_recovery",
                 "--out", str(target),
                 "--compare", str(tmp_path / "absent.json")]) == 0
    assert "comparison skipped" in capsys.readouterr().out


def test_bench_compare_regression_fails(tmp_path, capsys) -> None:
    import json

    target = tmp_path / "BENCH_test.json"
    assert main(["bench", "--repeats", "1", "--warmup", "0",
                 "--workloads", "logic_recovery",
                 "--out", str(target)]) == 0
    baseline = json.loads(target.read_text())
    for row in baseline["workloads"].values():
        row["stats"]["median"] /= 10  # current looks 10x slower
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
    capsys.readouterr()
    assert main(["bench", "--repeats", "1", "--warmup", "0",
                 "--workloads", "logic_recovery",
                 "--out", str(target),
                 "--compare", str(baseline_path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_bench_rejects_unknown_workload(tmp_path, capsys) -> None:
    assert main(["bench", "--workloads", "nonsense",
                 "--out", str(tmp_path / "b.json")]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_bench_unwritable_out_errors(capsys) -> None:
    assert main(["bench", "--repeats", "1", "--warmup", "0",
                 "--workloads", "logic_recovery",
                 "--out", "/nope/BENCH.json"]) == 1
    assert "/nope/BENCH.json" in capsys.readouterr().err


def test_survey_flame_writes_collapsed_stacks(tmp_path, capsys) -> None:
    flame = tmp_path / "flame.collapsed"
    assert main(["survey", "--total", "30", "--seed", "5",
                 "--flame", str(flame)]) == 0
    assert "flame" in capsys.readouterr().out
    lines = flame.read_text().strip().splitlines()
    assert lines
    stack, _, count = lines[0].rpartition(" ")
    assert int(count) > 0 and ":" in stack


def test_survey_chaos_transient_matches_fault_free(capsys) -> None:
    import json
    assert main(["survey", "--total", "40", "--seed", "5", "--json"]) == 0
    baseline = json.loads(capsys.readouterr().out)
    assert main(["survey", "--total", "40", "--seed", "5", "--json",
                 "--metrics", "--chaos", "transient"]) == 0
    chaotic = json.loads(capsys.readouterr().out)
    assert chaotic["contracts"] == baseline["contracts"]
    assert chaotic["summary"]["quarantined"]["contracts"] == 0
    retries = sum(value for key, value
                  in chaotic["metrics"]["counters"].items()
                  if key.startswith("resilience.retries"))
    assert retries > 0


def test_survey_chaos_outage_quarantines_gracefully(capsys) -> None:
    assert main(["survey", "--total", "40", "--seed", "5",
                 "--chaos", "outage"]) == 0
    output = capsys.readouterr().out
    assert "quarantined:" in output
    assert "circuit-open" in output or "deadline-exceeded" in output


def test_survey_checkpoint_and_resume(tmp_path, capsys,
                                      monkeypatch) -> None:
    """--store checkpoints every contract: a survey killed partway resumes
    with --store PATH --incremental into the cold sweep's bytes."""
    import json

    from repro.core.pipeline import Proxion

    argv = ["survey", "--total", "40", "--seed", "5", "--json"]
    assert main(argv) == 0
    cold = capsys.readouterr().out

    class Killed(Exception):
        pass

    settle = Proxion._settle
    settled: list[bytes] = []

    def settle_until_killed(self, report, address) -> None:
        if len(settled) == 20:
            raise Killed
        settle(self, report, address)
        settled.append(address)

    store = str(tmp_path / "sweep.store")
    with monkeypatch.context() as patch:
        patch.setattr(Proxion, "_settle", settle_until_killed)
        with pytest.raises(Killed):
            main([*argv, "--store", store])
    capsys.readouterr()

    journal = str(tmp_path / "resume.events.jsonl")
    assert main([*argv, "--store", store, "--incremental",
                 "--events", journal]) == 0
    assert capsys.readouterr().out == cold
    assert main(["status", journal, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)["status"]
    assert 0 < status["resumed"] <= len(settled)


def test_survey_resume_without_checkpoint_errors(capsys) -> None:
    # The retired flags no longer parse: a sweep resumes only with
    # --store PATH --incremental.
    for flags in (["--resume"], ["--checkpoint", "sweep.ckpt"]):
        with pytest.raises(SystemExit) as refused:
            main(["survey", "--total", "40", *flags])
        assert refused.value.code == 2
        assert flags[0] in capsys.readouterr().err


def test_survey_parallel_json_matches_serial(capsys) -> None:
    import json
    assert main(["survey", "--total", "40", "--seed", "5", "--json"]) == 0
    serial = capsys.readouterr().out
    assert main(["survey", "--total", "40", "--seed", "5", "--json",
                 "--workers", "3"]) == 0
    parallel = capsys.readouterr().out
    assert json.loads(parallel) == json.loads(serial)


def test_survey_parallel_keeps_the_serial_address_order(capsys,
                                                       monkeypatch) -> None:
    """--workers lists contracts in the dataset's order, as the serial
    sweep does: both follow the dataset, whatever order it holds."""
    from repro.chain.dataset import ContractDataset
    assert main(["survey", "--total", "20", "--seed", "3", "--json"]) == 0
    unpatched = capsys.readouterr().out
    monkeypatch.setattr(ContractDataset, "addresses",
                        lambda self: list(self._records)[::-1])
    assert main(["survey", "--total", "20", "--seed", "3", "--json"]) == 0
    serial = capsys.readouterr().out
    assert serial != unpatched
    assert main(["survey", "--total", "20", "--seed", "3", "--json",
                 "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_survey_parallel_rejects_per_process_outputs(tmp_path,
                                                     capsys) -> None:
    assert main(["survey", "--total", "20", "--workers", "2",
                 "--flame", str(tmp_path / "x.folded")]) == 2
    assert "--flame" in capsys.readouterr().err
    assert main(["survey", "--total", "20", "--workers", "2",
                 "--trace-jsonl", str(tmp_path / "x.jsonl")]) == 2
    assert "--trace-jsonl" in capsys.readouterr().err


def test_survey_parallel_checkpoints_per_shard(tmp_path, capsys,
                                              parent_killed_before_fold
                                              ) -> None:
    """Every worker checkpoints into the one --store file; when the
    parent dies before its fold, the workers' rows are already there,
    and the next --incremental run restores them and re-analyzes
    nothing."""
    import json
    import os

    from repro.store import AnalysisStore

    argv = ["survey", "--total", "40", "--seed", "5", "--json"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)

    base = str(tmp_path / "sweep.store")
    with parent_killed_before_fold():
        main([*argv, "--workers", "2", "--store", base])
    capsys.readouterr()
    with AnalysisStore(base) as store:
        committed = len(store.load_analyses()) + len(store.load_failures())

    assert main([*argv, "--workers", "2", "--store", base, "--incremental",
                 "--metrics"]) == 0
    resumed = json.loads(capsys.readouterr().out)
    counters = resumed.pop("metrics")["counters"]
    assert resumed == cold
    assert counters["pipeline.store_restored_contracts"] == committed \
        == len(cold["contracts"]) + len(cold["failures"])
    assert not [name for name in os.listdir(tmp_path) if ".shard" in name]


def test_survey_poison_quarantines_persist_in_the_store(tmp_path, capsys,
                                                       monkeypatch) -> None:
    """The supervisor commits each poison quarantine to the sweep's
    store: an --incremental rerun restores it without spawning a worker,
    and the store answers the poison contract as quarantined."""
    import json

    from repro import api
    from repro.parallel import supervisor
    from repro.store import AnalysisStore

    store = str(tmp_path / "poison.store")
    argv = ["survey", "--total", "40", "--seed", "7", "--json",
            "--workers", "3", "--chaos", "worker-poison",
            "--chaos-seed", "99", "--shard-timeout", "3",
            "--max-shard-retries", "1", "--store", store]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    poison = [record["address"] for record in first["failures"]
              if record["cause"] == "worker-crash"]
    assert poison

    def spawn(*_args, **_kwargs):
        raise AssertionError("the rerun dispatched contracts to workers")

    monkeypatch.setattr(supervisor, "run_supervised_sweep", spawn)
    assert main([*argv, "--incremental"]) == 0
    rerun = json.loads(capsys.readouterr().out)
    assert rerun["contracts"] == first["contracts"]
    assert rerun["failures"] == first["failures"]
    with AnalysisStore(store) as reader:
        for address in poison:
            answer = api.answer_from_store(reader, bytes.fromhex(address[2:]))
            assert answer.verdict == api.VERDICT_QUARANTINED


def test_survey_parallel_chaos_matches_clean_sweep(capsys) -> None:
    import json
    assert main(["survey", "--total", "40", "--seed", "5", "--json"]) == 0
    baseline = json.loads(capsys.readouterr().out)
    assert main(["survey", "--total", "40", "--seed", "5", "--json",
                 "--workers", "3", "--chaos", "transient"]) == 0
    chaotic = json.loads(capsys.readouterr().out)
    assert chaotic == baseline


def test_survey_events_journal_status_and_tail(tmp_path, capsys) -> None:
    import json
    journal = str(tmp_path / "sweep.events.jsonl")
    assert main(["survey", "--total", "30", "--seed", "5",
                 "--events", journal]) == 0
    capsys.readouterr()

    assert main(["status", journal]) == 0
    rendered = capsys.readouterr().out
    assert "sweep finished" in rendered

    assert main(["status", journal, "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["schema"] == "repro.query/1"
    assert snapshot["kind"] == "status"
    assert snapshot["status"]["finished"] and snapshot["status"]["started"]
    assert snapshot["status"]["events"] > 0

    assert main(["tail", journal]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("sweep.start" in line for line in lines)
    assert any("sweep.end" in line for line in lines)


def test_survey_parallel_events_journal_merges_workers(tmp_path,
                                                       capsys) -> None:
    from repro.obs.events import SWEEP_END, read_journal
    journal = str(tmp_path / "sweep.events.jsonl")
    assert main(["survey", "--total", "24", "--seed", "7", "--workers", "2",
                 "--events", journal]) == 0
    loaded = read_journal(journal)
    assert {event.kind for event in loaded.events} >= {"sweep.start",
                                                       "worker.spawn",
                                                       SWEEP_END}
    # Worker pipeline events keep their own pid in the merged journal.
    assert len({event.pid for event in loaded.events}) > 1


def test_survey_serve_obs_announces_url(tmp_path, capsys) -> None:
    """survey --serve announces where it serves the obs routes, for a
    sharded sweep too; the expired --serve-obs spelling no longer parses."""
    journal = str(tmp_path / "sweep.events.jsonl")
    assert main(["survey", "--total", "20", "--seed", "3", "--workers", "2",
                 "--events", journal, "--serve", "0"]) == 0
    assert "obs: serving /metrics /healthz /progress at http://127.0.0.1:" \
        in capsys.readouterr().out
    with pytest.raises(SystemExit) as refused:
        main(["survey", "--total", "20", "--serve-obs", "0"])
    assert refused.value.code == 2
    assert "--serve-obs" in capsys.readouterr().err


def test_survey_events_unwritable_path_errors(tmp_path, capsys) -> None:
    assert main(["survey", "--total", "20",
                 "--events", str(tmp_path / "no-dir" / "x.jsonl")]) == 2
    assert "cannot write --events journal" in capsys.readouterr().err


def test_status_and_tail_reject_bad_journals(tmp_path, capsys) -> None:
    absent = str(tmp_path / "absent.jsonl")
    assert main(["status", absent]) == 2
    assert "error:" in capsys.readouterr().err
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text('{"schema":"repro.checkpoint/1"}\n')
    assert main(["tail", str(foreign)]) == 2
    assert "error:" in capsys.readouterr().err


def test_survey_audit_then_explain_round_trip(tmp_path, capsys) -> None:
    from repro.obs.provenance import SCHEMA, AuditDir
    audit = str(tmp_path / "audit")
    assert main(["survey", "--total", "30", "--seed", "3",
                 "--audit", audit]) == 0
    capsys.readouterr()
    addresses = AuditDir(audit).addresses()
    assert addresses

    rendered = "0x" + addresses[0].hex()
    assert main(["explain", rendered, "--audit", audit]) == 0
    narrative = capsys.readouterr().out
    assert narrative.startswith(f"evidence for {rendered} ({SCHEMA})")
    assert "proxy detection" in narrative

    assert main(["explain", rendered, "--audit", audit, "--json"]) == 0
    import json
    record = json.loads(capsys.readouterr().out)
    assert record["schema"] == "repro.query/1"
    assert record["kind"] == "evidence"
    assert record["source"] == "audit"
    assert record["address"] == rendered
    # The full repro.evidence/1 trail nests unchanged inside the envelope.
    assert record["evidence"]["schema"] == SCHEMA
    assert record["evidence"]["address"] == rendered
    assert record["evidence"]["evidence"]


def test_survey_audit_parallel_matches_serial(tmp_path, capsys) -> None:
    import filecmp
    import json
    from repro.obs.provenance import AuditDir
    serial_dir = str(tmp_path / "serial")
    parallel_dir = str(tmp_path / "parallel")
    assert main(["survey", "--total", "30", "--seed", "7", "--json",
                 "--audit", serial_dir]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(["survey", "--total", "30", "--seed", "7", "--json",
                 "--workers", "2", "--audit", parallel_dir]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert parallel == serial
    # Every analysis carries an evidence digest when audited.
    assert all("evidence" in contract for contract in serial["contracts"])
    serial_addrs = AuditDir(serial_dir).addresses()
    assert serial_addrs == AuditDir(parallel_dir).addresses()
    for address in serial_addrs:
        a = AuditDir(serial_dir).read(address)
        b = AuditDir(parallel_dir).read(address)
        assert a.to_dict() == b.to_dict()
    assert not filecmp.dircmp(serial_dir, parallel_dir).right_only


def test_survey_without_audit_has_no_evidence_key(capsys) -> None:
    import json
    assert main(["survey", "--total", "30", "--seed", "7", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all("evidence" not in contract
               for contract in report["contracts"])


def test_survey_audit_unwritable_dir_errors(tmp_path, capsys) -> None:
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    assert main(["survey", "--total", "20",
                 "--audit", str(blocker / "audit")]) == 2
    assert "audit" in capsys.readouterr().err


def test_explain_fresh_analysis_matches_audited(tmp_path, capsys) -> None:
    import json
    from repro.obs.provenance import AuditDir
    audit = str(tmp_path / "audit")
    assert main(["survey", "--total", "30", "--seed", "3",
                 "--audit", audit]) == 0
    capsys.readouterr()
    rendered = "0x" + AuditDir(audit).addresses()[0].hex()
    assert main(["explain", rendered, "--audit", audit, "--json"]) == 0
    from_audit = json.loads(capsys.readouterr().out)
    assert main(["explain", rendered, "--total", "30", "--seed", "3",
                 "--json"]) == 0
    fresh = json.loads(capsys.readouterr().out)
    # Same trail either way; only the envelope's provenance differs.
    assert fresh["evidence"] == from_audit["evidence"]
    assert from_audit["source"] == "audit" and fresh["source"] == "fresh"


def test_explain_rejects_bad_addresses(tmp_path, capsys) -> None:
    assert main(["explain", "not-hex"]) == 2
    assert "address" in capsys.readouterr().err
    assert main(["explain", "0xabcd"]) == 2
    assert "20-byte" in capsys.readouterr().err
    assert main(["explain", "0x" + "11" * 20,
                 "--audit", str(tmp_path / "empty")]) == 2
    assert "no evidence" in capsys.readouterr().err


def test_accuracy_events_journal(tmp_path, capsys) -> None:
    import json
    journal = str(tmp_path / "acc.events.jsonl")
    assert main(["accuracy", "--pairs", "2", "--seed", "1",
                 "--events", journal]) == 0
    capsys.readouterr()
    assert main(["status", journal, "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["status"]["finished"] and snapshot["status"]["started"]


def test_accuracy_metrics_prom_and_trace(tmp_path, capsys) -> None:
    prom = tmp_path / "acc.prom"
    trace = tmp_path / "acc.jsonl"
    assert main(["accuracy", "--pairs", "2", "--seed", "1",
                 "--metrics-prom", str(prom),
                 "--trace-jsonl", str(trace)]) == 0
    assert "# TYPE" in prom.read_text()
    assert trace.read_text().count("\n") >= 2


def test_survey_store_persists_and_resweeps_incrementally(tmp_path,
                                                          capsys) -> None:
    store = str(tmp_path / "sweep.store")
    assert main(["survey", "--total", "50", "--seed", "4",
                 "--store", store]) == 0
    assert "sweep persisted to" in capsys.readouterr().out
    assert main(["survey", "--total", "50", "--seed", "4",
                 "--store", store, "--incremental"]) == 0
    assert "restored, not re-analyzed" in capsys.readouterr().out


def test_survey_store_json_matches_serial(capsys, tmp_path) -> None:
    store = str(tmp_path / "json.store")
    assert main(["survey", "--total", "50", "--seed", "4", "--json"]) == 0
    serial = capsys.readouterr().out
    assert main(["survey", "--total", "50", "--seed", "4", "--json",
                 "--store", store]) == 0
    assert capsys.readouterr().out == serial
    assert main(["survey", "--total", "50", "--seed", "4", "--json",
                 "--store", store, "--incremental", "--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_survey_db_was_removed(tmp_path, capsys) -> None:
    # The retired alias no longer parses: argparse refuses the unknown
    # flag, alone or beside its replacement --store.
    for extra in ([], ["--store", str(tmp_path / "b.store")]):
        with pytest.raises(SystemExit) as refused:
            main(["survey", "--total", "40", "--seed", "5",
                  "--db", str(tmp_path / "legacy.db"), *extra])
        assert refused.value.code == 2
        assert "--db" in capsys.readouterr().err


def test_survey_incremental_without_store_errors(capsys) -> None:
    assert main(["survey", "--total", "40", "--incremental"]) == 2
    assert "--incremental requires --store" in capsys.readouterr().err


def test_store_subcommand_fsck_stats_vacuum(tmp_path, capsys) -> None:
    store = str(tmp_path / "maint.store")
    assert main(["survey", "--total", "40", "--seed", "5",
                 "--store", store]) == 0
    capsys.readouterr()
    assert main(["store", "fsck", store]) == 0
    assert "clean" in capsys.readouterr().out
    assert main(["store", "stats", store, "--json"]) == 0
    import json
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.store/1"
    assert payload["tables"]["analyses"] > 0
    assert main(["store", "vacuum", store]) == 0
    assert "reclaimed" in capsys.readouterr().out


def test_store_fsck_flags_and_repairs_damage(tmp_path, capsys) -> None:
    import sqlite3
    store = str(tmp_path / "damaged.store")
    assert main(["survey", "--total", "40", "--seed", "5",
                 "--store", store]) == 0
    capsys.readouterr()
    connection = sqlite3.connect(store)
    connection.execute("UPDATE proxy_verdicts SET check_json = '{oops' "
                       "WHERE rowid = 1")
    connection.commit()
    connection.close()
    assert main(["store", "fsck", store]) == 1
    assert "--repair" in capsys.readouterr().err
    assert main(["store", "fsck", store, "--repair"]) == 0
    assert "[repaired]" in capsys.readouterr().out
    assert main(["store", "fsck", store]) == 0


def test_store_fsck_missing_file_fails(tmp_path, capsys) -> None:
    assert main(["store", "fsck", str(tmp_path / "nope.store")]) == 1
    assert "no store" in capsys.readouterr().out
