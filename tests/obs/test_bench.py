"""The continuous-benchmarking harness (`repro.obs.bench`)."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import time

import pytest

from repro.obs.bench import (
    BenchConfig,
    SCHEMA,
    WORKLOADS,
    compare_payloads,
    run_suite,
    select_workloads,
    timing_stats,
    validate_payload,
    write_payload,
)


def _payload(workloads: dict[str, float]) -> dict:
    """A minimal valid payload with the given per-workload medians."""
    return {
        "schema": SCHEMA,
        "meta": {"python": "3.x"},
        "workloads": {
            name: {
                "repeats": 3,
                "timings_s": [median] * 3,
                "stats": {"min": median, "median": median,
                          "stddev": 0.0, "iqr": 0.0},
                "spans": {}, "rpc": {}, "dedup": {}, "evm": {},
            }
            for name, median in workloads.items()
        },
    }


# ----------------------------------------------------------------- the suite
class TestSuite:
    def test_quick_suite_has_at_least_four_workloads(self) -> None:
        selected = select_workloads(BenchConfig(quick=True))
        assert len(selected) >= 4
        names = {workload.name for workload in selected}
        assert "proxy_check" in names and "logic_recovery" in names

    def test_full_suite_adds_the_large_sweep(self) -> None:
        quick = {w.name for w in select_workloads(BenchConfig(quick=True))}
        full = {w.name for w in select_workloads(BenchConfig(quick=False))}
        assert "sweep_500" in full - quick

    def test_unknown_workload_filter_raises(self) -> None:
        with pytest.raises(KeyError, match="nonsense"):
            select_workloads(BenchConfig(only=("nonsense",)))

    def test_run_suite_produces_valid_payload(self, tmp_path) -> None:
        config = BenchConfig(quick=True, repeats=1, warmup=0,
                             only=("proxy_check", "logic_recovery"))
        payload = run_suite(config)
        assert validate_payload(payload) == []
        assert payload["schema"] == SCHEMA
        assert payload["meta"]["python"]

        row = payload["workloads"]["proxy_check"]
        assert row["stats"]["median"] > 0
        assert row["rpc"]["eth_getCode"] > 0
        assert row["dedup"]["proxy_check"]["hits"] > 0
        assert row["evm"]["instructions"] > 0
        assert "proxy_check" in row["spans"]

        recovery = payload["workloads"]["logic_recovery"]
        assert recovery["meta"]["storage_proxies"] > 0
        assert recovery["rpc"]["eth_getStorageAt"] > 0
        assert "logic_history" in recovery["spans"]

        target = tmp_path / "BENCH_test.json"
        write_payload(payload, str(target))
        assert validate_payload(json.loads(target.read_text())) == []

    def test_pipeline_parallel_workload_reports_critical_path(self) -> None:
        config = BenchConfig(quick=True, repeats=1, warmup=0,
                             only=("pipeline_parallel",))
        payload = run_suite(config)
        assert validate_payload(payload) == []
        row = payload["workloads"]["pipeline_parallel"]
        meta = row["meta"]
        assert meta["workers"] == 4
        assert meta["strategy"] == "codehash"
        assert meta["host_cpus"] >= 1
        assert meta["sum_shard_cpu_s"] >= meta["max_shard_cpu_s"] > 0
        assert meta["critical_path_speedup"] >= 1.0
        # The merged registry carries the workers' RPC and dedup activity.
        assert row["rpc"]["eth_getCode"] > 0
        assert row["dedup"]["proxy_check"]["hits"] > 0

    def test_serve_queries_qps_excludes_daemon_startup(self,
                                                       monkeypatch) -> None:
        from repro.serve import ServeApp

        delay_s = 1.5
        start = ServeApp.start

        def slow_start(app):
            time.sleep(delay_s)
            return start(app)

        monkeypatch.setattr(ServeApp, "start", slow_start)
        config = BenchConfig(quick=True, repeats=1, warmup=0,
                             only=("serve_queries",))
        meta = run_suite(config)["workloads"]["serve_queries"]["meta"]
        assert meta["startup_s"] >= delay_s
        # Timing the start-up too would bound qps by queries / delay_s.
        assert meta["qps"] > meta["queries"] / delay_s

    def test_write_payload_surfaces_oserror_with_path(self) -> None:
        with pytest.raises(OSError, match="/nope/BENCH.json"):
            write_payload(_payload({"a": 1.0}), "/nope/BENCH.json")

    def test_every_registered_workload_is_quick_sized_or_flagged(self) -> None:
        for workload in WORKLOADS.values():
            assert workload.name and workload.description
            assert isinstance(workload.quick, bool)


class TestTimingStats:
    def test_empty(self) -> None:
        assert timing_stats([])["median"] == 0.0

    def test_single(self) -> None:
        stats = timing_stats([0.5])
        assert stats["min"] == stats["median"] == stats["p75"] == 0.5
        assert stats["stddev"] == 0.0 and stats["iqr"] == 0.0

    def test_spread(self) -> None:
        stats = timing_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats["median"] == 3.0
        assert stats["min"] == 1.0 and stats["max"] == 5.0
        assert stats["iqr"] == pytest.approx(2.0)
        assert stats["stddev"] > 0


class TestValidatePayload:
    def test_valid(self) -> None:
        assert validate_payload(_payload({"a": 1.0})) == []

    def test_not_an_object(self) -> None:
        assert validate_payload([1, 2]) == ["payload is not a JSON object"]

    def test_wrong_schema_and_empty_workloads(self) -> None:
        problems = validate_payload({"schema": "other/9", "workloads": {}})
        assert any("schema" in p for p in problems)
        assert any("no workloads" in p for p in problems)

    def test_missing_breakdowns_reported(self) -> None:
        payload = _payload({"a": 1.0})
        del payload["workloads"]["a"]["evm"]
        del payload["workloads"]["a"]["stats"]["iqr"]
        problems = validate_payload(payload)
        assert any("'evm'" in p for p in problems)
        assert any("'iqr'" in p for p in problems)


# ------------------------------------------------------------- the comparator
class TestComparator:
    def test_two_times_slowdown_fails(self) -> None:
        comparison = compare_payloads(_payload({"sweep_80": 1.0}),
                                      _payload({"sweep_80": 2.0}))
        assert comparison.failed and comparison.exit_code == 1
        assert comparison.rows[0].status == "fail"
        assert comparison.rows[0].delta == pytest.approx(1.0)

    def test_unchanged_passes(self) -> None:
        comparison = compare_payloads(_payload({"sweep_80": 1.0}),
                                      _payload({"sweep_80": 1.0}))
        assert not comparison.failed
        assert comparison.rows[0].status == "ok"

    def test_improvement_is_reported_not_failed(self) -> None:
        comparison = compare_payloads(_payload({"sweep_80": 1.0}),
                                      _payload({"sweep_80": 0.5}))
        assert not comparison.failed
        assert comparison.rows[0].status == "improved"

    def test_empty_baseline_is_tolerated(self) -> None:
        for baseline in ({}, None, {"workloads": {}}):
            comparison = compare_payloads(baseline,
                                          _payload({"sweep_80": 1.0}))
            assert not comparison.failed
            assert comparison.rows[0].status == "new"

    def test_workload_only_in_baseline_warns_not_fails(self) -> None:
        comparison = compare_payloads(_payload({"gone": 1.0}), _payload({}))
        assert not comparison.failed
        assert comparison.rows[0].status == "missing"
        assert comparison.warnings

    def test_zero_time_baseline_is_skipped(self) -> None:
        comparison = compare_payloads(_payload({"sweep_80": 0.0}),
                                      _payload({"sweep_80": 1.0}))
        assert not comparison.failed
        assert comparison.rows[0].status == "zero-baseline"

    def test_exactly_25_percent_warns_but_does_not_fail(self) -> None:
        """The gate is *strictly greater than* the threshold."""
        comparison = compare_payloads(_payload({"sweep_80": 1.0}),
                                      _payload({"sweep_80": 1.25}))
        assert not comparison.failed
        assert comparison.rows[0].status == "warn"

    def test_just_above_25_percent_fails(self) -> None:
        comparison = compare_payloads(_payload({"sweep_80": 1.0}),
                                      _payload({"sweep_80": 1.2501}))
        assert comparison.failed

    def test_11_percent_warns(self) -> None:
        comparison = compare_payloads(_payload({"sweep_80": 1.0}),
                                      _payload({"sweep_80": 1.11}))
        assert not comparison.failed
        assert comparison.rows[0].status == "warn"

    def test_per_workload_override_grants_headroom(self) -> None:
        # selector_mining's default override tolerates up to 50 %.
        comparison = compare_payloads(_payload({"selector_mining": 1.0}),
                                      _payload({"selector_mining": 1.4}))
        assert not comparison.failed
        comparison = compare_payloads(_payload({"selector_mining": 1.0}),
                                      _payload({"selector_mining": 1.6}))
        assert comparison.failed

    def test_override_never_tightens_a_looser_global_threshold(self) -> None:
        comparison = compare_payloads(_payload({"selector_mining": 1.0}),
                                      _payload({"selector_mining": 1.6}),
                                      fail_threshold=1.0)
        assert not comparison.failed

    def test_render_mentions_verdict(self) -> None:
        comparison = compare_payloads(_payload({"a": 1.0}),
                                      _payload({"a": 2.0}))
        text = comparison.render()
        assert "FAIL" in text and "100.0% slower" in text


# --------------------------------------------------- tools gate (CI wrapper)
def _load_gate_module():
    path = (pathlib.Path(__file__).resolve().parents[2]
            / "tools" / "check_bench_regression.py")
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRegressionGateScript:
    @pytest.fixture()
    def gate(self):
        return _load_gate_module()

    def _write(self, tmp_path, name: str, payload) -> str:
        target = tmp_path / name
        target.write_text(json.dumps(payload), encoding="utf-8")
        return str(target)

    def test_synthetic_2x_slowdown_exits_nonzero(self, gate, tmp_path,
                                                 capsys) -> None:
        baseline = self._write(tmp_path, "base.json",
                               _payload({"sweep_80": 1.0}))
        current = self._write(tmp_path, "cur.json",
                              _payload({"sweep_80": 2.0}))
        assert gate.main([baseline, current]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_baseline_file_passes(self, gate, tmp_path,
                                          capsys) -> None:
        current = self._write(tmp_path, "cur.json", _payload({"a": 1.0}))
        assert gate.main([str(tmp_path / "absent.json"), current]) == 0
        assert "gate passes" in capsys.readouterr().out

    def test_corrupt_baseline_passes_with_note(self, gate, tmp_path,
                                               capsys) -> None:
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        current = self._write(tmp_path, "cur.json", _payload({"a": 1.0}))
        assert gate.main([str(bad), current]) == 0
        assert "unreadable" in capsys.readouterr().out

    def test_invalid_current_payload_is_a_usage_error(self, gate, tmp_path,
                                                      capsys) -> None:
        baseline = self._write(tmp_path, "base.json", _payload({"a": 1.0}))
        current = self._write(tmp_path, "cur.json", {"schema": "wrong"})
        assert gate.main([baseline, current]) == 2
        assert "not a valid bench result" in capsys.readouterr().out

    def test_custom_threshold(self, gate, tmp_path) -> None:
        baseline = self._write(tmp_path, "base.json",
                               _payload({"a": 1.0}))
        current = self._write(tmp_path, "cur.json", _payload({"a": 1.2}))
        assert gate.main([baseline, current]) == 0
        assert gate.main([baseline, current, "--fail-threshold", "0.1"]) == 1
