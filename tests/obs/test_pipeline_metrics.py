"""Integration: pipeline/monitor instrumentation and the --metrics CLI."""

from __future__ import annotations

import json

import pytest

from repro.chain.blockchain import Blockchain
from repro.chain.dataset import ContractDataset
from repro.chain.explorer import SourceRegistry
from repro.chain.node import ArchiveNode
from repro.cli import main
from repro.core.monitor import DeploymentMonitor
from repro.core.pipeline import DEDUP_CACHES, Proxion, ProxionOptions
from repro.corpus import generate_landscape
from repro.landscape import report_to_json
from repro.lang import compile_contract, stdlib
from repro.obs import NULL_REGISTRY

from tests.conftest import ALICE


@pytest.fixture(scope="module")
def landscape():
    return generate_landscape(total=80, seed=5)


@pytest.fixture(scope="module")
def swept(landscape):
    """A small sweep plus the Proxion that produced it."""
    proxion = Proxion(landscape.node, registry=landscape.registry, dataset=landscape.dataset)
    report = proxion.analyze_all()
    return proxion, report


def test_registry_agrees_with_api_call_counter(swept) -> None:
    proxion, _ = swept
    registry = proxion.metrics
    shim = proxion.node.api_calls
    for method in ("eth_getCode", "eth_getStorageAt"):
        assert registry.counter_value("rpc.calls", method=method) \
            == shim.get(method)
    assert shim.get("eth_getStorageAt") > 0


@pytest.mark.parametrize("options", [
    ProxionOptions(),
    ProxionOptions(dedup_by_code_hash=False),
    ProxionOptions(detect_function_collisions=False),
    ProxionOptions(detect_storage_collisions=False),
], ids=["default", "no-codehash-dedup", "no-function", "no-storage"])
def test_report_dedup_fields_match_registry(landscape, options) -> None:
    """A crash-free serial sweep's replayed dedup block equals what the
    live caches counted."""
    proxion = Proxion.from_chain(landscape.chain,
                                 registry=landscape.registry,
                                 dataset=landscape.dataset, options=options)
    report = proxion.analyze_all()
    registry = proxion.metrics
    live = {cache: (registry.counter_value("dedup.hits", cache=cache),
                    registry.counter_value("dedup.misses", cache=cache))
            for cache in DEDUP_CACHES}
    assert {"proxy_check": (report.proxy_check_cache_hits,
                            report.proxy_check_cache_misses),
            "function_collision": (report.function_cache_hits,
                                   report.function_cache_misses),
            "storage_collision": (report.storage_cache_hits,
                                  report.storage_cache_misses)} == live
    assert sum(live["proxy_check"]) == len(report)
    rates = report.dedup_hit_rates()
    assert set(rates) == {"proxy_check", "function_collision",
                          "storage_collision"}
    assert all(0.0 <= rate <= 1.0 for rate in rates.values())


def test_pipeline_spans_and_recovery_counters(swept) -> None:
    proxion, report = swept
    registry = proxion.metrics
    sweep = registry.histogram("span.seconds", name="sweep")
    checks = registry.histogram("span.seconds", name="proxy_check")
    assert sweep.count == 1
    assert checks.count == len(report)
    assert proxion.spans.named("sweep")
    # The §6.1 numerator/denominator are first-class counters.
    calls = registry.counter_value("logic_recovery.getstorageat_calls")
    proxies = registry.counter_value("logic_recovery.storage_proxies")
    assert proxies > 0 and calls >= proxies


def test_null_registry_pipeline_records_nothing() -> None:
    landscape = generate_landscape(total=30, seed=9)
    node = ArchiveNode(landscape.node.chain, metrics=NULL_REGISTRY)
    proxion = Proxion(node, registry=landscape.registry, dataset=landscape.dataset)
    report = proxion.analyze_all()
    assert len(report) > 0
    assert proxion.metrics is NULL_REGISTRY
    assert proxion.metrics.snapshot()["counters"] == {}
    assert proxion.spans.spans == []             # the null tracer has no sinks
    # The report is the live-registry sweep's, dedup block included: it
    # is replayed from the analyses, not read off the registry.
    live = Proxion.from_chain(landscape.chain, registry=landscape.registry,
                              dataset=landscape.dataset).analyze_all()
    assert report_to_json(report) == report_to_json(live)
    assert report.proxy_check_cache_hits > 0
    assert report.proxies()


def test_monitor_scans_only_new_blocks(chain: Blockchain) -> None:
    proxion = Proxion(ArchiveNode(chain), registry=SourceRegistry(), dataset=ContractDataset())
    monitor = DeploymentMonitor(proxion)
    wallet_init = compile_contract(stdlib.simple_wallet("W", ALICE)).init_code
    chain.deploy(ALICE, wallet_init)
    # The cursor starts at block 0, so genesis-numbered blocks are skipped.
    blocks_after_first = sum(1 for block in chain.blocks if block.number > 0)
    monitor.poll()
    assert monitor.stats.blocks_scanned == blocks_after_first
    assert monitor.stats.polls == 1

    monitor.poll()                               # nothing new
    assert monitor.stats.blocks_scanned == blocks_after_first

    chain.deploy(ALICE, wallet_init)
    chain.deploy(ALICE, wallet_init)
    monitor.poll()
    assert monitor.stats.blocks_scanned == blocks_after_first + 2
    assert monitor.stats.polls == 3
    assert proxion.metrics.counter_value("monitor.blocks_scanned") \
        == monitor.stats.blocks_scanned
    assert proxion.metrics.gauge("monitor.poll_lag").value == 2


def test_monitor_alert_kinds_reach_registry(chain: Blockchain) -> None:
    proxion = Proxion(ArchiveNode(chain), registry=SourceRegistry(), dataset=ContractDataset())
    monitor = DeploymentMonitor(proxion)
    wallet = chain.deploy(
        ALICE, compile_contract(stdlib.simple_wallet("W", ALICE)).init_code,
    ).created_address
    chain.deploy(
        ALICE,
        compile_contract(stdlib.storage_proxy("P", wallet, ALICE)).init_code)
    alerts = monitor.poll()
    assert alerts
    by_kind: dict[str, int] = {}
    for alert in alerts:
        by_kind[alert.kind] = by_kind.get(alert.kind, 0) + 1
    for kind, count in by_kind.items():
        assert proxion.metrics.counter_value("monitor.alerts",
                                             kind=kind) == count


# ------------------------------------------------------------------ CLI level
def test_survey_metrics_flag_prints_sec61_headline(capsys) -> None:
    assert main(["survey", "--total", "60", "--seed", "3", "--metrics"]) == 0
    output = capsys.readouterr().out
    assert "== observability (repro.obs) ==" in output
    assert "per-stage wall time (spans):" in output
    assert "RPC usage (per method):" in output
    assert "eth_getStorageAt" in output
    assert "dedup caches (§6.1):" in output
    assert "getStorageAt calls per proxy:" in output


def test_survey_json_metrics_snapshot(capsys) -> None:
    assert main(["survey", "--total", "50", "--seed", "3", "--json",
                 "--metrics"]) == 0
    payload = json.loads(capsys.readouterr().out)
    counters = payload["metrics"]["counters"]
    assert counters['rpc.calls{method="eth_getCode"}'] > 0
    assert counters['rpc.calls{method="eth_getStorageAt"}'] > 0
    assert 'span.seconds{name="sweep"}' in payload["metrics"]["histograms"]
    assert "dedup" in payload["summary"]
    # The registry and the shim tell the same story end to end.
    storage_calls = counters['rpc.calls{method="eth_getStorageAt"}']
    recovered = counters.get("logic_recovery.getstorageat_calls", 0)
    assert 0 < recovered <= storage_calls


def test_survey_prom_and_trace_outputs(tmp_path, capsys) -> None:
    prom = tmp_path / "metrics.prom"
    spans = tmp_path / "spans.jsonl"
    assert main(["survey", "--total", "40", "--seed", "5",
                 "--metrics-prom", str(prom),
                 "--trace-jsonl", str(spans),
                 "--profile-evm", "--metrics"]) == 0
    output = capsys.readouterr().out
    assert "EVM profile:" in output
    text = prom.read_text()
    assert "# TYPE repro_rpc_calls counter" in text
    assert 'repro_rpc_calls{method="eth_getCode"}' in text
    lines = spans.read_text().strip().splitlines()
    names = {json.loads(line)["name"] for line in lines}
    assert "sweep" in names and "proxy_check" in names


def test_accuracy_metrics_flag(capsys) -> None:
    assert main(["accuracy", "--pairs", "2", "--seed", "1",
                 "--metrics"]) == 0
    output = capsys.readouterr().out
    assert "== observability (repro.obs) ==" in output
    assert "build_corpus" in output and "table2" in output
