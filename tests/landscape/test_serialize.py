"""JSON serialization of sweeps."""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import Proxion
from repro.landscape.serialize import (
    analysis_to_dict,
    dict_to_analysis,
    report_to_dict,
    report_to_json,
)


@pytest.fixture(scope="module")
def sweep(landscape):
    proxion = Proxion(landscape.node, registry=landscape.registry, dataset=landscape.dataset)
    return proxion.analyze_all()


def test_report_roundtrips_through_json(sweep) -> None:
    parsed = json.loads(report_to_json(sweep))
    assert parsed["summary"]["contracts"] == len(sweep)
    assert parsed["summary"]["proxies"] == len(sweep.proxies())
    assert len(parsed["contracts"]) == len(sweep)


def test_summary_counters_match(sweep) -> None:
    data = report_to_dict(sweep)["summary"]
    assert data["hidden_proxies"] == len(sweep.hidden_proxies())
    assert data["function_collision_pairs"] == sweep.function_collision_pairs()
    assert data["storage_collision_pairs"] == sweep.storage_collision_pairs()
    assert sum(data["standards"].values()) == len(sweep.proxies())


def test_dict_round_trip_guarantee(sweep) -> None:
    """What store restore and the shard merge rest on: a restored
    analysis serializes exactly like the original."""
    for analysis in list(sweep.analyses.values())[:8]:
        record = analysis_to_dict(analysis)
        assert analysis_to_dict(dict_to_analysis(record)) == record


def test_addresses_are_hex_strings(sweep) -> None:
    data = report_to_dict(sweep)
    for record in data["contracts"]:
        assert record["address"].startswith("0x")
        assert len(record["address"]) == 42
        if record["is_proxy"] and record.get("logic_history"):
            for logic in record["logic_history"]["addresses"]:
                assert logic.startswith("0x")


def test_proxy_record_fields(sweep) -> None:
    proxies = [analysis_to_dict(a) for a in sweep.proxies()]
    assert proxies
    for record in proxies:
        assert record["standard"] in ("EIP-1167", "EIP-1822", "EIP-1967",
                                      "Others")
        assert record["check"]["logic_location"] in ("hardcoded", "storage",
                                                     "unknown")


def test_collision_records_present(sweep) -> None:
    flagged = [analysis_to_dict(a) for a in sweep.analyses.values()
               if a.has_storage_collision]
    assert flagged
    for record in flagged:
        assert record["storage_collisions"]
        collision = record["storage_collisions"][0]["collisions"][0]
        assert collision["kind"] in ("layout-mismatch", "type-mismatch")
        assert collision["proxy_range"][0] < collision["proxy_range"][1]


def test_evidence_digest_rides_in_analysis_records(sweep) -> None:
    from repro.landscape.serialize import dict_to_analysis
    from repro.obs.provenance import SCHEMA

    plain = analysis_to_dict(next(iter(sweep.analyses.values())))
    assert "evidence" not in plain    # un-audited sweeps stay digest-free

    analysis = next(iter(sweep.analyses.values()))
    digest = {"schema": SCHEMA, "sections": ["proxy_detection"],
              "kinds": {"proxy_detection": 1}}
    analysis.evidence_digest = digest
    try:
        record = analysis_to_dict(analysis)
        assert record["evidence"] == digest
        restored = dict_to_analysis(json.loads(json.dumps(record)))
        assert restored.evidence_digest == digest
    finally:
        analysis.evidence_digest = None


def test_cli_json_mode(capsys) -> None:
    from repro.cli import main
    assert main(["survey", "--total", "40", "--seed", "2", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert "summary" in parsed and "contracts" in parsed


def test_cli_chain_selection(capsys) -> None:
    from repro.cli import main
    assert main(["survey", "--total", "30", "--seed", "2",
                 "--chain", "polygon"]) == 0
    assert "polygon" in capsys.readouterr().out
