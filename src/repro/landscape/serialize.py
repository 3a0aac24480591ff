"""JSON serialization of analysis results.

Turns :class:`~repro.core.report.LandscapeReport` (and single
:class:`~repro.core.report.ContractAnalysis` records) into plain
JSON-compatible dictionaries, for the CLI's ``--json`` output and for
downstream tooling that wants to consume sweeps without importing the
library.  Addresses render as ``0x``-hex; enums as their values.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.report import ContractAnalysis, ContractFailure, LandscapeReport
from repro.core.symexec import SlotKey


def _hex(data: bytes | None) -> str | None:
    return None if data is None else "0x" + data.hex()


def _unhex(rendered: str | None) -> bytes | None:
    return None if rendered is None else bytes.fromhex(
        rendered.removeprefix("0x"))


def _slot(slot: SlotKey) -> dict[str, Any]:
    return {"kind": slot.kind, "base": slot.base}


def analysis_to_dict(analysis: ContractAnalysis) -> dict[str, Any]:
    """One contract's full analysis as a JSON-compatible dict."""
    record: dict[str, Any] = {
        "address": _hex(analysis.address),
        "code_hash": _hex(analysis.code_hash),
        "has_source": analysis.has_source,
        "has_transactions": analysis.has_transactions,
        "hidden": analysis.is_hidden,
        "deploy_block": analysis.deploy_block,
        "deploy_year": analysis.deploy_year,
        "is_proxy": analysis.is_proxy,
        "standard": analysis.standard.value if analysis.standard else None,
        "emulation_failed": analysis.emulation_failed,
    }
    if analysis.check is not None:
        record["check"] = {
            "reason": analysis.check.reason.value if analysis.check.reason else None,
            "logic_address": _hex(analysis.check.logic_address),
            "logic_location": analysis.check.logic_location.value,
            "logic_slot": (hex(analysis.check.logic_slot)
                           if analysis.check.logic_slot is not None else None),
        }
    if analysis.logic_history is not None:
        # Deliberately NOT serialized: ``api_calls_used``.  The probe count
        # of Algorithm 1's binary search depends on the chain height at
        # analysis time, while the durable record must be a pure function
        # of chain state — otherwise a follower that lived through a reorg
        # and a fresh sweep of the final canonical chain would disagree
        # byte-for-byte about identical contracts.  The cost telemetry
        # still lands in ``logic_recovery.getstorageat_calls`` and the
        # audit trail.
        record["logic_history"] = {
            "addresses": [_hex(a) for a in
                          analysis.logic_history.logic_addresses],
            "slot": (hex(analysis.logic_history.slot)
                     if analysis.logic_history.slot is not None else None),
            "upgrade_count": analysis.logic_history.upgrade_count,
        }
    record["function_collisions"] = [
        {
            "logic": _hex(report.logic),
            "proxy_mode": report.proxy_mode,
            "logic_mode": report.logic_mode,
            "selectors": [_hex(c.selector) for c in report.collisions],
        }
        for report in analysis.function_reports if report.has_collision
    ]
    record["storage_collisions"] = [
        {
            "logic": _hex(report.logic),
            "collisions": [
                {
                    "slot": _slot(c.slot),
                    "proxy_range": [c.proxy_use.offset, c.proxy_use.end],
                    "logic_range": [c.logic_use.offset, c.logic_use.end],
                    "kind": c.kind,
                    "sensitive": c.sensitive,
                    "exploitable": c.exploitable,
                    "verified": c.verified,
                    "exploit_selector": _hex(c.exploit_selector),
                }
                for c in report.collisions
            ],
        }
        for report in analysis.storage_reports if report.has_collision
    ]
    if analysis.evidence_digest is not None:
        # Audited sweeps only: the compact repro.evidence/1 digest rides
        # with the analysis so stored and merged parallel sweeps keep
        # provenance.  Absent on the default path, which keeps un-audited
        # output byte-identical to previous releases.
        record["evidence"] = analysis.evidence_digest
    return record


def failure_to_dict(failure: ContractFailure) -> dict[str, Any]:
    """One quarantined contract failure as a JSON-compatible dict."""
    return {
        "address": _hex(failure.address),
        "cause": failure.cause,
        "stage": failure.stage,
        "error": failure.error,
    }


def dict_to_failure(record: dict[str, Any]) -> ContractFailure:
    """Inverse of :func:`failure_to_dict` (store restore, shard merge)."""
    return ContractFailure(
        address=_unhex(record["address"]),
        cause=record["cause"],
        stage=record.get("stage", "analysis"),
        error=record.get("error", ""),
    )


def report_to_dict(report: LandscapeReport) -> dict[str, Any]:
    """A whole sweep as a JSON-compatible dict with summary counters."""
    return {
        "summary": {
            "contracts": len(report),
            "proxies": len(report.proxies()),
            "hidden_proxies": len(report.hidden_proxies()),
            "function_collision_pairs": report.function_collision_pairs(),
            "storage_collision_pairs": report.storage_collision_pairs(),
            "emulation_failure_rate": report.emulation_failure_rate(),
            "quarantined": {
                "contracts": len(report.failures),
                "by_cause": report.quarantine_census(),
            },
            "standards": {standard.value: count for standard, count
                          in report.standards_census().items()},
            "dedup": {
                "proxy_check": {"hits": report.proxy_check_cache_hits,
                                "misses": report.proxy_check_cache_misses},
                "function_collision": {"hits": report.function_cache_hits,
                                       "misses": report.function_cache_misses},
                "storage_collision": {"hits": report.storage_cache_hits,
                                      "misses": report.storage_cache_misses},
                "hit_rates": report.dedup_hit_rates(),
            },
        },
        "contracts": [analysis_to_dict(analysis)
                      for analysis in report.analyses.values()],
        "failures": [failure_to_dict(failure)
                     for failure in report.failures.values()],
    }


def report_to_json(report: LandscapeReport, indent: int | None = 2) -> str:
    """Serialize a sweep to a JSON string."""
    return json.dumps(report_to_dict(report), indent=indent)


# -------------------------------------------------------- deserialization
def dict_to_analysis(record: dict[str, Any]) -> ContractAnalysis:
    """Rebuild a :class:`ContractAnalysis` from its serialized form.

    The inverse of :func:`analysis_to_dict` up to the fields that survive
    serialization — ephemeral inputs (probe calldata, emulation error
    text, collision prototypes, non-colliding reports) are not serialized,
    so the round-trip guarantee is ``analysis_to_dict(dict_to_analysis(d))
    == d``, which is exactly what store resume needs: a resumed sweep
    serializes identically to the uninterrupted one.
    """
    from repro.core.function_collision import (
        FunctionCollision,
        FunctionCollisionReport,
    )
    from repro.core.logic_finder import LogicHistory
    from repro.core.proxy_detector import (
        LogicLocation,
        NotProxyReason,
        ProxyCheck,
    )
    from repro.core.standards import ProxyStandard
    from repro.core.storage_collision import (
        RangeUse,
        StorageCollision,
        StorageCollisionReport,
    )

    address = _unhex(record["address"])
    assert address is not None
    analysis = ContractAnalysis(
        address=address,
        code_hash=_unhex(record["code_hash"]) or b"",
        has_source=record.get("has_source", False),
        has_transactions=record.get("has_transactions", False),
        deploy_block=record.get("deploy_block"),
        deploy_year=record.get("deploy_year"),
    )
    check_record = record.get("check")
    if check_record is not None:
        reason = check_record.get("reason")
        slot = check_record.get("logic_slot")
        analysis.check = ProxyCheck(
            address=address,
            is_proxy=record.get("is_proxy", False),
            reason=NotProxyReason(reason) if reason else None,
            logic_address=_unhex(check_record.get("logic_address")),
            logic_location=LogicLocation(check_record["logic_location"]),
            logic_slot=int(slot, 16) if slot is not None else None,
        )
    if record.get("standard"):
        analysis.standard = ProxyStandard(record["standard"])
    history_record = record.get("logic_history")
    if history_record is not None:
        slot = history_record.get("slot")
        # ``change_points`` only survives as its length (upgrade_count is
        # derived from it); synthesize placeholders to preserve the count.
        upgrades = history_record.get("upgrade_count", 0)
        analysis.logic_history = LogicHistory(
            proxy=address,
            slot=int(slot, 16) if slot is not None else None,
            logic_addresses=[a for a in
                             (_unhex(r) for r in
                              history_record.get("addresses", []))
                             if a is not None],
            change_points=[(0, 0)] * (upgrades + 1) if upgrades else (
                [(0, 0)] if history_record.get("addresses") else []),
            api_calls_used=history_record.get("api_calls_used", 0),
        )
    for row in record.get("function_collisions", []):
        analysis.function_reports.append(FunctionCollisionReport(
            proxy=address,
            logic=_unhex(row.get("logic")),
            collisions=[FunctionCollision(selector=_unhex(s) or b"")
                        for s in row.get("selectors", [])],
            proxy_mode=row.get("proxy_mode", "bytecode"),
            logic_mode=row.get("logic_mode", "bytecode"),
        ))
    for row in record.get("storage_collisions", []):
        collisions = []
        for entry in row.get("collisions", []):
            proxy_start, proxy_end = entry["proxy_range"]
            logic_start, logic_end = entry["logic_range"]
            collisions.append(StorageCollision(
                slot=SlotKey(kind=entry["slot"]["kind"],
                             base=entry["slot"]["base"]),
                proxy_use=RangeUse(offset=proxy_start,
                                   size=proxy_end - proxy_start),
                logic_use=RangeUse(offset=logic_start,
                                   size=logic_end - logic_start),
                kind=entry["kind"],
                sensitive=entry.get("sensitive", False),
                exploitable=entry.get("exploitable", False),
                verified=entry.get("verified", False),
                exploit_selector=_unhex(entry.get("exploit_selector")),
            ))
        analysis.storage_reports.append(StorageCollisionReport(
            proxy=address,
            logic=_unhex(row.get("logic")),
            collisions=collisions,
        ))
    analysis.evidence_digest = record.get("evidence")
    return analysis
