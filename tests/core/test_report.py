"""ContractAnalysis / LandscapeReport record semantics."""

from __future__ import annotations

from repro.core.function_collision import FunctionCollision, FunctionCollisionReport
from repro.core.logic_finder import LogicHistory
from repro.core.pipeline import ProxionOptions
from repro.core.proxy_detector import NotProxyReason, ProxyCheck
from repro.core.report import ContractAnalysis, LandscapeReport
from repro.core.standards import ProxyStandard
from repro.core.storage_collision import (
    RangeUse,
    StorageCollision,
    StorageCollisionReport,
)
from repro.core.symexec import SlotKey

ADDR = b"\x01" * 20
HASH = b"\x02" * 32


def _analysis(**kwargs) -> ContractAnalysis:
    defaults = dict(address=ADDR, code_hash=HASH)
    defaults.update(kwargs)
    return ContractAnalysis(**defaults)


def test_hidden_requires_neither_source_nor_tx() -> None:
    assert _analysis().is_hidden
    assert not _analysis(has_source=True).is_hidden
    assert not _analysis(has_transactions=True).is_hidden


def test_is_proxy_requires_check() -> None:
    assert not _analysis().is_proxy
    positive = ProxyCheck(ADDR, True)
    assert _analysis(check=positive).is_proxy


def test_emulation_failed_flag() -> None:
    failed = ProxyCheck(ADDR, False, NotProxyReason.EMULATION_ERROR)
    clean = ProxyCheck(ADDR, False, NotProxyReason.NO_FORWARD)
    assert _analysis(check=failed).emulation_failed
    assert not _analysis(check=clean).emulation_failed


def test_collision_flags() -> None:
    colliding = FunctionCollisionReport(
        proxy=ADDR, logic=ADDR,
        collisions=[FunctionCollision(b"\x00" * 4)])
    empty = FunctionCollisionReport(proxy=ADDR, logic=ADDR)
    analysis = _analysis(function_reports=[empty, colliding])
    assert analysis.has_function_collision

    verified = StorageCollisionReport(
        proxy=ADDR, logic=ADDR,
        collisions=[StorageCollision(
            slot=SlotKey.concrete(0),
            proxy_use=RangeUse(0, 20),
            logic_use=RangeUse(0, 32),
            kind="layout-mismatch",
            verified=True)])
    analysis = _analysis(storage_reports=[verified])
    assert analysis.has_storage_collision
    assert analysis.has_verified_storage_exploit


def test_landscape_report_counters() -> None:
    report = LandscapeReport()
    proxy_check = ProxyCheck(ADDR, True)
    report.add(_analysis(check=proxy_check, standard=ProxyStandard.EIP1167))
    report.add(_analysis(address=b"\x02" * 20))
    report.add(_analysis(
        address=b"\x03" * 20,
        check=ProxyCheck(b"\x03" * 20, False,
                         NotProxyReason.EMULATION_ERROR)))
    assert len(report) == 3
    assert len(report.proxies()) == 1
    assert len(report.hidden_proxies()) == 1
    assert abs(report.emulation_failure_rate() - 1 / 3) < 1e-9
    assert report.standards_census() == {ProxyStandard.EIP1167: 1}


def test_replay_dedup_keys_collision_pairs_by_logic_code() -> None:
    """Byte-identical logic code behind one proxy codehash is one pair: a
    miss, then a hit.  A logic address without code counts nothing."""
    twin_a, twin_b, empty = b"\x0a" * 20, b"\x0b" * 20, b"\x0c" * 20
    code = {twin_a: b"\x60\x00", twin_b: b"\x60\x00"}
    report = LandscapeReport()
    report.add(_analysis(logic_history=LogicHistory(
        proxy=ADDR, slot=0, logic_addresses=[twin_a, twin_b, empty])))
    report.replay_dedup(lambda address: code.get(address, b""),
                        ProxionOptions())
    assert (report.proxy_check_cache_hits,
            report.proxy_check_cache_misses) == (0, 1)
    assert (report.function_cache_hits, report.function_cache_misses,
            report.storage_cache_hits, report.storage_cache_misses) \
        == (1, 1, 1, 1)


def test_empty_report() -> None:
    report = LandscapeReport()
    assert len(report) == 0
    assert report.emulation_failure_rate() == 0.0
    assert report.proxies() == []
    assert report.standards_census() == {}
    assert report.function_collision_pairs() == 0


def test_range_use_geometry() -> None:
    full = RangeUse(0, 32)
    owner = RangeUse(0, 20)
    flag = RangeUse(0, 1)
    tail = RangeUse(20, 12)
    assert full.overlaps(owner) and owner.overlaps(full)
    assert owner.overlaps(flag)
    assert not owner.overlaps(tail)
    assert owner.same_range(RangeUse(0, 20, type_name="address"))
    assert not owner.same_range(flag)
