"""Deterministic merging of per-shard landscape reports."""

from __future__ import annotations

import pytest

from repro.core.pipeline import Proxion, ProxionOptions
from repro.core.report import ContractAnalysis, ContractFailure, LandscapeReport
from repro.corpus.generator import generate_landscape
from repro.errors import ConfigurationError
from repro.landscape import merge_reports, report_to_json
from repro.parallel import shard_addresses


def _analysis(tag: bytes) -> ContractAnalysis:
    address = tag.ljust(20, b"\x00")
    return ContractAnalysis(address=address, code_hash=tag.ljust(32, b"\x11"))


def _failure(tag: bytes) -> ContractFailure:
    return ContractFailure(address=tag.ljust(20, b"\x00"),
                           cause="rpc_timeout", error="boom",
                           stage="analysis")


def _report(analyses=(), failures=()) -> LandscapeReport:
    report = LandscapeReport()
    for analysis in analyses:
        report.add(analysis)
    for failure in failures:
        report.add_failure(failure)
    return report


def test_overlapping_analyzed_address_is_rejected() -> None:
    shared = _analysis(b"\x01")
    with pytest.raises(ConfigurationError, match="overlapping shards"):
        merge_reports([_report([shared]), _report([shared])])


def test_overlap_between_analysis_and_failure_is_rejected() -> None:
    # One shard analyzed it, another quarantined it: still a partition bug.
    with pytest.raises(ConfigurationError, match="overlapping shards"):
        merge_reports([_report([_analysis(b"\x01")]),
                       _report(failures=[_failure(b"\x01")])])


def test_failure_records_are_preserved() -> None:
    failure = _failure(b"\x02")
    merged = merge_reports([_report([_analysis(b"\x01")]),
                            _report(failures=[failure])])
    assert merged.failures[failure.address] is failure
    assert len(merged.analyses) == 1


def test_order_reorders_and_skips_unanalyzed_addresses() -> None:
    first, second = _analysis(b"\x01"), _analysis(b"\x02")
    dead = b"\xde\xad".ljust(20, b"\x00")
    merged = merge_reports([_report([second]), _report([first])],
                           order=[first.address, dead, second.address])
    assert list(merged.analyses) == [first.address, second.address]


def test_order_missing_an_analyzed_address_is_an_error() -> None:
    known, orphan = _analysis(b"\x01"), _analysis(b"\x02")
    with pytest.raises(ConfigurationError, match="missing 1 analyzed"):
        merge_reports([_report([known, orphan])], order=[known.address])


def test_merged_serialization_matches_serial_sweep() -> None:
    """§7 equivalence: codehash-sharded partial sweeps merge byte-identically.

    Runs the real pipeline over an 80-contract landscape twice — once
    serially, once as four independent codehash shards merged back — and
    compares the full serialized reports, the dedup block replayed over
    the merged analyses included.
    """
    world = generate_landscape(total=80, seed=11)
    addresses = world.addresses()

    serial = Proxion.from_chain(world.chain, registry=world.registry,
                                dataset=world.dataset).analyze_all(addresses)

    partitions = shard_addresses(addresses, 4, "codehash",
                                 code_of=world.chain.state.get_code)
    partials = []
    for partition in partitions:
        proxion = Proxion.from_chain(world.chain, registry=world.registry,
                                     dataset=world.dataset)
        partials.append(proxion.analyze_all(partition))
    merged = merge_reports(partials, order=addresses)
    merged.replay_dedup(world.chain.state.get_code, ProxionOptions())

    assert report_to_json(merged) == report_to_json(serial)
