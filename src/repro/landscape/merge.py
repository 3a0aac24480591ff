"""Deterministic merging of per-shard :class:`LandscapeReport` objects.

The sharded sweep engine (:mod:`repro.parallel`) analyzes disjoint address
partitions in separate workers and folds the partial reports back into one.
The merge is *deterministic*: given ``order`` (the original sweep's full
address list), analyses and failures are re-emitted in exactly the order
the serial sweep would have produced.  It carries no dedup counters: the
caller replays ``summary.dedup`` over the merged analyses
(:meth:`~repro.core.report.LandscapeReport.replay_dedup`), which makes the
merged report serialize byte-identically to ``Proxion.analyze_all`` over
the same addresses, whatever the partition.

Shards must be disjoint: an address appearing in more than one partial
report (whether analyzed or quarantined) is a partitioning bug, and the
merge refuses it loudly instead of silently letting one shard's verdict
shadow another's.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.report import ContractAnalysis, ContractFailure, LandscapeReport
from repro.errors import ConfigurationError


def merge_reports(reports: Iterable[LandscapeReport],
                  order: Sequence[bytes] | None = None) -> LandscapeReport:
    """Fold disjoint partial reports into one :class:`LandscapeReport`.

    ``order`` — normally the sweep's full address list — fixes the
    iteration order of the merged ``analyses``/``failures`` mappings;
    addresses absent from every partial report (dead contracts) are
    skipped.  Without ``order``, partial reports concatenate in the given
    sequence.  The merged report's dedup fields are left at zero.

    Raises :class:`~repro.errors.ConfigurationError` when two partial
    reports claim the same address.
    """
    reports = list(reports)
    analyses: dict[bytes, ContractAnalysis] = {}
    failures: dict[bytes, ContractFailure] = {}

    for index, report in enumerate(reports):
        for address in report.analyses.keys() | report.failures.keys():
            if address in analyses or address in failures:
                raise ConfigurationError(
                    f"overlapping shards: address 0x{address.hex()} appears "
                    f"in more than one partial report (second occurrence in "
                    f"report #{index}) — shard partitions must be disjoint")
        analyses.update(report.analyses)
        failures.update(report.failures)

    merged = LandscapeReport()
    if order is not None:
        known = analyses.keys() | failures.keys()
        missing = known - set(order)
        if missing:
            sample = next(iter(missing))
            raise ConfigurationError(
                f"merge order is missing {len(missing)} analyzed "
                f"address(es), e.g. 0x{sample.hex()} — pass the sweep's "
                f"full address list")
        for address in order:
            if address in analyses:
                merged.add(analyses[address])
            elif address in failures:
                merged.add_failure(failures[address])
    else:
        for analysis in analyses.values():
            merged.add(analysis)
        for failure in failures.values():
            merged.add_failure(failure)
    return merged


__all__ = ["merge_reports"]
