"""The paper's numbers, pinned exactly.

Table 2 (collision-detection accuracy, both methodologies) and §6.1
(``getStorageAt`` calls per storage proxy) are the reproduction's two
headline numbers; Table 3, Table 4, Figure 5 and the sweep's
``summary.dedup`` block come from the same 700-contract landscape the
benchmarks sweep.  This module regenerates them through the library calls
that ``benchmarks/bench_table2_accuracy.py``,
``benchmarks/bench_sec61_performance.py``, the Table 3/4 and Figure 5
benches and ``benchmarks/conftest.py``'s ``sweep`` fixture make, and
compares them with ``paper_numbers.json`` exactly, with no tolerance.  A
change that moves one of them updates the golden file and says why.
Timings are not pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.logic_finder import LogicFinder
from repro.core.pipeline import DEDUP_CACHES, Proxion
from repro.core.proxy_detector import ProxyDetector
from repro.corpus.generator import generate_landscape
from repro.corpus.ground_truth import build_accuracy_corpus
from repro.landscape.accuracy import table2
from repro.landscape.serialize import report_to_dict
from repro.landscape.survey import (
    figure5_duplicates,
    table3_collisions_by_year,
    table4_standards,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "paper_numbers.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def corpus():
    return build_accuracy_corpus(pairs_per_case=10, seed=2024)


@pytest.fixture(scope="module")
def landscape():
    """The benchmarks' 700-contract landscape."""
    return generate_landscape(total=700, seed=2024)


@pytest.fixture(scope="module")
def sweep(landscape):
    """One full serial sweep of it, as ``benchmarks/conftest.py`` runs."""
    return Proxion(landscape.node, registry=landscape.registry,
                   dataset=landscape.dataset).analyze_all()


@pytest.mark.parametrize("methodology", ["union", "all"])
def test_table2_rows_match_the_golden_file(corpus, methodology: str) -> None:
    rows = {collision_type: {tool: matrix.row()
                             for tool, matrix in tools.items()}
            for collision_type, tools in table2(corpus, methodology).items()}
    assert rows == GOLDEN["table2"][methodology]


def test_sec61_getstorageat_per_storage_proxy_matches_the_golden_file(
        landscape) -> None:
    detector = ProxyDetector(landscape.chain.state,
                             landscape.chain.block_context())
    storage_proxies = []
    for address, truth in landscape.truths.items():
        if truth.is_proxy and truth.standard in ("Others", "EIP-1967",
                                                 "EIP-1822"):
            check = detector.check(address)
            if check.is_proxy and check.logic_slot is not None:
                storage_proxies.append(check)
    finder = LogicFinder(landscape.node)
    calls = [finder.find(check).api_calls_used for check in storage_proxies]
    assert {"storage_proxies": len(calls),
            "getstorageat_calls": sum(calls),
            "max_calls_per_proxy": max(calls)} \
        == GOLDEN["sec61_getstorageat"]


def test_table3_collisions_by_year_match_the_golden_file(sweep) -> None:
    table = table3_collisions_by_year(sweep)
    assert {"function_by_year": {str(year): count for year, count
                                 in table.function_by_year.items()},
            "storage_by_year": {str(year): count for year, count
                                in table.storage_by_year.items()},
            "duplicate_share": round(table.duplicate_share, 4)} \
        == GOLDEN["table3"]


def test_table4_standards_census_matches_the_golden_file(sweep) -> None:
    assert {standard: count for standard, (count, _)
            in table4_standards(sweep).items()} == GOLDEN["table4"]


def test_fig5_duplicate_census_matches_the_golden_file(sweep,
                                                       landscape) -> None:
    census = figure5_duplicates(sweep, landscape.node)
    assert {"unique_proxy_bytecodes": census.unique_proxies,
            "proxy_instances": census.total_proxies,
            "top3_proxy_share": round(census.top_proxy_share(3), 4)} \
        == GOLDEN["fig5"]


def test_sweep_dedup_block_matches_the_golden_file(sweep) -> None:
    dedup = report_to_dict(sweep)["summary"]["dedup"]
    assert {cache: dedup[cache] for cache in DEDUP_CACHES} == GOLDEN["dedup"]
