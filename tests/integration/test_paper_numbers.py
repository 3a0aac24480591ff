"""The paper's two headline numbers, pinned exactly.

Table 2 (collision-detection accuracy, both methodologies) and §6.1
(``getStorageAt`` calls per storage proxy) are what the reproduction
reproduces.  This module regenerates them through the library calls that
``benchmarks/bench_table2_accuracy.py`` and
``benchmarks/bench_sec61_performance.py`` make, and compares them with
``paper_numbers.json`` exactly, with no tolerance.  A change that moves
one of them updates the golden file and says why.  Timings are not
pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.logic_finder import LogicFinder
from repro.core.proxy_detector import ProxyDetector
from repro.corpus.generator import generate_landscape
from repro.corpus.ground_truth import build_accuracy_corpus
from repro.landscape.accuracy import table2

GOLDEN = json.loads(
    (Path(__file__).parent / "paper_numbers.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def corpus():
    return build_accuracy_corpus(pairs_per_case=10, seed=2024)


@pytest.mark.parametrize("methodology", ["union", "all"])
def test_table2_rows_match_the_golden_file(corpus, methodology: str) -> None:
    rows = {collision_type: {tool: matrix.row()
                             for tool, matrix in tools.items()}
            for collision_type, tools in table2(corpus, methodology).items()}
    assert rows == GOLDEN["table2"][methodology]


def test_sec61_getstorageat_per_storage_proxy_matches_the_golden_file(
        ) -> None:
    landscape = generate_landscape(total=700, seed=2024)
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
