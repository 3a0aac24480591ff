"""Shared fixtures.

The expensive world-building fixtures (landscape, accuracy corpus) are
session-scoped: generation is deterministic, and the analyses under test
never mutate chain state (they run on overlays), so sharing is safe.
"""

from __future__ import annotations

import contextlib
import sys

import pytest
from hypothesis import settings

# Match the interpreter's recursion headroom up front so hypothesis does not
# observe a mid-test limit change (see repro.evm.interpreter.EVM.execute).
sys.setrecursionlimit(20_000)

from repro.chain.blockchain import Blockchain

# Property tests drive a full interpreter per example; keep example counts
# modest and disable the wall-clock deadline (EVM runs vary with load).
settings.register_profile("repro", max_examples=40, deadline=None)
settings.load_profile("repro")
from repro.corpus.generator import Landscape, generate_landscape
from repro.corpus.ground_truth import AccuracyCorpus, build_accuracy_corpus

ALICE = b"\xaa" * 20
BOB = b"\xbb" * 20
CAROL = b"\xcc" * 20
ETHER = 10 ** 18


@pytest.fixture()
def chain() -> Blockchain:
    """A fresh chain with funded EOAs."""
    fresh = Blockchain()
    for account in (ALICE, BOB, CAROL):
        fresh.fund(account, 10 ** 6 * ETHER)
    return fresh


@pytest.fixture(scope="session")
def landscape() -> Landscape:
    """A small deterministic landscape shared across read-only tests."""
    return generate_landscape(total=220, seed=11)


@pytest.fixture(scope="session")
def accuracy_corpus() -> AccuracyCorpus:
    """A small labelled collision corpus shared across read-only tests."""
    return build_accuracy_corpus(pairs_per_case=4, seed=3)


class ParentKilled(Exception):
    """Raised where a sharded sweep's parent "dies" before its store fold."""


@pytest.fixture()
def parent_killed_before_fold(monkeypatch):
    """Context manager: a stored sharded sweep run inside it loses its
    parent between worker exit and ``_fold_store`` — like a ``kill -9``
    at that point.  What the workers committed is already in the one
    store, for the next ``--incremental`` sweep to restore."""

    def die(*_args):
        raise ParentKilled

    @contextlib.contextmanager
    def killed():
        with monkeypatch.context() as patch:
            patch.setattr("repro.parallel.engine._fold_store", die)
            with pytest.raises(ParentKilled):
                yield

    return killed
