"""Multi-endpoint failover: sticky primary, probation, health scoring.

The guarantee under test is the equivalence matrix's ``failover`` cell
in miniature: with one healthy backend in the fleet, a primary outage loses
zero reads — every answer still matches the ground-truth archive.
"""

from __future__ import annotations

import pytest

from repro.chain.blockchain import Blockchain
from repro.chain.failover import (
    DEFAULT_PROBATION_S,
    EndpointHealth,
    FailoverNode,
    build_failover_node,
)
from repro.chain.faults import OUTAGE, FaultPlan, FaultRule, FaultyNode
from repro.chain.node import ArchiveNode
from repro.chain.resilient import RetryPolicy
from repro.errors import ConfigurationError, DeadlineExceeded
from repro.obs.events import ENDPOINT_FAILOVER, EventRecorder
from repro.lang import compile_contract, stdlib

from tests.conftest import ALICE


class _Sink:
    def __init__(self) -> None:
        self.events = []

    def on_event(self, event) -> None:
        self.events.append(event)


def _world(chain: Blockchain) -> bytes:
    receipt = chain.deploy(ALICE, compile_contract(
        stdlib.simple_wallet("W", ALICE)).init_code)
    assert receipt.success
    return receipt.created_address


def _dead_primary_fleet(chain: Blockchain, sink: _Sink | None = None,
                        ) -> FailoverNode:
    """Endpoint 0 is in a sustained outage; endpoint 1 is healthy."""
    archive = ArchiveNode(chain)
    down = FaultyNode(ArchiveNode(chain, metrics=archive.metrics),
                      FaultPlan(rules=[FaultRule(OUTAGE, window=(0, 10 ** 6))]))
    events = EventRecorder(sinks=(sink,)) if sink is not None else None
    return FailoverNode([down, archive],
                        policy=RetryPolicy(max_attempts=2), events=events)


# ---------------------------------------------------------------- happy path
def test_healthy_fleet_sticks_to_the_primary(chain: Blockchain) -> None:
    wallet = _world(chain)
    node = build_failover_node(ArchiveNode(chain), 3)
    for _ in range(5):
        assert node.get_code(wallet) == ArchiveNode(chain).get_code(wallet)
    assert node.primary == 0
    assert node.endpoints == 3
    assert node.endpoint_health() == [1.0, 1.0, 1.0]
    assert node.metrics.counter_total("chain.failover_switches") == 0


def test_health_score_is_optimistic_before_evidence() -> None:
    health = EndpointHealth()
    assert health.score == 1.0
    health.failures = 1
    assert health.score == 0.0
    health.successes = 3
    assert health.score == pytest.approx(0.75)
    assert not health.on_probation(0.0)
    health.probation_until = 10.0
    assert health.on_probation(9.9) and not health.on_probation(10.0)


# ------------------------------------------------------------------ failover
def test_primary_outage_fails_over_without_losing_the_read(
        chain: Blockchain) -> None:
    wallet = _world(chain)
    sink = _Sink()
    node = _dead_primary_fleet(chain, sink)
    truth = ArchiveNode(chain)

    assert node.get_code(wallet) == truth.get_code(wallet)
    assert node.primary == 1            # switched and stayed
    assert node.metrics.counter_total("chain.failover_switches") == 1
    assert node.endpoint_health()[0] < 1.0
    assert node.endpoint_health()[1] == 1.0

    switches = [event for event in sink.events
                if event.kind == ENDPOINT_FAILOVER]
    assert len(switches) == 1
    assert switches[0].attrs["previous"] == 0
    assert switches[0].attrs["to"] == 1


def test_failover_is_sticky_across_subsequent_reads(
        chain: Blockchain) -> None:
    wallet = _world(chain)
    node = _dead_primary_fleet(chain)
    for _ in range(10):
        node.get_code(wallet)
    # One switch, not one per read: the new primary is sticky while the
    # old one sits on probation (and keeps losing the health contest
    # afterwards).
    assert node.metrics.counter_total("chain.failover_switches") == 1
    assert node.primary == 1


def test_every_endpoint_down_surfaces_the_last_error(
        chain: Blockchain) -> None:
    wallet = _world(chain)
    archive = ArchiveNode(chain)
    plan = FaultPlan(rules=[FaultRule(OUTAGE, window=(0, 10 ** 6))])
    node = FailoverNode(
        [FaultyNode(ArchiveNode(chain, metrics=archive.metrics), plan),
         FaultyNode(ArchiveNode(chain, metrics=archive.metrics), plan)],
        policy=RetryPolicy(max_attempts=2))
    with pytest.raises(DeadlineExceeded):
        node.get_code(wallet)
    assert all(score < 1.0 for score in node.endpoint_health())


def test_health_gauges_track_scores(chain: Blockchain) -> None:
    wallet = _world(chain)
    node = _dead_primary_fleet(chain)
    node.get_code(wallet)
    gauge = node.metrics.gauge("chain.endpoint_health", endpoint="0")
    assert gauge.value < 1.0
    assert node.metrics.gauge("chain.endpoint_health",
                              endpoint="1").value == 1.0


# --------------------------------------------------------------- construction
def test_build_failover_node_rejects_zero_endpoints(
        chain: Blockchain) -> None:
    with pytest.raises(ConfigurationError):
        build_failover_node(ArchiveNode(chain), 0)
    with pytest.raises(ConfigurationError):
        FailoverNode([])


def test_build_failover_node_shares_chain_and_metrics(
        chain: Blockchain) -> None:
    base = ArchiveNode(chain)
    node = build_failover_node(base, 2)
    assert node.chain is chain
    assert node.metrics is base.metrics
    assert node.probation_s == DEFAULT_PROBATION_S


def test_build_failover_node_chaos_wraps_only_the_primary(
        chain: Blockchain) -> None:
    wallet = _world(chain)
    node = build_failover_node(ArchiveNode(chain), 2, chaos="outage")
    truth = ArchiveNode(chain)
    # The canned outage strikes endpoint 0 mid-sweep; the fleet absorbs
    # it — every read of a long scan still answers correctly.
    for _ in range(60):
        assert node.get_code(wallet) == truth.get_code(wallet)
        assert node.is_alive(wallet) is True
