"""Chaos suite: the sweep's results survive injected faults.

The three guarantees of docs/robustness.md:

1. a transient fault plan behind the resilient layer yields a report
   **byte-identical** to the fault-free sweep (dedup counters included),
   while the metrics prove the faults actually fired;
2. a sustained outage degrades gracefully — unreachable contracts are
   quarantined with classified causes, nothing is silently lost, the
   sweep never raises;
3. a sweep killed partway resumes from its store into the same report,
   byte for byte, even behind a faulty endpoint.
"""

from __future__ import annotations

import pytest

from repro.chain.faults import FaultyNode, canned_plan
from repro.chain.resilient import ResilientNode
from repro.core.pipeline import Proxion
from repro.corpus.generator import generate_landscape
from repro.landscape.serialize import report_to_json
from repro.store import attach_store


@pytest.fixture(scope="module")
def world():
    return generate_landscape(total=60, seed=9)


def _fault_free_report(world):
    return Proxion(world.node, registry=world.registry, dataset=world.dataset).analyze_all()


def test_transient_plan_is_byte_identical_to_fault_free(world) -> None:
    baseline = _fault_free_report(world)

    world.node.metrics.reset()
    node = ResilientNode(FaultyNode(world.node, canned_plan("transient",
                                                            seed=5)),
                         seed=1, sleep=None)
    proxion = Proxion(node, registry=world.registry, dataset=world.dataset)
    chaotic = proxion.analyze_all()

    assert report_to_json(chaotic) == report_to_json(baseline)
    registry = world.node.metrics
    injected = sum(int(c.value) for c in
                   registry.counters_named("faults.injected").values())
    retries = sum(int(c.value) for c in
                  registry.counters_named("resilience.retries").values())
    assert injected > 0, "the plan never fired — vacuous equivalence"
    assert retries == injected
    assert not chaotic.failures
    registry.reset()


def test_sustained_outage_quarantines_instead_of_raising(world) -> None:
    baseline = _fault_free_report(world)

    world.node.metrics.reset()
    node = ResilientNode(FaultyNode(world.node, canned_plan("outage",
                                                            seed=5)),
                         seed=1, sleep=None)
    proxion = Proxion(node, registry=world.registry, dataset=world.dataset)
    report = proxion.analyze_all()          # must not raise

    assert report.failures, "the outage quarantined nothing"
    # Conservation: every contract the healthy sweep analyzed is either
    # analyzed or quarantined here — none silently dropped.
    assert set(baseline.analyses) <= (set(report.analyses)
                                      | set(report.failures))
    causes = set(report.quarantine_census())
    assert causes <= {"circuit-open", "deadline-exceeded",
                      "transient-outage"}
    quarantined = sum(int(c.value) for c in world.node.metrics
                      .counters_named("pipeline.quarantined").values())
    assert quarantined == len(report.failures)
    world.node.metrics.reset()


def test_checkpointed_sweep_resumes_to_the_same_report(tmp_path,
                                                       world) -> None:
    """The store checkpoints every settled contract: kill a sweep halfway,
    resume it in a fresh process behind a transient fault plan, and the
    report is the uninterrupted one, ``summary.dedup`` included."""
    addresses = world.dataset.addresses()
    path = str(tmp_path / "sweep.store")

    uninterrupted = _fault_free_report(world)

    class Killed(Exception):
        pass

    def die_halfway(settled: int) -> None:
        if settled == len(addresses) // 2:
            raise Killed

    # First process: killed once half the address list has committed.
    with attach_store(path) as binding, pytest.raises(Killed):
        Proxion(world.node, registry=world.registry, dataset=world.dataset,
                store=binding).analyze_all(addresses,
                                           on_settled=die_halfway)

    # Second process: fresh Proxion (cold caches), resumes the full list
    # while the fault plan strikes the tail it re-analyzes.
    world.node.metrics.reset()
    node = ResilientNode(FaultyNode(world.node, canned_plan("transient",
                                                            seed=5)),
                         seed=1, sleep=None)
    with attach_store(path, incremental=True) as binding:
        resumed = Proxion(node, registry=world.registry,
                          dataset=world.dataset,
                          store=binding).analyze_all(addresses)

    registry = world.node.metrics
    restored = sum(int(c.value) for c in registry.counters_named(
        "pipeline.store_restored_contracts").values())
    injected = sum(int(c.value) for c in
                   registry.counters_named("faults.injected").values())
    assert restored > 0, "nothing was restored from the store"
    assert injected > 0, "the plan never fired — vacuous equivalence"
    assert report_to_json(resumed) == report_to_json(uninterrupted)
    registry.reset()


def test_flaky_plan_with_latency_still_matches(world) -> None:
    baseline = _fault_free_report(world)

    world.node.metrics.reset()
    node = ResilientNode(FaultyNode(world.node, canned_plan("flaky",
                                                            seed=13)),
                         seed=2, sleep=None)
    report = Proxion(node, registry=world.registry, dataset=world.dataset).analyze_all()
    assert report_to_json(report) == report_to_json(baseline)
    world.node.metrics.reset()
