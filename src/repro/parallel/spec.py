"""Pickle-able sweep specifications: how a worker rebuilds its world.

``multiprocessing`` workers cannot share the parent's simulated chain under
the ``spawn`` start method, so a sharded sweep ships each worker a
:class:`SweepSpec` — a small frozen value object naming everything needed
to reconstruct the node/registry/dataset stack deterministically:

* the landscape parameters (``total``, ``seed``, ``chain`` profile name) —
  :func:`repro.corpus.generator.generate_landscape` is fully deterministic
  for these, so every worker materializes *the same* world the parent has;
* the :class:`~repro.core.pipeline.ProxionOptions` feature switches;
* the optional chaos layering (canned fault-plan name + seed), rebuilt via
  :func:`repro.chain.faults.build_chaos_stack` so `--chaos` composes with
  `--workers` exactly like it does with the serial sweep.

Under the ``fork`` start method the engine passes the parent's
already-generated world to the children for free (copy-on-write); the spec
is still the source of truth — a worker that receives no inherited world,
or one generated from different parameters, rebuilds from the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.pipeline import Proxion, ProxionOptions


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """Everything a worker needs to rebuild its analyzer stack."""

    total: int
    seed: int
    chain: str = "ethereum"
    options: ProxionOptions = field(default_factory=ProxionOptions)
    chaos: str | None = None
    chaos_seed: int = 1337
    #: Number of RPC backends per worker; > 1 fronts the chain with a
    #: :class:`~repro.chain.failover.FailoverNode` (chaos then strikes
    #: only the primary endpoint — the failover absorbs it).
    rpc_endpoints: int = 1

    def world_key(self) -> tuple[int, int, str]:
        """The identity of the deterministic landscape this spec names."""
        return (self.total, self.seed, self.chain)

    # ------------------------------------------------------- rebuild hooks
    def build_world(self):
        """Regenerate the landscape (deterministic for this spec)."""
        from repro.chain.profiles import get_profile
        from repro.corpus.generator import generate_landscape

        return generate_landscape(total=self.total, seed=self.seed,
                                  chain_profile=get_profile(self.chain))

    def build_node(self, world, events=None):
        """A *fresh* node stack over ``world``'s chain.

        Fresh means a private :class:`~repro.chain.node.ArchiveNode` (and
        so a private metrics registry): workers never mutate an inherited
        node's counters, and per-shard metrics merge cleanly.  The chaos
        sandwich, when configured, wraps it exactly like ``survey
        --chaos`` does.  ``events`` (an
        :class:`~repro.obs.events.EventRecorder`, optional) is threaded
        into the resilient layer so the flight recorder sees breaker and
        retry events from inside the worker.
        """
        from repro.chain.failover import build_failover_node
        from repro.chain.faults import build_chaos_stack
        from repro.chain.node import ArchiveNode

        node = ArchiveNode(world.chain,
                           call_instruction_budget=(
                               world.node.call_instruction_budget))
        if self.rpc_endpoints > 1:
            # Failover carries its own retry/breaker machinery; chaos (if
            # any) wraps only the primary endpoint inside the fleet.
            return build_failover_node(node, self.rpc_endpoints,
                                       chaos=self.chaos,
                                       chaos_seed=self.chaos_seed,
                                       events=events)
        if self.chaos is not None:
            return build_chaos_stack(node, self.chaos, seed=self.chaos_seed,
                                     events=events)
        return node

    def build_proxion(self, world, events=None, audit=None,
                      store=None) -> Proxion:
        """The full per-worker analyzer, options applied.

        ``audit`` (an :class:`~repro.obs.provenance.AuditDir` or path)
        turns on verdict provenance: the worker records a
        ``repro.evidence/1`` trail per contract and persists it there.
        Shards partition the address list, so workers share one audit
        directory without coordination — each contract has exactly one
        writer.

        ``store`` (a :class:`~repro.store.StoreBinding`, optional) makes
        the worker's dedup caches durable — in a sharded sweep every
        worker binds to the sweep's one store
        (:func:`~repro.store.open_worker_binding`) and commits into it
        beside the others.
        """
        return Proxion.from_node(self.build_node(world, events=events),
                                 registry=world.registry,
                                 dataset=world.dataset,
                                 options=self.options,
                                 events=events,
                                 audit=audit,
                                 store=store)


__all__ = ["SweepSpec"]
