"""Deterministic address partitioning for sharded sweeps.

Two strategies, both pure functions of the address list (and, for
``codehash``, the deployed code), so the same inputs always produce the
same partition.  Either way the merged report is byte-identical to a
serial sweep's: ``summary.dedup`` is replayed over the merged analyses
(:meth:`~repro.core.report.LandscapeReport.replay_dedup`), so the choice
is one of balance against cache locality, not of correctness.

``roundrobin``
    Address *i* goes to shard ``i % shards``.  Perfectly balanced counts,
    but clones of one implementation scatter across shards, so each shard
    pays its own §6.1 dedup cache misses.

``codehash``
    Address goes to shard ``keccak256(code)[-8:] % shards``.  Clone
    families — and therefore the dedup caches' key space — land whole on
    one shard: ``proxy_check`` keys by ``keccak(code)`` directly, and the
    collision caches key by ``(proxy_hash, logic_hash)`` where the proxy
    hash determines the shard.  So the shards between them emulate each
    bytecode once, as the serial sweep does.  The cost is load skew
    proportional to clone-family sizes.  This is the default strategy.

Every shard preserves the relative input order of its members.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.utils.keccak import keccak256

#: Recognised partitioning strategies, in documentation order.
STRATEGIES = ("roundrobin", "codehash")


def _codehash_slot(address: bytes, shards: int,
                   code_of: Callable[[bytes], bytes] | None) -> int:
    code = code_of(address) if code_of is not None else b""
    # Self-destructed / never-deployed addresses have no code to key on;
    # hashing the address keeps the assignment deterministic anyway.
    digest = keccak256(code if code else address)
    return int.from_bytes(digest[-8:], "big") % shards


def shard_addresses(addresses: Sequence[bytes], shards: int,
                    strategy: str = "codehash",
                    code_of: Callable[[bytes], bytes] | None = None,
                    ) -> list[list[bytes]]:
    """Partition ``addresses`` into ``shards`` disjoint ordered lists.

    Every shard preserves the relative order of its members from the
    input list.  ``code_of`` resolves an address to its deployed runtime
    code (required by the ``codehash`` strategy; ignored by
    ``roundrobin``).
    """
    if shards < 1:
        raise ConfigurationError(f"shard count must be >= 1, got {shards}")
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown shard strategy {strategy!r} "
            f"(choose from {', '.join(STRATEGIES)})")
    partitions: list[list[bytes]] = [[] for _ in range(shards)]
    for index, address in enumerate(addresses):
        if strategy == "roundrobin":
            slot = index % shards
        else:
            slot = _codehash_slot(address, shards, code_of)
        partitions[slot].append(address)
    return partitions


__all__ = ["STRATEGIES", "shard_addresses"]
