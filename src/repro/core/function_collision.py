"""Function-collision detection (§5.1).

A function collision exists when the proxy and the logic contract both
expose a function with the same 4-byte selector: the proxy's dispatcher
swallows the call, so the logic's function is unreachable — and possibly
maliciously shadowed (the Listing-1 honeypot).

Selector sets are obtained per contract from the best available source:

* **source mode** — the verified source's prototypes, hashed (what
  Slither/USCHunt do);
* **bytecode mode** — the dispatcher-pattern extraction of
  :func:`~repro.core.signature_extractor.dispatcher_selectors`, the paper's
  novel capability (no prior tool detected function collisions from
  bytecode alone, Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.explorer import SourceRegistry
from repro.core.signature_extractor import dispatcher_selectors
from repro.obs import provenance
from repro.obs.provenance import NULL_TRAIL, EvidenceTrail
from repro.utils.abi import function_selector


@dataclass(frozen=True, slots=True)
class FunctionCollision:
    """One colliding selector, with prototypes when source names them."""

    selector: bytes
    proxy_prototype: str | None = None
    logic_prototype: str | None = None


@dataclass(slots=True)
class FunctionCollisionReport:
    """All function collisions of one proxy/logic pair."""

    proxy: bytes | None
    logic: bytes | None
    collisions: list[FunctionCollision] = field(default_factory=list)
    proxy_mode: str = "bytecode"   # "source" | "bytecode"
    logic_mode: str = "bytecode"

    @property
    def has_collision(self) -> bool:
        return bool(self.collisions)


def _selector_map_from_source(prototypes: tuple[str, ...]) -> dict[bytes, str]:
    return {function_selector(prototype): prototype for prototype in prototypes}


class FunctionCollisionDetector:
    """Cross-checks proxy and logic selector sets."""

    def __init__(self, registry: SourceRegistry | None = None, *,
                 selector_cache: dict[bytes, tuple[bytes, ...]] | None = None,
                 ) -> None:
        # ``registry or ...`` would discard an *empty* registry (it defines
        # __len__), silently detaching the detector from later verifications.
        self._registry = registry if registry is not None else SourceRegistry()
        # Codehash-keyed cache of mined dispatcher selector sets — a
        # repro.store binding passes its write-through dict here, making
        # the paper's bytecode extraction a durable hash-keyed fact.
        # Only the bytecode mode caches: source mode is address-dependent.
        # The key is the codehash the caller already holds; a call
        # without one mines uncached rather than rehash the bytecode.
        self._selector_cache = selector_cache

    def selector_map(self, code: bytes,
                     address: bytes | None = None,
                     code_hash: bytes | None = None,
                     ) -> tuple[dict[bytes, str | None], str]:
        """Selector → prototype-or-None for one contract, plus the mode."""
        source = self._registry.resolve(address, code) if address or code else None
        if source is not None:
            named = _selector_map_from_source(source.function_prototypes)
            return dict(named), "source"
        if self._selector_cache is not None and code_hash is not None:
            selectors = self._selector_cache.get(code_hash)
            if selectors is None:
                # Canonical (sorted) order: the stored fact must be
                # byte-stable across writers despite randomized bytes
                # hashing; collision output is sorted downstream anyway.
                selectors = tuple(sorted(dispatcher_selectors(code)))
                self._selector_cache[code_hash] = selectors
            return {selector: None for selector in selectors}, "bytecode"
        return {selector: None for selector in dispatcher_selectors(code)}, "bytecode"

    def detect(self, proxy_code: bytes, logic_code: bytes,
               proxy_address: bytes | None = None,
               logic_address: bytes | None = None,
               trail: EvidenceTrail = NULL_TRAIL, *,
               proxy_hash: bytes | None = None,
               logic_hash: bytes | None = None) -> FunctionCollisionReport:
        """Pairwise selector cross-check of a proxy/logic pair.

        ``trail`` records each side's selector provenance (verified-source
        prototypes vs the bytecode dispatcher pattern) and every colliding
        selector with its prototypes when source names them.
        ``proxy_hash``/``logic_hash`` are the two codehashes, which key
        the selector cache (the pipeline already holds them for its pair
        key).
        """
        proxy_map, proxy_mode = self.selector_map(proxy_code, proxy_address,
                                                  proxy_hash)
        logic_map, logic_mode = self.selector_map(logic_code, logic_address,
                                                  logic_hash)
        trail.note(provenance.FUNCTION_SELECTORS, side="proxy",
                   mode=proxy_mode, count=len(proxy_map))
        trail.note(provenance.FUNCTION_SELECTORS, side="logic",
                   mode=logic_mode, count=len(logic_map))

        collisions = [
            FunctionCollision(
                selector=selector,
                proxy_prototype=proxy_map[selector],
                logic_prototype=logic_map[selector],
            )
            for selector in sorted(proxy_map.keys() & logic_map.keys())
        ]
        for collision in collisions:
            trail.note(provenance.FUNCTION_COLLISION,
                       selector="0x" + collision.selector.hex(),
                       proxy_prototype=collision.proxy_prototype,
                       logic_prototype=collision.logic_prototype)
        return FunctionCollisionReport(
            proxy=proxy_address,
            logic=logic_address,
            collisions=collisions,
            proxy_mode=proxy_mode,
            logic_mode=logic_mode,
        )
