"""Continuous deployment monitoring — ProxioN as a protective service.

The paper analyzes a chain snapshot; the natural production deployment is a
*monitor* that analyzes every new contract as it lands and raises alerts
before users interact with it (the honeypot in Listing 1 is only dangerous
until someone flags it).  :class:`DeploymentMonitor` keeps a cursor over
the chain, discovers contracts deployed since the last poll (external and
factory-internal creations alike), runs the full per-contract analysis, and
emits typed alerts:

* ``hidden-proxy`` — a proxy with no source and no transactions appeared;
* ``function-collision`` / ``honeypot`` — colliding selectors, the latter
  when the behavioural probe sees value routed away from the caller;
* ``storage-collision`` / ``verified-exploit`` — layout conflicts, the
  latter with a synthesized exploit that actually fires;
* ``reorg`` — the branch under the monitor's cursor changed: verdicts for
  orphaned deployments were rolled back and the winning branch re-scanned.

The monitor's cursor is not a bare block number but a *block-hash ancestry
ring*: each poll first verifies that the most recently scanned blocks still
hash the same on the chain.  A mismatch means a reorganization happened
between polls — the monitor walks back to the deepest common ancestor,
invalidates instance-keyed store facts for deployments that only existed on
the orphaned branch (hash-keyed facts survive: code is code on any branch),
and re-scans the winning branch in the same poll.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.core.honeypot import HoneypotClassifier
from repro.core.pipeline import Proxion
from repro.core.report import ContractAnalysis
from repro.obs.events import CHAIN_REORG

# How many recently scanned (block number, hash) pairs the monitor retains
# for divergence detection.  Deeper than the chain's own undo capacity, so
# any reorg the chain can express is one the monitor can locate an ancestor
# for.
ANCESTRY_CAPACITY = 128


@dataclass(frozen=True, slots=True)
class Alert:
    """One monitor finding."""

    kind: str              # hidden-proxy | function-collision | honeypot |
    #                        storage-collision | verified-exploit | reorg
    address: bytes
    block_number: int
    detail: str

    def __str__(self) -> str:
        return (f"[block {self.block_number}] {self.kind}: "
                f"0x{self.address.hex()} — {self.detail}")


@dataclass(slots=True)
class MonitorStats:
    """Counters across the monitor's lifetime."""

    contracts_seen: int = 0
    proxies_seen: int = 0
    blocks_scanned: int = 0
    polls: int = 0
    reorgs: int = 0
    alerts: list[Alert] = field(default_factory=list)


class DeploymentMonitor:
    """Analyzes new deployments as blocks arrive.

    Alert and scan counters also land in the pipeline's metrics registry
    (``monitor.blocks_scanned``, ``monitor.alerts{kind=...}``,
    ``monitor.poll_lag``) so a scraped monitor is observable without
    reaching into :attr:`stats`.
    """

    def __init__(self, proxion: Proxion,
                 classify_honeypots: bool = True) -> None:
        self._proxion = proxion
        self._classify_honeypots = classify_honeypots
        self._cursor = 0          # last processed block
        # Index into ``chain.blocks`` of the first unscanned entry; blocks
        # are append-only between reorgs, so poll cost stays proportional to
        # *new* blocks instead of re-walking the whole chain every poll.
        self._block_index = 0
        # Address -> block number it was discovered in.  The block number is
        # what lets a reorg invalidate exactly the deployments that only
        # existed past the common ancestor.
        self._seen: dict[bytes, int] = {}
        # Ring of (block number, block hash) for recently scanned records.
        self._ancestry: list[tuple[int, bytes]] = []
        self.stats = MonitorStats()
        self._metrics = proxion.metrics
        self._events = proxion.events
        self._blocks_scanned = self._metrics.counter("monitor.blocks_scanned")
        self._poll_lag = self._metrics.gauge("monitor.poll_lag")
        self._reorgs = self._metrics.counter("monitor.reorgs")

    # ----------------------------------------------------------------- poll
    def catch_up(self) -> int:
        """Skip history: start following from the current chain head.

        The serve daemon attaches a monitor to a chain whose past is
        already settled in the durable store — re-analyzing every
        historical block at startup would duplicate that work (and
        clobber the store's instance rows with identical writes).  Moves
        the cursor to the head and returns how many blocks were skipped.

        Safe at any cursor position: already at the tip it is a no-op
        returning 0, and after an external rollback shrank the chain below
        the cursor it re-anchors at the new (lower) tip instead of leaving
        a dangling cursor.
        """
        chain = self._proxion.node.chain
        skipped = max(0, len(chain.blocks) - self._block_index)
        self._block_index = len(chain.blocks)
        self._cursor = chain.latest_block_number
        # Re-anchor the ancestry ring on the branch we just skipped to, so
        # the first poll can tell a subsequent reorg from plain new blocks.
        self._ancestry = [(block.number, block.hash)
                          for block in chain.blocks[-ANCESTRY_CAPACITY:]]
        return skipped

    def poll(self) -> list[Alert]:
        """Process blocks since the last poll; return the new alerts."""
        chain = self._proxion.node.chain
        new_alerts: list[Alert] = []
        # Divergence check first: if the branch under the cursor changed,
        # roll back to the common ancestor before scanning forward.
        new_alerts.extend(self._detect_reorg(chain))
        latest = chain.latest_block_number
        # How far behind the chain head this poll starts — the freshness
        # guarantee a protective monitor is judged on.
        self._poll_lag.set(max(0, latest - self._cursor))
        self._block_index = min(self._block_index, len(chain.blocks))
        # Blocks are append-only between reorgs and block numbers strictly
        # increase, so everything before _block_index (numbers <= cursor)
        # is done.
        for block in chain.blocks[self._block_index:]:
            if block.number <= self._cursor:
                continue
            self.stats.blocks_scanned += 1
            self._blocks_scanned.inc()
            for receipt in block.receipts:
                for address in self._deployments_of(receipt):
                    if address in self._seen:
                        continue
                    self._seen[address] = block.number
                    new_alerts.extend(
                        self._analyze(address, block.number))
            self._ancestry.append((block.number, block.hash))
        del self._ancestry[:-ANCESTRY_CAPACITY]
        self._block_index = len(chain.blocks)
        self._cursor = latest
        self.stats.polls += 1
        self.stats.alerts.extend(new_alerts)
        for alert in new_alerts:
            self._metrics.counter("monitor.alerts", kind=alert.kind).inc()
        return new_alerts

    # ---------------------------------------------------------------- reorgs
    def _detect_reorg(self, chain) -> list[Alert]:
        """Detect branch divergence; roll facts back to the common ancestor."""
        if not self._ancestry:
            return []
        tip_number, tip_hash = self._ancestry[-1]
        if chain.block_hash(tip_number) == tip_hash:
            return []             # our view of the tip is still canonical
        # Walk the ring backwards to the deepest record that still matches.
        ancestor, keep = 0, 0
        for index in range(len(self._ancestry) - 1, -1, -1):
            number, block_hash = self._ancestry[index]
            if chain.block_hash(number) == block_hash:
                ancestor, keep = number, index + 1
                break
        depth = self._cursor - ancestor
        orphaned = [address for address, number in self._seen.items()
                    if number > ancestor]
        for address in orphaned:
            del self._seen[address]
        invalidated = 0
        store = self._proxion.store
        if store is not None and orphaned:
            invalidated = store.invalidate_instances(orphaned)
        del self._ancestry[keep:]
        self._cursor = ancestor
        self._block_index = bisect.bisect_right(
            chain.blocks, ancestor, key=lambda block: block.number)
        self.stats.reorgs += 1
        self._reorgs.inc()
        self._events.emit(CHAIN_REORG, depth=depth, ancestor=ancestor,
                          orphaned=len(orphaned), invalidated=invalidated)
        detail = (f"depth {depth}: rolled back to block {ancestor}, "
                  f"{len(orphaned)} orphaned deployment(s), "
                  f"{invalidated} store fact(s) invalidated")
        return [Alert("reorg", b"", ancestor, detail)]

    @staticmethod
    def _deployments_of(receipt) -> list[bytes]:
        deployed = []
        if receipt.created_address is not None:
            deployed.append(receipt.created_address)
        deployed.extend(event.new_address
                        for event in receipt.internal_creates)
        return deployed

    # -------------------------------------------------------------- analysis
    def _analyze(self, address: bytes, block_number: int) -> list[Alert]:
        self.stats.contracts_seen += 1
        analysis = self._proxion.analyze_contract(address)
        if self._proxion.store is not None:
            # Write-through: a followed chain keeps the durable store hot,
            # so point queries answer new deployments from the store.
            self._proxion.store.record_analysis(analysis)
        if not analysis.is_proxy:
            return []
        self.stats.proxies_seen += 1
        alerts: list[Alert] = []
        if analysis.is_hidden:
            alerts.append(Alert(
                "hidden-proxy", address, block_number,
                f"standard={analysis.standard.value}, "
                f"logic=0x{(analysis.check.logic_address or b'').hex()}"))
        alerts.extend(self._collision_alerts(analysis, block_number))
        return alerts

    def _collision_alerts(self, analysis: ContractAnalysis,
                          block_number: int) -> list[Alert]:
        alerts: list[Alert] = []
        for report in analysis.function_reports:
            if not report.has_collision:
                continue
            selectors = ",".join("0x" + c.selector.hex()
                                 for c in report.collisions)
            kind = "function-collision"
            detail = f"selectors {selectors}"
            if self._classify_honeypots:
                classifier = HoneypotClassifier(
                    self._proxion.node.chain.state,
                    self._proxion.node.chain.block_context())
                verdicts = classifier.classify(analysis.address, report)
                trapped = [v for v in verdicts if v.is_honeypot_shaped]
                if trapped:
                    kind = "honeypot"
                    detail = (f"selector 0x{trapped[0].selector.hex()} "
                              f"routes {trapped[0].victim_loss} wei away "
                              f"from the caller")
            alerts.append(Alert(kind, analysis.address, block_number, detail))
        for report in analysis.storage_reports:
            if not report.has_collision:
                continue
            if report.has_verified_exploit:
                verified = [c for c in report.collisions if c.verified][0]
                alerts.append(Alert(
                    "verified-exploit", analysis.address, block_number,
                    f"{verified.slot} clobbered via selector "
                    f"0x{verified.exploit_selector.hex()}"))
            else:
                alerts.append(Alert(
                    "storage-collision", analysis.address, block_number,
                    f"{len(report.collisions)} conflicting slot range(s)"))
        return alerts
