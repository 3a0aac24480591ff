"""Result records for single contracts and whole-landscape sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.function_collision import FunctionCollisionReport
from repro.core.logic_finder import LogicHistory
from repro.core.proxy_detector import NotProxyReason, ProxyCheck
from repro.core.standards import ProxyStandard
from repro.core.storage_collision import StorageCollisionReport


@dataclass(slots=True)
class ContractAnalysis:
    """Everything ProxioN learned about one contract."""

    address: bytes
    code_hash: bytes
    has_source: bool = False
    has_transactions: bool = False
    deploy_block: int | None = None
    deploy_year: int | None = None
    check: ProxyCheck | None = None
    standard: ProxyStandard | None = None
    logic_history: LogicHistory | None = None
    function_reports: list[FunctionCollisionReport] = field(default_factory=list)
    storage_reports: list[StorageCollisionReport] = field(default_factory=list)
    # Compact provenance summary (repro.evidence/1 digest) attached by an
    # audited sweep; None on the default path.  The full causal tree lives
    # in the audit directory's per-contract evidence file.
    evidence_digest: dict | None = None

    @property
    def is_proxy(self) -> bool:
        return bool(self.check and self.check.is_proxy)

    @property
    def is_hidden(self) -> bool:
        """No source *and* no past transactions — the paper's novel class."""
        return not self.has_source and not self.has_transactions

    @property
    def has_function_collision(self) -> bool:
        return any(report.has_collision for report in self.function_reports)

    @property
    def has_storage_collision(self) -> bool:
        return any(report.has_collision for report in self.storage_reports)

    @property
    def has_verified_storage_exploit(self) -> bool:
        return any(report.has_verified_exploit for report in self.storage_reports)

    @property
    def emulation_failed(self) -> bool:
        return bool(self.check
                    and self.check.reason is NotProxyReason.EMULATION_ERROR)


@dataclass(frozen=True, slots=True)
class ContractFailure:
    """One quarantined per-contract failure of a degraded sweep.

    When a contract's analysis dies (RPC deadline, open circuit, runaway
    emulation, ...) the pipeline records the cause here and keeps sweeping
    instead of aborting — the paper's ~10⁹-RPC regime cannot afford to lose
    a run to one bad contract.  ``cause`` is the stable label from
    :func:`repro.errors.classify_cause`; ``stage`` names the pipeline step
    that failed (``liveness`` or ``analysis`` — or ``worker`` when the
    sweep supervisor quarantined a poison contract that kept killing its
    worker process).
    """

    address: bytes
    cause: str
    error: str
    stage: str = "analysis"


@dataclass(slots=True)
class LandscapeReport:
    """Aggregate of a full analysis sweep (§7)."""

    analyses: dict[bytes, ContractAnalysis] = field(default_factory=dict)
    failures: dict[bytes, ContractFailure] = field(default_factory=dict)
    # §6.1 dedup effectiveness, one hit/miss pair per cache, set by
    # :meth:`replay_dedup` from the analyses above.
    proxy_check_cache_hits: int = 0
    proxy_check_cache_misses: int = 0
    function_cache_hits: int = 0
    function_cache_misses: int = 0
    storage_cache_hits: int = 0
    storage_cache_misses: int = 0

    def add(self, analysis: ContractAnalysis) -> None:
        self.analyses[analysis.address] = analysis
        self.failures.pop(analysis.address, None)

    def add_failure(self, failure: ContractFailure) -> None:
        self.failures[failure.address] = failure

    def replay_dedup(self, code_of: Callable[[bytes], bytes],
                     options) -> None:
        """Set the dedup fields to what a cold serial sweep counts.

        Replays the three §6.1 caches of
        :class:`~repro.core.pipeline.Proxion` over the analyses in report
        order, starting empty.  The first sight of a codehash is a
        proxy-check miss and every repeat a hit (every check misses
        without ``options.dedup_by_code_hash``); the collision caches count
        (proxy codehash, logic code) pairs the same way, over each
        history's logic addresses that ``code_of`` finds code at, when
        ``options`` enables them.  The block is a function of the settled
        records alone: however a sweep ran (sharded, respawned, restored
        from a store), it prints the serial numbers.  Logic code is keyed
        by its bytes, so the replay hashes nothing.
        """
        checked: set[bytes] = set()
        pairs: set[tuple[bytes, bytes]] = set()
        check_hits = pair_hits = 0
        for analysis in self.analyses.values():
            if options.dedup_by_code_hash and analysis.code_hash in checked:
                check_hits += 1
            checked.add(analysis.code_hash)
            if analysis.logic_history is None:
                continue
            for logic in analysis.logic_history.logic_addresses:
                code = code_of(logic)
                if not code:
                    continue
                pair = (analysis.code_hash, code)
                if pair in pairs:
                    pair_hits += 1
                else:
                    pairs.add(pair)
        self.proxy_check_cache_hits = check_hits
        self.proxy_check_cache_misses = len(self.analyses) - check_hits
        pair_misses = len(pairs)
        self.function_cache_hits, self.function_cache_misses = (
            (pair_hits, pair_misses) if options.detect_function_collisions
            else (0, 0))
        self.storage_cache_hits, self.storage_cache_misses = (
            (pair_hits, pair_misses) if options.detect_storage_collisions
            else (0, 0))

    def quarantined(self) -> list[ContractFailure]:
        return list(self.failures.values())

    def quarantine_census(self) -> dict[str, int]:
        """Quarantined contracts per cause label."""
        census: dict[str, int] = {}
        for failure in self.failures.values():
            census[failure.cause] = census.get(failure.cause, 0) + 1
        return census

    @property
    def attempted(self) -> int:
        """Contracts the sweep touched: analyzed plus quarantined."""
        return len(self.analyses) + len(self.failures)

    @staticmethod
    def _hit_rate(hits: int, misses: int) -> float:
        total = hits + misses
        return hits / total if total else 0.0

    def dedup_hit_rates(self) -> dict[str, float]:
        """Hit rate per dedup cache, as fractions in [0, 1]."""
        return {
            "proxy_check": self._hit_rate(self.proxy_check_cache_hits,
                                          self.proxy_check_cache_misses),
            "function_collision": self._hit_rate(self.function_cache_hits,
                                                 self.function_cache_misses),
            "storage_collision": self._hit_rate(self.storage_cache_hits,
                                                self.storage_cache_misses),
        }

    # ------------------------------------------------------------- counters
    def __len__(self) -> int:
        return len(self.analyses)

    def proxies(self) -> list[ContractAnalysis]:
        return [a for a in self.analyses.values() if a.is_proxy]

    def hidden_proxies(self) -> list[ContractAnalysis]:
        return [a for a in self.proxies() if a.is_hidden]

    def function_collision_pairs(self) -> int:
        return sum(
            sum(1 for report in a.function_reports if report.has_collision)
            for a in self.analyses.values()
        )

    def storage_collision_pairs(self) -> int:
        return sum(
            sum(1 for report in a.storage_reports if report.has_collision)
            for a in self.analyses.values()
        )

    def emulation_failure_rate(self) -> float:
        total = len(self.analyses)
        if not total:
            return 0.0
        failures = sum(1 for a in self.analyses.values() if a.emulation_failed)
        return failures / total

    def standards_census(self) -> dict[ProxyStandard, int]:
        census: dict[ProxyStandard, int] = {}
        for analysis in self.proxies():
            if analysis.standard is not None:
                census[analysis.standard] = census.get(analysis.standard, 0) + 1
        return census
