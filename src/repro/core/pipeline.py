"""The ProxioN batch pipeline: analyze every contract on a chain.

Orchestrates the full §4–§5 flow per contract — two-step proxy detection,
logic-history recovery, standard classification, function and storage
collision checks against every historical logic contract — with the two
scaling optimizations the paper leans on:

* **proxy-check dedup by bytecode hash** (§5.1/§6.1): identical bytecode
  yields an identical code-level verdict (is-proxy, logic location, slot),
  so only one emulation runs per unique blob; per-instance state (the
  current implementation address) is then recovered with a single
  ``getStorageAt``;
* **collision-report dedup by (proxy-code, logic-code) hash pair**: the
  48-days-instead-of-years optimization of §6.1.

The §8.2 *diamond extension* is available behind ``detect_diamonds=True``:
selectors mined from an address's past transactions are replayed as extra
probes, catching EIP-2535 proxies the random probe misses.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable

from repro.chain.api import NodeRPC
from repro.chain.blockchain import Blockchain
from repro.chain.dataset import ContractDataset
from repro.chain.explorer import SourceRegistry
from repro.core.function_collision import FunctionCollisionDetector
from repro.core.logic_finder import LogicFinder
from repro.core.proxy_detector import (
    LogicLocation,
    NotProxyReason,
    ProxyCheck,
    ProxyDetector,
)
from repro.core.report import ContractAnalysis, ContractFailure, LandscapeReport
from repro.core.standards import classify_standard
from repro.core.storage_collision import StorageCollisionDetector
from repro.errors import ConfigurationError, classify_cause
from repro.evm.environment import BlockContext
from repro.obs.events import (
    CHECKPOINT_RESUME,
    NULL_RECORDER,
    PIPELINE_END,
    PIPELINE_QUARANTINE,
    PIPELINE_START,
)
from repro.obs import provenance
from repro.obs.evmprof import ProfilingTracer
from repro.obs.provenance import NULL_TRAIL, AuditDir, EvidenceTrail
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import NULL_TRACER, RingBufferSink, SpanTracer
from repro.utils.hexutil import ADDRESS_MASK, word_to_address
from repro.utils.keccak import keccak256

#: The three §6.1 dedup caches, as they appear in ``dedup.*`` metrics.
DEDUP_CACHES = ("proxy_check", "function_collision", "storage_collision")


@dataclass(slots=True)
class ProxionOptions:
    """Pipeline feature switches."""

    detect_function_collisions: bool = True
    detect_storage_collisions: bool = True
    verify_storage_exploits: bool = True
    detect_diamonds: bool = False          # the §8.2 future-work extension
    max_diamond_probes: int = 16
    dedup_by_code_hash: bool = True
    profile_evm: bool = False              # opt-in opcode/gas/depth profiling
    # Graceful degradation: per-contract failures are quarantined into
    # ``LandscapeReport.failures`` and the sweep continues.  ``fail_fast``
    # restores the legacy abort-on-first-error behavior (useful in tests
    # that must not mask bugs).
    fail_fast: bool = False


class Proxion:
    """The complete analyzer, bound to any :class:`~repro.chain.api.NodeRPC`.

    Construct with :meth:`from_node` (an existing node, possibly wrapped
    in resilience/chaos layers) or :meth:`from_chain` (a bare simulated
    chain); the constructor itself takes the node positionally and
    everything else keyword-only.  The pre-redesign positional form was
    removed after its one deprecation release — passing more than the
    node positionally raises :class:`TypeError`.

    Observability: the instance shares the node's
    :class:`~repro.obs.registry.MetricsRegistry` by default (pass
    ``metrics=NULL_REGISTRY`` to disable collection, or any registry to
    aggregate several analyzers).  Per-stage spans land in
    ``self.spans`` (a ring buffer) and feed ``span.seconds{name=...}``
    histograms in the registry.
    """

    def __init__(self, node: NodeRPC, *legacy,
                 registry: SourceRegistry | None = None,
                 dataset: ContractDataset | None = None,
                 options: ProxionOptions | None = None,
                 chain_state=None,
                 block: BlockContext | None = None,
                 metrics: MetricsRegistry | None = None,
                 tracer: SpanTracer | None = None,
                 evm_profiler: ProfilingTracer | None = None,
                 events=None,
                 audit: AuditDir | str | None = None,
                 store=None) -> None:
        if legacy:
            raise TypeError(
                f"Proxion() takes only the node positionally "
                f"({len(legacy) + 1} positional arguments given); pass "
                f"registry=/dataset=/options=/... by keyword, or use "
                f"Proxion.from_node()/Proxion.from_chain()")
        self.node = node
        self.registry = registry if registry is not None else SourceRegistry()
        self.dataset = dataset
        self.options = options or ProxionOptions()
        self.metrics = metrics if metrics is not None else node.metrics
        # Flight-recorder hook (repro.obs.events): counters say how much,
        # events narrate what happened; both default to no-ops.
        self.events = events if events is not None else NULL_RECORDER
        # Verdict provenance (repro.obs.provenance): when an audit
        # directory is bound, every analysis runs with an EvidenceTrail
        # and persists its causal evidence tree as a per-contract file.
        self.audit = AuditDir(audit) if isinstance(audit, str) else audit
        self.spans = RingBufferSink()
        if tracer is not None:
            self.tracer = tracer
        elif self.metrics.enabled:
            self.tracer = SpanTracer(registry=self.metrics,
                                     sinks=(self.spans,))
        else:
            self.tracer = NULL_TRACER
        # The emulator runs directly against the node's world state; an
        # explicit state object lets tests inject alternatives.
        self._state = chain_state if chain_state is not None else node.chain.state
        self._block = block or node.chain.block_context()
        # An injected profiler (e.g. obs.FlameProfiler for `bench --flame`)
        # implies profiling regardless of the option flag.
        if evm_profiler is not None:
            self.evm_profiler: ProfilingTracer | None = evm_profiler
        else:
            self.evm_profiler = (ProfilingTracer()
                                 if self.options.profile_evm else None)
        self.detector = ProxyDetector(self._state, self._block,
                                      profiler=self.evm_profiler)
        self.logic_finder = LogicFinder(node)
        # Durable analysis store (repro.store): when a StoreBinding is
        # attached, the §6.1 dedup caches below are its write-through
        # dicts — hydrated from the store, persisting every insert — and
        # ``analyze_all`` commits one transaction per finished contract.
        # Without one, the caches are plain per-process dicts, exactly as
        # before.
        self.store = store
        selector_cache = None
        if store is not None:
            store.bind_metrics(self.metrics)
            self._check_cache: dict[bytes, ProxyCheck] = store.check_cache
            self._function_cache: dict[tuple[bytes, bytes], object] = (
                store.function_cache)
            self._storage_cache: dict[tuple[bytes, bytes], object] = (
                store.storage_cache)
            selector_cache = store.selector_cache
        else:
            # Dedup caches (§6.1), each with an explicit hit/miss pair.
            self._check_cache = {}
            self._function_cache = {}
            self._storage_cache = {}
        self.function_detector = FunctionCollisionDetector(
            self.registry, selector_cache=selector_cache)
        self.storage_detector = StorageCollisionDetector(
            self.registry, self._state, self._block)
        self._dedup_hits = {cache: self.metrics.counter("dedup.hits",
                                                        cache=cache)
                            for cache in DEDUP_CACHES}
        self._dedup_misses = {cache: self.metrics.counter("dedup.misses",
                                                          cache=cache)
                              for cache in DEDUP_CACHES}
        self._recovery_calls = self.metrics.counter(
            "logic_recovery.getstorageat_calls")
        self._storage_proxies = self.metrics.counter(
            "logic_recovery.storage_proxies")

    # ------------------------------------------------------------- builders
    @classmethod
    def from_node(cls, node: NodeRPC, **kwargs) -> "Proxion":
        """Build an analyzer on an existing node (wrapped or bare).

        The preferred constructor: accepts exactly the keyword parameters
        of ``__init__`` (``registry=``, ``dataset=``, ``options=``, ...)
        and works with any :class:`~repro.chain.api.NodeRPC` conformer —
        including resilience/chaos stacks around an archive node.
        """
        return cls(node, **kwargs)

    @classmethod
    def from_chain(cls, chain: Blockchain, *,
                   metrics: MetricsRegistry | None = None,
                   call_instruction_budget: int | None = None,
                   **kwargs) -> "Proxion":
        """Build an analyzer (and its archive node) on a bare chain.

        ``metrics`` and ``call_instruction_budget`` configure the node
        being created; everything else is forwarded to ``__init__``.
        """
        from repro.chain.node import ArchiveNode

        node = ArchiveNode(chain, metrics=metrics,
                           call_instruction_budget=call_instruction_budget)
        return cls(node, **kwargs)

    # -------------------------------------------------------------- analysis
    def check_proxy(self, address: bytes,
                    trail: EvidenceTrail = NULL_TRAIL) -> ProxyCheck:
        """Proxy-check one address, reusing verdicts for identical bytecode."""
        with self.tracer.span("proxy_check") as span:
            code = self.node.get_code(address)
            if not code:
                return self.detector.check(address, trail=trail)
            code_hash = keccak256(code)

            if (self.options.dedup_by_code_hash
                    and code_hash in self._check_cache):
                self._dedup_hits["proxy_check"].inc()
                span.set(cache="hit")
                cached = self._check_cache[code_hash]
                if trail.enabled:
                    # The cached verdict carries its own pattern evidence;
                    # cite the transfer so a dedup-hit proxy still explains
                    # where its classification came from.
                    trail.note(provenance.DEDUP_HIT, cache="proxy_check",
                               code_hash="0x" + code_hash.hex(),
                               verdict_from="0x" + cached.address.hex(),
                               is_proxy=cached.is_proxy,
                               location=cached.logic_location.value,
                               slot=(hex(cached.logic_slot)
                                     if cached.logic_slot is not None
                                     else None))
                return self._instantiate_cached_check(cached, address,
                                                      trail=trail)
            self._dedup_misses["proxy_check"].inc()

            extra_probes: tuple[bytes, ...] = ()
            if self.options.detect_diamonds:
                extra_probes = self._mine_transaction_probes(address)
            check = self.detector.check(address, extra_probes=extra_probes,
                                        trail=trail)
            if self.options.dedup_by_code_hash:
                self._check_cache[code_hash] = check
            span.set(cache="miss", is_proxy=check.is_proxy)
            self._record_check_outcome(check)
            return check

    def _record_check_outcome(self, check: ProxyCheck) -> None:
        """§8.1's emulation-failure accounting, by root cause."""
        if check.reason is not NotProxyReason.EMULATION_ERROR:
            return
        error = check.emulation_error or "unknown"
        cause = error.split(":", 1)[0].strip() or "unknown"
        self.metrics.counter("proxy_check.emulation_failures",
                             cause=cause).inc()

    def _instantiate_cached_check(self, cached: ProxyCheck, address: bytes,
                                  trail: EvidenceTrail = NULL_TRAIL,
                                  ) -> ProxyCheck:
        """Re-point a code-level verdict at another deployment.

        The code-determined parts (is-proxy, location, slot) transfer as-is;
        the *current* logic address of a storage proxy is re-read from this
        instance's own slot (one RPC instead of a full emulation).
        """
        if cached.address == address:
            return cached
        check = replace(cached, address=address)
        if (cached.is_proxy
                and cached.logic_location is LogicLocation.STORAGE
                and cached.logic_slot is not None):
            word = self.node.get_storage_at(address, cached.logic_slot)
            logic = word_to_address(word & ADDRESS_MASK)
            trail.note(provenance.PROXY_INSTANCE_READ,
                       slot=hex(cached.logic_slot),
                       logic="0x" + logic.hex())
            check = replace(check, logic_address=logic)
        return check

    def _mine_transaction_probes(self, address: bytes) -> tuple[bytes, ...]:
        """§8.2: selectors from past transactions, replayed as probes.

        Two sources, mirroring the paper's proposal of "extracting all
        registered functions from past transactions":

        * the selectors of the transactions themselves, and
        * selector-shaped *argument words* — a diamondCut/registerFacet call
          carries the selectors being registered in its calldata, and those
          are exactly the ones that route through the fallback.
        """
        candidates: list[bytes] = []
        seen: set[bytes] = set()

        def add(selector: bytes) -> None:
            if selector not in seen and selector != b"\x00\x00\x00\x00":
                seen.add(selector)
                candidates.append(selector)

        for receipt in self.node.transactions_of(address):
            data = receipt.transaction.data
            if receipt.transaction.to != address or len(data) < 4:
                continue
            add(data[:4])
            arguments = data[4:]
            for start in range(0, len(arguments) - 31, 32):
                word = int.from_bytes(arguments[start:start + 32], "big")
                if 0 < word < (1 << 32):
                    add(word.to_bytes(4, "big"))
            if len(candidates) >= self.options.max_diamond_probes:
                break
        return tuple(selector + b"\x00" * 64
                     for selector in candidates[:self.options.max_diamond_probes])

    def analyze_contract(self, address: bytes,
                         trail: EvidenceTrail | None = None,
                         ) -> ContractAnalysis:
        """Full single-contract analysis (§4 + §5).

        ``trail`` overrides the evidence recorder: ``repro explain``
        passes a fresh :class:`EvidenceTrail` to instrument one analysis
        on demand.  By default a trail is created only when the pipeline
        is bound to an audit directory; otherwise :data:`NULL_TRAIL`
        keeps the hot path free of recording cost.
        """
        if trail is None:
            trail = (EvidenceTrail(address) if self.audit is not None
                     else NULL_TRAIL)
        analysis = self._analyze_contract(address, trail)
        if trail.enabled:
            analysis.evidence_digest = trail.digest()
            if self.audit is not None:
                self.audit.write(trail)
        return analysis

    def _witness(self, trail: EvidenceTrail):
        """RPC read attribution for the logic-recovery stage, when the
        node supports it (chaos/resilience wrappers delegate down to the
        archive node; foreign NodeRPC conformers may not implement it)."""
        if trail.enabled and hasattr(self.node, "witness_reads"):
            return self.node.witness_reads(trail)
        return nullcontext()

    def _analyze_contract(self, address: bytes,
                          trail: EvidenceTrail) -> ContractAnalysis:
        code = self.node.get_code(address)
        analysis = ContractAnalysis(
            address=address,
            code_hash=keccak256(code),
            has_source=self.registry.resolve(address, code) is not None,
            has_transactions=self.node.has_transactions(address),
        )
        if self.dataset is not None and address in self.dataset:
            record = self.dataset.get(address)
            analysis.deploy_block = record.deploy_block
            analysis.deploy_year = self.node.year_of(record.deploy_block)

        with trail.begin(provenance.SECTION_PROXY):
            check = self.check_proxy(address, trail=trail)
        analysis.check = check
        if not check.is_proxy:
            return analysis

        analysis.standard = classify_standard(check)
        with self.tracer.span("logic_history") as span, \
                trail.begin(provenance.SECTION_LOGIC,
                            standard=analysis.standard.value):
            with self._witness(trail):
                analysis.logic_history = self.logic_finder.find(check,
                                                                trail=trail)
            span.set(upgrades=analysis.logic_history.upgrade_count,
                     api_calls=analysis.logic_history.api_calls_used)
        if analysis.logic_history.slot is not None:
            # The §6.1 "getStorageAt calls per proxy" numerator/denominator.
            self._storage_proxies.inc()
            self._recovery_calls.inc(analysis.logic_history.api_calls_used)
        with trail.begin(provenance.SECTION_COLLISIONS):
            self._check_collisions(analysis, code, trail=trail)
        return analysis

    def _check_collisions(self, analysis: ContractAnalysis,
                          proxy_code: bytes,
                          trail: EvidenceTrail = NULL_TRAIL) -> None:
        assert analysis.logic_history is not None
        proxy_hash = analysis.code_hash
        for logic_address in analysis.logic_history.logic_addresses:
            logic_code = self.node.get_code(logic_address)
            if not logic_code:
                continue
            logic_hash = keccak256(logic_code)
            pair = (proxy_hash, logic_hash)

            with trail.begin(provenance.PAIR,
                             logic="0x" + logic_address.hex()):
                if self.options.detect_function_collisions:
                    if pair in self._function_cache:
                        self._dedup_hits["function_collision"].inc()
                        report = self._function_cache[pair]
                        if trail.enabled:
                            self._cite_cached_function(report, trail)
                    else:
                        self._dedup_misses["function_collision"].inc()
                        with self.tracer.span("function_collision"):
                            report = self.function_detector.detect(
                                proxy_code, logic_code,
                                analysis.address, logic_address, trail=trail,
                                proxy_hash=proxy_hash, logic_hash=logic_hash)
                        self._function_cache[pair] = report
                    analysis.function_reports.append(report)  # type: ignore[arg-type]

                if self.options.detect_storage_collisions:
                    if pair in self._storage_cache:
                        self._dedup_hits["storage_collision"].inc()
                        report = self._storage_cache[pair]
                        if trail.enabled:
                            self._cite_cached_storage(report, trail)
                    else:
                        self._dedup_misses["storage_collision"].inc()
                        with self.tracer.span("storage_collision"):
                            report = self.storage_detector.detect(
                                proxy_code, logic_code,
                                analysis.address, logic_address,
                                verify_exploits=self.options.verify_storage_exploits,
                                trail=trail)
                        self._storage_cache[pair] = report
                    analysis.storage_reports.append(report)  # type: ignore[arg-type]

    @staticmethod
    def _cite_cached_function(report, trail: EvidenceTrail) -> None:
        """A dedup-hit pair still cites its colliding selectors."""
        trail.note(provenance.DEDUP_HIT, cache="function_collision")
        for collision in report.collisions:
            trail.note(provenance.FUNCTION_COLLISION,
                       selector="0x" + collision.selector.hex(),
                       proxy_prototype=collision.proxy_prototype,
                       logic_prototype=collision.logic_prototype)

    @staticmethod
    def _cite_cached_storage(report, trail: EvidenceTrail) -> None:
        """A dedup-hit pair still cites its slot/range evidence."""
        trail.note(provenance.DEDUP_HIT, cache="storage_collision")
        for collision in report.collisions:
            trail.note(provenance.STORAGE_COLLISION,
                       slot=hex(collision.slot.base),
                       proxy_range=[collision.proxy_use.offset,
                                    collision.proxy_use.end],
                       logic_range=[collision.logic_use.offset,
                                    collision.logic_use.end],
                       kind=collision.kind,
                       sensitive=collision.sensitive,
                       exploitable=collision.exploitable,
                       verified=collision.verified)

    # ------------------------------------------------------------ full sweep
    def _quarantine(self, report: LandscapeReport, address: bytes,
                    stage: str, error: Exception) -> None:
        """Record one failed contract and keep the sweep alive."""
        failure = ContractFailure(address=address,
                                  cause=classify_cause(error),
                                  error=str(error), stage=stage)
        report.add_failure(failure)
        self.metrics.counter("pipeline.quarantined",
                             cause=failure.cause).inc()
        self.events.emit(PIPELINE_QUARANTINE, address="0x" + address.hex(),
                         stage=stage, cause=failure.cause, error=str(error))
        if self.store is not None:
            self.store.record_failure(failure)

    def _settle(self, report: LandscapeReport, address: bytes) -> None:
        """Analyze, skip or quarantine one address, then persist it.

        With a store bound, each outcome is one transaction: staged fact
        writes commit together with the instance row, so kill -9 rolls
        back to the previous contract boundary.
        """
        try:
            alive = self.node.is_alive(address)
        except (KeyboardInterrupt, SystemExit):
            raise
        except ConfigurationError:
            raise
        except Exception as error:
            if self.options.fail_fast:
                raise
            self._quarantine(report, address, "liveness", error)
            return
        if not alive:
            # §3.1: destroyed contracts are excluded.
            if self.store is not None:
                self.store.record_skip(address)
            return
        try:
            analysis = self.analyze_contract(address)
        except (KeyboardInterrupt, SystemExit):
            raise
        except ConfigurationError:
            raise
        except Exception as error:
            if self.options.fail_fast:
                raise
            self._quarantine(report, address, "analysis", error)
            return
        report.add(analysis)
        if self.store is not None:
            self.store.record_analysis(analysis)

    def analyze_all(self, addresses: list[bytes] | None = None,
                    on_settled: Callable[[int], None] | None = None,
                    ) -> LandscapeReport:
        """Analyze every (alive) contract, like the paper's §7 sweep.

        The sweep degrades gracefully: a contract whose analysis raises is
        *quarantined* as a :class:`ContractFailure` (cause-classified, in
        ``report.failures`` and the ``pipeline.quarantined{cause=...}``
        counter) and the sweep moves on — unless
        ``options.fail_fast`` is set, which re-raises immediately.
        :class:`~repro.errors.ConfigurationError` always propagates: caller
        bugs must not be silently quarantined.

        Resume goes through the store: with an ``incremental`` binding,
        every address the store already settles is restored instead of
        re-analyzed.  ``on_settled`` is called after each contract this
        call settles (analysis, skip or quarantine, already committed when
        a store is bound) with the running count of settled addresses,
        restored ones included — the sweep supervisor's heartbeat.

        The report lists its contracts in ``addresses`` order, restored
        or not, and its dedup fields are replayed from them
        (:meth:`~repro.core.report.LandscapeReport.replay_dedup`): a
        resumed or warm-store sweep reports what a cold one does, while
        the registry's ``dedup.*`` counters say what this call computed.
        """
        if addresses is None:
            if self.dataset is None:
                raise ConfigurationError(
                    "no dataset bound and no addresses given")
            addresses = self.dataset.addresses()
        report = LandscapeReport()
        done: frozenset[bytes] = frozenset()
        # Restored analyses and failures by address; a restored skip is
        # in ``done`` only.
        restored: dict[bytes, ContractAnalysis | ContractFailure] = {}
        if self.store is not None and self.store.incremental:
            # Incremental re-sweep (repro.store): re-survey the corpus by
            # fetching each address's code and restoring every instance
            # the store has already settled — the live loop below then
            # analyzes only the delta.  Code is read metrics-free off the
            # state (like sharding): the restore is bookkeeping, not RPC
            # traffic, and must not be perturbed by chaos wrappers.
            from repro.store.binding import restore_instances
            try:
                store_restored = restore_instances(
                    self.store.store, addresses, self._state.get_code)
            except ConfigurationError:
                raise
            except Exception as error:
                self.store.disable(f"restore from {self.store.path!r} "
                                   f"failed ({error})")
                store_restored = None
            if store_restored is not None:
                restored = {record.address: record for record
                            in (*store_restored.analyses,
                                *store_restored.failures)}
                done = frozenset(store_restored.completed)
                skips = len(store_restored.skips)
                self.metrics.counter("pipeline.store_restored_contracts").inc(
                    len(restored))
                self.metrics.counter("pipeline.store_restored_skips").inc(
                    skips)
                if store_restored.invalidated:
                    self.metrics.counter("store.invalidated_instances").inc(
                        store_restored.invalidated)
                if done:
                    # The event kind and its recovered_truncations key
                    # predate the store; both are kept so the
                    # repro.events/1 shape is unchanged.
                    self.events.emit(CHECKPOINT_RESUME,
                                     restored=len(restored), skips=skips,
                                     recovered_truncations=0)
        self.events.emit(PIPELINE_START, contracts=len(addresses),
                         resumed=len(done))
        settled = len(done)
        with self.tracer.span("sweep", contracts=len(addresses)):
            for address in addresses:
                if address in done:
                    record = restored.get(address)
                    if isinstance(record, ContractFailure):
                        report.add_failure(record)
                    elif record is not None:
                        report.add(record)
                    continue
                self._settle(report, address)
                settled += 1
                if on_settled is not None:
                    on_settled(settled)
        if self.evm_profiler is not None:
            self.evm_profiler.flush_to(self.metrics)
        report.replay_dedup(self._state.get_code, self.options)
        self.events.emit(PIPELINE_END, analyses=len(report.analyses),
                         failures=len(report.failures))
        return report
