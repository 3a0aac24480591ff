"""Deterministic fault injection at the archive-node boundary.

Real §6-scale sweeps (~10⁹ RPCs) run against nodes that rate-limit, drop
connections, restart, and stall; the simulated chain never does.  This
module closes that gap with a seeded :class:`FaultPlan` — a schedule of
transient errors, rate-limit responses, injected latency/timeouts, and
flapping or sustained outages, filterable per RPC method and per contract
address — and a :class:`FaultyNode` wrapper that implements the complete
:class:`~repro.chain.node.ArchiveNode` surface, so nothing downstream can
tell it from a healthy node.

Determinism is the load-bearing property: whether a given *request* is
fault-stricken is decided by hashing ``(seed, rule, method, request
signature)``, never by shared mutable RNG state, so a sweep under a plan is
reproducible call-for-call — including across a resume, where the
resumed process replays a different call sequence.  Transient faults are
*attempt-scoped*: a stricken request fails its first ``fail_attempts``
tries and then succeeds, which is exactly the contract retry loops need for
the chaos-equivalence guarantee (see ``docs/robustness.md``).  Outages are
*schedule-scoped* (windows over the per-method call counter) and fail every
attempt inside the window, which is how sustained outages defeat retries
and exercise the quarantine path.

Injected faults are observable as ``faults.injected{kind=...,method=...}``
counters and a ``faults.injected_latency_seconds`` counter in the node's
metrics registry.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    NodeOutageError,
    RateLimitedError,
    RpcTimeout,
    TransientRpcError,
)

#: Fault taxonomy — the ``kind`` field of a :class:`FaultRule`.
TRANSIENT = "transient"        # connection-reset-shaped, retryable
RATE_LIMIT = "rate-limit"      # 429-shaped, retryable after backoff
TIMEOUT = "timeout"            # stalls for ``latency_s`` then fails
LATENCY = "latency"            # succeeds, but ``latency_s`` slower
OUTAGE = "outage"              # every attempt fails while the window is on
CRASH = "crash"                # os._exit: the whole worker process dies
HANG = "hang"                  # wedges the process (real sleep, no error)
REORG = "reorg"                # forks the chain: top-``depth`` blocks orphaned

FAULT_KINDS = (TRANSIENT, RATE_LIMIT, TIMEOUT, LATENCY, OUTAGE, CRASH, HANG,
               REORG)

#: Exit code of a :data:`CRASH`-stricken process (BSD ``EX_SOFTWARE``) —
#: what the sweep supervisor sees in ``Process.exitcode``.
WORKER_CRASH_EXITCODE = 70


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One line of a fault schedule.

    ``probability`` selects the share of matching *request signatures*
    (method + arguments) the rule strikes — decided deterministically from
    the plan seed.  A stricken request fails its first ``fail_attempts``
    attempts (transient kinds) unless the rule is an ``OUTAGE``, which
    instead fails every attempt while its schedule is active: a sustained
    outage covers ``window=(start, end)`` of the per-method call counter; a
    flapping one is down for ``outage_width`` calls out of every
    ``outage_period``.

    ``CRASH`` and ``HANG`` are the *process-level* kinds the sweep
    supervisor exists for — they do not raise, they take the whole worker
    down (``os._exit``) or wedge it (a real sleep no retry loop can
    interrupt).  Scoped two ways: with a ``window`` they fire when the
    per-method call counter enters it — the OOM-kill model.  That counter
    is per process and restarts in every respawned worker, so the crash
    recurs on each attempt that still makes enough calls to reach the
    window; each attempt keeps the contracts it committed, so the task
    still converges, by respawn and, past the retry budget, bisection.
    With a ``probability`` they stick to the struck request *signatures*
    on every attempt — the poison-contract model, which only shard
    bisection and quarantine can absorb.  ``latency_s`` bounds a hang's duration (0 = wedged forever,
    until the supervisor kills the worker).
    """

    kind: str
    methods: tuple[str, ...] | None = None      # None = every method
    addresses: tuple[bytes, ...] | None = None  # None = every address
    probability: float = 1.0
    fail_attempts: int = 1
    latency_s: float = 0.0
    window: tuple[int, int] | None = None       # [start, end) call indices
    outage_period: int = 0                      # flapping cycle length
    outage_width: int = 0                       # down-calls per cycle
    depth: int = 1                              # blocks a REORG orphans

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {self.kind!r}; "
                                     f"known: {FAULT_KINDS}")

    def matches(self, method: str, address: bytes | None) -> bool:
        if self.methods is not None and method not in self.methods:
            return False
        if self.addresses is not None:
            if address is None or address not in self.addresses:
                return False
        return True

    def outage_active(self, call_index: int) -> bool:
        """Whether an OUTAGE rule is down at this per-method call index."""
        if self.window is not None:
            start, end = self.window
            if not start <= call_index < end:
                return False
            if self.outage_period <= 0:
                return True          # sustained outage over the window
        elif self.outage_period <= 0:
            return True              # no schedule at all: always down
        if self.outage_period > 0:
            return call_index % self.outage_period < self.outage_width
        return False


def _strike(seed: int, rule_index: int, method: str, signature: bytes,
            probability: float) -> bool:
    """Deterministic per-request coin flip, independent of call order."""
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    digest = hashlib.sha256(
        b"%d|%d|%s|" % (seed, rule_index, method.encode()) + signature
    ).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64) < probability


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """What the plan injects for one attempt of one request."""

    kind: str
    rule_index: int
    latency_s: float = 0.0
    raises: type[TransientRpcError] | None = None
    message: str = ""
    depth: int = 0               # REORG only: blocks to orphan


_EXCEPTION_FOR = {
    TRANSIENT: TransientRpcError,
    RATE_LIMIT: RateLimitedError,
    TIMEOUT: RpcTimeout,
    OUTAGE: NodeOutageError,
}


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    The plan itself is stateless with respect to the sweep: all per-call
    state (method call counters, per-request attempt counters) lives in the
    :class:`FaultyNode` consulting it, so one plan can drive many nodes.
    """

    def __init__(self, rules: tuple[FaultRule, ...] | list[FaultRule] = (),
                 seed: int = 0) -> None:
        self.rules = tuple(rules)
        self.seed = seed

    def decide(self, method: str, address: bytes | None, signature: bytes,
               attempt: int, call_index: int) -> list[FaultDecision]:
        """Every fault to inject for this attempt, in rule order.

        At most one *raising* decision is returned (the first to fire);
        latency decisions accumulate before it.
        """
        decisions: list[FaultDecision] = []
        for index, rule in enumerate(self.rules):
            if not rule.matches(method, address):
                continue
            if rule.kind in (CRASH, HANG):
                if rule.window is not None:
                    start, end = rule.window
                    if not start <= call_index < end:
                        continue
                elif not _strike(self.seed, index, method, signature,
                                 rule.probability):
                    continue
                # Process-level faults fire on *every* attempt of a struck
                # request — a retry loop cannot talk a dead process back.
                decisions.append(FaultDecision(
                    kind=rule.kind, rule_index=index,
                    latency_s=rule.latency_s,
                    message=f"injected {rule.kind} on {method} "
                            f"(call #{call_index})"))
                break
            if rule.kind == REORG:
                # Chain-level, not request-level: the struck request still
                # succeeds, but the chain underneath it reorganizes first.
                # Window-scoped (a scheduled one-shot fork) or
                # probability-scoped (struck signatures fork once each —
                # the FaultyNode dedupes re-fires across attempts).
                if rule.window is not None:
                    start, end = rule.window
                    if not start <= call_index < end:
                        continue
                elif not _strike(self.seed, index, method, signature,
                                 rule.probability):
                    continue
                decisions.append(FaultDecision(
                    kind=REORG, rule_index=index, depth=rule.depth,
                    message=f"injected depth-{rule.depth} reorg on {method} "
                            f"(call #{call_index})"))
                continue
            if rule.kind == OUTAGE:
                if rule.outage_active(call_index):
                    decisions.append(FaultDecision(
                        kind=OUTAGE, rule_index=index,
                        latency_s=rule.latency_s,
                        raises=NodeOutageError,
                        message=f"injected outage on {method} "
                                f"(call #{call_index})"))
                    break
                continue
            if not _strike(self.seed, index, method, signature,
                           rule.probability):
                continue
            if rule.kind == LATENCY:
                decisions.append(FaultDecision(
                    kind=LATENCY, rule_index=index, latency_s=rule.latency_s))
                continue
            if attempt < rule.fail_attempts:
                decisions.append(FaultDecision(
                    kind=rule.kind, rule_index=index,
                    latency_s=rule.latency_s,
                    raises=_EXCEPTION_FOR[rule.kind],
                    message=f"injected {rule.kind} fault on {method} "
                            f"(attempt {attempt + 1}/{rule.fail_attempts})"))
                break
        return decisions


class FaultyNode:
    """An archive node that misbehaves exactly as its plan dictates.

    Wraps any object with the :class:`~repro.chain.node.ArchiveNode`
    surface.  ``sleep`` receives every injected latency; the default
    ``None`` only *accounts* the latency (metrics + ``injected_latency_s``)
    without stalling, keeping chaos tests fast while real deployments can
    pass ``time.sleep``.
    """

    def __init__(self, node, plan: FaultPlan, sleep=None) -> None:
        self._node = node
        self.plan = plan
        self._sleep = sleep
        self.metrics = node.metrics
        self.injected_latency_s = 0.0
        self._method_calls: dict[str, int] = {}
        self._attempts: dict[bytes, int] = {}
        self._fired_reorgs: set[tuple[int, bytes]] = set()
        self._latency_counter = self.metrics.counter(
            "faults.injected_latency_seconds")

    # ------------------------------------------------------------ passthrough
    @property
    def chain(self):
        return self._node.chain

    @property
    def api_calls(self):
        return self._node.api_calls

    @property
    def latest_block_number(self) -> int:
        return self._node.latest_block_number

    @property
    def genesis_block_number(self) -> int:
        return self._node.genesis_block_number

    def year_of(self, block_number: int) -> int:
        return self._node.year_of(block_number)

    def witness_reads(self, trail):
        """Evidence attribution passes through to the wrapped node."""
        return self._node.witness_reads(trail)

    # -------------------------------------------------------------- injection
    def injected_counts(self) -> dict[str, int]:
        """Total injections by kind, from the metrics registry."""
        return {dict(labels).get("kind", ""): int(counter.value)
                for labels, counter
                in self.metrics.counters_named("faults.injected").items()
                if counter.value}

    def _gate(self, method: str, address: bytes | None,
              signature: bytes) -> None:
        call_index = self._method_calls.get(method, 0)
        self._method_calls[method] = call_index + 1
        key = hashlib.sha256(method.encode() + b"|" + signature).digest()
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        for decision in self.plan.decide(method, address, signature,
                                         attempt, call_index):
            self.metrics.counter("faults.injected", kind=decision.kind,
                                 method=method).inc()
            if decision.kind == CRASH:
                # The OOM-kill model: no exception, no unwinding, no
                # flushing — the process is simply gone mid-contract.
                os._exit(WORKER_CRASH_EXITCODE)
            if decision.kind == HANG:
                self._wedge(decision.latency_s)
                continue
            if decision.kind == REORG:
                # Fork once per struck rule+signature: retries of the same
                # request must not cascade into repeated reorganizations.
                mark = (decision.rule_index, key)
                if mark not in self._fired_reorgs:
                    self._fired_reorgs.add(mark)
                    self._node.chain.fork(decision.depth)
                continue
            if decision.latency_s:
                self.injected_latency_s += decision.latency_s
                self._latency_counter.inc(decision.latency_s)
                if self._sleep is not None:
                    self._sleep(decision.latency_s)
            if decision.raises is not None:
                raise decision.raises(decision.message, method=method,
                                      address=address)

    @staticmethod
    def _wedge(hang_s: float) -> None:
        """Really stall the process (``HANG``) — deliberately *not* the
        injectable ``sleep``: a wedged worker is indistinguishable from a
        stuck RPC precisely because nothing virtual-clocks it away.  The
        supervisor's heartbeat timeout is the only way out when
        ``hang_s`` is 0 (wedged forever)."""
        deadline = time.monotonic() + hang_s if hang_s > 0 else None
        while deadline is None or time.monotonic() < deadline:
            time.sleep(0.05)

    @staticmethod
    def _sig(*parts) -> bytes:
        rendered = []
        for part in parts:
            if part is None:
                rendered.append(b"~")
            elif isinstance(part, bytes):
                rendered.append(part)
            else:
                rendered.append(str(part).encode())
        return b"|".join(rendered)

    # ----------------------------------------------------------------- reads
    def get_code(self, address: bytes, block_number: int | None = None) -> bytes:
        self._gate("eth_getCode", address, self._sig(address, block_number))
        return self._node.get_code(address, block_number)

    def get_storage_at(self, address: bytes, slot: int,
                       block_number: int | None = None) -> int:
        self._gate("eth_getStorageAt", address,
                   self._sig(address, slot, block_number))
        return self._node.get_storage_at(address, slot, block_number)

    def get_balance(self, address: bytes) -> int:
        self._gate("eth_getBalance", address, self._sig(address))
        return self._node.get_balance(address)

    def call(self, to: bytes, data: bytes = b"",
             sender: bytes = b"\x00" * 20,
             block_number: int | None = None, **kwargs):
        self._gate("eth_call", to, self._sig(to, data, sender, block_number))
        return self._node.call(to, data, sender=sender,
                               block_number=block_number, **kwargs)

    def is_alive(self, address: bytes) -> bool:
        self._gate("eth_getCode", address, self._sig(address, "alive"))
        return self._node.is_alive(address)

    def get_logs(self, address: bytes | None = None,
                 topic: int | None = None,
                 from_block: int | None = None,
                 to_block: int | None = None):
        self._gate("eth_getLogs", address,
                   self._sig(address, topic, from_block, to_block))
        return self._node.get_logs(address, topic, from_block, to_block)

    def transactions_of(self, address: bytes):
        self._gate("eth_getTransactionsByAddress", address, self._sig(address))
        return self._node.transactions_of(address)

    def has_transactions(self, address: bytes) -> bool:
        self._gate("eth_getTransactionCountByAddress", address,
                   self._sig(address))
        return self._node.has_transactions(address)

    def get_transaction_count(self, address: bytes) -> int:
        self._gate("eth_getTransactionCount", address, self._sig(address))
        return self._node.get_transaction_count(address)


# ------------------------------------------------------------- canned plans
def canned_plan(name: str, seed: int = 0) -> FaultPlan:
    """The named plans used by ``survey --chaos``, CI, and the bench suite.

    * ``transient`` — 35 % of requests fail twice with connection errors,
      10 % are rate-limited once: fully absorbed by retries.
    * ``rate-limit`` — heavy 429 pressure (60 % of requests, two refusals).
    * ``latency`` — half of all requests gain 5 ms of injected latency.
    * ``flaky`` — transient + rate-limit + latency mixed together.
    * ``outage`` — a *sustained* storage/code outage from call #20 on:
      retries cannot save it, the sweep must quarantine and keep going.
    * ``flapping`` — the node is down 3 calls out of every 40.

    The ``worker-*`` plans are process-level chaos for supervised
    parallel sweeps (they take the calling process down — run them behind
    ``survey --workers N``, never serially):

    * ``worker-crash`` — the worker ``os._exit``\\ s at its
      ``eth_getCode`` call #15 (0-based, per process).  The counter
      restarts in each respawned worker, so *every* attempt with 16 or
      more such calls left crashes again; each one resumes past the
      contracts its predecessors committed, and a task that exhausts its
      retries is bisected into smaller ones.  Nothing is quarantined
      unless one contract alone needs 16 calls.
    * ``worker-poison`` — 2 % of ``eth_getCode`` request signatures crash
      the worker on *every* attempt: only bisection down to the poison
      contract and a ``worker-crash`` quarantine absorb it.
    * ``worker-hang`` — 2 % of signatures wedge the worker forever; the
      supervisor's heartbeat timeout must kill and bisect.
    * ``worker-chaos`` — the ``worker-crash`` window *and* sticky 1 %
      hangs: the combined kill-and-wedge acceptance scenario.

    ``chain-reorg`` is chain-level chaos: a scheduled one-shot depth-3
    reorganization at ``eth_getCode`` call #25 — the top three block
    records are orphaned mid-sweep.  Requests keep succeeding; what
    changes is the branch underneath them, which is exactly what the
    reorg-aware monitor and the zero-lost-contracts sweep accounting
    must absorb.
    """
    plans: dict[str, tuple[FaultRule, ...]] = {
        "transient": (
            FaultRule(TRANSIENT, probability=0.35, fail_attempts=2),
            FaultRule(RATE_LIMIT, probability=0.10, fail_attempts=1),
        ),
        "rate-limit": (
            FaultRule(RATE_LIMIT, probability=0.60, fail_attempts=2),
        ),
        "latency": (
            FaultRule(LATENCY, probability=0.50, latency_s=0.005),
        ),
        "flaky": (
            FaultRule(TRANSIENT, probability=0.25, fail_attempts=2),
            FaultRule(RATE_LIMIT, probability=0.15, fail_attempts=1),
            FaultRule(LATENCY, probability=0.30, latency_s=0.002),
        ),
        "outage": (
            FaultRule(OUTAGE,
                      methods=("eth_getStorageAt", "eth_getCode"),
                      window=(20, 1 << 62)),
        ),
        "flapping": (
            FaultRule(OUTAGE, outage_period=40, outage_width=3),
        ),
        "worker-crash": (
            FaultRule(CRASH, methods=("eth_getCode",), window=(15, 16)),
        ),
        "worker-poison": (
            FaultRule(CRASH, methods=("eth_getCode",), probability=0.02),
        ),
        "worker-hang": (
            FaultRule(HANG, methods=("eth_getCode",), probability=0.02),
        ),
        "worker-chaos": (
            FaultRule(CRASH, methods=("eth_getCode",), window=(15, 16)),
            FaultRule(HANG, methods=("eth_getCode",), probability=0.01),
        ),
        "chain-reorg": (
            FaultRule(REORG, methods=("eth_getCode",), window=(25, 26),
                      depth=3),
        ),
    }
    try:
        rules = plans[name]
    except KeyError:
        raise ConfigurationError(f"unknown canned fault plan {name!r}; "
                                 f"known: {sorted(plans)}") from None
    return FaultPlan(rules, seed=seed)


#: Names accepted by :func:`canned_plan` (the CLI ``--chaos`` choices).
CANNED_PLANS = ("transient", "rate-limit", "latency", "flaky", "outage",
                "flapping", "worker-crash", "worker-poison", "worker-hang",
                "worker-chaos", "chain-reorg")


def build_chaos_stack(node, plan: str, seed: int = 1337, events=None):
    """The canonical chaos sandwich: ``ResilientNode(FaultyNode(node))``.

    One shared rebuild hook for everything that wires a canned fault plan
    between a sweep and its node — the CLI, the bench suite, and each
    worker of a sharded sweep (which must reconstruct the stack from a
    pickle-able spec inside its own process).  Injected latency and
    backoff are accounted virtually (``sleep=None``): the simulated node
    has nothing to actually wait for.  ``events`` (an
    :class:`~repro.obs.events.EventRecorder`) is handed to the resilient
    layer so breaker transitions and retry exhaustion land in the flight
    recorder.
    """
    from repro.chain.resilient import ResilientNode

    return ResilientNode(FaultyNode(node, canned_plan(plan, seed=seed)),
                         seed=seed, sleep=None, events=events)


__all__ = [
    "CANNED_PLANS",
    "CRASH",
    "HANG",
    "WORKER_CRASH_EXITCODE",
    "build_chaos_stack",
    "FAULT_KINDS",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "FaultyNode",
    "LATENCY",
    "OUTAGE",
    "RATE_LIMIT",
    "REORG",
    "TIMEOUT",
    "TRANSIENT",
    "canned_plan",
]
