"""Multi-endpoint RPC failover: one logical node over N backends.

A production sweep or serve daemon never talks to exactly one archive
node — it fronts a *fleet* of RPC endpoints with different reliability.
:class:`FailoverNode` implements the :class:`~repro.chain.api.NodeRPC`
protocol over N backends that answer for the same logical chain:

* **sticky primary** — all traffic goes to one endpoint until it proves
  unhealthy; there is no per-request load balancing to keep request
  ordering (and therefore chaos determinism) intact;
* **per-endpoint, per-method circuit breakers + retries** — reusing the
  :class:`~repro.chain.resilient.CircuitBreaker` /
  :class:`~repro.chain.resilient.RetryPolicy` machinery, with metrics
  labeled by endpoint (``resilience.*{method=...,endpoint=N}``);
* **probation after exhaustion** — an endpoint that exhausts its retry
  budget (or trips its breaker) is benched for ``probation_s`` seconds;
  the healthiest non-benched endpoint becomes the new primary.  Each
  switch ticks ``chain.failover_switches`` and lands in the flight
  recorder as an ``endpoint.failover`` event;
* **health scoring** — per-endpoint success ratios, exported as
  ``chain.endpoint_health{endpoint=N}`` gauges and readable via
  :meth:`FailoverNode.endpoint_health`.

A call fails only when *every* endpoint has been tried and refused — a
single healthy backend is enough to keep a sweep losing zero contracts
through a primary outage (the ``failover`` cell of
``tests/integration/test_equivalence.py``).
"""

from __future__ import annotations

import random
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpen,
    ConfigurationError,
    DeadlineExceeded,
    TransientRpcError,
)
from repro.obs import events as events_module
from repro.obs.events import NULL_RECORDER
from repro.obs.spans import clock
from repro.chain.resilient import (
    _STATE_VALUE,
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
)

#: How long a demoted endpoint sits on the bench before it may be
#: selected again (it is only *selected* again when every better-scored
#: endpoint is also benched or demoted — the primary stays sticky).
DEFAULT_PROBATION_S = 5.0


@dataclass(slots=True)
class EndpointHealth:
    """One backend's running score, as the failover layer sees it."""

    successes: int = 0
    failures: int = 0
    probation_until: float = field(default=0.0)

    @property
    def score(self) -> float:
        """Success ratio in [0, 1]; optimistic before any evidence."""
        total = self.successes + self.failures
        if total == 0:
            return 1.0
        return self.successes / total

    def on_probation(self, now: float) -> bool:
        return now < self.probation_until


class FailoverNode:
    """A :class:`~repro.chain.api.NodeRPC` conformer over N backends.

    All backends must answer for the same logical chain (``chain`` and
    the block clock are read through the first backend).  ``sleep``
    follows the :class:`~repro.chain.resilient.ResilientNode` convention:
    ``None`` accounts backoff virtually (no stall — the simulated chain
    has nothing to wait for) while ``time.sleep`` really waits.
    """

    def __init__(self, backends, *,
                 policy: RetryPolicy | None = None,
                 breaker: BreakerConfig | None = None,
                 seed: int = 0, sleep=None,
                 metrics=None, events=None,
                 probation_s: float = DEFAULT_PROBATION_S) -> None:
        backends = list(backends)
        if not backends:
            raise ConfigurationError(
                "FailoverNode needs at least one backend endpoint")
        self._backends = backends
        self.policy = policy or RetryPolicy()
        self.breaker_config = breaker or BreakerConfig()
        self.metrics = metrics if metrics is not None else backends[0].metrics
        self.events = events if events is not None else NULL_RECORDER
        self.probation_s = probation_s
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._virtual_elapsed = 0.0
        self._primary = 0
        self._breakers: dict[tuple[int, str], CircuitBreaker] = {}
        self.health = [EndpointHealth() for _ in backends]
        self._switches = self.metrics.counter("chain.failover_switches")
        self._health_gauges = [
            self.metrics.gauge("chain.endpoint_health", endpoint=str(index))
            for index in range(len(backends))]
        for gauge in self._health_gauges:
            gauge.set(1.0)

    # ------------------------------------------------------------ passthrough
    @property
    def chain(self):
        return self._backends[0].chain

    @property
    def api_calls(self):
        return self._backends[0].api_calls

    @property
    def latest_block_number(self) -> int:
        return self._backends[0].latest_block_number

    @property
    def genesis_block_number(self) -> int:
        return self._backends[0].genesis_block_number

    def year_of(self, block_number: int) -> int:
        return self._backends[0].year_of(block_number)

    @contextmanager
    def witness_reads(self, trail):
        """Attach the evidence trail to *every* backend: reads reach the
        archive through whichever endpoint is primary at that instant,
        and an audited sweep must capture them all."""
        with ExitStack() as stack:
            for backend in self._backends:
                witness = getattr(backend, "witness_reads", None)
                if witness is not None:
                    stack.enter_context(witness(trail))
            yield trail

    # ------------------------------------------------------------- selection
    @property
    def endpoints(self) -> int:
        return len(self._backends)

    @property
    def primary(self) -> int:
        """Index of the endpoint currently taking traffic."""
        return self._primary

    def endpoint_health(self) -> list[float]:
        """Per-endpoint success ratios, by backend index."""
        return [health.score for health in self.health]

    def _now(self) -> float:
        return clock() + self._virtual_elapsed

    def _wait(self, seconds: float) -> None:
        if seconds <= 0:
            return
        if self._sleep is time.sleep:
            self._sleep(seconds)
        else:
            self._virtual_elapsed += seconds
            if self._sleep is not None:
                self._sleep(seconds)

    def _select(self, now: float) -> int:
        """The endpoint to try next: the sticky primary while it is off
        probation, else the best-scored non-benched endpoint, else the
        one whose bench time ends soonest."""
        if not self.health[self._primary].on_probation(now):
            return self._primary
        available = [index for index in range(len(self._backends))
                     if not self.health[index].on_probation(now)]
        if available:
            return max(available, key=lambda i: (self.health[i].score, -i))
        return min(range(len(self._backends)),
                   key=lambda i: self.health[i].probation_until)

    def _switch_to(self, index: int, method: str, cause: str) -> None:
        if index == self._primary:
            return
        previous, self._primary = self._primary, index
        self._switches.inc()
        self.events.emit(events_module.ENDPOINT_FAILOVER,
                         previous=previous, to=index, method=method,
                         cause=cause)

    def _record(self, index: int, success: bool, now: float) -> None:
        health = self.health[index]
        if success:
            health.successes += 1
        else:
            health.failures += 1
            health.probation_until = now + self.probation_s
        self._health_gauges[index].set(round(health.score, 6))

    # --------------------------------------------------------------- breakers
    def _breaker(self, index: int, method: str) -> CircuitBreaker:
        breaker = self._breakers.get((index, method))
        if breaker is None:
            endpoint = str(index)
            gauge = self.metrics.gauge("resilience.breaker_state",
                                       method=method, endpoint=endpoint)

            def on_transition(old: str, new: str) -> None:
                self.metrics.counter("resilience.breaker_transitions",
                                     method=method, to=new,
                                     endpoint=endpoint).inc()
                gauge.set(_STATE_VALUE[new])

            breaker = CircuitBreaker(self.breaker_config, on_transition)
            self._breakers[(index, method)] = breaker
        return breaker

    # -------------------------------------------------------------- dispatch
    def _invoke(self, method: str, func_name: str, address: bytes | None,
                *args, **kwargs):
        last_error: Exception | None = None
        for _ in range(len(self._backends)):
            now = self._now()
            index = self._select(now)
            self._switch_to(index, method,
                            cause=type(last_error).__name__
                            if last_error is not None else "probation")
            try:
                result = self._call_endpoint(index, method, func_name,
                                             address, *args, **kwargs)
            except (DeadlineExceeded, CircuitOpen) as error:
                last_error = error
                self._record(index, success=False, now=self._now())
                continue
            self._record(index, success=True, now=self._now())
            return result
        raise last_error  # every endpoint tried and refused

    def _call_endpoint(self, index: int, method: str, func_name: str,
                       address: bytes | None, *args, **kwargs):
        """One endpoint's retry loop — ResilientNode semantics with
        endpoint-labeled metrics and a per-endpoint breaker."""
        func = getattr(self._backends[index], func_name)
        breaker = self._breaker(index, method)
        endpoint = str(index)
        started = self._now()
        attempt = 0
        while True:
            if not breaker.admit(self._now()):
                self.metrics.counter("resilience.circuit_open_rejections",
                                     method=method, endpoint=endpoint).inc()
                raise CircuitOpen(
                    f"circuit for {method} on endpoint {index} is open "
                    f"(retry at t={breaker.retry_at():.3f})",
                    method=method, retry_at=breaker.retry_at())
            try:
                result = func(*args, **kwargs)
            except TransientRpcError as error:
                now = self._now()
                breaker.record_failure(now)
                attempt += 1
                elapsed = now - started
                delay = self._rng.uniform(
                    0, self.policy.backoff_ceiling(attempt - 1))
                if (attempt >= self.policy.max_attempts
                        or elapsed + delay > self.policy.deadline_s):
                    self.metrics.counter("resilience.deadline_exceeded",
                                         method=method,
                                         endpoint=endpoint).inc()
                    raise DeadlineExceeded(
                        f"{method} on endpoint {index} failed after "
                        f"{attempt} attempt(s) / {elapsed:.3f}s: {error}",
                        method=method, address=address,
                        attempts=attempt, elapsed_s=elapsed) from error
                self.metrics.counter("resilience.retries", method=method,
                                     endpoint=endpoint).inc()
                self.metrics.counter("resilience.backoff_seconds",
                                     method=method,
                                     endpoint=endpoint).inc(delay)
                self._wait(delay)
                continue
            breaker.record_success(self._now())
            return result

    # ----------------------------------------------------------------- reads
    def get_code(self, address: bytes, block_number: int | None = None) -> bytes:
        return self._invoke("eth_getCode", "get_code", address,
                            address, block_number)

    def get_storage_at(self, address: bytes, slot: int,
                       block_number: int | None = None) -> int:
        return self._invoke("eth_getStorageAt", "get_storage_at", address,
                            address, slot, block_number)

    def get_balance(self, address: bytes) -> int:
        return self._invoke("eth_getBalance", "get_balance", address, address)

    def call(self, to: bytes, data: bytes = b"",
             sender: bytes = b"\x00" * 20,
             block_number: int | None = None, **kwargs):
        return self._invoke("eth_call", "call", to, to, data, sender=sender,
                            block_number=block_number, **kwargs)

    def is_alive(self, address: bytes) -> bool:
        return self._invoke("eth_getCode", "is_alive", address, address)

    def get_logs(self, address: bytes | None = None,
                 topic: int | None = None,
                 from_block: int | None = None,
                 to_block: int | None = None):
        return self._invoke("eth_getLogs", "get_logs", address,
                            address, topic, from_block, to_block)

    def transactions_of(self, address: bytes):
        return self._invoke("eth_getTransactionsByAddress",
                            "transactions_of", address, address)

    def has_transactions(self, address: bytes) -> bool:
        return self._invoke("eth_getTransactionCountByAddress",
                            "has_transactions", address, address)

    def get_transaction_count(self, address: bytes) -> int:
        return self._invoke("eth_getTransactionCount",
                            "get_transaction_count", address, address)


def build_failover_node(node, endpoints: int, *, chaos: str | None = None,
                        chaos_seed: int = 1337, events=None) -> FailoverNode:
    """Wire ``endpoints`` backends over ``node``'s chain into one failover
    stack — the shared construction used by the CLI, :class:`SweepSpec`
    and the serve daemon.

    ``node`` becomes endpoint 0; ``endpoints - 1`` additional
    :class:`~repro.chain.node.ArchiveNode` replicas share its chain and
    metrics registry.  With ``chaos``, the canned fault plan wraps *only
    the primary* — the mid-sweep-primary-outage model the failover layer
    exists to absorb (contrast :func:`~repro.chain.faults.build_chaos_stack`,
    which pairs a single faulty node with a resilient wrapper).
    """
    from repro.chain.faults import FaultyNode, canned_plan
    from repro.chain.node import ArchiveNode

    if endpoints < 1:
        raise ConfigurationError(
            f"--rpc-endpoints must be >= 1, got {endpoints}")
    budget = getattr(node, "call_instruction_budget", None)
    backends = [node]
    for _ in range(endpoints - 1):
        backends.append(ArchiveNode(node.chain, metrics=node.metrics,
                                    call_instruction_budget=budget))
    if chaos is not None:
        backends[0] = FaultyNode(backends[0],
                                 canned_plan(chaos, seed=chaos_seed))
    return FailoverNode(backends, seed=chaos_seed, events=events)


__all__ = [
    "DEFAULT_PROBATION_S",
    "EndpointHealth",
    "FailoverNode",
    "build_failover_node",
]
