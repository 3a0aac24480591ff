"""The ProxioN exception hierarchy.

The §6 landscape study is an ~10⁹-RPC regime: rate limits, transient
node failures, restarts and runaway bytecode are *expected* events, not
exceptional ones.  Every error the reproduction raises on purpose derives
from :class:`ProxionError`, split along the axis the pipeline cares about:

* :class:`TransientRpcError` (and its refinements) — *retryable*; the
  resilient node wrapper (:mod:`repro.chain.resilient`) absorbs these with
  capped, jittered backoff;
* :class:`DeadlineExceeded` / :class:`CircuitOpen` — the retry machinery
  itself giving up; the pipeline quarantines the contract and keeps
  sweeping (:meth:`repro.core.pipeline.Proxion.analyze_all`);
* :class:`ConfigurationError` — caller misuse, never retried and never
  quarantined silently (it also subclasses :class:`ValueError` so legacy
  ``except ValueError`` call sites keep working).

:func:`classify_cause` maps any exception to the short cause label used by
quarantine records, the ``pipeline.quarantined{cause=...}`` counter, and
``LandscapeReport`` serialization.
"""

from __future__ import annotations


class ProxionError(Exception):
    """Base class of every deliberate ProxioN error."""


class ConfigurationError(ProxionError, ValueError):
    """API misuse / invalid arguments — a bug at the call site, not a fault.

    Subclasses :class:`ValueError` for backwards compatibility with callers
    (and tests) that predate the hierarchy.
    """


class RpcError(ProxionError):
    """An archive-node RPC failed.

    ``method`` is the JSON-RPC method name (``eth_getStorageAt``, ...);
    ``address`` the contract being queried, when one is in play.
    """

    def __init__(self, message: str, *, method: str | None = None,
                 address: bytes | None = None) -> None:
        super().__init__(message)
        self.method = method
        self.address = address


class TransientRpcError(RpcError):
    """A retryable RPC failure (connection reset, 5xx, flapping node).

    ``kind`` is a short taxonomy label (``connection`` / ``timeout`` /
    ``rate-limit`` / ``outage``) used by fault-injection accounting and by
    :func:`classify_cause`.
    """

    kind = "connection"

    def __init__(self, message: str, *, method: str | None = None,
                 address: bytes | None = None,
                 kind: str | None = None) -> None:
        super().__init__(message, method=method, address=address)
        if kind is not None:
            self.kind = kind


class RateLimitedError(TransientRpcError):
    """The node shed load (HTTP 429-shaped); retry after backing off."""

    kind = "rate-limit"

    def __init__(self, message: str, *, method: str | None = None,
                 address: bytes | None = None,
                 retry_after_s: float = 0.0) -> None:
        super().__init__(message, method=method, address=address)
        self.retry_after_s = retry_after_s


class RpcTimeout(TransientRpcError):
    """The call outlived its per-request timeout."""

    kind = "timeout"


class NodeOutageError(TransientRpcError):
    """The node is down (restart window / sustained outage)."""

    kind = "outage"


class DeadlineExceeded(RpcError):
    """The retry machinery exhausted its per-call budget.

    Raised by :class:`~repro.chain.resilient.ResilientNode` when either the
    attempt budget or the wall-clock deadline runs out; chains the last
    underlying transient error as ``__cause__``.
    """

    def __init__(self, message: str, *, method: str | None = None,
                 address: bytes | None = None, attempts: int = 0,
                 elapsed_s: float = 0.0) -> None:
        super().__init__(message, method=method, address=address)
        self.attempts = attempts
        self.elapsed_s = elapsed_s


class CircuitOpen(RpcError):
    """The per-method circuit breaker is open; the call was not attempted.

    ``retry_at`` is the breaker-clock instant at which the next half-open
    probe becomes admissible.
    """

    def __init__(self, message: str, *, method: str | None = None,
                 retry_at: float = 0.0) -> None:
        super().__init__(message, method=method)
        self.retry_at = retry_at


class WorkerCrash(ProxionError):
    """A sweep worker process died (or wedged) instead of returning.

    Raised *descriptively*, never across the process boundary: the sweep
    supervisor (:mod:`repro.parallel.supervisor`) constructs one when it
    observes a worker exit abnormally (``exitcode``), kills a hung worker
    (heartbeat older than the shard timeout), or bisects a poison shard
    down to the single contract that keeps sinking its worker.  The
    instance carries the forensic context the quarantine record needs:
    ``shard`` (the original shard index), ``exitcode`` (negative = killed
    by that signal), and ``hung`` (True when the supervisor killed the
    worker itself).
    """

    def __init__(self, message: str, *, shard: int | None = None,
                 exitcode: int | None = None, hung: bool = False,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.shard = shard
        self.exitcode = exitcode
        self.hung = hung
        self.attempts = attempts


def classify_cause(error: BaseException) -> str:
    """The short cause label a failure is quarantined under.

    Stable, low-cardinality strings: they label metrics series and appear
    in stored failure records, so renames are schema changes.
    """
    if isinstance(error, WorkerCrash):
        return "worker-crash"
    if isinstance(error, CircuitOpen):
        return "circuit-open"
    if isinstance(error, DeadlineExceeded):
        return "deadline-exceeded"
    if isinstance(error, TransientRpcError):
        return f"transient-{error.kind}"
    if isinstance(error, RpcError):
        return "rpc"
    if isinstance(error, ConfigurationError):
        return "configuration"
    if isinstance(error, ProxionError):
        return "proxion"
    return type(error).__name__


__all__ = [
    "CircuitOpen",
    "ConfigurationError",
    "DeadlineExceeded",
    "NodeOutageError",
    "ProxionError",
    "RateLimitedError",
    "RpcError",
    "RpcTimeout",
    "TransientRpcError",
    "WorkerCrash",
    "classify_cause",
]
