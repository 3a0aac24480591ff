"""``repro.api`` — the versioned query surface (``repro.query/1``).

Every way of asking this codebase a question about one contract — the
``repro explain`` CLI, the ``repro serve`` HTTP daemon, a direct store
lookup — constructs the *same* typed answer records defined here and
serializes them through the *same* canonical encoder.  That is the whole
point of the module: for the same store state, ``repro explain ADDR
--json --store PATH`` and ``GET /v1/contract/ADDR`` return
**byte-identical** bodies, because neither owns its own serializer
(the ``served-http`` cell of ``tests/integration/test_equivalence.py``
checks the guarantee).

Answer kinds:

* :class:`ContractAnswer` — "is this address a proxy?", with the full
  analysis record, the quarantine record, or the skip verdict;
* :class:`EvidenceAnswer` — a contract answer that also carries the
  ``repro.evidence/1`` trail (``repro explain``'s output);
* :class:`StatusAnswer` — a sweep journal snapshot (``repro status
  --json`` and ``GET /progress``);
* :class:`ServerAnswer` — the daemon's own vitals (``GET /v1/server``);
* :class:`ErrorAnswer` — a typed refusal (rate-limited, overloaded,
  bad address), carrying the HTTP status and ``Retry-After`` hint.

Canonical encoding: ``to_json`` is ``json.dumps(record, indent=2,
sort_keys=True)``; ``encode`` appends the trailing newline ``print``
adds, yielding the exact HTTP body bytes.  Every key of a record is
always present (``null`` when inapplicable) so consumers never probe
for optional fields.

:data:`SCHEMA_REGISTRY` is the one table of every versioned wire format
this repository speaks (documented in ``docs/service.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.pipeline import Proxion
    from repro.core.report import ContractAnalysis
    from repro.obs.console import SweepStatus
    from repro.obs.provenance import EvidenceTrail
    from repro.store.store import AnalysisStore

#: Version tag carried by every answer record.
QUERY_SCHEMA = "repro.query/1"

#: Every versioned wire format in the repository, in one place: tag →
#: (producer, one-line meaning).  ``docs/service.md`` renders this table
#: and a test pins it, so adding a schema anywhere forces the registry
#: (and the docs) to follow.
SCHEMA_REGISTRY: dict[str, tuple[str, str]] = {
    "repro.store/1": (
        "survey --store / repro serve",
        "durable SQLite analysis store (hash facts + instance rows)"),
    "repro.events/1": (
        "survey --events",
        "flight-recorder journal of sweep lifecycle events"),
    "repro.evidence/1": (
        "survey --audit / repro explain",
        "per-contract verdict provenance trail"),
    "repro.bench/1": (
        "repro bench",
        "benchmark suite payload (workload medians + dims)"),
    "repro.bench-row/1": (
        "repro bench",
        "one workload's timing row inside a bench payload"),
    QUERY_SCHEMA: (
        "repro explain/status --json / repro serve",
        "typed query answers (contract, evidence, status, server, error)"),
}

# Contract verdicts (the closed set a ContractAnswer may carry).
VERDICT_PROXY = "proxy"
VERDICT_NOT_PROXY = "not-proxy"
VERDICT_QUARANTINED = "quarantined"
VERDICT_SKIPPED = "skipped"

# Where an answer's facts came from.
SOURCE_STORE = "store"
SOURCE_FRESH = "fresh"
SOURCE_AUDIT = "audit"


def _hex(address: bytes) -> str:
    return "0x" + address.hex()


# ------------------------------------------------------------- answer types
@dataclass(frozen=True, slots=True)
class ContractAnswer:
    """One contract's point answer: verdict plus its supporting record."""

    address: str                      # 0x-hex
    verdict: str                      # VERDICT_* above
    source: str                       # SOURCE_* above
    analysis: dict[str, Any] | None   # the serialized ContractAnalysis
    failure: dict[str, Any] | None    # the serialized ContractFailure

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": QUERY_SCHEMA,
            "kind": "contract",
            "address": self.address,
            "verdict": self.verdict,
            "source": self.source,
            "analysis": self.analysis,
            "failure": self.failure,
        }


@dataclass(frozen=True, slots=True)
class EvidenceAnswer:
    """A contract's provenance trail as a query answer.

    ``evidence`` nests the complete ``repro.evidence/1`` record
    (schema tag, address, sections) exactly as the trail serializes
    itself — the envelope adds provenance (``source``) without
    re-encoding the trail.
    """

    address: str
    source: str
    evidence: dict[str, Any]          # EvidenceTrail.to_dict()

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": QUERY_SCHEMA,
            "kind": "evidence",
            "address": self.address,
            "source": self.source,
            "evidence": self.evidence,
        }


@dataclass(frozen=True, slots=True)
class StatusAnswer:
    """A sweep journal snapshot in the query envelope."""

    status: dict[str, Any]            # SweepStatus.to_dict()

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": QUERY_SCHEMA,
            "kind": "status",
            "status": self.status,
        }


@dataclass(frozen=True, slots=True)
class ServerAnswer:
    """The serve daemon's own vitals (``GET /v1/server``)."""

    store: str | None
    contracts: int
    failures: int
    skips: int
    settled_code_hashes: int
    following: bool
    blocks_scanned: int
    queries: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": QUERY_SCHEMA,
            "kind": "server",
            "store": self.store,
            "contracts": self.contracts,
            "failures": self.failures,
            "skips": self.skips,
            "settled_code_hashes": self.settled_code_hashes,
            "following": self.following,
            "blocks_scanned": self.blocks_scanned,
            "queries": self.queries,
        }


@dataclass(frozen=True, slots=True)
class ErrorAnswer:
    """A typed refusal; ``status`` doubles as the HTTP response code."""

    error: str
    status: int = 400
    retry_after_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": QUERY_SCHEMA,
            "kind": "error",
            "error": self.error,
            "status": self.status,
            "retry_after_s": self.retry_after_s,
        }


Answer = (ContractAnswer | EvidenceAnswer | StatusAnswer | ServerAnswer
          | ErrorAnswer)


# -------------------------------------------------------- canonical encoder
def to_json(answer: Answer) -> str:
    """The one serializer every surface uses (no trailing newline)."""
    return json.dumps(answer.to_dict(), indent=2, sort_keys=True)


def encode(answer: Answer) -> bytes:
    """The exact HTTP body bytes: ``to_json`` plus the newline ``print``
    appends — this is what makes CLI and HTTP answers byte-identical."""
    return (to_json(answer) + "\n").encode("utf-8")


# ------------------------------------------------------------- constructors
def answer_from_analysis(analysis: "ContractAnalysis",
                         source: str) -> ContractAnswer:
    """Wrap a live :class:`ContractAnalysis` in the answer envelope."""
    from repro.landscape.serialize import analysis_to_dict

    return ContractAnswer(
        address=_hex(analysis.address),
        verdict=VERDICT_PROXY if analysis.is_proxy else VERDICT_NOT_PROXY,
        source=source,
        analysis=analysis_to_dict(analysis),
        failure=None,
    )


def answer_from_record(record: dict[str, Any], source: str) -> ContractAnswer:
    """Wrap a stored (already serialized) analysis record."""
    return ContractAnswer(
        address=record["address"],
        verdict=(VERDICT_PROXY if record.get("is_proxy")
                 else VERDICT_NOT_PROXY),
        source=source,
        analysis=record,
        failure=None,
    )


def answer_from_store(store: "AnalysisStore",
                      address: bytes) -> ContractAnswer | None:
    """The store's point answer for one address, or ``None`` on a miss.

    Checks the three mutually-exclusive instance tables in verdict
    priority order (an address lives in at most one).
    """
    record = store.load_analysis_record(address)
    if record is not None:
        return answer_from_record(record, SOURCE_STORE)
    failure = store.load_failure_record(address)
    if failure is not None:
        return ContractAnswer(address=_hex(address),
                              verdict=VERDICT_QUARANTINED,
                              source=SOURCE_STORE,
                              analysis=None, failure=failure)
    if store.has_skip(address):
        return ContractAnswer(address=_hex(address), verdict=VERDICT_SKIPPED,
                              source=SOURCE_STORE,
                              analysis=None, failure=None)
    return None


def fresh_answer(proxion: "Proxion", address: bytes) -> ContractAnswer:
    """Analyze one address now and answer from the result.

    Mirrors one iteration of ``analyze_all``: the §3.1 liveness probe
    first (dead → ``skipped``), quarantine-on-exception
    (cause-classified, never a 500), and write-through to the bound
    store so the *next* query is a store hit.  Deliberately runs without
    an evidence trail: the CLI's fresh path does the same, which keeps
    fresh CLI and HTTP answers byte-identical too.
    """
    from repro.core.report import ContractFailure
    from repro.errors import classify_cause
    from repro.landscape.serialize import failure_to_dict

    store = proxion.store
    if not proxion.node.is_alive(address):
        if store is not None:
            store.record_skip(address)
        return ContractAnswer(address=_hex(address), verdict=VERDICT_SKIPPED,
                              source=SOURCE_FRESH,
                              analysis=None, failure=None)
    try:
        analysis = proxion.analyze_contract(address)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as error:
        failure = ContractFailure(address=address,
                                  cause=classify_cause(error),
                                  error=str(error), stage="analysis")
        if store is not None:
            store.record_failure(failure)
        return ContractAnswer(address=_hex(address),
                              verdict=VERDICT_QUARANTINED,
                              source=SOURCE_FRESH,
                              analysis=None,
                              failure=failure_to_dict(failure))
    if store is not None:
        store.record_analysis(analysis)
    return answer_from_analysis(analysis, SOURCE_FRESH)


def evidence_answer(trail: "EvidenceTrail", source: str) -> EvidenceAnswer:
    """Wrap a provenance trail in the query envelope."""
    record = trail.to_dict()
    return EvidenceAnswer(address=record["address"], source=source,
                          evidence=record)


def status_answer(status: "SweepStatus") -> StatusAnswer:
    """Wrap a journal snapshot in the query envelope."""
    return StatusAnswer(status=status.to_dict())


# --------------------------------------------------------- human rendering
def describe_answer(answer: ContractAnswer) -> str:
    """The short human line for a contract answer (non-``--json`` CLI)."""
    if answer.verdict == VERDICT_QUARANTINED:
        failure = answer.failure or {}
        return (f"{answer.address}: quarantined "
                f"({failure.get('cause', '?')} at "
                f"{failure.get('stage', '?')}: {failure.get('error', '')}) "
                f"[{answer.source}]")
    if answer.verdict == VERDICT_SKIPPED:
        return f"{answer.address}: no code (dead address) [{answer.source}]"
    record = answer.analysis or {}
    if answer.verdict == VERDICT_NOT_PROXY:
        return f"{answer.address}: not a proxy [{answer.source}]"
    bits = [f"{answer.address}: proxy",
            f"standard={record.get('standard')}"]
    if record.get("hidden"):
        bits.append("hidden")
    history = record.get("logic_history") or {}
    logic = history.get("addresses") or []
    if logic:
        bits.append(f"logic={logic[-1]} "
                    f"({history.get('upgrade_count', 0)} upgrades)")
    functions = len(record.get("function_collisions") or [])
    storage = len(record.get("storage_collisions") or [])
    if functions or storage:
        bits.append(f"collisions={functions}F/{storage}S")
    return " ".join(bits) + f" [{answer.source}]"


__all__ = [
    "QUERY_SCHEMA",
    "SCHEMA_REGISTRY",
    "VERDICT_NOT_PROXY",
    "VERDICT_PROXY",
    "VERDICT_QUARANTINED",
    "VERDICT_SKIPPED",
    "SOURCE_AUDIT",
    "SOURCE_FRESH",
    "SOURCE_STORE",
    "Answer",
    "ContractAnswer",
    "ErrorAnswer",
    "EvidenceAnswer",
    "ServerAnswer",
    "StatusAnswer",
    "answer_from_analysis",
    "answer_from_record",
    "answer_from_store",
    "describe_answer",
    "encode",
    "evidence_answer",
    "fresh_answer",
    "status_answer",
    "to_json",
]
