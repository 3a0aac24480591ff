"""Verdict provenance: evidence-carrying audit trails for every analysis.

Metrics say how much, the event journal says what happened operationally —
this module records *why the analyzer concluded what it concluded*.  Every
verdict the pipeline emits ("this is a proxy", "slot X held logic Y",
"these selectors collide") is backed by concrete observations: which probe
calldata reached a forwarding ``DELEGATECALL``, which ``SLOAD`` matched
the delegation target, which ``getStorageAt`` reads fed each Algorithm 1
binary-search step, where each selector came from.  The trail captures
those observations as a causal tree so a disagreement with ground truth
(Table 2) can be audited read-only, without re-running the sweep.

* :class:`EvidenceTrail` — the recorder the pipeline threads through the
  hot path.  ``trail.note(kind, **detail)`` records one observation;
  ``with trail.begin(kind, **detail):`` opens a nested evidence section.
* :data:`NULL_TRAIL` — the shared no-op (``enabled=False``); the default
  everywhere, so the un-audited path pays one attribute check per hook
  (proved by the ``pipeline_audited`` bench workload).
* :class:`AuditDir` — per-contract JSONL evidence files (schema
  ``repro.evidence/1``) with the flight recorder's durability discipline:
  schema header first, one line per evidence section, written to a
  temporary file that is fsynced and atomically renamed — the same
  channel worker results ship over, so a SIGKILL can never leave a
  half-written evidence file under the final name.  Readers drop (and
  count) a truncated **final** line and refuse earlier corruption.
* :func:`render_trail` — the human-readable narrative behind
  ``repro explain``; :meth:`EvidenceTrail.digest` is the compact summary
  embedded in serialized analyses so stored, restored and merged parallel
  sweeps keep provenance.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ConfigurationError

#: Version tag of the evidence file layout.
SCHEMA = "repro.evidence/1"

# --------------------------------------------------------- evidence taxonomy
# Pipeline sections (one per analysis stage).
SECTION_PROXY = "proxy_detection"
SECTION_LOGIC = "logic_recovery"
SECTION_COLLISIONS = "collision_scoring"

# Proxy detection (§4.1–§4.3).
PROXY_PREFILTER = "proxy.prefilter"       # §4.1 DELEGATECALL disassembly
PROXY_PROBE = "proxy.probe"               # one §4.2 emulation attempt
PROXY_FORWARD = "proxy.forward"           # the qualifying DELEGATECALL
PROXY_NO_FORWARD = "proxy.no-forward"     # clean negative / emulation error
PROXY_PATTERN = "proxy.pattern"           # §4.3 logic-location classification
PROXY_SLOAD = "proxy.sload"               # storage read observed in emulation
PROXY_INSTANCE_READ = "proxy.instance-read"  # dedup-hit per-instance re-read

# Dedup caches (§6.1): a verdict transferred instead of recomputed.
DEDUP_HIT = "dedup.hit"

# Algorithm 1 logic recovery (§4.3).
SEARCH_READ = "search.read"               # one slot read feeding the search
SEARCH_STEP = "search.step"               # one binary-partition decision
LOGIC_SOURCE = "logic.source"             # hardcoded vs storage-slot method
LOGIC_HISTORY = "logic.history"           # the recovered address history

# Collision scoring (§5.1/§5.2).
PAIR = "pair"                             # one proxy/logic code pair
FUNCTION_SELECTORS = "function.selectors"  # per-side selector provenance
FUNCTION_COLLISION = "function.collision"
STORAGE_PROFILE = "storage.profile"
STORAGE_COLLISION = "storage.collision"
STORAGE_VERIFY = "storage.verify"

# Attribution and mining.
RPC_READ = "rpc.read"                     # one archive-node read
MINING_ATTEMPT = "mining.attempt"         # §2.3 selector-mining progress
MINING_RESULT = "mining.result"

#: Every kind this version of the schema emits, for docs and validation.
EVIDENCE_KINDS = (
    SECTION_PROXY, SECTION_LOGIC, SECTION_COLLISIONS,
    PROXY_PREFILTER, PROXY_PROBE, PROXY_FORWARD, PROXY_NO_FORWARD,
    PROXY_PATTERN, PROXY_SLOAD, PROXY_INSTANCE_READ,
    DEDUP_HIT,
    SEARCH_READ, SEARCH_STEP, LOGIC_SOURCE, LOGIC_HISTORY,
    PAIR, FUNCTION_SELECTORS, FUNCTION_COLLISION,
    STORAGE_PROFILE, STORAGE_COLLISION, STORAGE_VERIFY,
    RPC_READ, MINING_ATTEMPT, MINING_RESULT,
)


@dataclass(slots=True)
class EvidenceNode:
    """One observation (leaf) or evidence section (subtree)."""

    kind: str
    detail: dict[str, Any] = field(default_factory=dict)
    children: list["EvidenceNode"] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"kind": self.kind}
        if self.detail:
            record["detail"] = self.detail
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "EvidenceNode":
        return cls(
            kind=record.get("kind", "?"),
            detail=dict(record.get("detail", {})),
            children=[cls.from_dict(child)
                      for child in record.get("children", [])],
        )

    def walk(self) -> Iterator["EvidenceNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class EvidenceTrail:
    """Records the causal evidence tree of one contract's analysis.

    The pipeline opens one section per stage (``begin``) and detectors
    attach observations (``note``) to whatever section is currently open.
    The trail is single-analysis, single-thread state: each contract gets
    its own instance, so no locking is needed on the hot path.
    """

    enabled = True

    def __init__(self, address: bytes | None = None) -> None:
        self.address = address
        self._root = EvidenceNode(kind="analysis")
        self._stack: list[EvidenceNode] = [self._root]

    # -------------------------------------------------------------- recording
    def note(self, kind: str, /, **detail: Any) -> EvidenceNode:
        """Attach one observation to the currently open section.

        ``kind`` is positional-only so detail keys named ``kind`` (e.g. a
        storage collision's overlap kind) never clash with it.
        """
        node = EvidenceNode(kind=kind, detail=detail)
        self._stack[-1].children.append(node)
        return node

    @contextmanager
    def begin(self, kind: str, /, **detail: Any):
        """Open a nested evidence section for the duration of the block."""
        node = self.note(kind, **detail)
        self._stack.append(node)
        try:
            yield node
        finally:
            self._stack.pop()

    # ------------------------------------------------------------------ reads
    @property
    def sections(self) -> list[EvidenceNode]:
        """The top-level evidence sections, in recording order."""
        return self._root.children

    def __len__(self) -> int:
        return sum(1 for _ in self._root.walk()) - 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA,
            "address": ("0x" + self.address.hex()
                        if self.address is not None else None),
            "evidence": [section.to_dict() for section in self.sections],
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "EvidenceTrail":
        rendered = record.get("address")
        address = (bytes.fromhex(rendered.removeprefix("0x"))
                   if rendered else None)
        trail = cls(address)
        trail._root.children.extend(
            EvidenceNode.from_dict(section)
            for section in record.get("evidence", []))
        return trail

    def digest(self) -> dict[str, Any]:
        """Compact summary that rides inside serialized analyses.

        Deterministic for a deterministic analysis (kinds sorted, counts
        exact), so parallel merges stay byte-identical to serial sweeps.
        Keys come in sorted order, the order the store writes them in, so
        a digest restored from the store prints the same bytes as a fresh
        one.
        """
        kinds: dict[str, int] = {}
        for node in self._root.walk():
            if node is self._root:
                continue
            kinds[node.kind] = kinds.get(node.kind, 0) + 1
        return {
            "kinds": dict(sorted(kinds.items())),
            "schema": SCHEMA,
            "sections": [section.kind for section in self.sections],
        }


class _NullContext:
    """Reusable ``with``-target so ``NULL_TRAIL.begin`` allocates nothing."""

    __slots__ = ("_node",)

    def __init__(self, node: EvidenceNode) -> None:
        self._node = node

    def __enter__(self) -> EvidenceNode:
        return self._node

    def __exit__(self, *exc_info) -> None:
        return None


class NullTrail(EvidenceTrail):
    """Records nothing; ``note``/``begin`` are constant-cost no-ops."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_node = EvidenceNode(kind="null")
        self._null_context = _NullContext(self._null_node)

    def note(self, kind: str, /, **detail: Any) -> EvidenceNode:
        return self._null_node

    def begin(self, kind: str, /, **detail: Any):
        return self._null_context


#: Shared no-op trail — the default everywhere evidence is optional.
NULL_TRAIL = NullTrail()


# ------------------------------------------------------------------ audit dir
def evidence_filename(address: bytes) -> str:
    """The per-contract evidence file name inside an audit directory."""
    return "0x" + address.hex() + ".evidence.jsonl"


class AuditDir:
    """A directory of per-contract JSONL evidence files.

    Layout per file: line 1 is the schema header (``repro.evidence/1``
    plus the contract address and writer pid), then one JSON line per
    top-level evidence section.  Files are written whole to a ``.tmp``
    sibling, flushed, fsynced, and atomically renamed into place — the
    same channel the supervisor ships worker results over — so readers
    (including a concurrent ``repro explain``) only ever see complete
    files under the final name.  Parallel workers write into the same
    directory without coordination: shards partition the address space,
    so each contract's file has exactly one writer.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as error:
            raise ConfigurationError(
                f"cannot create audit directory {path!r}: {error}") from None

    # -------------------------------------------------------------- write side
    def write(self, trail: EvidenceTrail) -> str:
        """Durably persist one contract's trail; returns the file path."""
        if trail.address is None:
            raise ConfigurationError(
                "cannot persist an evidence trail without an address")
        final = os.path.join(self.path, evidence_filename(trail.address))
        tmp = final + ".tmp"
        header = {"schema": SCHEMA, "address": "0x" + trail.address.hex(),
                  "pid": os.getpid()}
        with open(tmp, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(header, separators=(",", ":")) + "\n")
            for section in trail.sections:
                # ``default=repr``: a non-JSON detail value degrades to its
                # repr instead of killing a live audited sweep.
                stream.write(json.dumps(section.to_dict(),
                                        separators=(",", ":"),
                                        default=repr) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, final)
        return final

    # --------------------------------------------------------------- read side
    def addresses(self) -> list[bytes]:
        """Every contract with an evidence file, sorted."""
        found: list[bytes] = []
        for name in os.listdir(self.path):
            if not name.endswith(".evidence.jsonl"):
                continue
            stem = name.removesuffix(".evidence.jsonl")
            try:
                found.append(bytes.fromhex(stem.removeprefix("0x")))
            except ValueError:
                continue
        return sorted(found)

    def read(self, address: bytes) -> EvidenceTrail:
        """Load one contract's trail, tolerating a crash-truncated tail.

        Same contract as the event journal reader: a partial **final**
        line is dropped (the observation it described is lost, never
        corrupted); garbling anywhere earlier refuses loudly.
        """
        path = os.path.join(self.path, evidence_filename(address))
        try:
            with open(path, encoding="utf-8") as stream:
                lines = stream.read().splitlines()
        except OSError as error:
            raise ConfigurationError(
                f"no evidence for 0x{address.hex()} in {self.path!r} "
                f"({error})") from None
        if not lines or not lines[0].strip():
            raise ConfigurationError(
                f"evidence file {path!r} is empty (no header)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"evidence file {path!r} has an unreadable header "
                f"({error})") from None
        if not isinstance(header, dict) or header.get("schema") != SCHEMA:
            raise ConfigurationError(
                f"evidence file {path!r} has schema "
                f"{header.get('schema') if isinstance(header, dict) else '?'!r}, "
                f"expected {SCHEMA!r}")
        trail = EvidenceTrail(address)
        last = len(lines) - 1
        for index, line in enumerate(lines[1:], start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == last:
                    continue     # crash-truncated tail: drop, keep the rest
                raise ConfigurationError(
                    f"evidence file {path!r} is corrupt at line {index + 1} "
                    f"(not the final line, so not a crash-truncation "
                    f"artifact)") from None
            trail._root.children.append(EvidenceNode.from_dict(record))
        return trail


# ------------------------------------------------------------------ rendering
_SECTION_TITLES = {
    SECTION_PROXY: "proxy detection (§4.1–§4.2)",
    SECTION_LOGIC: "logic recovery (§4.3, Algorithm 1)",
    SECTION_COLLISIONS: "collision scoring (§5)",
}


def _describe(node: EvidenceNode) -> str:
    """One narrative line for one evidence node."""
    d = node.detail
    kind = node.kind
    if kind in _SECTION_TITLES:
        return _SECTION_TITLES[kind]
    if kind == PROXY_PREFILTER:
        if d.get("outcome") == "no-code":
            return "prefilter: address has no code"
        has = d.get("delegatecall")
        return ("prefilter: DELEGATECALL present in bytecode" if has
                else "prefilter: no DELEGATECALL at any instruction boundary")
    if kind == PROXY_PROBE:
        return (f"probe {d.get('calldata', '?')} "
                f"({d.get('source', 'crafted')})")
    if kind == PROXY_FORWARD:
        return (f"forwarded calldata unmodified to {d.get('target', '?')} "
                f"via DELEGATECALL at pc {d.get('pc', '?')}")
    if kind == PROXY_NO_FORWARD:
        outcome = d.get("outcome", "?")
        if outcome == "emulation-error":
            return f"no forward: emulation failed ({d.get('error', '?')})"
        return f"no forward: {outcome}"
    if kind == PROXY_PATTERN:
        location = d.get("location", "?")
        if location == "storage":
            return (f"pattern: logic address read from storage slot "
                    f"{d.get('slot', '?')}" + (
                        f" ({d['standard']})" if d.get("standard") else ""))
        if location == "hardcoded":
            return "pattern: logic address hard-coded in bytecode (EIP-1167)"
        return f"pattern: {location}"
    if kind == PROXY_SLOAD:
        matched = " — matched the delegation target" if d.get("matched") else ""
        return f"SLOAD slot {d.get('slot', '?')} -> {d.get('value', '?')}{matched}"
    if kind == PROXY_INSTANCE_READ:
        return (f"instance slot {d.get('slot', '?')} re-read -> "
                f"logic {d.get('logic', '?')}")
    if kind == DEDUP_HIT:
        return (f"dedup: {d.get('cache', '?')} verdict reused from code hash "
                f"{d.get('code_hash', '?')}")
    if kind == SEARCH_READ:
        return f"read slot @ block {d.get('block', '?')} -> {d.get('value', '?')}"
    if kind == SEARCH_STEP:
        decision = d.get("decision", "?")
        span = f"[{d.get('low', '?')}, {d.get('high', '?')}]"
        if decision == "uniform":
            return f"blocks {span}: endpoints equal, range assumed constant"
        if decision == "split":
            return f"blocks {span}: endpoints differ, split at {d.get('mid', '?')}"
        if decision == "change-at":
            return (f"blocks {span}: change isolated at block "
                    f"{d.get('block', '?')} -> {d.get('value', '?')}")
        return f"blocks {span}: {decision}"
    if kind == LOGIC_SOURCE:
        return f"method: {d.get('method', '?')}"
    if kind == LOGIC_HISTORY:
        return (f"history: {d.get('addresses', '?')} logic address(es), "
                f"{d.get('changes', '?')} change point(s), "
                f"{d.get('api_calls', '?')} getStorageAt calls")
    if kind == PAIR:
        return f"proxy/logic pair vs {d.get('logic', '?')}"
    if kind == FUNCTION_SELECTORS:
        return (f"{d.get('side', '?')} selectors: {d.get('count', '?')} from "
                f"{d.get('mode', '?')} "
                f"({'verified source prototypes' if d.get('mode') == 'source' else 'bytecode dispatcher pattern'})")
    if kind == FUNCTION_COLLISION:
        protos = ""
        if d.get("proxy_prototype") or d.get("logic_prototype"):
            protos = (f" (proxy {d.get('proxy_prototype') or '?'} vs "
                      f"logic {d.get('logic_prototype') or '?'})")
        return f"selector {d.get('selector', '?')} collides{protos}"
    if kind == STORAGE_PROFILE:
        return (f"{d.get('side', '?')} profile: {d.get('slots', '?')} slot(s) "
                f"from {d.get('mode', '?')} mode")
    if kind == STORAGE_COLLISION:
        flags = [flag for flag in ("sensitive", "exploitable", "verified")
                 if d.get(flag)]
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (f"slot {d.get('slot', '?')}: proxy bytes "
                f"{d.get('proxy_range', '?')} vs logic bytes "
                f"{d.get('logic_range', '?')} ({d.get('kind', '?')}){suffix}")
    if kind == STORAGE_VERIFY:
        changed = d.get("changed")
        return (f"exploit via selector {d.get('selector', '?')}: sensitive "
                f"bytes {'changed — verified' if changed else 'unchanged'}")
    if kind == RPC_READ:
        where = d.get("slot")
        at = f" slot {where}" if where is not None else ""
        block = d.get("block")
        height = f" @ block {block}" if block is not None else ""
        return (f"{d.get('method', '?')} {d.get('address', '?')}{at}{height}"
                + (f" -> {d['value']}" if "value" in d else ""))
    if kind == MINING_ATTEMPT:
        return f"mining attempt {d.get('attempts', '?')}: {d.get('name', '?')}"
    if kind == MINING_RESULT:
        return (f"mined {d.get('name', '?')} -> selector "
                f"{d.get('selector', '?')} after {d.get('attempts', '?')} "
                f"attempt(s)")
    rendered = ", ".join(f"{key}={value}" for key, value in d.items())
    return f"{kind}" + (f": {rendered}" if rendered else "")


def render_trail(trail: EvidenceTrail) -> str:
    """The evidence tree as an indented human-readable narrative."""
    address = ("0x" + trail.address.hex()
               if trail.address is not None else "<unknown>")
    lines = [f"evidence for {address} ({SCHEMA})"]
    if not trail.sections:
        lines.append("  (no evidence recorded)")

    def emit(node: EvidenceNode, depth: int) -> None:
        lines.append("  " * depth + _describe(node))
        for child in node.children:
            emit(child, depth + 1)

    for section in trail.sections:
        emit(section, 1)
    return "\n".join(lines)


__all__ = [
    "AuditDir",
    "DEDUP_HIT",
    "EVIDENCE_KINDS",
    "EvidenceNode",
    "EvidenceTrail",
    "FUNCTION_COLLISION",
    "FUNCTION_SELECTORS",
    "LOGIC_HISTORY",
    "LOGIC_SOURCE",
    "MINING_ATTEMPT",
    "MINING_RESULT",
    "NULL_TRAIL",
    "NullTrail",
    "PAIR",
    "PROXY_FORWARD",
    "PROXY_INSTANCE_READ",
    "PROXY_NO_FORWARD",
    "PROXY_PATTERN",
    "PROXY_PREFILTER",
    "PROXY_PROBE",
    "PROXY_SLOAD",
    "RPC_READ",
    "SCHEMA",
    "SEARCH_READ",
    "SEARCH_STEP",
    "SECTION_COLLISIONS",
    "SECTION_LOGIC",
    "SECTION_PROXY",
    "STORAGE_COLLISION",
    "STORAGE_PROFILE",
    "STORAGE_VERIFY",
    "evidence_filename",
    "render_trail",
]
