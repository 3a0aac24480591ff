"""Per-layer tracing from outside the program.

The traced run wraps the public functions of each layer of ``repro``,
records one span per call, and restores every original afterwards.
Nothing inside ``src/`` records anything.

A wrapped function can be bound under many names: about fifteen modules do
``from repro.utils.keccak import keccak256``, so patching the defining
module alone would miss most calls.  :meth:`Tracer.install` therefore scans
``sys.modules`` for every module-level binding that *is* the original
function and rebinds it to the wrapper; methods are patched on their class.
:meth:`Tracer.uninstall` scans again, so a module imported while the
wrappers were live is restored too.

Spans stay in memory: a per-thread stack gives each span its parent, and a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass

#: Marker attribute set on every wrapper, so a scan can find leftovers.
MARKER = "__perfbench_probe__"


@dataclass(frozen=True, slots=True)
class Probe:
    """One wrapped callable: ``module`` + ``qualname`` (``Class.method``)."""

    span: str
    module: str
    qualname: str


#: Every layer boundary the traced run records, by span name.
PROBES = (
    Probe("keccak", "repro.utils.keccak", "keccak256"),
    Probe("explorer.resolve", "repro.chain.explorer", "SourceRegistry.resolve"),
    Probe("rpc.get_code", "repro.chain.node", "ArchiveNode.get_code"),
    Probe("rpc.get_storage_at", "repro.chain.node",
          "ArchiveNode.get_storage_at"),
    Probe("rpc.call", "repro.chain.node", "ArchiveNode.call"),
    Probe("evm.execute", "repro.evm.interpreter", "EVM.execute"),
    Probe("evm.disassemble", "repro.evm.disassembler", "disassemble"),
    Probe("symexec.summarize", "repro.core.symexec",
          "SymbolicExecutor.summarize"),
    Probe("proxy_detector.check", "repro.core.proxy_detector",
          "ProxyDetector.check"),
    Probe("logic_finder.find", "repro.core.logic_finder", "LogicFinder.find"),
    Probe("function_collision.detect", "repro.core.function_collision",
          "FunctionCollisionDetector.detect"),
    Probe("storage_collision.detect", "repro.core.storage_collision",
          "StorageCollisionDetector.detect"),
    Probe("store.write", "repro.store.binding", "StoreBinding.record_analysis"),
    Probe("store.write", "repro.store.binding", "StoreBinding.record_failure"),
    Probe("store.write", "repro.store.binding", "StoreBinding.record_skip"),
    Probe("store.restore", "repro.store.binding", "restore_instances"),
    Probe("store.hydrate", "repro.store.binding", "load_facts"),
    Probe("store.point_read", "repro.api", "answer_from_store"),
    Probe("serialize", "repro.landscape.serialize", "analysis_to_dict"),
    Probe("serialize", "repro.landscape.serialize", "report_to_json"),
    Probe("api.encode", "repro.api", "encode"),
    Probe("serve.query", "repro.serve", "QueryService.query"),
    Probe("parallel.shard", "repro.parallel.shard", "shard_addresses"),
    Probe("parallel.merge", "repro.landscape.merge", "merge_reports"),
    Probe("generator", "repro.corpus.generator", "generate_landscape"),
)


def import_all_repro_modules() -> None:
    """Import every ``repro`` module, so every binding exists before a scan."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _resolve(probe: Probe) -> tuple[object, str, object]:
    """The owner (module or class), attribute name and current value."""
    owner: object = importlib.import_module(probe.module)
    *path, name = probe.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def find_wrappers() -> list[str]:
    """Every module- or class-level binding that is still a probe wrapper."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, MARKER, None) is not None:
                found.append(f"{module_name}.{attr}")
            elif isinstance(value, type) and value.__module__ == module_name:
                for method, member in list(vars(value).items()):
                    if getattr(member, MARKER, None) is not None:
                        found.append(f"{module_name}.{attr}.{method}")
    return found


class Tracer:
    """In-memory span recorder over the wrapped layer functions.

    A span is ``(id, parent, span, thread, phase, start, end, self_s,
    nbytes)``.  ``phase`` is whatever :attr:`phase` was when the call began,
    so set-up and the measured window are told apart.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "run"
        #: Distinct keccak inputs seen, per phase (wasted-rehash ratio).
        self.keccak_inputs: dict[str, set[bytes]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original); holding the wrapper keeps
        #: its id from being reused while a stale binding may remain.
        self._originals: dict[int, tuple[object, object]] = {}

    # ------------------------------------------------------------- recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, span: str, function):
        tracer = self
        hashes = span == "keccak"
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            phase = tracer.phase
            # frame: [id, children_s]
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                nbytes = 0
                if hashes:
                    data = bytes(args[0] if args else kwargs["data"])
                    nbytes = len(data)
                    tracer.keccak_inputs.setdefault(phase, set()).add(data)
                tracer.spans.append((frame[0], parent, span,
                                     threading.get_ident(), phase, start, end,
                                     duration - frame[1], nbytes))

        setattr(wrapper, MARKER, span)
        return wrapper

    # ---------------------------------------------------------- (un)install
    def install(self) -> None:
        """Wrap every probe and rebind every module-level alias of it."""
        import_all_repro_modules()
        for probe in PROBES:
            owner, name, original = _resolve(probe)
            wrapper = self.wrap(probe.span, original)
            self._originals[id(wrapper)] = (wrapper, original)
            setattr(owner, name, wrapper)
            self._patches.append((owner, name, original))
            if isinstance(owner, type):
                continue
            for module_name, module in list(sys.modules.items()):
                if not module_name.startswith("repro") or module is owner:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every original, including bindings made while installed."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        leftovers = find_wrappers()
        if leftovers:
            raise RuntimeError(f"probe wrappers left installed: {leftovers}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # --------------------------------------------------------------- output
    def write_jsonl(self, path: str) -> None:
        keys = ("id", "parent", "span", "thread", "phase", "start", "end",
                "self_s", "bytes")
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps(dict(zip(keys, span))) + "\n")

    def totals(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``total_s`` and ``bytes``."""
        out: dict[str, dict[str, float]] = {}
        for (_id, _parent, span, _thread, span_phase, start, end, self_s,
             nbytes) in self.spans:
            if span_phase != phase:
                continue
            row = out.setdefault(span, {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0, "bytes": 0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
            row["bytes"] += nbytes
        return out
