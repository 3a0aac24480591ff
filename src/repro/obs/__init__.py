"""``repro.obs`` — the unified observability layer.

Dependency-free metrics + tracing for the whole reproduction:

* :mod:`repro.obs.registry` — counters / gauges / fixed-bucket histograms
  behind :class:`MetricsRegistry` (with :data:`NULL_REGISTRY` to opt out);
* :mod:`repro.obs.spans` — nested wall-clock spans with attribute capture,
  ring-buffer and JSON-lines sinks;
* :mod:`repro.obs.evmprof` — opt-in EVM execution profiling via tracer
  hooks, including flame-graph attribution (:class:`FlameProfiler`);
* :mod:`repro.obs.bench` — the continuous-benchmarking harness behind
  ``repro bench``: deterministic workloads, ``repro.bench/1`` result
  payloads, and the median-regression comparator;
* :mod:`repro.obs.export` — Prometheus text, JSON snapshot, and the
  human-readable ``--metrics`` / bench summaries;
* :mod:`repro.obs.events` — the sweep flight recorder: a schema-versioned
  (``repro.events/1``) operational event journal with crash-safe JSONL
  sinks and cross-process total ordering;
* :mod:`repro.obs.console` — read-only live views over a journal
  (``repro status`` / ``repro tail`` / the ``/healthz`` verdict);
* :mod:`repro.obs.http` — the stdlib HTTP exporter behind
  ``survey --serve``: ``/metrics``, ``/healthz``, ``/progress``;
* :mod:`repro.obs.provenance` — verdict provenance: per-contract
  ``repro.evidence/1`` causal evidence trees recorded by audited sweeps
  (``survey --audit``) and rendered by ``repro explain``.

See ``docs/observability.md`` for the metric-name catalogue, the event
taxonomy, and ``docs/benchmarking.md`` for the bench workloads and schema.
"""

from repro.obs.bench import (
    BenchComparison,
    BenchConfig,
    WORKLOADS,
    compare_payloads,
    run_suite,
    validate_payload,
)
from repro.obs.console import (
    SweepStatus,
    format_event,
    journal_health,
    journal_snapshot,
    render_status,
    tail_journal,
)
from repro.obs.events import (
    Event,
    EventJournal,
    EventRecorder,
    NULL_RECORDER,
    read_journal,
    total_order,
)
from repro.obs.evmprof import FlameProfiler, ProfilingTracer, opcode_class
from repro.obs.provenance import (
    AuditDir,
    EvidenceNode,
    EvidenceTrail,
    NULL_TRAIL,
    NullTrail,
    evidence_filename,
    render_trail,
)
from repro.obs.http import ObsServer
from repro.obs.export import (
    bench_summary,
    survey_metrics_summary,
    to_json,
    to_prometheus,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    default_registry,
    series_name,
)
from repro.obs.spans import (
    JsonLinesSink,
    NULL_TRACER,
    NullSpanTracer,
    RingBufferSink,
    Span,
    SpanTracer,
)

__all__ = [
    "AuditDir",
    "BenchComparison",
    "BenchConfig",
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventJournal",
    "EventRecorder",
    "EvidenceNode",
    "EvidenceTrail",
    "FlameProfiler",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NULL_TRAIL",
    "NullRegistry",
    "NullSpanTracer",
    "NullTrail",
    "ObsServer",
    "ProfilingTracer",
    "RingBufferSink",
    "Span",
    "SpanTracer",
    "SweepStatus",
    "WORKLOADS",
    "bench_summary",
    "compare_payloads",
    "default_registry",
    "evidence_filename",
    "format_event",
    "journal_health",
    "journal_snapshot",
    "opcode_class",
    "read_journal",
    "render_status",
    "render_trail",
    "run_suite",
    "series_name",
    "survey_metrics_summary",
    "tail_journal",
    "to_json",
    "to_prometheus",
    "total_order",
    "validate_payload",
]
