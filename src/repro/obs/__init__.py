"""repro.obs -- observability for the stream service.

The metrics / tracing / accuracy-monitoring subsystem of the serving
layer: a label-aware :class:`MetricsRegistry` (counters, gauges,
bounded-reservoir histograms with race-free snapshots), a :class:`Tracer`
recording spans around the ingest -> maintain -> materialize ->
checkpoint -> recover stages, an :class:`AccuracyMonitor` auditing each
hosted maintainer through its backend's exact oracle
(:mod:`repro.verify.oracles`: Theorem 1's bound for the fixed-window
histogram, each other backend's own guarantee), and Prometheus-text /
JSONL exporters.
:class:`~repro.service.service.StreamService` wires all of it through
its workers, supervisor and snapshot store; see ``docs/API.md``
("Observability") and the README metrics quickstart.
"""

from .accuracy import AccuracyMonitor, AccuracyReport
from .export import (
    parse_prometheus_text,
    samples_to_jsonl,
    samples_to_prometheus_text,
    to_jsonl,
    to_prometheus_text,
    write_jsonl,
)
from .metrics import Counter, Gauge, HistogramMetric, MetricsRegistry
from .tracing import PipelineObserver, SpanRecord, Tracer

__all__ = [
    "AccuracyMonitor",
    "AccuracyReport",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "PipelineObserver",
    "SpanRecord",
    "Tracer",
    "parse_prometheus_text",
    "samples_to_jsonl",
    "samples_to_prometheus_text",
    "to_jsonl",
    "to_prometheus_text",
    "write_jsonl",
]
