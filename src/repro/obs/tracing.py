"""Stage tracing for the stream service.

A :class:`Tracer` records :class:`SpanRecord` entries for the pipeline
stages the service executes per stream -- ``ingest`` -> ``maintain`` ->
``materialize`` -> ``checkpoint`` -> ``recover`` -- into a bounded ring
buffer, and mirrors every span duration into a per-stage latency
histogram on the attached :class:`~repro.obs.metrics.MetricsRegistry`
(``repro_stage_seconds{stage=...,stream=...}``).  Two entry points:

* ``with tracer.span("checkpoint", stream="cpu"):`` -- time a block;
  the span is recorded even when the block raises, with ``status`` set
  to the exception type so failure latency is visible too.
* ``tracer.record("maintain", stream, seconds)`` -- file an already
  measured duration (the pipeline times its stages inline; re-timing
  them would double the clock reads on the hot path).

:class:`PipelineObserver` adapts a tracer to the duck-typed ``observer``
hook of :class:`~repro.runtime.pipeline.StreamPipeline`, keeping the
runtime layer free of any dependency on this package.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

__all__ = ["PipelineObserver", "SpanRecord", "Tracer"]

#: The service stages a span may describe, in pipeline order.
STAGES = ("ingest", "maintain", "materialize", "checkpoint", "recover", "certify")

STAGE_SECONDS_METRIC = "repro_stage_seconds"
SPANS_TOTAL_METRIC = "repro_spans_total"


@dataclass(frozen=True)
class SpanRecord:
    """One finished stage execution."""

    stage: str
    stream: str
    started_at: float
    seconds: float
    status: str = "ok"
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "stream": self.stream,
            "started_at": self.started_at,
            "seconds": self.seconds,
            "status": self.status,
            "meta": dict(self.meta),
        }


class Tracer:
    """Bounded span recorder feeding per-stage latency histograms.

    ``capacity`` bounds the retained span ring (oldest spans are
    evicted); the histograms on the registry keep the aggregate view
    alive regardless of eviction.
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, capacity: int = 2048
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        # (stage, stream, status) -> (stage histogram, span counter),
        # resolved once: record() runs per batch, and a registry lookup
        # costs several times the observe it feeds.
        self._handles: dict[tuple, tuple] = {}

    def record(
        self,
        stage: str,
        stream: str,
        seconds: float,
        *,
        status: str = "ok",
        started_at: float | None = None,
        **meta,
    ) -> SpanRecord:
        """File a span whose duration was measured by the caller."""
        key = (stage, stream, status)
        handles = self._handles.get(key)
        if handles is None:
            handles = self._handles[key] = self._resolve(stage, stream, status)
        histogram, counter = handles
        span = SpanRecord(
            stage=stage,
            stream=stream,
            started_at=time.time() if started_at is None else started_at,
            seconds=float(seconds),
            status=status,
            meta=meta,
        )
        with self._lock:
            self._spans.append(span)
        histogram.observe(span.seconds)
        counter.inc()
        return span

    def _resolve(self, stage: str, stream: str, status: str) -> tuple:
        """The registry handles one (stage, stream, status) span feeds."""
        if stage not in STAGES:
            raise ValueError(f"unknown stage {stage!r}; use one of {STAGES}")
        return (
            self.stage_seconds(stage, stream),
            self.registry.counter(
                SPANS_TOTAL_METRIC, stage=stage, stream=stream, status=status
            ),
        )

    @contextmanager
    def span(self, stage: str, stream: str, **meta):
        """Time a block; the span lands even when the block raises."""
        started_wall = time.time()
        started = time.perf_counter()
        status = "ok"
        try:
            yield
        except BaseException as error:
            status = type(error).__name__
            raise
        finally:
            self.record(
                stage,
                stream,
                time.perf_counter() - started,
                status=status,
                started_at=started_wall,
                **meta,
            )

    def spans(
        self, stage: str | None = None, stream: str | None = None
    ) -> list[SpanRecord]:
        """Retained spans, oldest first, optionally filtered."""
        with self._lock:
            spans = list(self._spans)
        if stage is not None:
            spans = [s for s in spans if s.stage == stage]
        if stream is not None:
            spans = [s for s in spans if s.stream == stream]
        return spans

    def stage_seconds(self, stage: str, stream: str):
        """The latency histogram backing ``stage``/``stream`` spans."""
        return self.registry.histogram(
            STAGE_SECONDS_METRIC, stage=stage, stream=stream
        )


class PipelineObserver:
    """Adapter: pipeline stage timings -> tracer spans + histograms.

    :class:`~repro.runtime.pipeline.StreamPipeline` calls
    ``record_stage(stage, seconds, arrivals)`` with durations it already
    measured; this observer files them under the owning stream's name.
    """

    def __init__(self, tracer: Tracer, stream: str) -> None:
        self.tracer = tracer
        self.stream = stream

    def record_stage(self, stage: str, seconds: float, arrivals: int) -> None:
        self.tracer.record(stage, self.stream, seconds, arrivals=arrivals)
