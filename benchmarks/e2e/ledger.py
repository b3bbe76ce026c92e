"""Benchmark-side tracing and the readers behind the per-layer ledger.

Two sources feed the per-layer numbers, and neither edits the program:

* :class:`Samples` reads the program's own registry -- the
  ``repro_stage_seconds`` histograms (``count``/``sum``), counters and
  gauges returned by ``metrics()`` on either tier.  It never reads the
  ``spans()`` ring, which is bounded and evicts under load.  A series
  the ledger needs but the program did not export raises
  :class:`MissingMetric`; a metric must never go missing silently.
* :class:`Recorder` keeps spans the benchmark records around public
  calls into each layer (``ingest``, ``QoSController.admit``, each
  ``maintainer.maintain``).  They exist only in traced segments of a
  traced run, stay in memory, and are written out once at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.service import QoSController


class MissingMetric(RuntimeError):
    """A series the ledger reads was absent from the program's metrics."""


class Samples:
    """One ``metrics()`` snapshot, queried by metric name and labels."""

    def __init__(self, samples: list[dict]) -> None:
        self.samples = samples

    def select(self, name: str, **labels) -> list[dict]:
        wanted = {key: str(value) for key, value in labels.items()}
        return [
            sample for sample in self.samples
            if sample["name"] == name
            and all(sample["labels"].get(k) == v for k, v in wanted.items())
        ]

    def total(self, name: str, field: str = "value", **labels) -> float:
        """Sum of ``field`` over matching series; missing series raise."""
        found = self.select(name, **labels)
        if not found:
            raise MissingMetric(f"{name}{labels or ''} not exported")
        return float(sum(sample[field] for sample in found))

    def maximum(self, name: str, field: str = "value", **labels) -> float:
        found = self.select(name, **labels)
        if not found:
            raise MissingMetric(f"{name}{labels or ''} not exported")
        return float(max(sample[field] for sample in found))

    def delta(self, before: "Samples", name: str, field: str = "value", **labels) -> float:
        """Growth since ``before``; a series born in between starts at 0."""
        after = self.total(name, field, **labels)
        prior = before.select(name, **labels)
        return after - float(sum(sample[field] for sample in prior))


class Recorder:
    """In-memory spans: name, start, end, parent, plus free attributes.

    Times are ``perf_counter`` seconds.  ``current`` is the id of the
    producer's open ``ingest`` span, so an ``admit`` span recorded inside
    it names its parent; spans of one batch share the ``batch`` attribute.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self.current: int | None = None

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, name: str, start: float, end: float, *, span_id=None,
            parent=None, **attrs) -> None:
        self.spans.append({
            "id": span_id if span_id is not None else next(self._ids),
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "thread": threading.current_thread().name,
            **attrs,
        })

    def durations(self, name: str) -> list[float]:
        return [span["end"] - span["start"] for span in self.spans if span["name"] == name]

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class LayerWrappers:
    """Span-recording wrappers on the layer entry points, installable
    and removable between segments of a traced run.

    ``QoSController.admit`` is wrapped at class level (the service calls
    it through its controller instance); each given maintainer's
    ``maintain`` is wrapped on the instance, which is what the worker's
    pipeline calls once per rebuild.  A worker already inside a wrapper
    when it is removed finishes and records that span normally.
    """

    def __init__(self, recorder: Recorder, maintainers: dict) -> None:
        self.recorder = recorder
        self.maintainers = maintainers
        self._admit = QoSController.admit
        self.installed = False

    def install(self) -> None:
        recorder, original_admit = self.recorder, self._admit

        def admit(controller, name, batch):
            started = time.perf_counter()
            try:
                return original_admit(controller, name, batch)
            finally:
                recorder.add("qos.admit", started, time.perf_counter(),
                             parent=recorder.current, stream=name)

        def wrap(stream: str, original):
            def maintain():
                started = time.perf_counter()
                try:
                    original()
                finally:
                    recorder.add("core.rebuild", started, time.perf_counter(), stream=stream)

            return maintain

        QoSController.admit = admit
        for stream, maintainer in self.maintainers.items():
            maintainer.maintain = wrap(stream, maintainer.maintain)
        self.installed = True

    def remove(self) -> None:
        if not self.installed:
            return
        QoSController.admit = self._admit
        for maintainer in self.maintainers.values():
            del maintainer.maintain
        self.installed = False


@contextmanager
def installed(wrappers: LayerWrappers, active: bool):
    """Install ``wrappers`` for the duration of a block when ``active``."""
    if active:
        wrappers.install()
    try:
        yield
    finally:
        wrappers.remove()
