"""The one driving loop: fan a stream out to N maintainers.

Every "feed points, maintain at a cadence, query at checkpoints" loop in
the repo routes through :class:`StreamPipeline`.  The pipeline slices the
incoming stream into batches, splits each batch exactly at checkpoint
boundaries and, where maintenance can be observed, at maintenance
boundaries (so cadence semantics are identical to a per-point loop),
feeds every maintainer the resulting sub-batches through the vectorized
``extend`` fast path, and fires the registered callbacks:

* ``on_maintain(arrivals, pipeline)`` after each maintenance round;
* ``on_checkpoint(arrivals, pipeline)`` at each checkpoint -- this is
  where consumers evaluate standing queries, score accuracy, compare
  synopses, or snapshot representations.

Checkpoints fire once ``arrivals >= warmup``; with the default
``checkpoint_alignment="stream"`` they land on absolute multiples of the
cadence (``arrivals % every == 0``), with ``"warmup"`` on offsets from
the warmup point (``(arrivals - warmup) % every == 0``).

With a maintainer that rebuilds on ``maintain`` (one that overrides
``Maintainer._maintain``) or an ``on_maintain`` callback, a cadence of
``c`` ingests chunks of ``c`` points between rebuilds -- the
batched-ingestion amortization the fixed-window builder's vectorized
``extend`` exploits.  When no maintainer does maintenance work and no
``on_maintain`` callback listens, nothing can observe where inside a
batch a maintenance call ran, so the batch is fed in one ``extend`` (still
cut at checkpoints) followed by one ``maintain()`` per boundary crossed:
synopses, counters, reports and observer calls are those of the per-point
loop.  Sharding a pipeline across processes or making ingestion
asynchronous is a change in this module alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.prefix import as_stream_batch
from .maintainer import Maintainer, MaintainerStats

__all__ = ["StreamPipeline", "PipelineReport"]


@dataclass
class PipelineReport:
    """Per-maintainer outcome of one pipeline run."""

    name: str
    maintenance_seconds: float = 0.0
    checkpoints: int = 0
    stats: MaintainerStats = field(default_factory=MaintainerStats)


class StreamPipeline:
    """Drive one stream into N maintainers with configurable cadences.

    Parameters
    ----------
    maintainers:
        The fan-out targets; each is fed every stream point in order.
    maintain_every:
        Explicit maintenance cadence in arrivals (1 = the paper's
        rebuild-per-arrival model).  ``None`` never calls ``maintain``;
        lazy backends then rebuild on demand at query time.  Batches are
        cut at these boundaries only where a cut is observable: some
        maintainer overrides ``_maintain``, or ``on_maintain`` is set.
    checkpoint_every / warmup / checkpoint_alignment:
        Checkpoint cadence; no checkpoint fires before ``warmup``
        arrivals.  ``"stream"`` alignment fires on absolute stream
        positions, ``"warmup"`` on offsets from the warmup point.
    on_checkpoint / on_maintain:
        Callbacks ``(arrivals, pipeline) -> None``.
    batch_size:
        Slice length used by :meth:`run` when consuming a stream.
    initial_arrivals:
        Arrival counter to resume from.  A pipeline restored from a
        checkpoint (see :mod:`repro.service`) must keep counting from the
        snapshot position so maintenance and checkpoint events keep
        firing at the same absolute stream positions as an uninterrupted
        run.
    observer:
        Optional duck-typed telemetry sink with a
        ``record_stage(stage, seconds, arrivals)`` method (see
        :class:`repro.obs.tracing.PipelineObserver`).  Stage durations
        are accumulated across one :meth:`extend` call and emitted once
        on success, so per-point cadences pay no per-chunk observer
        cost.  The pipeline only duck-calls the hook -- this module
        never imports :mod:`repro.obs`.
    """

    def __init__(
        self,
        maintainers: Sequence[Maintainer],
        maintain_every: int | None = 1,
        checkpoint_every: int | None = None,
        warmup: int = 0,
        checkpoint_alignment: str = "stream",
        on_checkpoint: Callable[[int, "StreamPipeline"], None] | None = None,
        on_maintain: Callable[[int, "StreamPipeline"], None] | None = None,
        batch_size: int = 1024,
        initial_arrivals: int = 0,
        observer=None,
    ) -> None:
        if not maintainers:
            raise ValueError("need at least one maintainer")
        if maintain_every is not None and maintain_every < 1:
            raise ValueError("maintain_every must be >= 1 (or None)")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        if checkpoint_alignment not in ("stream", "warmup"):
            raise ValueError(
                f"unknown checkpoint_alignment {checkpoint_alignment!r}; "
                "use 'stream' or 'warmup'"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if initial_arrivals < 0:
            raise ValueError("initial_arrivals must be non-negative")
        names = [m.name for m in maintainers]
        if len(set(names)) != len(names):
            raise ValueError(f"maintainer names must be unique, got {names}")
        self.maintainers = list(maintainers)
        self.maintain_every = maintain_every
        self.checkpoint_every = checkpoint_every
        self.warmup = warmup
        self.checkpoint_alignment = checkpoint_alignment
        self.on_checkpoint = on_checkpoint
        self.on_maintain = on_maintain
        self.batch_size = batch_size
        self.observer = observer
        self._arrivals = initial_arrivals
        self._reports = [PipelineReport(name) for name in names]
        # Decided by the classes: a backend that keeps the base no-op
        # ``_maintain`` does no work when maintained.
        self._maintenance_free = all(
            type(maintainer)._maintain is Maintainer._maintain
            for maintainer in self.maintainers
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def arrivals(self) -> int:
        """Total stream points consumed so far."""
        return self._arrivals

    def __getitem__(self, name: str) -> Maintainer:
        for maintainer in self.maintainers:
            if maintainer.name == name:
                return maintainer
        raise KeyError(f"no maintainer named {name!r}")

    def reports(self) -> list[PipelineReport]:
        """Per-maintainer reports with fresh stats snapshots."""
        for maintainer, report in zip(self.maintainers, self._reports):
            report.stats = maintainer.stats()
        return list(self._reports)

    # ------------------------------------------------------------------
    # Event schedule
    # ------------------------------------------------------------------

    def _next_checkpoint(self) -> int | None:
        every = self.checkpoint_every
        if every is None:
            return None
        arrivals = self._arrivals
        if self.checkpoint_alignment == "warmup":
            if arrivals < self.warmup:
                return self.warmup
            return self.warmup + ((arrivals - self.warmup) // every + 1) * every
        nxt = (arrivals // every + 1) * every
        if nxt < self.warmup:
            nxt = -(-self.warmup // every) * every  # first multiple >= warmup
        return nxt

    def _next_maintain(self) -> int | None:
        if self.maintain_every is None:
            return None
        return (self._arrivals // self.maintain_every + 1) * self.maintain_every

    def _checkpoint_due(self) -> bool:
        every = self.checkpoint_every
        if every is None or self._arrivals < self.warmup:
            return False
        if self.checkpoint_alignment == "warmup":
            return (self._arrivals - self.warmup) % every == 0
        return self._arrivals % every == 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def append(self, value: float) -> None:
        """Consume one stream point (events fire as in a per-point loop)."""
        self.extend((float(value),))

    def extend(self, values) -> None:
        """Consume a batch; events fire exactly as in a per-point loop."""
        array = as_stream_batch(values)
        every = self.maintain_every
        # Cut at maintenance boundaries only where a cut can be observed.
        cut_maintain = every is not None and (
            self.on_maintain is not None or not self._maintenance_free
        )
        offset = 0
        ingest_seconds = 0.0
        maintain_seconds = 0.0
        maintained = False
        while offset < array.size:
            take = array.size - offset
            checkpoint = self._next_checkpoint()
            if checkpoint is not None:
                take = min(take, checkpoint - self._arrivals)
            if cut_maintain:
                take = min(take, self._next_maintain() - self._arrivals)
            chunk = array[offset : offset + take]
            before = self._arrivals
            self._arrivals += take
            fed = 0
            try:
                for maintainer, report in zip(self.maintainers, self._reports):
                    started = time.perf_counter()
                    if take == 1:
                        maintainer.append(float(chunk[0]))
                    else:
                        maintainer.extend(chunk)
                    elapsed = time.perf_counter() - started
                    report.maintenance_seconds += elapsed
                    ingest_seconds += elapsed
                    fed += 1
            except BaseException:
                if fed == 0:
                    # No maintainer consumed the chunk (adapters validate
                    # before they mutate), so roll the arrival counter
                    # back: callers can then attribute the failure to
                    # exactly the un-ingested points.  With several
                    # maintainers a partial fan-out is not recoverable
                    # and the counter keeps the applied position.
                    self._arrivals -= take
                raise
            # Maintenance boundaries crossed: at most one when cutting.
            rounds = 0 if every is None else self._arrivals // every - before // every
            if rounds:
                maintained = True
                for maintainer, report in zip(self.maintainers, self._reports):
                    started = time.perf_counter()
                    for _ in range(rounds):
                        maintainer.maintain()
                    elapsed = time.perf_counter() - started
                    report.maintenance_seconds += elapsed
                    maintain_seconds += elapsed
                if self.on_maintain is not None:
                    self.on_maintain(self._arrivals, self)
            if self._checkpoint_due():
                for report in self._reports:
                    report.checkpoints += 1
                if self.on_checkpoint is not None:
                    self.on_checkpoint(self._arrivals, self)
            offset += take
        if self.observer is not None and array.size:
            # One emission per extend() call, not per chunk: a cadence of
            # 1 splits every batch into per-point chunks and a per-chunk
            # hook would dominate the hot path.
            self.observer.record_stage("ingest", ingest_seconds, self._arrivals)
            if maintained:
                self.observer.record_stage(
                    "maintain", maintain_seconds, self._arrivals
                )

    def run(self, stream: Iterable[float]) -> list[PipelineReport]:
        """Consume a whole stream in ``batch_size`` slices."""
        if isinstance(stream, np.ndarray) or hasattr(stream, "__len__"):
            array = as_stream_batch(stream)
            for start in range(0, array.size, self.batch_size):
                self.extend(array[start : start + self.batch_size])
        else:
            iterator = iter(stream)
            while True:
                batch = list(islice(iterator, self.batch_size))
                if not batch:
                    break
                self.extend(batch)
        return self.reports()
