"""The uniform synopsis-maintenance interface of the runtime layer.

Every incrementally maintained summary in this repo -- fixed-window and
agglomerative histograms, wavelet synopses, GK quantiles, exact buffers --
is driven the same way: feed stream points, occasionally bring the
synopsis up to date, answer queries from it.  :class:`Maintainer` is that
contract, stated once:

* ``append(value)`` / ``extend(values)`` -- ingestion.  ``extend`` is the
  batched fast path: adapters forward whole numpy batches to vectorized
  backend ingestion where the backend allows, amortizing per-point Python
  overhead across the batch.
* ``maintain()`` -- bring the synopsis up to date (a rebuild for the
  fixed-window builder, a recomputation for the per-slide wavelet
  baseline, a no-op for always-fresh structures).
* ``synopsis()`` -- the current queryable summary.
* ``stats()`` -- a :class:`MaintainerStats` snapshot unifying the
  ``RebuildStats``-style telemetry (points, rebuilds, HERROR evaluations,
  search probes, wall time) across backends.
* ``state_dict()`` / ``load_state_dict(state)`` -- durable checkpointing,
  and the only state path.  Every adapter serializes its backend through
  the synopsis's own ``to_dict``/``to_state`` snapshot, so a maintainer
  restored into a fresh process continues the stream exactly where the
  original left off; :mod:`repro.service` builds crash recovery on this
  contract (its snapshot store flattens the dict into binary sections).

Concrete adapters live in :mod:`repro.runtime.adapters`; the string-keyed
factory in :mod:`repro.runtime.registry`; the driving loop in
:mod:`repro.runtime.pipeline`.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..core.prefix import as_stream_batch

__all__ = ["Maintainer", "MaintainerStats", "UpdateMaintainer"]


@dataclass
class MaintainerStats:
    """Unified telemetry counters of one maintainer.

    ``points``/``batches`` count ingestion, ``maintains`` the explicit
    maintenance calls, ``rebuilds`` the backend rebuilds that actually
    happened (lazy backends skip maintenance when nothing changed).
    ``herror_evaluations`` and ``search_probes`` surface the fixed-window
    builder's Theorem-1 operation counts; backends without that machinery
    leave them at zero.  Wall time is split into ingestion and maintenance
    so cadence experiments can attribute cost.
    """

    points: int = 0
    batches: int = 0
    maintains: int = 0
    rebuilds: int = 0
    herror_evaluations: int = 0
    search_probes: int = 0
    ingest_seconds: float = 0.0
    maintain_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        """Total wall time spent in this maintainer."""
        return self.ingest_seconds + self.maintain_seconds

    def counters(self) -> dict[str, int]:
        """The timing-free counters (the deterministic part of the stats).

        Batched and one-at-a-time ingestion of the same stream at the same
        maintenance positions must agree on these exactly; wall times and
        the batch count naturally differ.
        """
        return {
            "points": self.points,
            "maintains": self.maintains,
            "rebuilds": self.rebuilds,
            "herror_evaluations": self.herror_evaluations,
            "search_probes": self.search_probes,
        }


class Maintainer(ABC):
    """Incrementally maintained synopsis with uniform ingestion and stats.

    Subclasses implement ``_ingest_batch`` (and optionally the cheaper
    ``_ingest_one``), ``_maintain``, ``synopsis`` and, where a raw window
    exists, ``window_values``.  The public verbs wrap those hooks with
    timing and counting so every backend reports comparable telemetry.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._stats = MaintainerStats()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def append(self, value: float) -> None:
        """Consume one stream point (rejects NaN and infinities)."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("values must be finite (no NaN or inf)")
        started = time.perf_counter()
        self._ingest_one(value)
        self._stats.ingest_seconds += time.perf_counter() - started
        self._stats.points += 1
        self._stats.batches += 1

    def extend(self, values) -> None:
        """Consume a whole batch of stream points (the fast path).

        The batch is checked like ``as_stream_batch`` (1-D, finite),
        arrays included, before the backend sees it: a rejected call
        leaves the maintainer untouched.
        """
        batch = as_stream_batch(values)
        if batch.size == 0:
            return
        started = time.perf_counter()
        self._ingest_batch(batch)
        self._stats.ingest_seconds += time.perf_counter() - started
        self._stats.points += batch.size
        self._stats.batches += 1

    # ------------------------------------------------------------------
    # Maintenance and queries
    # ------------------------------------------------------------------

    def maintain(self) -> None:
        """Bring the synopsis up to date with everything ingested."""
        started = time.perf_counter()
        self._maintain()
        self._stats.maintain_seconds += time.perf_counter() - started
        self._stats.maintains += 1

    @abstractmethod
    def synopsis(self):
        """The current queryable summary."""

    def window_values(self) -> np.ndarray:
        """Raw buffered window (only maintainers that keep one)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not buffer a raw window"
        )

    def stats(self) -> MaintainerStats:
        """A snapshot of the unified telemetry counters."""
        self._refresh_stats()
        return replace(self._stats)

    # ------------------------------------------------------------------
    # Durable checkpointing
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot sufficient to resume this maintainer.

        The envelope carries the adapter class (so a mismatched restore
        fails loudly), the display name, the telemetry counters, and the
        backend payload produced by :meth:`_state_dict`.  The result is a
        fresh object tree, never a view of live state: the service
        serializes it after the worker has resumed ingesting.
        """
        self._refresh_stats()
        return {
            "type": type(self).__name__,
            "name": self.name,
            "stats": asdict(self._stats),
            "backend": self._state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the state captured by :meth:`state_dict` in place.

        The receiving maintainer must be constructed with the same
        parameters as the one that was snapshotted (the registry makes
        that a matter of replaying the spec); the payload then replaces
        its backend state and telemetry wholesale.
        """
        expected = type(self).__name__
        if state.get("type") != expected:
            raise ValueError(
                f"snapshot of {state.get('type')!r} cannot restore a {expected}"
            )
        self._load_state_dict(state["backend"])
        self.name = state.get("name", self.name)
        stats = state.get("stats")
        if stats is not None:
            self._stats = MaintainerStats(**stats)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------

    def _state_dict(self) -> dict:
        """Backend payload of :meth:`state_dict`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement checkpointing"
        )

    def _load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`_state_dict`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement checkpointing"
        )

    def _ingest_one(self, value: float) -> None:
        self._ingest_batch(np.asarray([value], dtype=np.float64))

    @abstractmethod
    def _ingest_batch(self, batch: np.ndarray) -> None:
        """Feed a validated (1-D, finite, float64) batch into the backend.

        Exception-safety contract: implementations must validate before
        they mutate -- a raising ``_ingest_batch`` leaves the backend
        exactly as it was.  The service layer's poison-record quarantine
        and crash recovery (:mod:`repro.service`) rely on this to
        attribute a failure to the un-ingested points and to keep the
        replayable arrival counter truthful.
        """

    def _maintain(self) -> None:
        """Backend maintenance; default is a no-op (always-fresh synopses)."""

    def _refresh_stats(self) -> None:
        """Pull backend-specific counters into ``self._stats``."""


class UpdateMaintainer(Maintainer):
    """Maintainer that additionally speaks the turnstile update model.

    ``update(key, delta)`` adjusts the frequency of a non-negative
    integer key by a signed amount; it coexists with ``extend``, which
    keeps carrying float batches (turnstile backends decode the
    signed-unit encoding of :mod:`repro.counting.encoding` there, so
    one ingestion channel serves queues, snapshots, and shard frames
    unchanged).  ``points`` advances by ``|delta|`` -- one unit update
    per frequency unit, mirroring what the same change costs when it
    travels encoded through ``extend``.
    """

    def update(self, key: int, delta: int) -> None:
        """Apply ``f[key] += delta`` (``delta`` may be negative)."""
        delta = int(delta)
        if delta == 0:
            return
        started = time.perf_counter()
        self._update(int(key), delta)
        self._stats.ingest_seconds += time.perf_counter() - started
        self._stats.points += abs(delta)
        self._stats.batches += 1

    @abstractmethod
    def _update(self, key: int, delta: int) -> None:
        """Apply one validated turnstile update to the backend.

        Same exception-safety contract as ``_ingest_batch``: validate
        before mutating.
        """
