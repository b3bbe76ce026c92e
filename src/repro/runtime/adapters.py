"""Adapter maintainers wrapping every synopsis backend in the repo.

Each adapter translates the backend's own verbs (``append``/``insert``/
``update``/``histogram``/...) into the uniform :class:`~repro.runtime.
maintainer.Maintainer` contract, forwards batches to vectorized backend
ingestion where one exists, and surfaces the backend's telemetry through
:meth:`Maintainer.stats`.  All of them are registered by string key in
:mod:`repro.runtime.registry`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..core.agglomerative import AgglomerativeHistogramBuilder
from ..core.bucket import Histogram
from ..core.fixed_window import FixedWindowHistogramBuilder
from ..sketches.gk import GKQuantileSummary
from ..sketches.reservoir import ReservoirSample
from ..streams.window import SlidingWindow
from ..warehouse.streaming import StreamingEquiDepthSummary
from ..wavelets.dynamic import DynamicWaveletHistogram
from ..wavelets.synopsis import WaveletSynopsis
from .maintainer import Maintainer

__all__ = [
    "BufferSynopsis",
    "FixedWindowMaintainer",
    "AgglomerativeMaintainer",
    "WaveletWindowMaintainer",
    "DynamicWaveletMaintainer",
    "GKQuantileMaintainer",
    "EquiDepthMaintainer",
    "ReservoirMaintainer",
    "ExactBufferMaintainer",
    "DelayedMaintainer",
]


class BufferSynopsis:
    """A raw value buffer viewed as a synopsis (zero error, full space)."""

    def __init__(self, values) -> None:
        self._values = np.asarray(values, dtype=np.float64)
        self._cumulative = np.concatenate(([0.0], np.cumsum(self._values)))

    def __len__(self) -> int:
        return self._values.size

    def point_estimate(self, position: int) -> float:
        return float(self._values[position])

    def range_sum(self, i: int, j: int) -> float:
        return float(self._cumulative[j + 1] - self._cumulative[i])

    def range_average(self, i: int, j: int) -> float:
        return self.range_sum(i, j) / (j - i + 1)

    def to_array(self) -> np.ndarray:
        return self._values.copy()


def _window_state(window: SlidingWindow) -> dict:
    return {
        "capacity": window.capacity,
        "total_seen": window.total_seen,
        "values": window.values().tolist(),
    }


def _restore_window(state: dict) -> SlidingWindow:
    return SlidingWindow.restore(
        int(state["capacity"]), state["values"], int(state["total_seen"])
    )


class FixedWindowMaintainer(Maintainer):
    """The paper's fixed-window (1+eps) V-optimal histogram (section 4.5).

    ``maintain()`` triggers the interval-cover rebuild; between maintains
    the builder only slides its window, so a maintenance cadence of ``c``
    amortizes one rebuild over ``c`` arrivals.
    """

    def __init__(
        self,
        window_size: int,
        num_buckets: int,
        epsilon: float,
        name: str | None = None,
    ) -> None:
        super().__init__(
            name
            or f"fixed_window(n={window_size}, B={num_buckets}, eps={epsilon:g})"
        )
        self._builder = FixedWindowHistogramBuilder(window_size, num_buckets, epsilon)

    @property
    def builder(self) -> FixedWindowHistogramBuilder:
        return self._builder

    def _ingest_one(self, value: float) -> None:
        self._builder.append(value)

    def _ingest_batch(self, batch: np.ndarray) -> None:
        self._builder.extend(batch)

    def _maintain(self) -> None:
        self._builder.update()

    def synopsis(self) -> Histogram:
        """The histogram of the *current* window (rebuilds if stale)."""
        return self._builder.histogram()

    def window_values(self) -> np.ndarray:
        return self._builder.window_values()

    def _refresh_stats(self) -> None:
        lifetime = self._builder.lifetime_stats
        self._stats.herror_evaluations = lifetime.herror_evaluations
        self._stats.search_probes = lifetime.search_probes
        self._stats.rebuilds = self._builder.rebuild_count

    def _state_dict(self) -> dict:
        lifetime = self._builder.lifetime_stats
        return {
            "builder": self._builder.to_state(),
            # Lifetime telemetry is not part of the builder snapshot;
            # carry it so stats stay continuous across a restore.
            "rebuild_count": self._builder.rebuild_count,
            "herror_evaluations": lifetime.herror_evaluations,
            "search_probes": lifetime.search_probes,
        }

    def _load_state_dict(self, state: dict) -> None:
        self._builder = FixedWindowHistogramBuilder.from_state(state["builder"])
        self._builder.rebuild_count = int(state.get("rebuild_count", 0))
        self._builder.lifetime_stats.herror_evaluations = int(
            state.get("herror_evaluations", 0)
        )
        self._builder.lifetime_stats.search_probes = int(
            state.get("search_probes", 0)
        )


class AgglomerativeMaintainer(Maintainer):
    """The one-pass whole-prefix histogram builder (section 4.3)."""

    def __init__(
        self, num_buckets: int, epsilon: float, name: str | None = None
    ) -> None:
        super().__init__(name or f"agglomerative(B={num_buckets}, eps={epsilon:g})")
        self._builder = AgglomerativeHistogramBuilder(num_buckets, epsilon)

    @property
    def builder(self) -> AgglomerativeHistogramBuilder:
        return self._builder

    def _ingest_one(self, value: float) -> None:
        self._builder.append(value)

    def _ingest_batch(self, batch: np.ndarray) -> None:
        self._builder.extend(batch.tolist())

    def synopsis(self) -> Histogram:
        return self._builder.histogram()

    def _refresh_stats(self) -> None:
        # The queues are maintained per point; rebuilds == points consumed.
        self._stats.rebuilds = len(self._builder)

    def _state_dict(self) -> dict:
        return {"builder": self._builder.to_state()}

    def _load_state_dict(self, state: dict) -> None:
        self._builder = AgglomerativeHistogramBuilder.from_state(state["builder"])


class WaveletWindowMaintainer(Maintainer):
    """Top-B Haar synopsis of a sliding window, recomputed per maintain.

    This is the paper's Figure-6 baseline: the transform runs from the raw
    buffer "from scratch every time", which is exactly what ``maintain``
    prices.  ``synopsis()`` always reflects the current buffer;
    :meth:`last_synopsis` serves the snapshot of the last maintain.
    """

    def __init__(self, window_size: int, budget: int, name: str | None = None) -> None:
        super().__init__(name or f"wavelet(n={window_size}, B={budget})")
        self.budget = budget
        self._window = SlidingWindow(window_size)
        self._cached: WaveletSynopsis | None = None

    def _ingest_one(self, value: float) -> None:
        self._window.append(value)

    def _ingest_batch(self, batch: np.ndarray) -> None:
        self._window.extend(batch)

    def _maintain(self) -> None:
        self._cached = self.synopsis()
        self._stats.rebuilds += 1

    def synopsis(self) -> WaveletSynopsis:
        return WaveletSynopsis.from_values(self._window.values(), self.budget)

    def last_synopsis(self) -> WaveletSynopsis:
        if self._cached is not None:
            return self._cached
        return self.synopsis()

    def window_values(self) -> np.ndarray:
        return self._window.values()

    def _state_dict(self) -> dict:
        return {
            "budget": self.budget,
            "window": _window_state(self._window),
            "cached": self._cached.to_dict() if self._cached is not None else None,
        }

    def _load_state_dict(self, state: dict) -> None:
        self.budget = int(state["budget"])
        self._window = _restore_window(state["window"])
        cached = state.get("cached")
        self._cached = (
            WaveletSynopsis.from_dict(cached) if cached is not None else None
        )


class ExactBufferMaintainer(Maintainer):
    """The raw sliding buffer itself: zero error, reference answers."""

    def __init__(self, window_size: int, name: str | None = None) -> None:
        super().__init__(name or f"exact(n={window_size})")
        self._window = SlidingWindow(window_size)

    def _ingest_one(self, value: float) -> None:
        self._window.append(value)

    def _ingest_batch(self, batch: np.ndarray) -> None:
        self._window.extend(batch)

    def synopsis(self) -> BufferSynopsis:
        return BufferSynopsis(self._window.values())

    def window_values(self) -> np.ndarray:
        return self._window.values()

    def _state_dict(self) -> dict:
        return {"window": _window_state(self._window)}

    def _load_state_dict(self, state: dict) -> None:
        self._window = _restore_window(state["window"])


class DynamicWaveletMaintainer(Maintainer):
    """The [MVW00] dynamic wavelet histogram of a frequency vector."""

    def __init__(
        self, domain_size: int, budget: int, name: str | None = None
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        super().__init__(name or f"dynamic_wavelet(domain={domain_size}, B={budget})")
        self.budget = budget
        self._dynamic = DynamicWaveletHistogram(domain_size)

    @property
    def backend(self) -> DynamicWaveletHistogram:
        return self._dynamic

    def _ingest_one(self, value: float) -> None:
        self._dynamic.insert(int(round(value)))

    def _ingest_batch(self, batch: np.ndarray) -> None:
        # Round exactly as the one-point path does (half-to-even).
        self._dynamic.extend(np.rint(batch).astype(np.int64).tolist())

    def synopsis(self) -> WaveletSynopsis:
        return self._dynamic.synopsis(self.budget)

    def _state_dict(self) -> dict:
        return {"budget": self.budget, "histogram": self._dynamic.to_dict()}

    def _load_state_dict(self, state: dict) -> None:
        self.budget = int(state["budget"])
        self._dynamic = DynamicWaveletHistogram.from_dict(state["histogram"])


class GKQuantileMaintainer(Maintainer):
    """The Greenwald-Khanna quantile summary behind the uniform interface.

    Its synopsis is the summary itself (``query``/``rank_bounds``/
    ``quantiles``) -- order statistics, not positional estimates.
    """

    def __init__(self, epsilon: float, name: str | None = None) -> None:
        super().__init__(name or f"gk_quantiles(eps={epsilon:g})")
        self._summary = GKQuantileSummary(epsilon)

    def _ingest_one(self, value: float) -> None:
        self._summary.insert(value)

    def _ingest_batch(self, batch: np.ndarray) -> None:
        self._summary.extend(batch)

    def synopsis(self) -> GKQuantileSummary:
        return self._summary

    def _state_dict(self) -> dict:
        return {"summary": self._summary.to_dict()}

    def _load_state_dict(self, state: dict) -> None:
        self._summary = GKQuantileSummary.from_dict(state["summary"])


class EquiDepthMaintainer(Maintainer):
    """Streaming equi-depth histogram of a non-negative attribute."""

    def __init__(
        self, num_buckets: int, epsilon: float = 0.01, name: str | None = None
    ) -> None:
        super().__init__(name or f"equi_depth(B={num_buckets}, eps={epsilon:g})")
        self._summary = StreamingEquiDepthSummary(num_buckets, epsilon)

    @property
    def backend(self) -> StreamingEquiDepthSummary:
        return self._summary

    def _ingest_one(self, value: float) -> None:
        self._summary.insert(value)

    def _ingest_batch(self, batch: np.ndarray) -> None:
        self._summary.extend(batch)

    def synopsis(self) -> StreamingEquiDepthSummary:
        """The summary itself: it carries the distribution verbs.

        Serving the summary (rather than the rendered
        :meth:`~repro.warehouse.streaming.StreamingEquiDepthSummary.histogram`)
        keeps ``estimate_quantile`` / ``estimate_count`` available to the
        query layer; the histogram rendering stays one call away.
        """
        return self._summary

    def _state_dict(self) -> dict:
        return {"summary": self._summary.to_dict()}

    def _load_state_dict(self, state: dict) -> None:
        self._summary = StreamingEquiDepthSummary.from_dict(state["summary"])


class ReservoirMaintainer(Maintainer):
    """Uniform reservoir sample with Horvitz-Thompson estimators."""

    def __init__(self, capacity: int, seed: int = 0, name: str | None = None) -> None:
        super().__init__(name or f"reservoir(k={capacity})")
        self._sample = ReservoirSample(capacity, seed=seed)

    def _ingest_one(self, value: float) -> None:
        self._sample.insert(value)

    def _ingest_batch(self, batch: np.ndarray) -> None:
        self._sample.extend(batch.tolist())

    def synopsis(self) -> ReservoirSample:
        return self._sample

    def _state_dict(self) -> dict:
        return {"sample": self._sample.to_dict()}

    def _load_state_dict(self, state: dict) -> None:
        self._sample = ReservoirSample.from_dict(state["sample"])


class DelayedMaintainer(Maintainer):
    """Feed an inner maintainer the stream delayed by ``lag`` points.

    The change detector's reference window is exactly this: the same
    stream, ``lag`` arrivals behind.  Buffering happens here so the inner
    maintainer still benefits from batched ingestion.
    """

    def __init__(self, inner: Maintainer, lag: int, name: str | None = None) -> None:
        if lag < 1:
            raise ValueError("lag must be >= 1")
        super().__init__(name or f"delayed({inner.name}, lag={lag})")
        self.inner = inner
        self.lag = lag
        self._pending = np.empty(0, dtype=np.float64)

    def _ingest_batch(self, batch: np.ndarray) -> None:
        combined = (
            np.concatenate((self._pending, batch)) if self._pending.size else batch
        )
        cut = combined.size - self.lag
        if cut > 0:
            self._inner_extend(combined[:cut])
            combined = combined[cut:]
        self._pending = np.array(combined, dtype=np.float64, copy=True)

    def _inner_extend(self, chunk: np.ndarray) -> None:
        if chunk.size == 1:
            self.inner.append(float(chunk[0]))
        else:
            self.inner.extend(chunk)

    def _maintain(self) -> None:
        if self.inner.stats().points:
            self.inner.maintain()

    def synopsis(self):
        return self.inner.synopsis()

    def window_values(self) -> np.ndarray:
        return self.inner.window_values()

    def delayed_points(self) -> Sequence[float]:
        """The points buffered but not yet forwarded (oldest first)."""
        return self._pending.tolist()

    def _state_dict(self) -> dict:
        return {
            "lag": self.lag,
            "pending": self._pending.tolist(),
            "inner": self.inner.state_dict(),
        }

    def _load_state_dict(self, state: dict) -> None:
        self.lag = int(state["lag"])
        self._pending = np.asarray(state["pending"], dtype=np.float64)
        self.inner.load_state_dict(state["inner"])
