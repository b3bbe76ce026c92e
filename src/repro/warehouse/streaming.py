"""One-pass distribution summaries over raw rows.

:class:`AttributeSummary` (``aqp.py``) builds histograms from the
materialized frequency vector.  This module provides truly *streaming*
alternatives that read each row once and never materialize the vector:

* :class:`StreamingEquiDepthSummary` -- Greenwald-Khanna quantile cuts
  ([GK01]) turned into an equi-depth histogram over the value domain;
* :class:`StreamingWaveletSummary` -- the dynamic wavelet histogram of
  [MVW00] (:mod:`repro.wavelets.dynamic`) behind the same interface.

Both answer the same range-COUNT estimates as :class:`AttributeSummary`,
so the warehouse ablations can compare all construction routes on equal
terms.
"""

from __future__ import annotations

import numpy as np

from ..core.bucket import Bucket, Histogram
from ..core.prefix import as_stream_batch
from ..sketches.gk import GKQuantileSummary
from ..wavelets.dynamic import DynamicWaveletHistogram

__all__ = ["StreamingEquiDepthSummary", "StreamingWaveletSummary"]


class StreamingEquiDepthSummary:
    """Equi-depth histogram of an integer attribute, built in one pass.

    Feeds every row into a GK quantile summary; on demand, ``B - 1``
    quantile cuts split the value domain into buckets holding ~N/B rows
    each, with the per-value frequency inside a bucket spread uniformly.
    Memory is the GK summary's O((1/eps) log(eps N)).
    """

    def __init__(self, num_buckets: int, epsilon: float = 0.01) -> None:
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.num_buckets = num_buckets
        self._summary = GKQuantileSummary(epsilon)
        self._max_value = 0

    def __len__(self) -> int:
        return len(self._summary)

    def insert(self, value: float) -> None:
        if value < 0:
            raise ValueError("attribute values must be non-negative")
        self._summary.insert(float(value))
        self._max_value = max(self._max_value, int(round(value)))

    # Uniform ingestion naming: `append` is the one-point verb everywhere.
    append = insert

    def extend(self, values) -> None:
        """Insert a whole batch of rows.

        Non-negativity is validated once per batch on the numpy array, the
        GK summary takes the batch through its batch kernel (the same
        summary as per-row inserts), and the running domain maximum is
        updated once.
        """
        array = as_stream_batch(values)
        if array.size == 0:
            return
        if float(array.min()) < 0:
            raise ValueError("attribute values must be non-negative")
        self._summary.extend(array)
        self._max_value = max(self._max_value, int(round(float(array.max()))))

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (see :meth:`from_dict`).

        Delegates to the inner GK summary's exact snapshot and adds the
        running domain maximum, so the restored summary renders the same
        histogram and answers the same count estimates.
        """
        return {
            "num_buckets": self.num_buckets,
            "max_value": self._max_value,
            "summary": self._summary.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "StreamingEquiDepthSummary":
        """Inverse of :meth:`to_dict`."""
        summary_payload = payload["summary"]
        restored = cls(
            int(payload["num_buckets"]), float(summary_payload["epsilon"])
        )
        max_value = int(payload["max_value"])
        if max_value < 0:
            raise ValueError("max_value must be non-negative")
        restored._summary = GKQuantileSummary.from_dict(summary_payload)
        restored._max_value = max_value
        return restored

    def histogram(self) -> Histogram:
        """Equi-depth histogram over the value domain ``[0, max]``.

        Bucket boundaries are the GK quantile cuts; each bucket's height
        is its (approximate) row count divided by its value-width, i.e. a
        frequency density, matching :class:`AttributeSummary`'s frequency-
        vector representation.
        """
        rows = len(self._summary)
        if rows == 0:
            raise ValueError("no rows inserted yet")
        domain = self._max_value + 1
        cut_values = self._summary.quantiles(self.num_buckets - 1)
        edges = sorted({int(round(cut)) for cut in cut_values if 0 <= cut < domain - 1})
        share = rows / (len(edges) + 1)
        buckets = []
        start = 0
        for edge in edges + [domain - 1]:
            width = edge - start + 1
            buckets.append(Bucket(start, edge, share / width))
            start = edge + 1
        return Histogram(buckets)

    def estimate_quantile(self, fraction: float) -> float:
        """The (approximate) ``fraction``-quantile of the inserted rows.

        Answered by the inner GK summary directly, so the error bound is
        the summary's eps * N on rank -- sharper than reading the
        rendered equi-depth histogram.
        """
        if len(self._summary) == 0:
            raise ValueError("no rows inserted yet")
        return self._summary.query(fraction)

    def estimate_count(self, low: float, high: float) -> float:
        """Estimated number of rows with attribute in ``[low, high]``.

        Uses rank arithmetic directly (sharper than the histogram
        rendering): count = rank(high) - rank(low - 1).
        """
        if len(self._summary) == 0:
            raise ValueError("no rows inserted yet")
        if low > high:
            return 0.0

        def rank_at_most(value: float) -> float:
            lower, upper = self._summary.rank_bounds(value)
            return (lower + upper) / 2.0

        return max(0.0, rank_at_most(high) - rank_at_most(low - 1.0))


class StreamingWaveletSummary:
    """The [MVW00] dynamic wavelet histogram behind the summary interface."""

    def __init__(self, domain_size: int, budget: int) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self._dynamic = DynamicWaveletHistogram(domain_size)

    def __len__(self) -> int:
        return len(self._dynamic)

    def insert(self, value: float) -> None:
        self._dynamic.insert(int(round(value)))

    append = insert

    def delete(self, value: float) -> None:
        self._dynamic.delete(int(round(value)))

    def extend(self, values) -> None:
        for value in as_stream_batch(values).round().astype(int).tolist():
            self._dynamic.insert(value)

    def estimate_count(self, low: float, high: float) -> float:
        if len(self._dynamic) == 0:
            raise ValueError("no rows inserted yet")
        return self._dynamic.estimate_count(int(np.ceil(low)), int(np.floor(high)),
                                            budget=self.budget)
