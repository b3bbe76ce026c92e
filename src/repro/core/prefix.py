"""Prefix-sum machinery backing O(1) bucket-error computation.

The optimal-histogram DP and both streaming algorithms of the paper rely on
two arrays, ``SUM`` and ``SQSUM`` (paper eq. 3), that turn the squared error
of any bucket into an O(1) expression (paper eq. 2).  This module provides:

* :class:`PrefixSums` -- immutable prefix sums over a finite sequence.
* :class:`SlidingPrefixSums` -- the circular-buffer variant of section 4.5:
  absolute cumulative sums anchored at a point in the past, rebased every
  ``n`` arrivals so the amortized per-arrival cost is O(1).

All public indices are 0-based; ranges are inclusive ``[i, j]`` to mirror
the paper's ``SQERROR[i, j]`` notation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PrefixSums", "SlidingPrefixSums", "as_stream_batch"]


#: Below this many points a Python pass over them costs less than
#: numpy's per-call overhead.
_SMALL_BATCH = 16


def as_stream_batch(values) -> np.ndarray:
    """Coerce any iterable of stream points to a validated 1-D float array
    (no NaN or infinities)."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)  # materialize generators / iterators
        values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {values.shape}")
    if values.size < _SMALL_BATCH:
        scanned = all(map(math.isfinite, values.tolist()))
    else:
        # count_nonzero is the cheapest full reduction here: ndarray.all()
        # pays a Python-level dispatch that costs more than a small batch.
        scanned = np.count_nonzero(np.isfinite(values)) == values.size
    if not scanned:
        raise ValueError("values must be finite (no NaN or inf)")
    return values


class PrefixSums:
    """Prefix sums and sums of squares of a finite sequence.

    Supports O(1) range sums, range means, and the V-optimal bucket error
    ``SQERROR[i, j]`` of paper equation 2.
    """

    def __init__(self, values) -> None:
        array = as_stream_batch(values)
        self._n = array.size
        self._sum = np.concatenate(([0.0], np.cumsum(array)))
        self._sqsum = np.concatenate(([0.0], np.cumsum(array * array)))

    def __len__(self) -> int:
        return self._n

    def _check_range(self, i: int, j: int) -> None:
        if not (0 <= i <= j < self._n):
            raise IndexError(f"range [{i}, {j}] out of bounds for length {self._n}")

    def sum_range(self, i: int, j: int) -> float:
        """Sum of ``values[i..j]`` (inclusive)."""
        self._check_range(i, j)
        return float(self._sum[j + 1] - self._sum[i])

    def sqsum_range(self, i: int, j: int) -> float:
        """Sum of squares of ``values[i..j]`` (inclusive)."""
        self._check_range(i, j)
        return float(self._sqsum[j + 1] - self._sqsum[i])

    def mean(self, i: int, j: int) -> float:
        """Mean of ``values[i..j]`` (inclusive)."""
        return self.sum_range(i, j) / (j - i + 1)

    def sqerror(self, i: int, j: int) -> float:
        """SSE of representing ``values[i..j]`` by its mean (paper eq. 2).

        Clamped at zero to absorb floating-point cancellation.
        """
        self._check_range(i, j)
        length = j - i + 1
        total = self._sum[j + 1] - self._sum[i]
        sq = self._sqsum[j + 1] - self._sqsum[i]
        return max(0.0, float(sq - total * total / length))

    def sqerror_suffixes(self, starts: np.ndarray, j: int) -> np.ndarray:
        """Vectorized ``SQERROR[start, j]`` for an array of start indices.

        This is the inner loop of the DP and of HERROR evaluation: buckets
        ``[start, j]`` for every ``start`` in ``starts`` at once.
        """
        starts = np.asarray(starts, dtype=np.intp)
        lengths = (j + 1) - starts
        totals = self._sum[j + 1] - self._sum[starts]
        sqs = self._sqsum[j + 1] - self._sqsum[starts]
        errors = sqs - totals * totals / lengths
        return np.maximum(errors, 0.0)

    def sqerror_prefixes(self, i: int, ends: np.ndarray) -> np.ndarray:
        """Vectorized ``SQERROR[i, end]`` for an array of end indices.

        The mirror image of :meth:`sqerror_suffixes`; used by local-search
        boundary refinement, which prices buckets with a fixed start and a
        moving end.
        """
        ends = np.asarray(ends, dtype=np.intp)
        lengths = ends - i + 1
        totals = self._sum[ends + 1] - self._sum[i]
        sqs = self._sqsum[ends + 1] - self._sqsum[i]
        errors = sqs - totals * totals / lengths
        return np.maximum(errors, 0.0)


class SlidingPrefixSums:
    """Prefix sums over a sliding window of the last ``capacity`` points.

    Implements the section-4.5 structure: absolute cumulative arrays
    ``SUM'``/``SQSUM'`` anchored at a point in the past.  Queries subtract
    two cumulative entries, so the anchor offset cancels; every ``capacity``
    arrivals the arrays are compacted (an O(n) rebase amortized over n
    arrivals).  Window-relative indices are 0-based with index 0 being the
    oldest retained point.  Every cumulative entry is the previous entry
    plus one point (or its rounded square) in one rounded addition, however
    the points arrive; the fixed-window builder's pruning margin relies on
    that.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        # Cumulative arrays hold up to 2*capacity + 1 entries before rebase.
        self._cum_sum = np.zeros(2 * capacity + 1, dtype=np.float64)
        self._cum_sqsum = np.zeros(2 * capacity + 1, dtype=np.float64)
        # Raw ring of window values, for rebasing and for `values()`.
        self._ring = np.zeros(capacity, dtype=np.float64)
        self._total_seen = 0
        # Number of cumulative entries currently filled past index 0.
        self._filled = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def total_seen(self) -> int:
        """Total number of points appended since construction."""
        return self._total_seen

    def __len__(self) -> int:
        """Current window length (≤ capacity)."""
        return min(self._total_seen, self._capacity)

    def append(self, value: float) -> None:
        """Slide the window forward by one point."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"stream values must be finite, got {value}")
        if self._filled == 2 * self._capacity:
            self._rebase()
        head = self._filled
        self._cum_sum[head + 1] = self._cum_sum[head] + value
        self._cum_sqsum[head + 1] = self._cum_sqsum[head] + value * value
        self._filled += 1
        self._ring[self._total_seen % self._capacity] = value
        self._total_seen += 1

    def extend(self, values) -> None:
        """Slide the window forward by a whole batch.

        Equivalent to ``append`` per value, bit for bit, but the cumulative
        arrays and the ring are written with slice assignments, so the
        per-point Python overhead is amortized across the batch.  The batch
        is validated before anything is written: extend ingests all points
        or none (callers attribute a failed batch to exactly the
        un-ingested points).
        """
        self._slide(as_stream_batch(values))

    def _slide(self, array: np.ndarray) -> None:
        """:meth:`extend` by a batch :func:`as_stream_batch` validated."""
        # Small batches keep the running sums as Python floats.
        small = array.size < _SMALL_BATCH
        points = array.tolist() if small else array
        capacity = self._capacity
        start = 0
        while start < len(points):
            if self._filled == 2 * capacity:
                self._rebase()
            head = self._filled
            chunk = points[start : start + 2 * capacity - head]
            count = len(chunk)
            cum_sum = self._cum_sum[head : head + 1 + count]
            cum_sqsum = self._cum_sqsum[head : head + 1 + count]
            # Either way each entry is the previous one plus a point (or its
            # square), the same additions in the same order as `append`.
            if small:
                total = float(cum_sum[0])
                squares = float(cum_sqsum[0])
                totals = []
                sq_totals = []
                for value in chunk:
                    total += value
                    squares += value * value
                    totals.append(total)
                    sq_totals.append(squares)
                cum_sum[1:] = totals
                cum_sqsum[1:] = sq_totals
            else:
                cum_sum[1:] = chunk
                np.add.accumulate(cum_sum, out=cum_sum)
                np.multiply(chunk, chunk, out=cum_sqsum[1:])
                np.add.accumulate(cum_sqsum, out=cum_sqsum)
            # Ring update: only the last `capacity` chunk values can survive,
            # written as at most two contiguous slices.
            write = chunk if count <= capacity else chunk[count - capacity :]
            pos = (self._total_seen + count - len(write)) % capacity
            first = min(len(write), capacity - pos)
            self._ring[pos : pos + first] = write[:first]
            if len(write) > first:
                self._ring[: len(write) - first] = write[first:]
            self._filled += count
            self._total_seen += count
            start += count

    def _rebase(self) -> None:
        """Drop cumulative entries that precede the current window."""
        window = self.values()
        self._cum_sum[0] = 0.0
        self._cum_sqsum[0] = 0.0
        self._cum_sum[1 : window.size + 1] = np.cumsum(window)
        self._cum_sqsum[1 : window.size + 1] = np.cumsum(window * window)
        self._filled = window.size

    def values(self) -> np.ndarray:
        """The current window contents, oldest first (a fresh array)."""
        length = len(self)
        if length < self._capacity:
            return self._ring[:length].copy()
        pivot = self._total_seen % self._capacity
        return np.concatenate((self._ring[pivot:], self._ring[:pivot]))

    @classmethod
    def restore(cls, capacity: int, window, total_seen: int) -> "SlidingPrefixSums":
        """Rebuild a structure holding ``window`` after ``total_seen`` points.

        O(len(window)) regardless of how long the original stream was; the
        dropped history never needs replaying because only the retained
        window affects any query.
        """
        values = as_stream_batch(window)
        if values.size > capacity:
            raise ValueError("window longer than capacity")
        if total_seen < values.size:
            raise ValueError("total_seen cannot be below the window length")
        if total_seen > values.size and values.size < capacity:
            raise ValueError("a partial window implies total_seen == window length")
        sliding = cls(capacity)
        sliding._total_seen = total_seen - values.size
        # Align the ring pivot with the restored arrival counter.
        for value in values:
            sliding._ring[sliding._total_seen % capacity] = value
            sliding._total_seen += 1
        sliding._cum_sum[1 : values.size + 1] = np.cumsum(values)
        sliding._cum_sqsum[1 : values.size + 1] = np.cumsum(values * values)
        sliding._filled = values.size
        return sliding

    def value_at(self, i: int) -> float:
        """The window value at window-relative position ``i`` (0 = oldest)."""
        self._check_range(i, i)
        oldest = self._total_seen - len(self)
        return float(self._ring[(oldest + i) % self._capacity])

    def _base(self) -> int:
        """Cumulative-array index of the entry just before the window."""
        return self._filled - len(self)

    def sum_range(self, i: int, j: int) -> float:
        """Sum of window values ``[i..j]`` (inclusive, window-relative)."""
        self._check_range(i, j)
        base = self._base()
        return float(self._cum_sum[base + j + 1] - self._cum_sum[base + i])

    def sqsum_range(self, i: int, j: int) -> float:
        self._check_range(i, j)
        base = self._base()
        return float(self._cum_sqsum[base + j + 1] - self._cum_sqsum[base + i])

    def mean(self, i: int, j: int) -> float:
        return self.sum_range(i, j) / (j - i + 1)

    def sqerror(self, i: int, j: int) -> float:
        """SSE of representing window values ``[i..j]`` by their mean."""
        self._check_range(i, j)
        base = self._base()
        length = j - i + 1
        total = self._cum_sum[base + j + 1] - self._cum_sum[base + i]
        sq = self._cum_sqsum[base + j + 1] - self._cum_sqsum[base + i]
        return max(0.0, float(sq - total * total / length))

    def sqerror_suffixes(self, starts: np.ndarray, j: int) -> np.ndarray:
        """Vectorized ``SQERROR[start, j]`` for window-relative starts."""
        self._check_range(0, j)
        base = self._base()
        starts = np.asarray(starts, dtype=np.intp)
        lengths = (j + 1) - starts
        totals = self._cum_sum[base + j + 1] - self._cum_sum[base + starts]
        sqs = self._cum_sqsum[base + j + 1] - self._cum_sqsum[base + starts]
        return np.maximum(sqs - totals * totals / lengths, 0.0)

    def _check_range(self, i: int, j: int) -> None:
        if not (0 <= i <= j < len(self)):
            raise IndexError(
                f"window range [{i}, {j}] out of bounds for window length {len(self)}"
            )
