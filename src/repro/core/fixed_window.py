"""Fixed-window streaming histograms (paper section 4.5 -- the contribution).

The builder maintains an epsilon-approximate B-bucket V-optimal histogram
of the **last n points** of a stream.  Re-running the optimal DP per
arrival costs ``O(n^2 B)``; re-using the agglomerative queues is impossible
because shifting the window shifts the ``HERROR`` curve and invalidates the
interval cover (paper section 4.4, Fig. 4).  Instead, on demand the builder
rebuilds the interval cover of every level with the procedure
``CreateList[a, b, k]`` (paper Fig. 5):

* level-k ``HERROR[c, k]`` is a minimization over the already-built
  level-(k-1) endpoint set plus the virtual split ``c - 1``, priced by the
  interval-cover property from the start of the level-(k-1) interval that
  straddles ``c - 1`` (it covers the case where the optimal split lies
  strictly inside that interval);
* each interval's right end is located by a galloping (exponential +
  binary) search over the non-decreasing ``HERROR`` curve -- the paper's
  binary search, tightened so the cost per interval is logarithmic in the
  *interval length* rather than the window length.

The searches consult only ``O(intervals * log n)`` positions per level --
Theorem 1's ``O((B^3 / eps^2) log^3 n)`` work measure, reported as
``RebuildStats.herror_evaluations``.  The arithmetic behind those values is
done for a whole level at once: one numpy broadcast over (window positions
x level-(k-1) endpoints), in row blocks of bounded size, which is
``O(n * intervals)`` per level but costs a few numpy calls per block
instead of one per consulted position.  The searches then run in plain
Python over the finished curve.  The emitted histogram is recovered by
walking the minimizations back down the levels, so its true SSE equals the
computed estimate and genuinely satisfies ``SSE <= (1 + eps) * OPT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bucket import Bucket, Histogram
from .intervals import RELATIVE_TOLERANCE
from .prefix import SlidingPrefixSums, as_stream_batch

__all__ = ["FixedWindowHistogramBuilder", "RebuildStats"]


#: Float64 elements per broadcast temporary: a row block holds at most this
#: many (or a single row, when one level has more endpoints), so the
#: rebuild's scratch memory does not grow with the window.
_BLOCK_ELEMENTS = 16_384


@dataclass
class RebuildStats:
    """Operation counters for one rebuild (Theorem 1 ablations).

    ``herror_evaluations`` counts the distinct (position, level) ``HERROR``
    values the interval searches consulted, plus one for level B at the
    last position; ``search_probes`` counts galloping and binary-search
    probes; ``intervals_per_level`` records the interval-cover sizes.  All
    three are fixed when the rebuild ends: later queries do not move them.
    """

    herror_evaluations: int = 0
    search_probes: int = 0
    intervals_per_level: list[int] = field(default_factory=list)

    @property
    def total_intervals(self) -> int:
        return sum(self.intervals_per_level)


class _Level:
    """The interval cover of ``HERROR[., k]`` for one window.

    ``curve`` holds ``HERROR[c, k]`` for every window position ``c``.  The
    other arrays are per interval: its start and end, the HERROR value at
    the end, and the cumulative sum / sum-of-squares entries that price a
    final bucket starting right after the end -- everything the level-above
    minimization touches.
    """

    __slots__ = (
        "curve", "starts", "ends", "ends_float", "herror", "cum_sum", "cum_sqsum"
    )

    def __init__(
        self,
        curve: np.ndarray,
        starts: list[int],
        ends: list[int],
        cum_sum: np.ndarray,
        cum_sqsum: np.ndarray,
    ) -> None:
        self.curve = curve
        self.starts = np.asarray(starts, dtype=np.intp)
        self.ends = np.asarray(ends, dtype=np.intp)
        self.ends_float = self.ends.astype(np.float64)
        self.herror = curve[self.ends]
        self.cum_sum = cum_sum[self.ends + 1]
        self.cum_sqsum = cum_sqsum[self.ends + 1]


class FixedWindowHistogramBuilder:
    """Epsilon-approximate B-bucket histogram of the last ``window_size`` points.

    Parameters
    ----------
    window_size:
        Sliding-window length n (the fixed buffer M of the paper).
    num_buckets:
        Histogram space budget B.
    epsilon:
        Approximation slack; the histogram's SSE is within ``(1 + epsilon)``
        of the optimal B-bucket SSE of the current window.  The interval
        machinery uses ``delta = epsilon / (2 B)``.

    The interval cover is rebuilt lazily: :meth:`append` only slides the
    window; the rebuild happens on :meth:`update` / :meth:`histogram`.  A
    paper-faithful "maintain after every arrival" loop calls ``append``
    then ``update``.
    """

    def __init__(self, window_size: int, num_buckets: int, epsilon: float) -> None:
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        self.window_size = window_size
        self.num_buckets = num_buckets
        self.epsilon = epsilon
        self.delta = epsilon / (2.0 * num_buckets)
        self._prefix = SlidingPrefixSums(window_size)
        self._levels: list[_Level] = []
        self._splits_cache: list[int] | None = None
        self._final_error = 0.0
        self._dirty = True
        self.last_stats = RebuildStats()
        self.lifetime_stats = RebuildStats()
        self.rebuild_count = 0

    def __len__(self) -> int:
        """Current window length (≤ window_size)."""
        return len(self._prefix)

    @property
    def total_seen(self) -> int:
        return self._prefix.total_seen

    def window_values(self) -> np.ndarray:
        """The raw window contents (oldest first)."""
        return self._prefix.values()

    def append(self, value: float) -> None:
        """Slide the window forward by one point (O(1) amortized)."""
        self._prefix.append(value)
        self._dirty = True

    def extend(self, values) -> None:
        """Slide the window forward by a whole batch (vectorized).

        One rebuild amortizes over the batch: the prefix structure advances
        in bulk and the interval cover stays stale until the next
        :meth:`update` / :meth:`histogram`.
        """
        if (
            isinstance(values, np.ndarray)
            and values.dtype == np.float64
            and values.ndim == 1
        ):
            array = values  # validated downstream by the prefix structure
        else:
            array = as_stream_batch(values)
        if array.size == 0:
            return
        if array.size == 1:
            self.append(float(array[0]))
            return
        self._prefix.extend(array)
        self._dirty = True

    def update(self) -> None:
        """Rebuild the interval cover for the current window if stale."""
        if not self._dirty:
            return
        if len(self._prefix) == 0:
            raise ValueError("no points consumed yet")
        self._rebuild()
        self._dirty = False

    def splits(self) -> list[int]:
        """Bucket-split positions of the current histogram (cached)."""
        self.update()
        if self._splits_cache is None:
            self._splits_cache = self._recover_splits()
        return list(self._splits_cache)

    def histogram(self) -> Histogram:
        """The epsilon-approximate B-bucket histogram of the current window."""
        splits = self.splits()
        prefix = self._prefix
        buckets = []
        start = 0
        for split in splits + [len(prefix) - 1]:
            buckets.append(Bucket(start, split, prefix.mean(start, split)))
            start = split + 1
        return Histogram(buckets)

    @property
    def error_estimate(self) -> float:
        """Exact SSE of the current histogram, computed from prefix sums."""
        splits = self.splits()
        prefix = self._prefix
        total = 0.0
        start = 0
        for split in splits + [len(prefix) - 1]:
            total += prefix.sqerror(start, split)
            start = split + 1
        return total

    @property
    def herror_estimate(self) -> float:
        """The internal HERROR estimate (for analysis; >= 0, ~error_estimate)."""
        self.update()
        return self._final_error

    def interval_counts(self) -> list[int]:
        """Interval-cover sizes per level for the current window."""
        self.update()
        return [level.ends.size for level in self._levels]

    def interval_cover(self, level: int) -> list[tuple[int, int]]:
        """The interval cover of ``HERROR[., level]`` as (start, end) pairs.

        ``level`` is the bucket count k in ``[1, B-1]``; positions are
        window-relative.  Exposed for analysis and for tracing the
        paper's Example 1.
        """
        self.update()
        if not (1 <= level <= len(self._levels)):
            raise ValueError(f"level must be in [1, {len(self._levels)}]")
        chosen = self._levels[level - 1]
        return [
            (int(start), int(end))
            for start, end in zip(chosen.starts, chosen.ends)
        ]

    # ------------------------------------------------------------------
    # Snapshot / resume
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot sufficient to resume the stream.

        The builder's only durable state is its parameters and the raw
        window (interval covers are rebuilt per arrival anyway), so the
        snapshot is small and exact.  Snapshots written by earlier versions
        also carry an ``"engine"`` key; :meth:`from_state` ignores it.
        """
        return {
            "window_size": self.window_size,
            "num_buckets": self.num_buckets,
            "epsilon": self.epsilon,
            "total_seen": self._prefix.total_seen,
            "window": self._prefix.values().tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "FixedWindowHistogramBuilder":
        """Inverse of :meth:`to_state`; the resumed builder answers every
        query identically to the original."""
        builder = cls(
            int(state["window_size"]),
            int(state["num_buckets"]),
            float(state["epsilon"]),
        )
        builder._prefix = SlidingPrefixSums.restore(
            builder.window_size, state["window"], int(state["total_seen"])
        )
        builder._dirty = True
        return builder

    # ------------------------------------------------------------------
    # Rebuild machinery (paper Fig. 5)
    # ------------------------------------------------------------------

    def _rebuild(self) -> None:
        stats = RebuildStats()
        prefix = self._prefix
        last = len(prefix) - 1
        # Window-relative cumulative sums: entry c + 1 closes a bucket at c.
        # They stay fixed until the next append, which marks the cover dirty.
        base = prefix._base()
        self._cum_sum = prefix._cum_sum[base : base + last + 2]
        self._cum_sqsum = prefix._cum_sqsum[base : base + last + 2]
        self._splits_cache = None
        self._levels = []
        positions = np.arange(last + 1)
        for k in range(1, self.num_buckets):
            self._levels.append(self._create_level(self._curve(k, positions), stats))
            stats.intervals_per_level.append(self._levels[-1].ends.size)
        self._final_error = float(self._curve(self.num_buckets, positions[last:])[0])
        stats.herror_evaluations += 1
        self.last_stats = stats
        self.lifetime_stats.herror_evaluations += stats.herror_evaluations
        self.lifetime_stats.search_probes += stats.search_probes
        self.rebuild_count += 1

    def _curve(self, k: int, positions: np.ndarray) -> np.ndarray:
        """``HERROR[c, k]`` over the current window for sorted ``positions``.

        For ``k >= 2`` the minimization runs over (i) the endpoints of the
        already-built level-(k-1) cover that precede ``c`` and (ii) the
        virtual split ``c - 1``.  The virtual candidate is priced by the
        interval-cover property: ``HERROR[c-1, k-1] <= (1 + delta) *
        HERROR[start, k-1]`` for the interval containing ``c - 1``, which
        costs one extra ``(1 + delta)`` factor per level -- exactly the
        second factor the paper's ``delta = eps / (2B)`` budget reserves.
        """
        values = np.zeros(positions.size)
        # c + 1 <= k: fewer points than buckets, exact, zero error.
        first = int(positions.searchsorted(k))
        c = positions[first:]
        if c.size == 0:
            return values
        cum_sum = self._cum_sum
        cum_sqsum = self._cum_sqsum
        if k == 1:
            totals = cum_sum[c + 1] - cum_sum[0]
            value = (cum_sqsum[c + 1] - cum_sqsum[0]) - totals * totals / (c + 1)
        else:
            level = self._levels[k - 2]
            # Virtual split at c - 1: the final bucket is the single point c.
            straddle = level.ends.searchsorted(c - 1)
            value = (1.0 + self.delta) * level.curve[level.starts[straddle]]
            np.minimum(value, self._endpoint_minima(level, c), out=value)
        values[first:] = np.where(value > 0.0, value, 0.0)
        return values

    def _endpoint_minima(self, level: _Level, c: np.ndarray) -> np.ndarray:
        """``min(HERROR[e, k-1] + SQERROR[e+1, c])`` over cover ends ``e < c``.

        One broadcast over (positions x endpoints) per row block; a
        position with no endpoint before it gets ``inf``.
        """
        cutoffs = level.ends.searchsorted(c)  # endpoints strictly before c
        best = np.full(c.size, np.inf)
        sum_c = self._cum_sum[c + 1]
        sqsum_c = self._cum_sqsum[c + 1]
        rows_c = c.astype(np.float64)
        rows = max(1, _BLOCK_ELEMENTS // level.ends.size)
        scratch = np.empty((2, min(rows, c.size) * int(cutoffs[-1])))
        with np.errstate(divide="ignore", invalid="ignore"):
            for lo in range(0, c.size, rows):
                hi = min(lo + rows, c.size)
                cols = int(cutoffs[hi - 1])
                if cols == 0:
                    continue
                tails = scratch[0, : (hi - lo) * cols].reshape(hi - lo, cols)
                quotient = scratch[1, : (hi - lo) * cols].reshape(hi - lo, cols)
                column = slice(lo, hi), None
                np.subtract(sum_c[column], level.cum_sum[:cols], out=quotient)
                np.multiply(quotient, quotient, out=quotient)
                np.subtract(rows_c[column], level.ends_float[:cols], out=tails)
                np.divide(quotient, tails, out=quotient)
                np.subtract(sqsum_c[column], level.cum_sqsum[:cols], out=tails)
                np.subtract(tails, quotient, out=tails)
                np.add(level.herror[:cols], tails, out=tails)
                # Endpoints at or past a row's position are not splits for it.
                done = int(cutoffs[lo])
                if done < cols:
                    np.copyto(
                        tails[:, done:],
                        np.inf,
                        where=level.ends[done:cols] >= c[column],
                    )
                np.minimum.reduce(tails, axis=1, out=best[lo:hi])
        return best

    def _create_level(self, curve: np.ndarray, stats: RebuildStats) -> _Level:
        """Build the interval cover of one level's ``HERROR`` curve.

        Iterative form of the paper's recursive ``CreateList``: starting at
        ``a``, search for the maximal ``c`` with ``HERROR[c, k] <=
        (1 + delta) * HERROR[a, k]``, record the endpoint, continue from
        ``c + 1``.  Each search gallops -- doubling the step while below
        the threshold -- then binary-searches the bracket.
        """
        values = curve.tolist()
        last = len(values) - 1
        scale = (1.0 + self.delta) * (1.0 + RELATIVE_TOLERANCE)
        starts: list[int] = []
        ends: list[int] = []
        consulted = bytearray(last + 1)  # 1 marks a position the search read
        probes = 0
        a = 0
        while a <= last:
            consulted[a] = 1
            threshold = scale * values[a] + RELATIVE_TOLERANCE
            lo = a
            hi = last + 1
            step = 1
            while lo < last:
                probe = a + step
                if probe > last:
                    probe = last
                probes += 1
                consulted[probe] = 1
                if values[probe] <= threshold:
                    lo = probe
                    step *= 2
                else:
                    hi = probe
                    break
            while hi - lo > 1:
                mid = (lo + hi) // 2
                probes += 1
                consulted[mid] = 1
                if values[mid] <= threshold:
                    lo = mid
                else:
                    hi = mid
            starts.append(a)
            ends.append(lo)
            a = lo + 1
        stats.herror_evaluations += consulted.count(1)
        stats.search_probes += probes
        return _Level(curve, starts, ends, self._cum_sum, self._cum_sqsum)

    def _best_split(self, c: int, k: int) -> int:
        """A split index whose cost is within ``HERROR[c, k]`` (``k >= 2``).

        Recomputes the endpoint minimization and compares it against the
        *exact* cost of the virtual split ``c - 1`` (its interval-based
        price in :meth:`_curve` only over-estimates, so picking the smaller
        of the two realizable costs keeps the walked partition within the
        reported estimate).
        """
        level = self._levels[k - 2]
        virtual = level.curve[c - 1]
        cutoff = int(level.ends.searchsorted(c))
        if cutoff == 0:
            return c - 1
        sum_c = self._cum_sum[c + 1]
        sqsum_c = self._cum_sqsum[c + 1]
        totals = sum_c - level.cum_sum[:cutoff]
        lengths = c - level.ends[:cutoff]
        tails = (sqsum_c - level.cum_sqsum[:cutoff]) - totals * totals / lengths
        candidates = level.herror[:cutoff] + tails
        slot = int(candidates.argmin())
        if candidates[slot] <= virtual:
            return int(level.ends[slot])
        return c - 1

    def _recover_splits(self) -> list[int]:
        """Walk the minimizations down the levels to actual bucket splits."""
        splits: list[int] = []
        c = len(self._prefix) - 1
        k = self.num_buckets
        while k > 1:
            if c + 1 <= k:
                # Degenerate tail: every remaining point its own bucket.
                splits.extend(range(c))
                return sorted(splits)
            split = self._best_split(c, k)
            splits.append(split)
            c, k = split, k - 1
        return sorted(splits)
