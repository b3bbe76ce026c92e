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
done for a whole level at once with numpy, over (window positions x
level-(k-1) endpoints), in blocks of bounded size.  Most of those pairs
cannot win their position's minimum, so on levels large enough to pay for
it a sparse pass over every 16th endpoint first bounds each position's
result and cuts the endpoints that provably lose; only the band that is
left is evaluated in full.  Rounding
is accounted for by a margin, so every ``HERROR`` value is the one a full
evaluation gives, bit for bit.  The searches then run in plain Python over
the finished curve.  The emitted histogram is recovered by walking the
minimizations back down the levels, so its true SSE equals the computed
estimate and genuinely satisfies ``SSE <= (1 + eps) * OPT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bucket import Bucket, Histogram
from .intervals import RELATIVE_TOLERANCE
from .prefix import SlidingPrefixSums, as_stream_batch

__all__ = ["FixedWindowHistogramBuilder", "RebuildStats"]


#: Elements per temporary of the HERROR evaluation, so the rebuild's
#: scratch memory does not grow with the window.
_BLOCK_ELEMENTS = 16_384

#: The sparse pass of ``_endpoint_minima`` prices every this-many-th cover
#: endpoint for every position.
_SPARSE_STRIDE = 16

#: Positions per rectangle in the band pass of ``_endpoint_minima``.
_BAND_ROWS = 64

#: Levels with fewer (position, endpoint) pairs are evaluated whole: the
#: sparse pass costs a few dozen numpy calls, which pruning recovers only
#: once a level spans several blocks.
_PRUNE_MIN_PAIRS = 4 * _BLOCK_ELEMENTS


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


def _bucket_tails(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    cols: tuple[np.ndarray, np.ndarray, np.ndarray],
    out: np.ndarray,
    spare: np.ndarray,
) -> None:
    """``SQERROR[e+1, c]`` for every (position ``c``, cover end ``e``) pair.

    ``rows`` holds ``SUM[c+1]``, ``c`` and ``SQSUM[c+1]``; ``cols`` holds
    ``SUM[e+1]``, ``e`` and ``SQSUM[e+1]``, each shaped to broadcast into
    ``out``.  The scalar formula ``(SQSUM[c+1] - SQSUM[e+1]) - (SUM[c+1] -
    SUM[e+1])**2 / (c - e)`` runs with its operations in its order, so
    every element rounds exactly as a scalar evaluation does.  Each row term
    is copied into the block before the endpoint term is subtracted: the
    same IEEE subtraction, which numpy runs faster than one that broadcasts
    the row term across the block itself.
    """
    sum_c, c, sqsum_c = rows
    sum_e, e, sqsum_e = cols
    np.copyto(spare, sum_c)
    np.subtract(spare, sum_e, out=spare)
    np.multiply(spare, spare, out=spare)
    np.copyto(out, c)
    np.subtract(out, e, out=out)
    np.divide(spare, out, out=spare)
    np.copyto(out, sqsum_c)
    np.subtract(out, sqsum_e, out=out)
    np.subtract(out, spare, out=out)


def _rectangles(first: np.ndarray, last: np.ndarray) -> list[list[int]]:
    """Row blocks ``[lo, hi)`` with the endpoint range ``[low, high)`` that
    covers the bands ``[first, last)`` of their rows.

    Blocks start at ``_BAND_ROWS`` rows, and blocks with nothing left are
    dropped.  Adjacent blocks merge while the merged rectangle still fits
    ``_BLOCK_ELEMENTS``, which saves numpy calls where bands are narrow.
    """
    starts = np.arange(0, first.size, _BAND_ROWS)
    lows = np.minimum.reduceat(first, starts).tolist()
    highs = np.maximum.reduceat(last, starts).tolist()
    stops = starts[1:].tolist() + [first.size]
    blocks: list[list[int]] = []
    for lo, hi, low, high in zip(starts.tolist(), stops, lows, highs):
        if high <= low:
            continue
        if blocks and blocks[-1][1] == lo:
            top = blocks[-1]
            merged = min(top[2], low), max(top[3], high)
            if (hi - top[0]) * (merged[1] - merged[0]) <= _BLOCK_ELEMENTS:
                top[1:] = hi, *merged
                continue
        blocks.append([lo, hi, low, high])
    return blocks


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
        self._margin = self._rounding_margin()
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
            virtual = (1.0 + self.delta) * level.curve[level.starts[straddle]]
            value = self._endpoint_minima(level, c, virtual)
        values[first:] = np.where(value > 0.0, value, 0.0)
        return values

    def _rounding_margin(self) -> float:
        """Bound on how far a computed ``SQERROR[e+1, c]`` can sit from the
        exact SSE of the window points ``e+1 .. c``.

        The cumulative arrays are running sums: each entry is one rounded
        addition of a point (or of its rounded square) to the previous
        entry.  With unit roundoff ``u = 2**-53``, ``A = max|SUM'|``,
        ``Q = max SQSUM'`` and ``X = max|x|`` over the window, and a bucket
        of ``L <= n`` points, the two differences of cumulative entries are
        off from the exact sums by at most ``L*u*A`` and ``L*u*(X**2 + Q)``.
        The five rounded operations of the formula add at most ``u*Q`` (the
        subtraction of squares), ``~4u*L*X**2`` (the squared sum over
        ``L``) and ``u*L*X**2`` (the final subtraction), and the squared
        sum's error gives ``2u*L*A*X``.  To first order the error is below
        ``u * ((n+1)*Q + 2n*A*X + 6n*X**2)``; ``2**-50 * (n+1) * (Q + A*X +
        X**2)`` covers it with room for the second-order terms and for its
        own rounding, and ``(n+3) * 2**-1074`` covers products that
        underflow.  When an intermediate could overflow there is no such
        bound: the margin is ``inf``, which disables pruning.
        """
        n = len(self._prefix)
        largest_sum = float(np.abs(self._cum_sum).max())
        largest_sqsum = float(self._cum_sqsum.max())
        largest_point = float(np.abs(self._prefix.values()).max())
        if not math.isfinite(largest_sqsum + 4.0 * largest_sum * largest_sum):
            return math.inf
        return 2.0**-50 * (n + 1) * (
            largest_sqsum + largest_sum * largest_point + largest_point * largest_point
        ) + (n + 3) * 2.0**-1074

    def _endpoint_minima(
        self, level: _Level, c: np.ndarray, virtual: np.ndarray
    ) -> np.ndarray:
        """``min(virtual, HERROR[e, k-1] + SQERROR[e+1, c])`` over ends ``e < c``.

        Equal, value for value, to evaluating every (position, endpoint)
        pair, but only pairs that can still win are evaluated in full:

        1. *Sparse pass* (:meth:`_sparse_pass`).  Every
           ``_SPARSE_STRIDE``-th endpoint is priced for every position.  A
           position's ``bound`` is the minimum of its ``virtual`` value and
           these candidates.  Each of them is a value the full minimum
           ranges over, so the result is ``min(bound, band)`` for any band
           that keeps every endpoint whose candidate could fall below
           ``bound``.
        2. *Cuts.*  The same pass proves which endpoints lose; what is left
           of a position is one band ``[first, last)`` of endpoints.
        3. *Band pass.*  Rectangles of positions (:func:`_rectangles`)
           cover their bands and are evaluated in full.  Extra endpoints
           inside a rectangle are harmless, being genuine candidates;
           endpoints at or past a position are masked out.

        A level with fewer than ``_PRUNE_MIN_PAIRS`` pairs skips the sparse
        pass and evaluates every pair.

        The minimum's value is unchanged because a skipped pair computes to
        at least ``bound``; ties do not matter because only the value is
        stored.  Every evaluated candidate rounds as the scalar formula
        does (:func:`_bucket_tails`), and every temporary holds at most
        ``_BLOCK_ELEMENTS`` elements.
        """
        cutoffs = level.ends.searchsorted(c)  # endpoints strictly before c
        rows = (self._cum_sum[c + 1], c.astype(np.float64), self._cum_sqsum[c + 1])
        scratch = np.empty((2, _BLOCK_ELEMENTS))
        with np.errstate(divide="ignore", invalid="ignore"):
            if c.size * level.ends.size < _PRUNE_MIN_PAIRS:
                bound = virtual.copy()
                first = np.zeros(c.size, dtype=np.intp)
                last = cutoffs
            else:
                bound, first, last = self._sparse_pass(
                    level, c, cutoffs, rows, virtual, scratch
                )
            columns = (level.cum_sum, level.ends_float, level.cum_sqsum)
            for lo, hi, low, high in _rectangles(first, last):
                block = slice(lo, hi)
                count = hi - lo
                block_rows = tuple(term[block, None] for term in rows)
                done = int(cutoffs[lo])  # endpoints before every row's position
                chunk = _BLOCK_ELEMENTS // count
                for left in range(low, high, chunk):
                    right = min(left + chunk, high)
                    size = count * (right - left)
                    tails = scratch[0, :size].reshape(count, -1)
                    _bucket_tails(
                        block_rows,
                        tuple(column[left:right] for column in columns),
                        tails,
                        scratch[1, :size].reshape(count, -1),
                    )
                    np.add(level.herror[left:right], tails, out=tails)
                    if done < right:
                        skip = max(done, left)
                        np.copyto(
                            tails[:, skip - left :],
                            np.inf,
                            where=level.ends[skip:right] >= c[block, None],
                        )
                    row_bound = bound[block]
                    np.minimum(
                        row_bound, np.minimum.reduce(tails, axis=1), out=row_bound
                    )
        return bound

    def _sparse_pass(
        self,
        level: _Level,
        c: np.ndarray,
        cutoffs: np.ndarray,
        rows: tuple[np.ndarray, np.ndarray, np.ndarray],
        virtual: np.ndarray,
        scratch: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each position's ``bound`` and the band ``[first, last)`` of
        endpoints whose candidates could still fall below it.

        With ``margin`` from :meth:`_rounding_margin`, every computed tail
        ``SQERROR[e+1, c]`` lies within ``margin`` of the exact SSE of the
        bucket ``e+1 .. c``, which never grows as ``e`` moves right.  The
        endpoints are split into segments of ``stride`` starting at each
        sparse endpoint, and two facts cut them:

        * *Segment cut* (sets ``first``).  A candidate in segment ``g`` is
          at least the segment's ``HERROR`` floor (the suffix minimum of
          ``HERROR`` at its first endpoint) plus the next sparse endpoint's
          computed tail, less ``2 * margin``: its exact SSE is at least that
          endpoint's.  If this exceeds ``bound``, every candidate of the
          segment computes to at least ``bound`` (rounding is monotone), and
          the segment loses.  With a floor of 0 this is the prefix cut: an
          endpoint whose tail alone exceeds ``bound + 2 * margin`` beats
          every endpoint before it.  ``first`` starts the first segment
          that survives.
        * *Suffix cut* (sets ``last``).  A computed tail is at least
          ``-margin``, so an endpoint with ``HERROR > bound + margin``
          loses.  The suffix minimum of ``HERROR`` does not decrease, so
          one ``searchsorted`` finds where that holds for every later
          endpoint.

        Thresholds are rounded up (``nextafter``), so a comparison of
        computed values that passes also holds for the real numbers.
        Positions run along the contiguous axis, which is the long one.
        """
        margin = self._margin
        ends = level.ends
        bound = virtual.copy()
        first = np.empty(c.size, dtype=np.intp)
        # At most _BLOCK_ELEMENTS sparse endpoints, so a row fits one block.
        stride = max(_SPARSE_STRIDE, -(-ends.size // _BLOCK_ELEMENTS))
        sparse_ends, sparse_herror, *sparse = (
            np.ascontiguousarray(column[::stride, None])
            for column in (
                ends,
                level.herror,
                level.cum_sum,
                level.ends_float,
                level.cum_sqsum,
            )
        )
        suffix_min = np.minimum.accumulate(level.herror[::-1])[::-1]
        floors = np.ascontiguousarray(suffix_min[::stride][:-1, None])
        width = sparse_ends.shape[0]
        for lo in range(0, c.size, _BLOCK_ELEMENTS // width):
            block = slice(lo, min(lo + _BLOCK_ELEMENTS // width, c.size))
            size = (block.stop - lo) * width
            tails = scratch[0, :size].reshape(width, -1)
            candidates = scratch[1, :size].reshape(width, -1)
            _bucket_tails(
                tuple(term[block] for term in rows), tuple(sparse), tails, candidates
            )
            # No candidate where the endpoint is not before the position:
            # NaN drops out of ``fmin`` and fails every comparison below.
            done = -(-int(cutoffs[lo]) // stride)  # valid for every row
            np.copyto(tails[done:], np.nan, where=sparse_ends[done:] >= c[block])
            np.add(sparse_herror, tails, out=candidates)
            row_bound = bound[block]
            np.fmin(row_bound, np.fmin.reduce(candidates, axis=0), out=row_bound)
            # Lower bounds of segments 0 .. width-2; a row's last segment
            # (whose next sparse tail is NaN or missing) always survives.
            lower = candidates
            np.add(floors, tails[1:], out=lower[:-1])
            lower[-1] = -np.inf
            threshold = np.nextafter(row_bound + 2.0 * margin, np.inf)
            first[block] = (lower > threshold).argmin(axis=0)
        first *= stride
        last = suffix_min.searchsorted(np.nextafter(bound + margin, np.inf), "right")
        np.minimum(last, cutoffs, out=last)
        # A row with nothing left must not widen its block's rectangle.
        empty = first >= last
        first[empty] = ends.size
        last[empty] = 0
        return bound, first, last

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
