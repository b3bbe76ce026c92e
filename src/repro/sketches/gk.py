"""Greenwald-Khanna quantile summary ([GK01], paper related work).

A one-pass, bounded-memory summary supporting rank queries with additive
error at most ``epsilon * N``.  The paper cites it as the state of the art
for streaming order statistics; here it powers the streaming equi-depth
baseline used in the warehouse ablations and is a substrate in its own
right.

The summary stores tuples ``(value, g, delta)`` where ``g`` is the gap in
minimum rank to the previous tuple and ``delta`` bounds the rank
uncertainty.  The invariant ``g + delta <= floor(2 * epsilon * N)`` is
restored by periodic compression.

The tuples live in three parallel plain lists (values / gaps / deltas)
rather than a list of tuple objects: insertion position comes from a C
``bisect`` over the value list instead of a Python linear scan, and the
ingest loop touches only list cells.  ``bisect_right`` lands on exactly
the position the original ``<=`` scan found, so every ``to_dict``
rendering, rank bracket and quantile answer is unchanged.

This summary sits on the hottest path of the serving layer (it is the
default benchmark backend), so :meth:`GKQuantileSummary.extend` is written
for the interpreter.  It inserts one compress period at a time, so the
``count % period`` test runs once per period instead of once per point;
the list ``insert`` methods and the summary length live in locals; and a
float64 array is converted with one ``tolist()``.  ``_compress`` carries
the right neighbour's gap and delta in locals and deletes from the three
lists in one statement.  :meth:`insert` is the per-point reference:
``extend`` over any split of a stream leaves the summary bit for bit
where per-point ``insert`` leaves it
(``tests/test_gk_golden.py``).
"""

from __future__ import annotations

from bisect import bisect_right

__all__ = ["GKQuantileSummary"]


class GKQuantileSummary:
    """Epsilon-approximate one-pass quantile summary."""

    def __init__(self, epsilon: float) -> None:
        if not (0 < epsilon < 1):
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        self._values: list[float] = []
        self._gaps: list[int] = []
        self._deltas: list[int] = []
        self._count = 0
        self._compress_period = max(1, int(1.0 / (2.0 * epsilon)))

    def __len__(self) -> int:
        """Number of stream values inserted."""
        return self._count

    @property
    def summary_size(self) -> int:
        """Number of stored tuples (the space actually used)."""
        return len(self._values)

    def insert(self, value: float) -> None:
        value = float(value)
        self._count += 1
        values = self._values
        position = bisect_right(values, value)
        values.insert(position, value)
        self._gaps.insert(position, 1)
        if position == 0 or position == len(values) - 1:
            # New minimum or maximum: exact rank, delta = 0.
            self._deltas.insert(position, 0)
        else:
            self._deltas.insert(
                position, max(0, int(2.0 * self.epsilon * self._count) - 1)
            )
        if self._count % self._compress_period == 0:
            self._compress()

    # Uniform ingestion naming across synopsis structures: `append` is the
    # one-point verb, `extend` the batch verb; `insert` stays the primary
    # name here to match the GK literature.
    append = insert

    def extend(self, values) -> None:
        """Insert a batch; the same summary as ``insert`` per point."""
        if getattr(values, "dtype", None) == float:
            # A float64 array: tolist() already yields Python floats.
            points = values.tolist()
        else:
            points = [float(value) for value in values]
        stored = self._values
        insert_value = stored.insert
        insert_gap = self._gaps.insert
        insert_delta = self._deltas.insert
        size = len(stored)
        count = self._count
        two_eps = 2.0 * self.epsilon
        period = self._compress_period
        start = 0
        while start < len(points):
            # One compress period at a time: `count` reaches a multiple of
            # the period only at the end of a full run.
            stop = start + period - count % period
            for value in points[start:stop]:
                count += 1
                position = bisect_right(stored, value)
                insert_value(position, value)
                insert_gap(position, 1)
                if position == 0 or position == size:
                    # New minimum or maximum: exact rank, delta = 0.
                    insert_delta(position, 0)
                else:
                    delta = int(two_eps * count) - 1
                    insert_delta(position, delta if delta > 0 else 0)
                size += 1
            start = stop
            if count % period == 0:
                self._count = count
                self._compress()
                size = len(stored)
        self._count = count

    def _compress(self) -> None:
        """Merge adjacent tuples while the rank invariant allows it."""
        threshold = int(2.0 * self.epsilon * self._count)
        values = self._values
        gaps = self._gaps
        deltas = self._deltas
        if len(values) < 3:
            return
        # The right neighbour's gap and delta, carried across merges.
        right_gap = gaps[-1]
        right_delta = deltas[-1]
        for i in range(len(values) - 2, 0, -1):
            gap = gaps[i]
            if gap + right_gap + right_delta <= threshold:
                right_gap += gap
                gaps[i + 1] = right_gap
                del values[i], gaps[i], deltas[i]
            else:
                right_gap = gap
                right_delta = deltas[i]

    def rank_bounds(self, value: float) -> tuple[int, int]:
        """Lower and upper bounds on the rank of ``value`` (1-based).

        The lower bound is the minimum rank of the last tuple with value
        ``<= value``; the upper bound comes from the *following* tuple:
        every stream element ranked above ``rmax(next) - 1`` exceeds
        ``value``.  The bracket width is at most the compression invariant
        ``2 * epsilon * N``.
        """
        if self._count == 0:
            raise ValueError("no values inserted yet")
        min_rank = 0
        max_rank = self._count
        running = 0
        for stored, g, delta in zip(self._values, self._gaps, self._deltas):
            running += g
            if stored <= value:
                min_rank = running
            else:
                max_rank = max(min_rank, running + delta - 1)
                break
        return min_rank, max_rank

    def query(self, fraction: float) -> float:
        """Value whose rank is within ``epsilon * N`` of ``fraction * N``."""
        if self._count == 0:
            raise ValueError("no values inserted yet")
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must be in [0, 1]")
        target = max(1, int(round(fraction * self._count)))
        allowance = self.epsilon * self._count

        running_min = 0
        for i, (value, g, delta) in enumerate(
            zip(self._values, self._gaps, self._deltas)
        ):
            running_min += g
            max_rank = running_min + delta
            if target - running_min <= allowance and max_rank - target <= allowance:
                return value
            if running_min > target + allowance and i > 0:
                return self._values[i - 1]
        return self._values[-1]

    def quantiles(self, count: int) -> list[float]:
        """``count`` evenly spaced quantiles (excluding 0, including interior)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return [self.query(q / (count + 1)) for q in range(1, count + 1)]

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (see :meth:`from_dict`).

        The tuples *are* the summary, so the snapshot is exact: the
        restored summary answers every rank and quantile query
        identically and continues the stream with the same guarantees.
        """
        return {
            "epsilon": self.epsilon,
            "count": self._count,
            "tuples": [
                [value, g, delta]
                for value, g, delta in zip(self._values, self._gaps, self._deltas)
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GKQuantileSummary":
        """Inverse of :meth:`to_dict`."""
        summary = cls(float(payload["epsilon"]))
        count = int(payload["count"])
        if count < 0:
            raise ValueError("count must be non-negative")
        tuples = [
            (float(value), int(g), int(delta))
            for value, g, delta in payload["tuples"]
        ]
        if count == 0 and tuples:
            raise ValueError("tuples present with zero count")
        if count > 0 and not tuples:
            raise ValueError("no tuples for a non-empty summary")
        if any(g < 1 or delta < 0 for _, g, delta in tuples):
            raise ValueError("tuple gaps must be >= 1 and deltas >= 0")
        if any(
            later[0] < earlier[0] for earlier, later in zip(tuples, tuples[1:])
        ):
            raise ValueError("tuples must be sorted by value")
        if sum(g for _, g, _ in tuples) > count:
            raise ValueError("rank gaps exceed the stream count")
        summary._count = count
        summary._values = [value for value, _, _ in tuples]
        summary._gaps = [g for _, g, _ in tuples]
        summary._deltas = [delta for _, _, delta in tuples]
        return summary

    def merge(self, other: "GKQuantileSummary") -> "GKQuantileSummary":
        """Combine two summaries built over disjoint streams.

        Tuples are interleaved in value order; each keeps its ``g`` and
        widens its ``delta`` by the rank uncertainty contributed by the
        other summary's surrounding tuples (the standard GK merge rule).
        The merged summary's rank error is bounded by the *sum* of the two
        input epsilons; it reports the larger input epsilon and restores
        that invariant by compression, so post-merge guarantees are
        ``epsilon_self + epsilon_other`` in the worst case.
        """
        merged = GKQuantileSummary(max(self.epsilon, other.epsilon))
        merged._count = self._count + other._count
        if merged._count == 0:
            return merged

        def widened(own: "GKQuantileSummary", foreign: "GKQuantileSummary"):
            entries = []
            for value, g, delta in zip(own._values, own._gaps, own._deltas):
                # Rank slack from the other summary: the first foreign
                # tuple strictly after this value can precede or follow
                # the true position by its own uncertainty.
                slack = 0
                for candidate, cg, cdelta in zip(
                    foreign._values, foreign._gaps, foreign._deltas
                ):
                    if candidate > value:
                        slack = cg + cdelta - 1
                        break
                entries.append((value, g, delta + max(0, slack)))
            return entries

        combined = widened(self, other) + widened(other, self)
        combined.sort(key=lambda item: item[0])
        merged._values = [value for value, _, _ in combined]
        merged._gaps = [g for _, g, _ in combined]
        merged._deltas = [delta for _, _, delta in combined]
        merged._compress()
        return merged
