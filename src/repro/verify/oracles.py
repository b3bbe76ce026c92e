"""Exact reference oracles for every synopsis backend.

The paper's central claim (Theorem 1) is *relative*: the fixed-window
histogram's SSE stays within ``(1 + eps)`` of the optimal B-bucket SSE of
the current window.  Claims of that shape are only checkable against
exact references -- the ``O(n^2 B)`` V-optimal dynamic program, exact
sliding-window range sums and quantiles, exact Haar coefficients of the
raw window.  This module states each backend's guarantee once, as an
:class:`Oracle` that consumes the identical stream the maintainer does
and audits the maintainer's synopsis against ground truth computed from
its own copy of the data.

Every oracle is deliberately *independent* of the backend under test: it
keeps its own copy of what its check reads (the last window of a window
backend, the whole stream of a whole-stream one, or an exact frequency
table), recomputes exact answers from scratch at every check, and never
reads backend internals other than the public synopsis/stats surface.
``oracle_for`` maps registry backend names onto oracle instances using
the same constructor parameters the registry factory takes, so a
:class:`~repro.verify.differential.DifferentialChecker` can pair any
registry-built maintainer with its oracle mechanically.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..core.bucket import Histogram
from ..core.optimal import optimal_error, optimal_error_table
from ..counting.encoding import decode_updates
from ..streams.window import SlidingWindow
from ..wavelets.haar import haar_inverse, haar_transform, next_power_of_two

__all__ = [
    "Violation",
    "Oracle",
    "VOptimalWindowOracle",
    "VOptimalPrefixOracle",
    "WaveletWindowOracle",
    "DynamicWaveletOracle",
    "GKQuantileOracle",
    "EquiDepthOracle",
    "ReservoirOracle",
    "ExactBufferOracle",
    "EHCountOracle",
    "CRPrecisOracle",
    "oracle_for",
]

#: Relative slack granted to exact-arithmetic comparisons (float64 noise).
RELATIVE_SLACK = 1e-9

#: Probe fractions used by the order-statistics oracles (the deciles).
QUANTILE_PROBES = tuple(float(f) for f in np.linspace(0.1, 0.9, 9))


@dataclass(frozen=True)
class Violation:
    """One failed correctness check.

    ``check`` names the invariant (``"epsilon-bound"``,
    ``"chunking-equivalence"``, ...), ``detail`` is a human-readable
    explanation, ``observed``/``bound`` carry the compared figures where
    the check is numeric, and ``position`` is the stream arrival count at
    which the check ran (filled in by the driver).
    """

    check: str
    detail: str
    observed: float | None = None
    bound: float | None = None
    position: int | None = None

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "detail": self.detail,
            "observed": self.observed,
            "bound": self.bound,
            "position": self.position,
        }

    def __str__(self) -> str:
        numbers = (
            f" (observed {self.observed:g}, bound {self.bound:g})"
            if self.observed is not None and self.bound is not None
            else ""
        )
        at = f" @ {self.position}" if self.position is not None else ""
        return f"[{self.check}]{at} {self.detail}{numbers}"


class Oracle(ABC):
    """Exact reference fed the same stream as the maintainer under test.

    ``extend(batch)`` mirrors ingestion; ``check(maintainer)`` audits the
    maintainer's current synopsis against exact answers and returns the
    violations found (empty list == certified at this position).  The
    base class stores what the check reads of the raw stream, per
    ``retain``: ``None`` keeps the whole stream, ``0`` nothing (the
    oracle keeps its own exact table), ``k`` the last ``k`` points.
    Subclasses state the guarantee; those whose guarantee is an epsilon
    bound leave the epsilon their last check measured in
    ``observed_epsilon``.

    ``start`` is the stream position the oracle was attached at: 0 for
    a run fed from the first point, later for an oracle attached to a
    restored maintainer.  :attr:`exact` says whether the oracle holds
    every point the guarantee covers.
    """

    def __init__(self, retain: int | None = None) -> None:
        self.retain = retain
        self.start = 0
        self.observed_epsilon: float | None = None
        self._window = SlidingWindow(retain) if retain else None
        self._chunks: list[np.ndarray] = []
        self._count = 0

    def extend(self, batch) -> None:
        array = np.asarray(batch, dtype=np.float64)
        if array.size == 0:
            return
        self._count += array.size
        if self._window is not None:
            self._window.extend(array)
        elif self.retain is None:
            self._chunks.append(array.copy())

    @property
    def count(self) -> int:
        """Stream points consumed so far."""
        return self._count

    @property
    def held(self) -> int:
        """Raw stream points retained."""
        if self._window is not None:
            return len(self._window)
        return sum(chunk.size for chunk in self._chunks)

    @property
    def exact(self) -> bool:
        """Does the oracle hold every point its guarantee covers?

        A window oracle needs a full window since it was attached (or
        the whole stream); any other needs the stream from arrival 0.
        """
        if self.retain:
            return self.start == 0 or self._count >= self.retain
        return self.start == 0

    def values(self) -> np.ndarray:
        """The retained stream points (oldest first): the whole stream,
        or the last ``retain`` points."""
        if self._window is not None:
            return self._window.values()
        if not self._chunks:
            return np.empty(0, dtype=np.float64)
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    @abstractmethod
    def check(self, maintainer) -> list[Violation]:
        """Audit ``maintainer`` against ground truth right now."""

    # ------------------------------------------------------------------
    # Shared checks
    # ------------------------------------------------------------------

    def _check_points(self, maintainer) -> list[Violation]:
        points = maintainer.stats().points
        fed = self.start + self._count
        if points != fed:
            return [
                Violation(
                    "ingest-count",
                    f"maintainer counted {points} points, oracle fed {fed}",
                    observed=float(points),
                    bound=float(fed),
                )
            ]
        return []


def _histogram_structure(
    histogram: Histogram, window: np.ndarray, num_buckets: int
) -> list[Violation]:
    """Structural invariants every V-optimal histogram must satisfy."""
    violations = []
    buckets = histogram.buckets
    if len(buckets) > num_buckets:
        violations.append(
            Violation(
                "bucket-budget",
                f"{len(buckets)} buckets exceed the budget {num_buckets}",
                observed=float(len(buckets)),
                bound=float(num_buckets),
            )
        )
    expected_start = 0
    for bucket in buckets:
        if bucket.start != expected_start:
            violations.append(
                Violation(
                    "bucket-partition",
                    f"bucket starts at {bucket.start}, expected {expected_start}",
                )
            )
            break
        expected_start = bucket.end + 1
    if buckets and buckets[-1].end != window.size - 1:
        violations.append(
            Violation(
                "bucket-partition",
                f"last bucket ends at {buckets[-1].end}, window has "
                f"{window.size} points",
            )
        )
    for bucket in buckets:
        if 0 <= bucket.start <= bucket.end < window.size:
            mean = float(window[bucket.start : bucket.end + 1].mean())
            slack = RELATIVE_SLACK * (1.0 + abs(mean))
            if abs(bucket.value - mean) > slack:
                violations.append(
                    Violation(
                        "bucket-representative",
                        f"bucket [{bucket.start}, {bucket.end}] representative "
                        f"{bucket.value:g} is not the bucket mean {mean:g}",
                        observed=bucket.value,
                        bound=mean,
                    )
                )
                break
    return violations


def _herror_monotonicity(values: np.ndarray, num_buckets: int) -> list[Violation]:
    """The DP table's monotone structure (paper section 4.2).

    ``HERROR[j, k]`` is non-increasing in the bucket count ``k`` (more
    buckets never hurt) and non-decreasing in the prefix end ``j``
    (covering more points never helps, for a fixed budget).
    """
    table = optimal_error_table(values, num_buckets)
    slack = RELATIVE_SLACK * (1.0 + float(np.abs(table).max()))
    violations = []
    if np.any(np.diff(table, axis=1) > slack):
        j, k = np.argwhere(np.diff(table, axis=1) > slack)[0]
        violations.append(
            Violation(
                "herror-monotonicity",
                f"HERROR[{j}, {k + 1}] > HERROR[{j}, {k}]: error grew when "
                "a bucket was added",
                observed=float(table[j, k + 1]),
                bound=float(table[j, k]),
            )
        )
    if np.any(np.diff(table, axis=0) < -slack):
        j, k = np.argwhere(np.diff(table, axis=0) < -slack)[0]
        violations.append(
            Violation(
                "herror-monotonicity",
                f"HERROR[{j + 1}, {k}] < HERROR[{j}, {k}]: error shrank when "
                "a point was appended",
                observed=float(table[j + 1, k]),
                bound=float(table[j, k]),
            )
        )
    return violations


def _sse_epsilon(served: float, optimal: float) -> float:
    """Theorem 1's measured epsilon: ``SSE(served) / OPT - 1``, floored
    at the comparison's slack so an exact-fit window stays finite."""
    slack = 1e-6 * (1.0 + optimal)
    return max(0.0, served - optimal) / max(optimal, slack)


class VOptimalWindowOracle(Oracle):
    """Theorem 1 audited exactly: the fixed-window histogram vs the DP.

    Checks, per call: the maintainer's buffered window matches the
    oracle's sliding window point for point; the served histogram is a
    well-formed bucket-mean partition; its true SSE is within
    ``(1 + epsilon)`` of the exact V-optimal SSE from the ``O(n^2 B)``
    dynamic program; the builder's internal HERROR estimate brackets the
    realized SSE; and the DP table itself is monotone in both axes.
    """

    def __init__(
        self,
        window_size: int,
        num_buckets: int,
        epsilon: float,
        *,
        monotonicity: bool = True,
        **_ignored,
    ) -> None:
        super().__init__(retain=int(window_size))
        self.num_buckets = int(num_buckets)
        self.epsilon = float(epsilon)
        self.monotonicity = monotonicity

    def check(self, maintainer) -> list[Violation]:
        self.observed_epsilon = None
        violations = self._check_points(maintainer)
        window = self.values()
        if window.size == 0:
            return violations
        buffered = maintainer.window_values()
        if buffered.size != window.size or not np.array_equal(buffered, window):
            violations.append(
                Violation(
                    "window-divergence",
                    f"maintainer buffers {buffered.size} points that do not "
                    f"match the oracle's last {window.size} stream points",
                )
            )
            return violations
        histogram = maintainer.synopsis()
        violations += _histogram_structure(histogram, window, self.num_buckets)
        served = histogram.sse(window)
        optimal = optimal_error(window, self.num_buckets)
        self.observed_epsilon = _sse_epsilon(served, optimal)
        bound = (1.0 + self.epsilon) * optimal
        slack = 1e-6 * (1.0 + optimal)
        if served > bound + slack:
            violations.append(
                Violation(
                    "epsilon-bound",
                    f"served SSE exceeds (1 + {self.epsilon:g}) * OPT over the "
                    f"{window.size}-point window",
                    observed=served,
                    bound=bound,
                )
            )
        estimate = maintainer.builder.herror_estimate
        if served > estimate + 1e-6 * (1.0 + estimate):
            violations.append(
                Violation(
                    "herror-estimate",
                    "realized SSE exceeds the builder's internal HERROR "
                    "estimate (the walked partition left the certified cover)",
                    observed=served,
                    bound=estimate,
                )
            )
        if estimate > bound + slack:
            violations.append(
                Violation(
                    "herror-estimate",
                    "the builder's HERROR estimate itself breaks the "
                    "(1 + eps) * OPT bound",
                    observed=estimate,
                    bound=bound,
                )
            )
        if self.monotonicity:
            violations += _herror_monotonicity(window, self.num_buckets)
        return violations


class VOptimalPrefixOracle(Oracle):
    """The agglomerative whole-prefix histogram vs the exact DP.

    Same ``(1 + eps)`` contract as the fixed-window case, but over the
    entire prefix seen so far (paper section 4.3).  The exact DP is
    quadratic in the prefix length, so past ``max_exact_points`` the SSE
    comparison is skipped and only the structural checks run --
    verification streams are sized to stay under the cap, and a check
    past it is not :attr:`exact`.
    """

    def __init__(
        self,
        num_buckets: int,
        epsilon: float,
        *,
        max_exact_points: int = 2048,
        **_ignored,
    ) -> None:
        super().__init__()
        self.num_buckets = int(num_buckets)
        self.epsilon = float(epsilon)
        self.max_exact_points = int(max_exact_points)

    @property
    def exact(self) -> bool:
        return super().exact and self._count <= self.max_exact_points

    def check(self, maintainer) -> list[Violation]:
        self.observed_epsilon = None
        violations = self._check_points(maintainer)
        prefix = self.values()
        if prefix.size == 0:
            return violations
        histogram = maintainer.synopsis()
        violations += _histogram_structure(histogram, prefix, self.num_buckets)
        if prefix.size > self.max_exact_points:
            return violations
        served = histogram.sse(prefix)
        optimal = optimal_error(prefix, self.num_buckets)
        self.observed_epsilon = _sse_epsilon(served, optimal)
        bound = (1.0 + self.epsilon) * optimal
        slack = 1e-6 * (1.0 + optimal)
        if served > bound + slack:
            violations.append(
                Violation(
                    "epsilon-bound",
                    f"prefix histogram SSE exceeds (1 + {self.epsilon:g}) * OPT "
                    f"over the {prefix.size}-point prefix",
                    observed=served,
                    bound=bound,
                )
            )
        return violations


def _top_b_haar(window: np.ndarray, budget: int) -> tuple[dict[int, float], float]:
    """Exact top-``budget`` Haar selection and its optimal L2 error.

    Mirrors the synopsis's published semantics (mean padding, largest
    |coefficient| first, ties broken by index) from first principles: by
    Parseval the dropped coefficients' energy *is* the optimal B-term
    reconstruction SSE of the padded sequence.
    """
    padded_size = next_power_of_two(window.size)
    padded = window
    if padded_size != window.size:
        padded = np.concatenate(
            (window, np.full(padded_size - window.size, window.mean()))
        )
    coefficients = haar_transform(padded)
    order = np.lexsort((np.arange(padded_size), -np.abs(coefficients)))
    keep = order[: min(budget, padded_size)]
    dropped = order[min(budget, padded_size) :]
    expected = {int(i): float(coefficients[i]) for i in keep}
    optimal_sse = float(np.sum(coefficients[dropped] ** 2))
    return expected, optimal_sse


class WaveletWindowOracle(Oracle):
    """Top-B Haar synopsis of the window vs an independent transform.

    The top-B-by-magnitude selection is *exactly* optimal among B-term
    Haar synopses (Parseval), so this oracle demands equality, not an
    epsilon: every retained coefficient must match the exact transform,
    and the synopsis's reconstruction SSE must equal the energy of the
    dropped coefficients.
    """

    def __init__(self, window_size: int, budget: int, **_ignored) -> None:
        super().__init__(retain=int(window_size))
        self.budget = int(budget)

    def check(self, maintainer) -> list[Violation]:
        violations = self._check_points(maintainer)
        window = self.values()
        if window.size == 0:
            return violations
        synopsis = maintainer.synopsis()
        expected, optimal_sse = _top_b_haar(window, self.budget)
        retained = synopsis.coefficients
        scale = 1.0 + max((abs(v) for v in expected.values()), default=0.0)
        if set(retained) != set(expected):
            violations.append(
                Violation(
                    "haar-selection",
                    f"synopsis kept coefficients {sorted(retained)}, the exact "
                    f"top-{self.budget} set is {sorted(expected)}",
                )
            )
        else:
            for index, value in expected.items():
                if abs(retained[index] - value) > RELATIVE_SLACK * scale:
                    violations.append(
                        Violation(
                            "haar-coefficient",
                            f"coefficient {index} drifted from the exact "
                            "transform",
                            observed=retained[index],
                            bound=value,
                        )
                    )
                    break
        reconstruction = synopsis.to_array()
        padded_size = next_power_of_two(window.size)
        padded_window = window
        if padded_size != window.size:
            padded_window = np.concatenate(
                (window, np.full(padded_size - window.size, window.mean()))
            )
        dense = np.zeros(padded_size)
        for index, value in retained.items():
            dense[index] = value
        full = haar_inverse(dense)
        served_sse = float(np.sum((full - padded_window) ** 2))
        slack = 1e-6 * (1.0 + optimal_sse)
        if served_sse > optimal_sse + slack:
            violations.append(
                Violation(
                    "parseval-optimality",
                    "reconstruction SSE exceeds the dropped-coefficient "
                    "energy (top-B selection is not optimal)",
                    observed=served_sse,
                    bound=optimal_sse,
                )
            )
        if reconstruction.size != window.size:
            violations.append(
                Violation(
                    "haar-reconstruction",
                    f"reconstruction has {reconstruction.size} points, window "
                    f"has {window.size}",
                )
            )
        return violations


class DynamicWaveletOracle(Oracle):
    """[MVW00] dynamic wavelet histogram vs an exact frequency vector.

    The oracle maintains the exact frequency vector (rounding arrivals
    half-to-even, exactly as the adapter does) and checks that (a) the
    incrementally maintained coefficients agree with a from-scratch Haar
    transform of that vector and (b) the served top-B synopsis achieves
    the optimal B-term energy.
    """

    def __init__(self, domain_size: int, budget: int, **_ignored) -> None:
        super().__init__(retain=0)
        self.domain_size = int(domain_size)
        self.budget = int(budget)
        self._frequencies = np.zeros(self.domain_size, dtype=np.float64)

    def extend(self, batch) -> None:
        array = np.asarray(batch, dtype=np.float64)
        super().extend(array)
        if array.size:
            bins = np.rint(array).astype(np.int64)
            np.add.at(self._frequencies, bins, 1.0)

    def check(self, maintainer) -> list[Violation]:
        violations = self._check_points(maintainer)
        if self._count == 0:
            return violations
        maintained = maintainer.backend.frequencies()
        slack = 1e-6 * (1.0 + float(self._frequencies.max()))
        if maintained.size != self.domain_size or np.any(
            np.abs(maintained - self._frequencies) > slack
        ):
            violations.append(
                Violation(
                    "frequency-divergence",
                    "incrementally maintained frequencies diverged from the "
                    "exact frequency vector",
                )
            )
            return violations
        padded_size = next_power_of_two(self.domain_size)
        padded = np.concatenate(
            (self._frequencies, np.zeros(padded_size - self.domain_size))
        )
        exact = haar_transform(padded)
        synopsis = maintainer.synopsis()
        coefficient_slack = 1e-6 * (1.0 + float(np.abs(exact).max()))
        for index, value in synopsis.coefficients.items():
            if abs(value - exact[index]) > coefficient_slack:
                violations.append(
                    Violation(
                        "haar-coefficient",
                        f"maintained coefficient {index} drifted from the "
                        "exact transform of the frequency vector",
                        observed=value,
                        bound=float(exact[index]),
                    )
                )
                break
        kept_energy = sum(
            float(exact[i]) ** 2 for i in synopsis.coefficients
        )
        order = np.argsort(-np.abs(exact), kind="stable")
        optimal_energy = float(
            np.sum(exact[order[: len(synopsis.coefficients)]] ** 2)
        )
        if kept_energy < optimal_energy - 1e-6 * (1.0 + optimal_energy):
            violations.append(
                Violation(
                    "parseval-optimality",
                    "served coefficient set keeps less energy than the exact "
                    "top-B selection",
                    observed=kept_energy,
                    bound=optimal_energy,
                )
            )
        return violations


def _rank_band_error(ordered: np.ndarray, answer: float, target: float) -> float:
    """Distance between a target rank and the rank band ``answer`` occupies.

    Ranks are 1-based, matching the GK summary's convention.  With ties,
    ``answer`` occupies the whole band ``[first, last]`` of its
    occurrences; a target inside the band is distance zero.
    """
    first = int(np.searchsorted(ordered, answer, side="left")) + 1
    last = int(np.searchsorted(ordered, answer, side="right"))
    if last < first:  # answer absent from the stream: use insertion point
        last = first
    if first <= target <= last:
        return 0.0
    return min(abs(first - target), abs(last - target))


def _quantile_target(fraction: float, n: int) -> int:
    """The 1-based rank the summary aims for: ``max(1, round(f * N))``,
    mirroring :meth:`GKQuantileSummary.query` exactly."""
    return max(1, int(round(fraction * n)))


def _probe_ranks(ordered: np.ndarray, query) -> list[tuple[float, float, float]]:
    """``(fraction, answer, rank error)`` for each decile probe of ``query``."""
    n = ordered.size
    probes = []
    for fraction in QUANTILE_PROBES:
        answer = query(fraction)
        target = _quantile_target(fraction, n)
        probes.append((fraction, answer, _rank_band_error(ordered, answer, target)))
    return probes


class GKQuantileOracle(Oracle):
    """Greenwald-Khanna's deterministic guarantee: eps-approximate ranks.

    For each probed fraction ``f`` the summary's answer must occupy a
    rank within ``eps * N`` of the target (plus one position of
    discretization slack); ``rank_bounds`` must bracket the true rank
    with a band no wider than ``2 * eps * N``.
    """

    def __init__(self, epsilon: float, **_ignored) -> None:
        super().__init__()
        self.epsilon = float(epsilon)

    def check(self, maintainer) -> list[Violation]:
        self.observed_epsilon = None
        violations = self._check_points(maintainer)
        values = self.values()
        if values.size == 0:
            return violations
        ordered = np.sort(values)
        n = ordered.size
        allowance = self.epsilon * n + 1.0
        summary = maintainer.synopsis()
        probes = _probe_ranks(ordered, summary.query)
        self.observed_epsilon = max(error for _, _, error in probes) / n
        for fraction, answer, error in probes:
            if error > allowance:
                violations.append(
                    Violation(
                        "quantile-rank",
                        f"the {fraction:.0%} quantile answer {answer:g} sits "
                        f"{error:.0f} ranks from its target (N={n})",
                        observed=error,
                        bound=allowance,
                    )
                )
                break
        for probe in (ordered[0], ordered[n // 2], ordered[-1]):
            min_rank, max_rank = summary.rank_bounds(float(probe))
            true_rank = float(np.searchsorted(ordered, probe, side="right"))
            band_slack = 2.0 * self.epsilon * n + 1.0
            if not (
                min_rank - band_slack <= true_rank <= max_rank + band_slack
            ):
                violations.append(
                    Violation(
                        "rank-bounds",
                        f"rank_bounds({probe:g}) = [{min_rank}, {max_rank}] "
                        f"misses the true rank {true_rank:.0f} by more than "
                        "the 2*eps*N band",
                        observed=true_rank,
                    )
                )
                break
        return violations


class EquiDepthOracle(Oracle):
    """Streaming equi-depth summary vs exact quantiles and range counts."""

    def __init__(self, num_buckets: int, epsilon: float = 0.01, **_ignored) -> None:
        super().__init__()
        self.num_buckets = int(num_buckets)
        self.epsilon = float(epsilon)

    def check(self, maintainer) -> list[Violation]:
        self.observed_epsilon = None
        violations = self._check_points(maintainer)
        values = self.values()
        if values.size == 0:
            return violations
        ordered = np.sort(values)
        n = ordered.size
        summary = maintainer.synopsis()
        allowance = self.epsilon * n + 1.0
        probes = _probe_ranks(ordered, summary.estimate_quantile)
        self.observed_epsilon = max(error for _, _, error in probes) / n
        for fraction, answer, error in probes:
            if error > allowance:
                violations.append(
                    Violation(
                        "quantile-rank",
                        f"equi-depth {fraction:.0%} quantile {answer:g} sits "
                        f"{error:.0f} ranks from its target (N={n})",
                        observed=error,
                        bound=allowance,
                    )
                )
                break
        # Range-count probes at integer boundaries near the quartile cut
        # points: the summary is documented for integer attributes
        # (``count = rank(high) - rank(low - 1)``), and each GK-backed
        # rank estimate may be off by eps * N.
        cuts = np.quantile(ordered, [0.0, 0.25, 0.5, 0.75, 1.0])
        count_allowance = 2.0 * self.epsilon * n + 2.0
        for raw_low, raw_high in zip(cuts[:-1], cuts[1:]):
            low = float(np.ceil(raw_low))
            high = float(np.floor(raw_high))
            if low > high:
                continue
            exact = float(np.count_nonzero((values >= low) & (values <= high)))
            approx = summary.estimate_count(low, high)
            if abs(approx - exact) > count_allowance:
                violations.append(
                    Violation(
                        "range-count",
                        f"estimate_count([{low:g}, {high:g}]) missed the exact "
                        f"count by more than 2*eps*N (N={n})",
                        observed=approx,
                        bound=exact,
                    )
                )
                break
        return violations


class ReservoirOracle(Oracle):
    """Structural guarantees of Algorithm-R (the statistical ones are
    metamorphic: same seed, same stream => bit-identical sample).

    Checks: the sample is a sub-multiset of the stream, its size is
    exactly ``min(capacity, N)``, and while the stream still fits in the
    reservoir the sample *is* the stream.
    """

    def __init__(self, capacity: int, seed: int = 0, **_ignored) -> None:
        super().__init__()
        self.capacity = int(capacity)

    def check(self, maintainer) -> list[Violation]:
        violations = self._check_points(maintainer)
        values = self.values()
        sample = maintainer.synopsis().values()
        expected_size = min(self.capacity, values.size)
        if sample.size != expected_size:
            violations.append(
                Violation(
                    "sample-size",
                    f"reservoir holds {sample.size} values, expected "
                    f"{expected_size}",
                    observed=float(sample.size),
                    bound=float(expected_size),
                )
            )
            return violations
        stream_counts = Counter(values.tolist())
        sample_counts = Counter(sample.tolist())
        if sample_counts - stream_counts:
            violations.append(
                Violation(
                    "sample-containment",
                    "reservoir contains values (or multiplicities) that never "
                    "appeared in the stream",
                )
            )
        if values.size <= self.capacity and sorted(sample.tolist()) != sorted(
            values.tolist()
        ):
            violations.append(
                Violation(
                    "sample-containment",
                    "stream still fits in the reservoir but the sample is not "
                    "the whole stream",
                )
            )
        return violations


class ExactBufferOracle(Oracle):
    """The exact backend must be *exactly* exact: zero tolerance."""

    def __init__(self, window_size: int, **_ignored) -> None:
        super().__init__(retain=int(window_size))

    def check(self, maintainer) -> list[Violation]:
        violations = self._check_points(maintainer)
        window = self.values()
        if window.size == 0:
            return violations
        synopsis = maintainer.synopsis()
        buffered = synopsis.to_array()
        if buffered.size != window.size or not np.array_equal(buffered, window):
            violations.append(
                Violation(
                    "window-divergence",
                    "exact buffer does not match the oracle's window",
                )
            )
            return violations
        cumulative = np.concatenate(([0.0], np.cumsum(window)))
        probes = [(0, window.size - 1), (0, 0), (window.size // 2, window.size - 1)]
        for i, j in probes:
            exact = float(cumulative[j + 1] - cumulative[i])
            served = synopsis.range_sum(i, j)
            if abs(served - exact) > RELATIVE_SLACK * (1.0 + abs(exact)):
                violations.append(
                    Violation(
                        "range-sum",
                        f"exact backend's range_sum({i}, {j}) diverged from "
                        "the true sum",
                        observed=served,
                        bound=exact,
                    )
                )
                break
        return violations


class EHCountOracle(Oracle):
    """Sliding-window counting (Datar et al.) vs exact window tallies.

    The sharpened exponential-histogram estimate carries an
    *unconditional* eps-relative guarantee (see
    :mod:`repro.counting.eh`), so the checks are strict: the exact
    window length; eps-relative nonzero count and windowed sum
    (including exact zero after full expiry); an eps-relative windowed
    mean (exact denominator); and the composed variance bound
    ``eps * m2 / L + (2 eps + eps^2) * mean^2``.
    """

    def __init__(self, window: int, epsilon: float, **_ignored) -> None:
        super().__init__(retain=int(window))
        self.epsilon = float(epsilon)

    def check(self, maintainer) -> list[Violation]:
        self.observed_epsilon = None
        violations = self._check_points(maintainer)
        synopsis = maintainer.synopsis()
        window = np.rint(self.values()).astype(np.int64)
        length = int(window.size)
        if synopsis.window_count() != length:
            violations.append(
                Violation(
                    "window-length",
                    f"window_count() reported {synopsis.window_count()}, the "
                    f"window holds exactly {length} arrivals",
                    observed=float(synopsis.window_count()),
                    bound=float(length),
                )
            )
            return violations
        if length == 0:
            return violations
        eps = self.epsilon
        exact_nonzero = int(np.count_nonzero(window))
        exact_sum = int(window.sum())
        checks = (
            ("nonzero-count", synopsis.nonzero_count(), float(exact_nonzero)),
            ("window-sum", synopsis.window_sum(), float(exact_sum)),
        )
        # The windowed mean's denominator is exact, so its relative error
        # is the sum's: the measured epsilon is the worse of these two.
        self.observed_epsilon = max(
            abs(served - exact) / max(exact, 1.0) for _, served, exact in checks
        )
        for check, served, exact in checks:
            allowance = eps * exact + RELATIVE_SLACK * (1.0 + exact)
            if abs(served - exact) > allowance:
                violations.append(
                    Violation(
                        check,
                        f"windowed estimate missed the exact value by more "
                        f"than eps = {eps:g} relative (window of {length})",
                        observed=served,
                        bound=exact,
                    )
                )
        exact_mean = exact_sum / length
        mean_allowance = eps * exact_mean + RELATIVE_SLACK * (1.0 + exact_mean)
        if abs(synopsis.window_mean() - exact_mean) > mean_allowance:
            violations.append(
                Violation(
                    "window-mean",
                    "windowed mean missed the exact mean by more than eps "
                    "relative (the denominator is exact)",
                    observed=synopsis.window_mean(),
                    bound=exact_mean,
                )
            )
        exact_m2 = float((window.astype(np.float64) ** 2).sum())
        exact_variance = exact_m2 / length - exact_mean * exact_mean
        variance_allowance = (
            eps * exact_m2 / length
            + (2.0 * eps + eps * eps) * exact_mean * exact_mean
            + RELATIVE_SLACK * (1.0 + abs(exact_variance))
        )
        if abs(synopsis.window_variance() - exact_variance) > variance_allowance:
            violations.append(
                Violation(
                    "window-variance",
                    "windowed variance broke the composed moment bound "
                    "eps*m2/L + (2eps + eps^2)*mean^2",
                    observed=synopsis.window_variance(),
                    bound=exact_variance,
                )
            )
        return violations


class CRPrecisOracle(Oracle):
    """CR-precis vs an exact frequency vector -- deterministic bounds.

    The oracle decodes the signed-unit turnstile stream into exact
    frequencies and demands: the table *equals* a from-scratch
    recomputation (the structure is deterministic, so anything else is
    a divergence, not an approximation); ``l1()`` is exact; every
    probed point query never underestimates and overestimates by at
    most ``(||f||_1 - f_x) * e / t`` (the CRT collision bound); heavy
    hitters admit no false negatives; range counts obey the summed
    per-key bound.
    """

    #: Heavy-hitter threshold fraction probed at every check.
    HEAVY_PHI = 0.05

    def __init__(self, rows: int, base: int, domain: int, **_ignored) -> None:
        super().__init__(retain=0)
        self.rows = int(rows)
        self.base = int(base)
        self.domain = int(domain)
        self._frequencies: Counter = Counter()

    def extend(self, batch) -> None:
        array = np.asarray(batch, dtype=np.float64)
        super().extend(array)
        if array.size:
            keys, deltas = decode_updates(array)
            for key, delta in zip(keys.tolist(), deltas.tolist()):
                self._frequencies[key] += delta
                if self._frequencies[key] == 0:
                    del self._frequencies[key]

    @property
    def exact(self) -> bool:
        # The bounds hold in the strict turnstile model only.
        return super().exact and min(self._frequencies.values(), default=0) >= 0

    def _probe_keys(self) -> list[int]:
        """A deterministic probe set: the heaviest keys, the lightest,
        and a few absent ones."""
        by_weight = sorted(
            self._frequencies, key=lambda key: (-self._frequencies[key], key)
        )
        probes = by_weight[:8] + by_weight[-4:]
        absent = 0
        while len(probes) < 16 and absent < self.domain:
            if absent not in self._frequencies:
                probes.append(absent)
            absent += 1
        return sorted(set(probes))

    def check(self, maintainer) -> list[Violation]:
        violations = self._check_points(maintainer)
        synopsis = maintainer.synopsis()
        if min(self._frequencies.values(), default=0) < 0:
            raise AssertionError(
                "turnstile fuzz stream drove a frequency negative; the "
                "strict-turnstile profile is broken"
            )
        expected_tables = [
            np.zeros(prime, dtype=np.int64) for prime in synopsis.primes
        ]
        for key, count in self._frequencies.items():
            for prime, table in zip(synopsis.primes, expected_tables):
                table[key % prime] += count
        for prime, expected, actual in zip(
            synopsis.primes, expected_tables, synopsis.tables
        ):
            if not np.array_equal(expected, actual):
                violations.append(
                    Violation(
                        "table-divergence",
                        f"row mod {prime} diverged from the exact "
                        "recomputation (CR-precis is deterministic)",
                    )
                )
                return violations
        exact_l1 = sum(self._frequencies.values())
        if synopsis.l1() != exact_l1:
            violations.append(
                Violation(
                    "l1-exactness",
                    f"l1() reported {synopsis.l1()}, exact mass is {exact_l1}",
                    observed=float(synopsis.l1()),
                    bound=float(exact_l1),
                )
            )
            return violations
        exponent = synopsis.error_exponent()
        for key in self._probe_keys():
            exact = self._frequencies.get(key, 0)
            served = synopsis.point_query(key)
            bound = (exact_l1 - exact) * exponent / self.rows
            if served < exact:
                violations.append(
                    Violation(
                        "point-underestimate",
                        f"point_query({key}) underestimated the true "
                        "frequency (impossible in the strict turnstile model)",
                        observed=float(served),
                        bound=float(exact),
                    )
                )
                break
            if served - exact > bound + RELATIVE_SLACK * (1.0 + bound):
                violations.append(
                    Violation(
                        "point-overestimate",
                        f"point_query({key}) overestimated beyond the CRT "
                        f"bound (||f||_1 - f_x) * {exponent} / {self.rows}",
                        observed=float(served - exact),
                        bound=bound,
                    )
                )
                break
        if exact_l1 > 0:
            reported = synopsis.heavy_hitters(self.HEAVY_PHI)
            threshold = max(1.0, self.HEAVY_PHI * exact_l1)
            for key, count in self._frequencies.items():
                if count >= threshold and key not in reported:
                    violations.append(
                        Violation(
                            "heavy-hitter-miss",
                            f"key {key} has frequency {count} >= "
                            f"{threshold:g} but was not reported (false "
                            "negatives are impossible)",
                            observed=float(count),
                            bound=threshold,
                        )
                    )
                    break
        if self._frequencies:
            anchor = sorted(self._frequencies)[len(self._frequencies) // 2]
            low = max(0, anchor - 16)
            high = min(self.domain - 1, anchor + 16)
            exact_range = sum(
                count
                for key, count in self._frequencies.items()
                if low <= key <= high
            )
            served_range = synopsis.range_count(low, high)
            range_bound = sum(
                (exact_l1 - self._frequencies.get(key, 0)) * exponent / self.rows
                for key in range(low, high + 1)
            )
            if served_range < exact_range or (
                served_range - exact_range
                > range_bound + RELATIVE_SLACK * (1.0 + range_bound)
            ):
                violations.append(
                    Violation(
                        "range-count",
                        f"range_count({low}, {high}) left the "
                        "[exact, exact + summed CRT bound] band",
                        observed=float(served_range),
                        bound=float(exact_range),
                    )
                )
        return violations


#: Registry backend name -> oracle class; constructor parameters mirror
#: the registry factory's (extra keywords are ignored, so a maintainer
#: spec's params dict can be forwarded wholesale).
_ORACLES: dict[str, type[Oracle]] = {
    "fixed_window": VOptimalWindowOracle,
    "agglomerative": VOptimalPrefixOracle,
    "wavelet": WaveletWindowOracle,
    "dynamic_wavelet": DynamicWaveletOracle,
    "gk_quantiles": GKQuantileOracle,
    "equi_depth": EquiDepthOracle,
    "reservoir": ReservoirOracle,
    "exact": ExactBufferOracle,
    "eh_count": EHCountOracle,
    "cr_precis": CRPrecisOracle,
}


def oracle_for(backend: str, params: dict) -> Oracle:
    """The exact oracle matching a registry backend and its parameters."""
    try:
        factory = _ORACLES[backend]
    except KeyError:
        known = ", ".join(sorted(_ORACLES))
        raise KeyError(
            f"no oracle registered for backend {backend!r}; available: {known}"
        ) from None
    return factory(**params)
