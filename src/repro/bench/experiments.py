"""Experiment definitions reproducing the paper's evaluation.

One function per paper artifact (see DESIGN.md section 5 for the index):

=============  =======================================================
``fig6_accuracy``        Fig. 6(a)/(b): range-sum accuracy vs window
                         length, histogram vs wavelet vs exact.
``fig6_time``            Fig. 6(c)/(d): incremental maintenance time
                         vs window length (plus the wavelet per-slide
                         recomputation the paper "omits" for being an
                         order of magnitude worse).
``agglomerative_vs_wavelet``  Section 5.2, experiment 1.
``agglomerative_vs_optimal``  Section 5.2, experiment 2 (warehouse).
``similarity_whole`` /
``similarity_subsequence``    Section 5.2, experiment 3 (vs APCA).
``epsilon_ablation``     Paper claim: graceful accuracy/time tradeoff.
``scaling_ablation``     Theorem 1 vs the naive per-arrival DP and the
                         restart-agglomerative strawman of section 4.4.
``interval_growth_ablation``  The O((1/delta) log n) interval bound.
=============  =======================================================

Every function takes explicit scale parameters (tests run them tiny,
benchmarks at report scale) and returns a
:class:`~repro.bench.harness.ResultTable`.
"""

from __future__ import annotations

import numpy as np

from ..core.agglomerative import AgglomerativeHistogramBuilder
from ..core.approx import approximate_histogram
from ..core.fixed_window import FixedWindowHistogramBuilder
from ..core.optimal import optimal_error, optimal_histogram
from ..datasets import att_utilization_stream, timeseries_collection, warehouse_measure_column
from ..query.accuracy import measure_accuracy
from ..query.engine import ExactMaintainer, HistogramMaintainer, StreamQueryEngine, WaveletMaintainer
from ..query.workload import RandomRangeWorkload
from ..runtime import FixedWindowMaintainer, StreamPipeline, make_maintainer
from ..similarity.features import APCAReducer, PAAReducer, VOptimalReducer
from ..similarity.index import SeriesIndex
from ..similarity.subsequence import SubsequenceIndex
from ..warehouse.aqp import AttributeSummary
from ..warehouse.table import Relation
from ..wavelets.synopsis import WaveletSynopsis
from .harness import ResultTable
from .timing import Stopwatch, time_call

__all__ = [
    "fig6_accuracy",
    "fig6_time",
    "agglomerative_vs_wavelet",
    "agglomerative_vs_optimal",
    "similarity_whole",
    "similarity_subsequence",
    "epsilon_ablation",
    "scaling_ablation",
    "interval_growth_ablation",
    "aggregate_variants",
    "heuristic_quality",
    "change_detection",
    "span_breakdown",
    "space_accuracy_sweep",
    "maintenance_cadence",
    "workload_aware",
]


def fig6_accuracy(
    epsilon: float,
    window_sizes: tuple[int, ...] = (128, 256, 512, 1024),
    bucket_counts: tuple[int, ...] = (8, 16),
    stream_extra: int = 1024,
    evaluations: int = 8,
    queries_per_evaluation: int = 32,
    seed: int = 7,
) -> ResultTable:
    """Fig. 6(a)/(b): average range-sum error vs subsequence length.

    For each (window length, bucket count) the utilization stream is run
    through three synopses -- the fixed-window histogram, an equal-space
    wavelet synopsis recomputed from the buffer, and the exact buffer --
    and scored on uniformly random range-sum queries.
    """
    table = ResultTable(
        f"Fig6 accuracy (eps={epsilon:g}): avg |range-sum error| on random queries",
        ["window", "buckets", "exact", "histogram", "wavelet"],
    )
    for window in window_sizes:
        stream = att_utilization_stream(window + stream_extra, seed=seed)
        for buckets in bucket_counts:
            engine = StreamQueryEngine(
                window_size=window,
                maintain_every=max(1, stream_extra),  # synopses refresh at query time
                evaluate_every=max(1, stream_extra // evaluations),
                queries_per_evaluation=queries_per_evaluation,
                seed=seed,
            )
            maintainers = [
                ExactMaintainer(window),
                HistogramMaintainer(window, buckets, epsilon),
                WaveletMaintainer(window, buckets),
            ]
            reports = engine.run(stream, maintainers)
            table.add_row(
                window=window,
                buckets=buckets,
                exact=reports[0].mean_absolute_error,
                histogram=reports[1].mean_absolute_error,
                wavelet=reports[2].mean_absolute_error,
            )
    return table


def fig6_time(
    epsilon: float,
    window_sizes: tuple[int, ...] = (128, 256, 512, 1024),
    bucket_counts: tuple[int, ...] = (8, 16),
    arrivals: int = 100,
    seed: int = 7,
) -> ResultTable:
    """Fig. 6(c)/(d): per-arrival maintenance cost vs subsequence length.

    The histogram is rebuilt after every arrival (the paper's incremental
    model); the wavelet synopsis is recomputed from scratch per slide, as
    the paper's baseline does.  Times are milliseconds per arrival.
    """
    table = ResultTable(
        f"Fig6 time (eps={epsilon:g}): maintenance ms per arrival",
        ["window", "buckets", "histogram_ms", "wavelet_ms", "herror_evals"],
    )
    for window in window_sizes:
        stream = att_utilization_stream(window + arrivals, seed=seed)
        for buckets in bucket_counts:
            histogram = HistogramMaintainer(window, buckets, epsilon)
            wavelet = WaveletMaintainer(window, buckets)
            for maintainer in (histogram, wavelet):
                maintainer.extend(stream[:window])
                maintainer.maintain()
            warm_evals = histogram.stats().herror_evaluations
            # Rebuild after every arrival: the paper's incremental model.
            reports = StreamPipeline(
                [histogram, wavelet], maintain_every=1
            ).run(stream[window:])
            evals = histogram.stats().herror_evaluations - warm_evals
            table.add_row(
                window=window,
                buckets=buckets,
                histogram_ms=1e3 * reports[0].maintenance_seconds / arrivals,
                wavelet_ms=1e3 * reports[1].maintenance_seconds / arrivals,
                herror_evals=evals // arrivals,
            )
    return table


def agglomerative_vs_wavelet(
    stream_length: int = 20_000,
    bucket_counts: tuple[int, ...] = (8, 16, 32),
    epsilon: float = 0.1,
    queries: int = 200,
    seed: int = 7,
) -> ResultTable:
    """Section 5.2 exp. 1: whole-prefix histogram vs wavelet synopsis.

    The agglomerative builder consumes the stream one point at a time; the
    wavelet synopsis is granted the materialized array (an offline luxury).
    Accuracy is the average absolute error of random range-sum queries
    over the full prefix.
    """
    table = ResultTable(
        f"Agglomerative vs wavelet (n={stream_length}, eps={epsilon:g})",
        ["buckets", "agg_err", "wav_err", "agg_seconds", "wav_seconds"],
    )
    stream = att_utilization_stream(stream_length, seed=seed)
    workload = RandomRangeWorkload(stream_length, seed=seed).sample(queries)
    for buckets in bucket_counts:
        builder = AgglomerativeHistogramBuilder(buckets, epsilon)
        _, agg_seconds = time_call(lambda: builder.extend(stream))
        histogram = builder.histogram()
        synopsis, wav_seconds = time_call(
            lambda: WaveletSynopsis.from_values(stream, buckets)
        )
        agg = measure_accuracy(histogram, stream, workload)
        wav = measure_accuracy(synopsis, stream, workload)
        table.add_row(
            buckets=buckets,
            agg_err=agg.mean_absolute_error,
            wav_err=wav.mean_absolute_error,
            agg_seconds=agg_seconds,
            wav_seconds=wav_seconds,
        )
    return table


def agglomerative_vs_optimal(
    domains: tuple[int, ...] = (512, 1024, 2048, 4096),
    rows_per_domain: int = 50_000,
    num_buckets: int = 32,
    epsilon: float = 0.1,
    queries: int = 100,
    seed: int = 7,
) -> ResultTable:
    """Section 5.2 exp. 2: one-pass vs optimal construction in a warehouse.

    For growing attribute domains (= frequency-vector lengths n), build a
    B-bucket summary with the quadratic optimal DP and with the one-pass
    agglomerative algorithm; compare construction time and the average
    absolute error of random range-count queries.  The paper's finding:
    comparable accuracy, with time savings that grow with n.
    """
    table = ResultTable(
        f"Agglomerative vs optimal (B={num_buckets}, eps={epsilon:g})",
        ["domain", "t_optimal_s", "t_approx_s", "speedup", "err_optimal", "err_approx"],
    )
    rng = np.random.default_rng(seed)
    for domain in domains:
        column = warehouse_measure_column(rows_per_domain, seed=seed, domain=domain)
        relation = Relation({"usage": column})
        optimal, t_optimal = time_call(
            lambda: AttributeSummary.build(
                relation, "usage", num_buckets, method="optimal"
            )
        )
        approx, t_approx = time_call(
            lambda: AttributeSummary.build(
                relation, "usage", num_buckets, method="approximate", epsilon=epsilon
            )
        )
        err_optimal = 0.0
        err_approx = 0.0
        for _ in range(queries):
            low = float(rng.integers(0, domain))
            high = low + float(rng.integers(1, max(2, domain // 2)))
            exact = relation.count_range("usage", low, high)
            err_optimal += abs(optimal.estimate_count(low, high) - exact)
            err_approx += abs(approx.estimate_count(low, high) - exact)
        table.add_row(
            domain=domain,
            t_optimal_s=t_optimal,
            t_approx_s=t_approx,
            speedup=t_optimal / t_approx if t_approx > 0 else float("inf"),
            err_optimal=err_optimal / queries,
            err_approx=err_approx / queries,
        )
    return table


def _similarity_queries(collection: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Perturbed members of the collection, so neighbours exist."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, collection.shape[0], size=count)
    noise = rng.normal(0.0, 0.05, size=(count, collection.shape[1]))
    return collection[picks] + noise


def similarity_whole(
    count: int = 200,
    length: int = 256,
    budget: int = 16,
    epsilon: float = 0.1,
    num_queries: int = 20,
    k: int = 10,
    seed: int = 7,
) -> ResultTable:
    """Section 5.2 exp. 3 (whole matching): false positives vs APCA.

    Equal number budget per series; k-NN searches over a family-structured
    collection.  Lower false positives = tighter representation.
    """
    table = ResultTable(
        f"Whole-series kNN (N={count}, len={length}, budget={budget}, k={k})",
        ["method", "false_positives", "verified", "pruned_fraction"],
    )
    collection = timeseries_collection(count, length, seed=seed)
    queries = _similarity_queries(collection, num_queries, seed + 1)
    reducers = [
        VOptimalReducer(budget),
        VOptimalReducer(budget, epsilon=epsilon),
        APCAReducer(budget),
        PAAReducer(budget),
    ]
    for reducer in reducers:
        index = SeriesIndex(reducer)
        index.add_all(collection)
        false_positives = 0
        verified = 0
        pruned = 0
        for query in queries:
            outcome = index.knn_search(query, k)
            false_positives += outcome.false_positives
            verified += outcome.candidates_verified
            pruned += outcome.pruned
        table.add_row(
            method=reducer.name,
            false_positives=false_positives,
            verified=verified,
            pruned_fraction=pruned / (num_queries * count),
        )
    return table


def similarity_subsequence(
    stream_length: int = 8192,
    window_length: int = 256,
    budget: int = 16,
    epsilon: float = 0.1,
    stride: int = 16,
    num_queries: int = 10,
    radius_scale: float = 1.0,
    seed: int = 7,
) -> ResultTable:
    """Section 5.2 exp. 3 (subsequence matching): false positives vs APCA.

    The V-optimal index is built incrementally with the fixed-window
    builder (the streaming construction the paper enables); APCA and PAA
    re-reduce each window offline.  Range searches use a radius scaled to
    the typical window norm so match sets are non-trivial.
    """
    table = ResultTable(
        f"Subsequence search (len={stream_length}, window={window_length}, "
        f"budget={budget})",
        ["method", "false_positives", "verified", "matches"],
    )
    stream = att_utilization_stream(stream_length, seed=seed)
    rng = np.random.default_rng(seed + 1)
    offsets = rng.integers(0, stream_length - window_length, size=num_queries)
    patterns = [
        stream[o : o + window_length]
        + rng.normal(0.0, 1.0, size=window_length)
        for o in offsets
    ]
    typical = float(np.std(stream)) * np.sqrt(window_length)
    radius = radius_scale * 0.5 * typical

    indexes = {
        f"vopt-stream(B={budget // 2}, eps={epsilon:g})": SubsequenceIndex.from_stream_builder(
            stream, window_length, budget // 2, epsilon, stride=stride
        ),
        APCAReducer(budget).name: SubsequenceIndex(
            stream, window_length, APCAReducer(budget), stride=stride
        ),
        PAAReducer(budget).name: SubsequenceIndex(
            stream, window_length, PAAReducer(budget), stride=stride
        ),
    }
    for name, index in indexes.items():
        false_positives = 0
        verified = 0
        matches = 0
        for pattern in patterns:
            outcome = index.range_search(pattern, radius)
            false_positives += outcome.false_positives
            verified += outcome.candidates_verified
            matches += len(outcome.matches)
        table.add_row(
            method=name, false_positives=false_positives, verified=verified,
            matches=matches,
        )
    return table


def epsilon_ablation(
    window: int = 512,
    num_buckets: int = 8,
    epsilons: tuple[float, ...] = (1.0, 0.5, 0.2, 0.1, 0.05),
    arrivals: int = 50,
    seed: int = 7,
) -> ResultTable:
    """The accuracy/speed dial: SSE ratio to optimal and cost vs epsilon."""
    table = ResultTable(
        f"Epsilon ablation (window={window}, B={num_buckets})",
        ["epsilon", "sse_ratio", "ms_per_arrival", "intervals_per_level"],
    )
    stream = att_utilization_stream(window + arrivals, seed=seed)
    final_window = stream[arrivals : window + arrivals]
    optimal = optimal_error(final_window, num_buckets)
    for epsilon in epsilons:
        maintainer = make_maintainer(
            "fixed_window",
            window_size=window,
            num_buckets=num_buckets,
            epsilon=epsilon,
        )
        maintainer.extend(stream[:window])
        maintainer.maintain()
        report = StreamPipeline([maintainer], maintain_every=1).run(
            stream[window:]
        )[0]
        builder = maintainer.builder
        sse = builder.error_estimate
        table.add_row(
            epsilon=epsilon,
            sse_ratio=sse / optimal if optimal > 0 else 1.0,
            ms_per_arrival=1e3 * report.maintenance_seconds / arrivals,
            intervals_per_level=int(
                np.mean(builder.last_stats.intervals_per_level)
            ),
        )
    return table


def scaling_ablation(
    window_sizes: tuple[int, ...] = (128, 256, 512, 1024, 2048),
    num_buckets: int = 8,
    epsilon: float = 0.25,
    arrivals: int = 20,
    max_dp_window: int = 1024,
    seed: int = 7,
) -> ResultTable:
    """Theorem 1's shape: per-arrival cost of the fixed-window algorithm vs
    the naive optimal-DP-per-arrival and the restart-agglomerative
    strawman (section 4.4).

    ``herror_evals`` is the hardware-independent operation count; the DP
    is skipped above ``max_dp_window`` (it is quadratic).
    """
    table = ResultTable(
        f"Scaling ablation (B={num_buckets}, eps={epsilon:g})",
        ["window", "fw_ms", "herror_evals", "dp_ms", "restart_agg_ms"],
    )
    for window in window_sizes:
        stream = att_utilization_stream(window + arrivals, seed=seed)
        maintainer = make_maintainer(
            "fixed_window",
            window_size=window,
            num_buckets=num_buckets,
            epsilon=epsilon,
        )
        maintainer.extend(stream[:window])
        maintainer.maintain()
        warm_evals = maintainer.stats().herror_evaluations
        report = StreamPipeline([maintainer], maintain_every=1).run(
            stream[window:]
        )[0]
        evals = maintainer.stats().herror_evaluations - warm_evals
        fw_ms = 1e3 * report.maintenance_seconds / arrivals

        dp_ms = float("nan")
        if window <= max_dp_window:
            dp_watch = Stopwatch()
            for shift in range(arrivals):
                current = stream[shift + 1 : shift + 1 + window]
                with dp_watch:
                    optimal_histogram(current, num_buckets)
            dp_ms = 1e3 * dp_watch.elapsed / arrivals

        restart_watch = Stopwatch()
        for shift in range(arrivals):
            current = stream[shift + 1 : shift + 1 + window]
            with restart_watch:
                approximate_histogram(current, num_buckets, epsilon)
        restart_ms = 1e3 * restart_watch.elapsed / arrivals

        table.add_row(
            window=window,
            fw_ms=fw_ms,
            herror_evals=evals // arrivals,
            dp_ms=dp_ms,
            restart_agg_ms=restart_ms,
        )
    return table


def workload_aware(
    window: int = 512,
    num_buckets: int = 8,
    hot_fraction: float = 0.25,
    queries: int = 200,
    seed: int = 7,
) -> ResultTable:
    """Extension: workload-aware V-optimal histograms.

    When the query workload concentrates on a hot region (here the most
    recent ``hot_fraction`` of the window, the natural skew of monitoring
    workloads), weighting the construction objective by per-position
    access frequency (``WeightedSSEMetric``) moves buckets to where the
    queries land.  Reported: avg |error| on the hot workload and on a
    uniform control workload, for the plain and the workload-aware
    histogram.
    """
    from ..core.errors import WeightedSSEMetric
    from ..query.queries import RangeQuery
    from ..query.workload import position_weights

    table = ResultTable(
        f"Workload-aware histograms (window={window}, B={num_buckets})",
        ["histogram", "hot_workload_err", "uniform_workload_err"],
    )
    values = att_utilization_stream(window, seed=seed)
    rng = np.random.default_rng(seed)
    hot_start = int(window * (1.0 - hot_fraction))
    hot_queries = []
    for _ in range(queries):
        start = int(rng.integers(hot_start, window))
        end = min(window - 1, start + int(rng.integers(1, window - hot_start)))
        hot_queries.append(RangeQuery(start, end))
    uniform_queries = RandomRangeWorkload(window, seed=seed + 1).sample(queries)

    plain = optimal_histogram(values, num_buckets)
    weights = position_weights(hot_queries, window)
    aware = optimal_histogram(
        values, num_buckets, metric=WeightedSSEMetric(values, weights)
    )
    for name, histogram in (("plain", plain), ("workload-aware", aware)):
        table.add_row(
            histogram=name,
            hot_workload_err=measure_accuracy(
                histogram, values, hot_queries
            ).mean_absolute_error,
            uniform_workload_err=measure_accuracy(
                histogram, values, uniform_queries
            ).mean_absolute_error,
        )
    return table


def maintenance_cadence(
    window: int = 512,
    num_buckets: int = 8,
    epsilon: float = 0.25,
    cadences: tuple[int, ...] = (1, 4, 16, 64),
    arrivals: int = 256,
    queries_per_checkpoint: int = 16,
    seed: int = 7,
) -> ResultTable:
    """Cost vs staleness of lazy maintenance (paper section 3, footnote 2).

    The paper's model rebuilds after every arrival; batched arrivals fit
    the same framework.  Rebuilding every ``c`` arrivals divides the
    maintenance cost by ~c but answers queries from a synopsis up to
    ``c - 1`` points stale.  This sweep measures both sides of the dial:
    milliseconds per arrival and the accuracy of range-sum queries
    answered from the (possibly stale) synopsis against the *live* window.
    """
    table = ResultTable(
        f"Maintenance cadence (window={window}, B={num_buckets}, eps={epsilon:g})",
        ["cadence", "ms_per_arrival", "stale_query_err"],
    )
    stream = att_utilization_stream(window + arrivals, seed=seed)
    for cadence in cadences:
        maintainer = FixedWindowMaintainer(window, num_buckets, epsilon)
        maintainer.extend(stream[:window])
        maintainer.maintain()
        # The histogram as of the last maintain: stale by up to c - 1.
        stale = [maintainer.synopsis()]
        workload = RandomRangeWorkload(window, seed=seed)
        error = {"total": 0.0, "count": 0}

        def refresh(arrivals_seen: int, pipeline: StreamPipeline) -> None:
            stale[0] = maintainer.synopsis()

        def score(arrivals_seen: int, pipeline: StreamPipeline) -> None:
            histogram = stale[0]
            live = maintainer.window_values()
            for query in workload.sample(queries_per_checkpoint):
                exact = float(live[query.start : query.end + 1].sum())
                error["total"] += abs(query.answer(histogram) - exact)
                error["count"] += 1

        report = StreamPipeline(
            [maintainer],
            maintain_every=cadence,
            # Evaluate at a prime stride so checkpoints do not line up with
            # any cadence (staleness would otherwise be invisible).
            checkpoint_every=37,
            on_checkpoint=score,
            on_maintain=refresh,
        ).run(stream[window:])[0]
        table.add_row(
            cadence=cadence,
            ms_per_arrival=1e3 * report.maintenance_seconds / arrivals,
            stale_query_err=error["total"] / max(1, error["count"]),
        )
    return table


def space_accuracy_sweep(
    length: int = 2048,
    budgets: tuple[int, ...] = (4, 8, 16, 32, 64),
    epsilon: float = 0.1,
    seed: int = 7,
) -> ResultTable:
    """Error vs space for every synopsis family (the classic tradeoff).

    One utilization sequence, SSE normalized by the optimal SSE at each
    bucket budget B; methods at equal space (B buckets or B wavelet
    coefficients).  The guaranteed one-pass approximation should track
    1.0 across the sweep while heuristics wander.
    """
    from ..heuristics.iterative import iterative_histogram
    from ..heuristics.sampled import sampled_histogram
    from ..heuristics.serial import equal_width_histogram, maxdiff_histogram

    table = ResultTable(
        f"Space/accuracy sweep (n={length}): SSE / optimal SSE",
        ["buckets", "approx", "iterative", "sampled", "maxdiff",
         "equal_width", "wavelet"],
    )
    values = att_utilization_stream(length, seed=seed)
    for buckets in budgets:
        optimum = optimal_error(values, buckets)
        if optimum <= 0:
            continue
        table.add_row(
            buckets=buckets,
            approx=approximate_histogram(values, buckets, epsilon).sse(values)
            / optimum,
            iterative=iterative_histogram(values, buckets).sse(values) / optimum,
            sampled=sampled_histogram(values, buckets, seed=seed).sse(values)
            / optimum,
            maxdiff=maxdiff_histogram(values, buckets).sse(values) / optimum,
            equal_width=equal_width_histogram(values, buckets).sse(values)
            / optimum,
            wavelet=WaveletSynopsis.from_values(values, buckets).sse(values)
            / optimum,
        )
    return table


def span_breakdown(
    window: int = 512,
    num_buckets: int = 12,
    epsilon: float = 0.2,
    queries_per_band: int = 100,
    bands: tuple[tuple[int, int], ...] = ((1, 8), (8, 64), (64, 256), (256, 512)),
    seed: int = 7,
) -> ResultTable:
    """How range-sum error depends on the query span.

    The paper draws spans uniformly; this breakdown separates the bands.
    Short ranges are hardest for any piecewise-constant synopsis (a single
    straddled bucket dominates); long ranges benefit from error
    cancellation across buckets.  The histogram-vs-wavelet ordering should
    hold in every band.
    """
    from ..query.queries import RangeQuery

    table = ResultTable(
        f"Span breakdown (window={window}, B={num_buckets}, eps={epsilon:g})",
        ["span_band", "histogram_err", "wavelet_err"],
    )
    stream = att_utilization_stream(window, seed=seed)
    builder = FixedWindowHistogramBuilder(window, num_buckets, epsilon)
    builder.extend(stream)
    histogram = builder.histogram()
    synopsis = WaveletSynopsis.from_values(stream, num_buckets)
    rng = np.random.default_rng(seed)
    for low_span, high_span in bands:
        high_span = min(high_span, window)
        queries = []
        for _ in range(queries_per_band):
            span = int(rng.integers(low_span, high_span + 1))
            start = int(rng.integers(0, window - span + 1))
            queries.append(RangeQuery(start, start + span - 1))
        histogram_accuracy = measure_accuracy(histogram, stream, queries)
        wavelet_accuracy = measure_accuracy(synopsis, stream, queries)
        table.add_row(
            span_band=f"[{low_span},{high_span}]",
            histogram_err=histogram_accuracy.mean_absolute_error,
            wavelet_err=wavelet_accuracy.mean_absolute_error,
        )
    return table


def change_detection(
    window_sizes: tuple[int, ...] = (64, 128, 256),
    num_changes: int = 6,
    segment_length: int = 1200,
    num_buckets: int = 8,
    epsilon: float = 0.25,
    seed: int = 7,
) -> ResultTable:
    """Mining extension (paper section 6): change detection quality.

    A stream with ``num_changes`` injected regime changes is monitored by
    the histogram change detector at several window sizes; we report
    recall (changes caught within window + slack), mean detection delay,
    and spurious events per 1000 points.
    """
    from ..mining.changepoint import HistogramChangeDetector

    table = ResultTable(
        f"Change detection (B={num_buckets}, eps={epsilon:g})",
        ["window", "recall", "mean_delay", "spurious_per_1k"],
    )
    rng = np.random.default_rng(seed)
    levels = rng.uniform(100.0, 800.0, size=num_changes + 1)
    # Keep consecutive regimes well separated.
    for i in range(1, levels.size):
        if abs(levels[i] - levels[i - 1]) < 150.0:
            levels[i] = levels[i - 1] + 250.0
    stream = np.concatenate(
        [rng.normal(level, 8.0, segment_length).round() for level in levels]
    )
    true_changes = np.arange(1, num_changes + 1) * segment_length

    for window in window_sizes:
        detector = HistogramChangeDetector(
            window, num_buckets=num_buckets, epsilon=epsilon,
            check_every=16, cooldown=window * 3,
        )
        events = detector.run(stream)
        slack = window + 64
        caught = set()
        delays = []
        spurious = 0
        for event in events:
            gaps = event.position - true_changes
            matching = [
                i for i, gap in enumerate(gaps) if 0 <= gap <= slack
            ]
            if matching:
                index = matching[0]
                if index not in caught:
                    caught.add(index)
                    delays.append(int(gaps[index]))
            else:
                spurious += 1
        table.add_row(
            window=window,
            recall=len(caught) / num_changes,
            mean_delay=float(np.mean(delays)) if delays else float("nan"),
            spurious_per_1k=1000.0 * spurious / stream.size,
        )
    return table


def aggregate_variants(
    window: int = 512,
    num_buckets: int = 12,
    epsilon: float = 0.2,
    queries: int = 200,
    seed: int = 7,
) -> ResultTable:
    """Section 5.1's aside: "similar results are obtained for range queries
    requesting average or point queries."

    One window, three query families (range-sum, range-avg, point), mean
    relative error of the fixed-window histogram vs the equal-space
    wavelet synopsis.
    """
    from ..query.workload import RandomPointWorkload

    table = ResultTable(
        f"Aggregate variants (window={window}, B={num_buckets}, eps={epsilon:g})",
        ["aggregate", "histogram_rel_err", "wavelet_rel_err"],
    )
    stream = att_utilization_stream(window, seed=seed)
    builder = FixedWindowHistogramBuilder(window, num_buckets, epsilon)
    builder.extend(stream)
    histogram = builder.histogram()
    synopsis = WaveletSynopsis.from_values(stream, num_buckets)

    workloads = {
        "range_sum": RandomRangeWorkload(window, aggregate="sum", seed=seed).sample(queries),
        "range_avg": RandomRangeWorkload(window, aggregate="avg", seed=seed).sample(queries),
        "point": RandomPointWorkload(window, seed=seed).sample(queries),
    }
    for name, workload in workloads.items():
        histogram_accuracy = measure_accuracy(histogram, stream, workload)
        wavelet_accuracy = measure_accuracy(synopsis, stream, workload)
        table.add_row(
            aggregate=name,
            histogram_rel_err=histogram_accuracy.mean_relative_error,
            wavelet_rel_err=wavelet_accuracy.mean_relative_error,
        )
    return table


def heuristic_quality(
    lengths: tuple[int, ...] = (256, 1024),
    num_buckets: int = 16,
    epsilon: float = 0.1,
    seed: int = 7,
) -> ResultTable:
    """Ablation: why V-optimality matters -- SSE ratio to optimal for the
    classic heuristics vs the paper's (1 + eps)-approximation."""
    from ..heuristics.serial import equal_width_histogram, maxdiff_histogram
    from ..similarity.apca import apca as apca_reduce

    table = ResultTable(
        f"Heuristic quality (B={num_buckets}): SSE / optimal SSE",
        ["length", "approx", "maxdiff", "equal_width", "apca"],
    )
    for length in lengths:
        values = att_utilization_stream(length, seed=seed)
        optimum = optimal_error(values, num_buckets)
        if optimum <= 0:
            continue
        table.add_row(
            length=length,
            approx=approximate_histogram(values, num_buckets, epsilon).sse(values)
            / optimum,
            maxdiff=maxdiff_histogram(values, num_buckets).sse(values) / optimum,
            equal_width=equal_width_histogram(values, num_buckets).sse(values)
            / optimum,
            apca=apca_reduce(values, num_buckets).sse(values) / optimum,
        )
    return table


def interval_growth_ablation(
    window_sizes: tuple[int, ...] = (128, 256, 512, 1024, 2048, 4096),
    num_buckets: int = 8,
    epsilons: tuple[float, ...] = (0.5, 0.25, 0.1),
    seed: int = 7,
) -> ResultTable:
    """The O((1/delta) log n) interval bound (section 4.5 analysis)."""
    table = ResultTable(
        f"Interval growth (B={num_buckets})",
        ["window", "epsilon", "mean_intervals", "bound_fraction"],
    )
    for window in window_sizes:
        stream = att_utilization_stream(window, seed=seed)
        for epsilon in epsilons:
            builder = FixedWindowHistogramBuilder(window, num_buckets, epsilon)
            builder.extend(stream)
            counts = builder.interval_counts()
            mean_intervals = float(np.mean(counts))
            delta = epsilon / (2.0 * num_buckets)
            bound = np.log(max(np.e, builder.herror_estimate + 2)) / delta + 1
            table.add_row(
                window=window,
                epsilon=epsilon,
                mean_intervals=mean_intervals,
                bound_fraction=mean_intervals / min(window, bound),
            )
    return table
