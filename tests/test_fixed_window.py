"""Tests for the paper's fixed-window algorithm (repro.core.fixed_window).

Theorem 1 contract: after any arrival, the histogram of the last n points
has SSE within ``(1 + eps)`` of the optimal B-bucket SSE of that window.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed_window import FixedWindowHistogramBuilder
from repro.core.optimal import optimal_error

from .conftest import bucket_counts, epsilons, longer_sequences


class TestConstruction:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            FixedWindowHistogramBuilder(0, 4, 0.1)
        with pytest.raises(ValueError):
            FixedWindowHistogramBuilder(8, 0, 0.1)
        with pytest.raises(ValueError):
            FixedWindowHistogramBuilder(8, 4, 0.0)

    def test_update_before_any_point(self):
        builder = FixedWindowHistogramBuilder(8, 2, 0.1)
        with pytest.raises(ValueError):
            builder.update()

    def test_window_tracks_stream(self):
        builder = FixedWindowHistogramBuilder(3, 2, 0.5)
        builder.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        assert len(builder) == 3
        assert builder.total_seen == 5
        assert list(builder.window_values()) == [3.0, 4.0, 5.0]


class TestBasicHistograms:
    def test_single_point(self):
        builder = FixedWindowHistogramBuilder(4, 3, 0.1)
        builder.append(7.0)
        histogram = builder.histogram()
        assert len(histogram) == 1
        assert histogram.point_estimate(0) == 7.0

    def test_fewer_points_than_buckets_is_exact(self):
        builder = FixedWindowHistogramBuilder(16, 8, 0.1)
        values = [5.0, 1.0, 9.0]
        builder.extend(values)
        assert list(builder.histogram().to_array()) == values
        assert builder.error_estimate == 0.0

    def test_single_bucket(self):
        builder = FixedWindowHistogramBuilder(4, 1, 0.5)
        builder.extend([2.0, 4.0, 6.0])
        histogram = builder.histogram()
        assert histogram.num_buckets == 1
        assert histogram.buckets[0].value == 4.0

    def test_plateaus_exact(self, step_sequence):
        builder = FixedWindowHistogramBuilder(step_sequence.size, 3, 0.1)
        builder.extend(step_sequence)
        assert builder.error_estimate == pytest.approx(0.0, abs=1e-9)

    def test_paper_example(self):
        """Section 4.5, Example 1: the slide from [100,0,0,0,1,1,1,1]."""
        builder = FixedWindowHistogramBuilder(8, 2, 1.0)
        builder.extend([100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        histogram = builder.histogram()
        # Optimal isolates the outlier: buckets [0,0] and [1..7].
        assert histogram.boundaries() == [0]
        # Slide: 100 drops, 1 enters -> data 0,0,0,1,1,1,1,1.
        builder.append(1.0)
        histogram = builder.histogram()
        window = builder.window_values()
        # The example's optimum splits after the third zero (index 2).
        assert histogram.sse(window) <= 2.0 * optimal_error(window, 2) + 1e-9
        assert histogram.boundaries() == [2]

    def test_update_is_idempotent(self):
        builder = FixedWindowHistogramBuilder(8, 2, 0.5)
        builder.extend([1.0, 5.0, 9.0, 2.0])
        first = builder.histogram()
        builder.update()
        builder.update()
        assert builder.histogram() == first


class TestApproximationGuarantee:
    @given(longer_sequences, bucket_counts, epsilons)
    @settings(max_examples=60, deadline=None)
    def test_full_window_within_factor(self, values, buckets, epsilon):
        builder = FixedWindowHistogramBuilder(values.size, buckets, epsilon)
        builder.extend(values)
        histogram = builder.histogram()
        optimum = optimal_error(values, buckets)
        sse = histogram.sse(values)
        assert sse <= (1.0 + epsilon) * optimum + 1e-6
        assert builder.error_estimate == pytest.approx(sse, rel=1e-6, abs=1e-6)

    @given(
        st.lists(st.integers(0, 100), min_size=12, max_size=70),
        st.integers(2, 5),
        epsilons,
    )
    @settings(max_examples=40, deadline=None)
    def test_sliding_window_within_factor(self, points, buckets, epsilon):
        """The guarantee holds after every slide, not just the first fill."""
        window = 10
        stream = np.asarray(points, dtype=np.float64)
        builder = FixedWindowHistogramBuilder(window, buckets, epsilon)
        for index, value in enumerate(stream):
            builder.append(value)
            if index >= window - 1 and index % 3 == 0:
                current = stream[index - window + 1 : index + 1]
                assert np.allclose(builder.window_values(), current)
                sse = builder.histogram().sse(current)
                optimum = optimal_error(current, buckets)
                assert sse <= (1.0 + epsilon) * optimum + 1e-6

    def test_long_slide_over_regime_change(self, utilization_1k):
        """Slide across a realistic stream; spot-check the guarantee."""
        window, buckets, epsilon = 64, 4, 0.25
        builder = FixedWindowHistogramBuilder(window, buckets, epsilon)
        for index, value in enumerate(utilization_1k[:400]):
            builder.append(value)
            if index >= window - 1 and index % 50 == 0:
                current = utilization_1k[index - window + 1 : index + 1]
                sse = builder.histogram().sse(current)
                optimum = optimal_error(current, buckets)
                assert sse <= (1.0 + epsilon) * optimum + 1e-6


class TestSnapshot:
    def test_round_trip_identical_histogram(self):
        import json

        rng = np.random.default_rng(6)
        stream = rng.integers(0, 100, size=400).astype(float)
        builder = FixedWindowHistogramBuilder(64, 6, 0.2)
        builder.extend(stream[:250])
        payload = json.loads(json.dumps(builder.to_state()))
        restored = FixedWindowHistogramBuilder.from_state(payload)
        assert restored.histogram() == builder.histogram()
        assert restored.total_seen == builder.total_seen

    def test_resume_tracks_original(self):
        rng = np.random.default_rng(7)
        stream = rng.integers(0, 50, size=300).astype(float)
        builder = FixedWindowHistogramBuilder(32, 4, 0.25)
        builder.extend(stream[:150])
        restored = FixedWindowHistogramBuilder.from_state(builder.to_state())
        for value in stream[150:]:
            builder.append(value)
            restored.append(value)
        assert restored.histogram() == builder.histogram()
        assert np.allclose(restored.window_values(), builder.window_values())

    def test_partial_window_snapshot(self):
        builder = FixedWindowHistogramBuilder(64, 4, 0.2)
        builder.extend([1.0, 2.0, 3.0])
        restored = FixedWindowHistogramBuilder.from_state(builder.to_state())
        assert len(restored) == 3
        assert restored.histogram() == builder.histogram()

    def test_inconsistent_snapshot_rejected(self):
        builder = FixedWindowHistogramBuilder(8, 2, 0.5)
        builder.extend(np.arange(8.0))
        state = builder.to_state()
        state["total_seen"] = 3  # below the window length
        with pytest.raises(ValueError):
            FixedWindowHistogramBuilder.from_state(state)

    @pytest.mark.parametrize("engine", ["lazy", "dense"])
    def test_legacy_engine_key_restores(self, engine):
        """Snapshots written while the builder had an ``engine`` option
        carry that key; they restore, through the builder and through the
        runtime maintainer, to the same answers as a fresh builder."""
        from repro.runtime import make_maintainer

        rng = np.random.default_rng(8)
        stream = rng.integers(0, 100, size=200).astype(float)
        fresh = FixedWindowHistogramBuilder(48, 4, 0.25)
        fresh.extend(stream)
        state = dict(fresh.to_state(), engine=engine)
        assert "engine" not in fresh.to_state()

        restored = FixedWindowHistogramBuilder.from_state(state)
        maintainer = make_maintainer(
            "fixed_window", window_size=48, num_buckets=4, epsilon=0.25
        )
        payload = maintainer.state_dict()
        payload["backend"]["builder"] = state
        maintainer.load_state_dict(payload)
        for builder in (restored, maintainer.builder):
            assert builder.splits() == fresh.splits()
            assert builder.histogram() == fresh.histogram()
            assert builder.herror_estimate == fresh.herror_estimate
            assert builder.interval_counts() == fresh.interval_counts()


class TestDiagnostics:
    def test_interval_counts_shape(self):
        builder = FixedWindowHistogramBuilder(32, 4, 0.25)
        builder.extend(np.arange(32.0))
        counts = builder.interval_counts()
        assert len(counts) == 3  # levels 1 .. B-1
        assert all(count >= 1 for count in counts)

    def test_stats_accumulate(self):
        builder = FixedWindowHistogramBuilder(16, 3, 0.5)
        builder.extend(np.arange(16.0))
        builder.update()
        first = builder.lifetime_stats.herror_evaluations
        assert first > 0
        builder.append(99.0)
        builder.update()
        assert builder.lifetime_stats.herror_evaluations > first
        assert builder.last_stats.total_intervals == sum(
            builder.last_stats.intervals_per_level
        )

    def test_queries_leave_rebuild_stats_alone(self):
        """A rebuild's counters are final: querying the histogram after it
        must not move them, and they equal the lifetime delta.  On this
        stream the split walk reads HERROR values no search consulted;
        those reads are not rebuild work."""
        from repro.datasets import att_utilization_stream

        stream = att_utilization_stream(1088, seed=1)
        builder = FixedWindowHistogramBuilder(1024, 8, 0.1)
        builder.extend(stream[:1024])
        builder.update()
        lifetime = builder.lifetime_stats
        before = lifetime.herror_evaluations, lifetime.search_probes
        builder.extend(stream[1024:])
        builder.update()
        stats = builder.last_stats
        counters = stats.herror_evaluations, stats.search_probes
        builder.histogram()
        builder.splits()
        assert builder.herror_estimate >= 0.0
        assert (stats.herror_evaluations, stats.search_probes) == counters
        assert builder.last_stats is stats
        assert lifetime.herror_evaluations - before[0] == stats.herror_evaluations
        assert lifetime.search_probes - before[1] == stats.search_probes

    def test_rebuild_scratch_memory_is_bounded(self):
        """One rebuild at n=8192 peaks at ~1.8 MB of allocations (curves,
        covers, per-position rows and the blocked temporaries; 1.6 MB
        without pruning).  A temporary spanning (positions x sparse
        endpoints) would add ~2.8 MB here, so the bound catches scratch
        that grows with the window."""
        from repro.datasets import att_utilization_stream

        window = 8192
        stream = att_utilization_stream(window + 64, seed=1)
        builder = FixedWindowHistogramBuilder(window, 8, 0.1)
        builder.extend(stream[:window])
        builder.update()
        builder.extend(stream[window:])
        tracemalloc.start()
        try:
            builder.update()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_no_rebuild_without_new_points(self):
        builder = FixedWindowHistogramBuilder(16, 3, 0.5)
        builder.extend(np.arange(16.0))
        builder.update()
        evaluations = builder.lifetime_stats.herror_evaluations
        builder.update()  # not dirty: no work
        assert builder.lifetime_stats.herror_evaluations == evaluations

    def test_smaller_epsilon_more_intervals(self, utilization_1k):
        counts = {}
        for epsilon in (1.0, 0.1):
            builder = FixedWindowHistogramBuilder(256, 4, epsilon)
            builder.extend(utilization_1k[:256])
            counts[epsilon] = sum(builder.interval_counts())
        assert counts[0.1] > counts[1.0]
