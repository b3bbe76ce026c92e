"""Tests for the prefix-sum machinery (repro.core.prefix)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import naive_sse
from repro.core.prefix import PrefixSums, SlidingPrefixSums

from .conftest import float_sequences, int_sequences


class TestPrefixSums:
    def test_rejects_non_1d(self):
        with pytest.raises(ValueError):
            PrefixSums(np.zeros((2, 2)))

    def test_len(self):
        assert len(PrefixSums([1, 2, 3])) == 3

    def test_sum_range_simple(self):
        prefix = PrefixSums([1.0, 2.0, 3.0, 4.0])
        assert prefix.sum_range(0, 3) == 10.0
        assert prefix.sum_range(1, 2) == 5.0
        assert prefix.sum_range(2, 2) == 3.0

    def test_sqsum_range_simple(self):
        prefix = PrefixSums([1.0, 2.0, 3.0])
        assert prefix.sqsum_range(0, 2) == 14.0
        assert prefix.sqsum_range(1, 1) == 4.0

    def test_mean(self):
        prefix = PrefixSums([2.0, 4.0, 6.0])
        assert prefix.mean(0, 2) == 4.0

    def test_out_of_bounds(self):
        prefix = PrefixSums([1.0, 2.0])
        with pytest.raises(IndexError):
            prefix.sum_range(0, 2)
        with pytest.raises(IndexError):
            prefix.sum_range(-1, 1)
        with pytest.raises(IndexError):
            prefix.sqerror(1, 0)

    def test_sqerror_constant_is_zero(self):
        prefix = PrefixSums([5.0] * 10)
        assert prefix.sqerror(0, 9) == 0.0
        assert prefix.sqerror(3, 7) == 0.0

    def test_sqerror_single_point_is_zero(self):
        prefix = PrefixSums([1.0, 9.0, 4.0])
        for i in range(3):
            assert prefix.sqerror(i, i) == 0.0

    @given(float_sequences)
    def test_sqerror_matches_naive(self, values):
        prefix = PrefixSums(values)
        n = values.size
        i = 0
        j = n - 1
        assert prefix.sqerror(i, j) == pytest.approx(
            naive_sse(values[i : j + 1]), rel=1e-6, abs=1e-6
        )

    @given(int_sequences, st.data())
    def test_sqerror_subrange_matches_naive(self, values, data):
        n = values.size
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(i, n - 1))
        prefix = PrefixSums(values)
        assert prefix.sqerror(i, j) == pytest.approx(
            naive_sse(values[i : j + 1]), rel=1e-6, abs=1e-6
        )

    @given(int_sequences)
    def test_sqerror_suffixes_vectorized_matches_scalar(self, values):
        prefix = PrefixSums(values)
        j = values.size - 1
        starts = np.arange(values.size)
        vector = prefix.sqerror_suffixes(starts, j)
        for start in starts:
            assert vector[start] == pytest.approx(
                prefix.sqerror(int(start), j), rel=1e-9, abs=1e-9
            )

    @given(int_sequences)
    def test_sqerror_monotone_in_start(self, values):
        """SQERROR[i, j] is non-increasing as i grows (paper section 4.2)."""
        prefix = PrefixSums(values)
        j = values.size - 1
        errors = prefix.sqerror_suffixes(np.arange(values.size), j)
        assert np.all(np.diff(errors) <= 1e-6 * (1 + errors[:-1]))


class TestSlidingPrefixSums:
    def test_requires_positive_capacity(self):
        with pytest.raises(ValueError):
            SlidingPrefixSums(0)

    def test_partial_fill(self):
        sliding = SlidingPrefixSums(8)
        sliding.extend([1.0, 2.0, 3.0])
        assert len(sliding) == 3
        assert sliding.sum_range(0, 2) == 6.0
        assert list(sliding.values()) == [1.0, 2.0, 3.0]

    def test_window_slides(self):
        sliding = SlidingPrefixSums(3)
        sliding.extend([1.0, 2.0, 3.0, 4.0])
        assert list(sliding.values()) == [2.0, 3.0, 4.0]
        assert sliding.sum_range(0, 2) == 9.0
        assert sliding.sum_range(0, 0) == 2.0

    def test_value_at(self):
        sliding = SlidingPrefixSums(3)
        sliding.extend([1.0, 2.0, 3.0, 4.0, 5.0])
        assert sliding.value_at(0) == 3.0
        assert sliding.value_at(2) == 5.0
        with pytest.raises(IndexError):
            sliding.value_at(3)

    def test_total_seen(self):
        sliding = SlidingPrefixSums(2)
        sliding.extend(range(7))
        assert sliding.total_seen == 7
        assert len(sliding) == 2

    def test_out_of_bounds_queries(self):
        sliding = SlidingPrefixSums(4)
        sliding.append(1.0)
        with pytest.raises(IndexError):
            sliding.sum_range(0, 1)

    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(st.integers(0, 50), min_size=1, max_size=120),
    )
    @settings(max_examples=60)
    def test_matches_static_prefix_across_rebases(self, capacity, points):
        """Rebase is invisible: every range query matches a fresh PrefixSums."""
        sliding = SlidingPrefixSums(capacity)
        for index, point in enumerate(points):
            sliding.append(float(point))
            window = np.asarray(
                points[max(0, index + 1 - capacity) : index + 1], dtype=np.float64
            )
            static = PrefixSums(window)
            length = len(sliding)
            assert length == window.size
            assert np.allclose(sliding.values(), window)
            assert sliding.sum_range(0, length - 1) == pytest.approx(
                static.sum_range(0, length - 1)
            )
            assert sliding.sqerror(0, length - 1) == pytest.approx(
                static.sqerror(0, length - 1), abs=1e-6
            )

    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=15,
            ),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),
    )
    @settings(max_examples=100)
    def test_small_extend_matches_append_bit_for_bit(
        self, capacity, batches, as_array
    ):
        """Batches of 1-15 points, across rebases and longer than the
        capacity, leave every array exactly as per-point ``append`` does."""
        extended = SlidingPrefixSums(capacity)
        appended = SlidingPrefixSums(capacity)
        for batch in batches:
            extended.extend(np.asarray(batch) if as_array else batch)
            for value in batch:
                appended.append(value)
            for name in ("_cum_sum", "_cum_sqsum", "_ring"):
                assert (
                    getattr(extended, name).tobytes()
                    == getattr(appended, name).tobytes()
                ), name
            assert (extended._filled, extended.total_seen) == (
                appended._filled,
                appended.total_seen,
            )

    @given(
        st.lists(st.integers(0, 50), min_size=10, max_size=60),
        st.data(),
    )
    @settings(max_examples=40)
    def test_vectorized_suffixes_match(self, points, data):
        sliding = SlidingPrefixSums(8)
        sliding.extend([float(p) for p in points])
        length = len(sliding)
        j = data.draw(st.integers(0, length - 1))
        starts = np.arange(j + 1)
        vector = sliding.sqerror_suffixes(starts, j)
        for start in starts:
            assert vector[start] == pytest.approx(
                sliding.sqerror(int(start), j), abs=1e-9
            )
