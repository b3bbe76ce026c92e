"""The state codec the snapshot store is built on: exact by construction.

``flatten_state`` splits a ``state_dict`` into a JSON skeleton plus raw
float64/int64 arrays; ``unflatten_state`` puts it back.  The store
writes the skeleton as JSON text and the arrays as raw bytes, so the
round trip pinned here is flatten -> JSON round trip of the skeleton ->
unflatten, and it must return the same object tree, bit for bit and
type for type: floats compared by their IEEE bits (``-0.0``, infinities,
NaN), ints never turned into floats (also beyond the int64 range, where
they stay in the skeleton), bools never turned into ints.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.statecodec import MIN_EXTRACT, flatten_state, unflatten_state

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
RESERVED = ("__nd__", "__ndcols__")

floats = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.7976931348623157e308]
)
ints = st.integers(min_value=-(2**70), max_value=2**70) | st.sampled_from(
    [INT64_MIN, INT64_MAX, INT64_MIN - 1, INT64_MAX + 1, 0, -1]
)
scalars = floats | ints | st.booleans() | st.none() | st.text(max_size=4)
keys = st.text(max_size=6).filter(lambda key: key not in RESERVED)

#: Columns typed one scalar kind each: GK-style ``[value, g, delta]``
#: rows when every column is numeric, unextractable ones otherwise.
tables = st.lists(
    st.sampled_from([floats, ints, st.booleans()]), min_size=1, max_size=4
).flatmap(
    lambda columns: st.lists(
        st.tuples(*columns).map(list), max_size=3 * MIN_EXTRACT
    )
)
leaves = (
    scalars
    | st.lists(floats, max_size=3 * MIN_EXTRACT)
    | st.lists(ints, max_size=3 * MIN_EXTRACT)
    | tables
    | st.lists(st.lists(floats | ints, max_size=4), max_size=8)  # ragged
)
states = st.dictionaries(
    keys,
    st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=5)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=24,
    ),
    max_size=6,
)


def round_trip(state):
    skeleton, arrays = flatten_state(state)
    return unflatten_state(json.loads(json.dumps(skeleton)), arrays), arrays


def assert_identical(restored, original):
    """Same tree, same key order, same types, floats equal bit for bit."""
    assert type(restored) is type(original)
    if isinstance(original, dict):
        assert list(restored) == list(original)
        for key in original:
            assert_identical(restored[key], original[key])
    elif isinstance(original, list):
        assert len(restored) == len(original)
        for got, want in zip(restored, original):
            assert_identical(got, want)
    elif isinstance(original, float):
        assert struct.pack("<d", restored) == struct.pack("<d", original)
    else:
        assert restored == original


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(states)
    def test_flatten_json_unflatten_is_exact(self, state):
        restored, _ = round_trip(state)
        assert_identical(restored, state)

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([1.5, -0.0, math.inf, -math.inf, math.nan, 2.0], "<f8"),
            ([INT64_MIN, -1, 0, INT64_MAX], "<i8"),
        ],
    )
    def test_homogeneous_lists_leave_the_skeleton(self, values, dtype):
        state = {"w": list(values)}
        skeleton, arrays = flatten_state(state)
        assert "__nd__" in skeleton["w"]
        assert [a.dtype for a in arrays] == [np.dtype(dtype)]
        assert_identical(round_trip(state)[0], state)

    def test_nan_payload_survives_extraction(self):
        (quiet,) = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))
        state = {"w": [quiet, 1.0, 2.0, 3.0]}
        assert_identical(round_trip(state)[0], state)

    def test_rectangular_rows_are_stored_column_wise(self):
        state = {"tuples": [[float(i) + 0.5, i, -i] for i in range(6)]}
        skeleton, arrays = flatten_state(state)
        assert skeleton["tuples"]["dts"] == ["f8", "i8", "i8"]
        assert [a.dtype.kind for a in arrays] == ["f", "i", "i"]
        assert_identical(round_trip(state)[0], state)

    @pytest.mark.parametrize(
        "values",
        [
            [1.0] * (MIN_EXTRACT - 1),  # too short to extract
            [1.0, 2, 3.0, 4.0],  # mixed float/int
            [1, 2, True, 4],  # bool is not an int here
            [1, 2, 3, INT64_MAX + 1],  # beyond int64
            [[1.0, 2.0], [3.0], [4.0, 5.0], [6.0, 7.0]],  # ragged rows
            [[1.0, 2], [3, 4.0], [5.0, 6], [7.0, 8]],  # mixed-type column
        ],
    )
    def test_unrepresentable_lists_stay_in_the_skeleton(self, values):
        state = {"w": values}
        skeleton, arrays = flatten_state(state)
        assert arrays == [] and skeleton == state
        assert_identical(round_trip(state)[0], state)


class TestReservedKeys:
    @pytest.mark.parametrize(
        "state",
        [
            {"__nd__": 0},
            {"__ndcols__": [0]},
            {"a": {"b": [{"__nd__": 1, "dt": "f8"}]}},
        ],
    )
    def test_reserved_keys_are_rejected(self, state):
        with pytest.raises(ValueError, match="reserved"):
            flatten_state(state)
