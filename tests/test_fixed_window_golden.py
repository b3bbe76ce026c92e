"""Bit-identity guards for the fixed-window rebuild.

``tests/data/fixed_window_golden.json`` records, for a handful of
configurations, everything the rebuild decides: the interval cover of
every level (as its right ends -- the intervals tile the window), the
HERROR estimate as ``float.hex``, the bucket splits, and the lifetime
``herror_evaluations`` / ``search_probes`` counters, after the first fill
and after each of five 64-point slides.  Any change to the rebuild
arithmetic or to the search path shows up here as an exact mismatch.

The property test checks the curve arithmetic itself, pruning included:
every level's HERROR curve must equal, bit for bit, a scalar evaluation of
each position over every endpoint (:func:`reference_herror`).

Regenerate (only when a change is *meant* to move the covers)::

    PYTHONPATH=src python -m tests.test_fixed_window_golden
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import fixed_window
from repro.core.fixed_window import FixedWindowHistogramBuilder
from repro.datasets import att_utilization_stream

GOLDEN = Path(__file__).parent / "data" / "fixed_window_golden.json"
SLIDES = 5
SLIDE = 64

#: name -> (window, buckets, epsilon, fill, stream kind)
CONFIGS: dict[str, tuple[int, int, float, int, str]] = {
    "n128_B8_e0.1": (128, 8, 0.1, 128, "utilization"),
    "n1024_B8_e0.1": (1024, 8, 0.1, 1024, "utilization"),
    "n1024_B8_e0.5": (1024, 8, 0.5, 1024, "utilization"),
    "n2048_B8_e0.5": (2048, 8, 0.5, 2048, "utilization"),
    "n64_B16_e0.25": (64, 16, 0.25, 64, "utilization"),
    # Five points against eight buckets, then slides that fill the window.
    "partial_n128_B8_e0.1": (128, 8, 0.1, 5, "utilization"),
    "constant_n256_B8_e0.1": (256, 8, 0.1, 256, "constant"),
}


def _stream(fill: int, kind: str) -> np.ndarray:
    length = fill + SLIDES * SLIDE
    if kind == "constant":
        return np.full(length, 42.0)
    return att_utilization_stream(length, seed=1)


def _cover_ends(builder: FixedWindowHistogramBuilder, k: int) -> list[int]:
    cover = builder.interval_cover(k)
    ends = [end for _, end in cover]
    # The ends determine the cover: its intervals tile the window.
    assert cover == list(zip([0] + [end + 1 for end in ends[:-1]], ends))
    return ends


def _snapshot(builder: FixedWindowHistogramBuilder) -> dict:
    return {
        "cover_ends": [_cover_ends(builder, k) for k in range(1, builder.num_buckets)],
        "herror_estimate": float(builder.herror_estimate).hex(),
        "splits": builder.splits(),
        "herror_evaluations": builder.lifetime_stats.herror_evaluations,
        "search_probes": builder.lifetime_stats.search_probes,
    }


def record(name: str) -> list[dict]:
    """The snapshots of one configuration: after the fill, then per slide."""
    window, buckets, epsilon, fill, kind = CONFIGS[name]
    stream = _stream(fill, kind)
    builder = FixedWindowHistogramBuilder(window, buckets, epsilon)
    builder.extend(stream[:fill])
    snapshots = [_snapshot(builder)]
    for start in range(fill, stream.size, SLIDE):
        builder.extend(stream[start : start + SLIDE])
        snapshots.append(_snapshot(builder))
    return snapshots


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rebuild_matches_golden(golden, name):
    assert record(name) == golden[name]


def reference_herror(builder: FixedWindowHistogramBuilder, c: int, k: int) -> float:
    """``HERROR[c, k]`` of the builder's current rebuild, one position at a
    time with scalar lookups over every endpoint: the oracle for ``_curve``."""
    if c + 1 <= k:
        return 0.0  # fewer points than buckets: exact
    cum_sum = builder._cum_sum
    cum_sqsum = builder._cum_sqsum
    sum_c = cum_sum[c + 1]
    sqsum_c = cum_sqsum[c + 1]
    if k == 1:
        total = sum_c - cum_sum[0]
        value = sqsum_c - cum_sqsum[0] - total * total / (c + 1)
        return value if value > 0.0 else 0.0
    level = builder._levels[k - 2]
    ends = level.ends
    straddle = int(ends.searchsorted(c - 1))
    cutoff = straddle + 1 if ends[straddle] == c - 1 else straddle
    value = (1.0 + builder.delta) * float(level.curve[level.starts[straddle]])
    if cutoff > 0:
        totals = sum_c - level.cum_sum[:cutoff]
        lengths = c - ends[:cutoff]
        tails = (sqsum_c - level.cum_sqsum[:cutoff]) - totals * totals / lengths
        best = float((level.herror[:cutoff] + tails).min())
        if best < value:
            value = best
    return value if value > 0.0 else 0.0


_integers = st.lists(st.integers(0, 100), min_size=2, max_size=360)
_random_walks = st.lists(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=360,
).map(lambda steps: np.cumsum(steps).tolist())
_plateaus = st.lists(
    st.tuples(st.integers(0, 20), st.integers(1, 60)), min_size=1, max_size=12
).map(lambda runs: [float(v) for v, count in runs for _ in range(count)])
# Inputs where rounding is largest next to the SSE values: big offsets under
# small variation, tiny noise on large values, +-1e8 integers, rare spikes,
# constants.  The pruning margin must hold on all of them.
_offsets = st.lists(st.integers(0, 20), min_size=2, max_size=360).map(
    lambda values: [1e8 + v for v in values]
)
_noisy_large = st.lists(
    st.floats(-1e-3, 1e-3, allow_nan=False), min_size=2, max_size=360
).map(lambda noise: [5e6 + v for v in noise])
_signed_large = st.lists(
    st.tuples(st.sampled_from([-1e8, 1e8]), st.integers(-3, 3)),
    min_size=2,
    max_size=360,
).map(lambda pairs: [sign + v for sign, v in pairs])
_spikes = st.lists(
    st.one_of(st.integers(995, 1005), st.just(20503)), min_size=2, max_size=360
).map(lambda values: [float(v) for v in values])
_constants = st.tuples(
    st.floats(-1e9, 1e9, allow_nan=False), st.integers(2, 360)
).map(lambda spec: [spec[0]] * spec[1])


#: Tiny blocks, a short stride and no size floor for pruning: short windows
#: then reach what only long ones reach with the real constants (many
#: sparse-pass blocks, band rectangles and column chunks per level).  The
#: property test runs every input under both sets of constants.
SMALL_BLOCKS = dict(
    _BLOCK_ELEMENTS=256, _SPARSE_STRIDE=4, _BAND_ROWS=16, _PRUNE_MIN_PAIRS=0
)


@given(
    st.one_of(
        _integers,
        _random_walks,
        _plateaus,
        _offsets,
        _noisy_large,
        _signed_large,
        _spikes,
        _constants,
    ),
    st.integers(2, 360),
    st.integers(1, 9),
    st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
)
# ~200-260 intervals per level over 300 positions: most levels are pruned,
# with ~16 sparse endpoints and four band rectangles each.
@example([float(i * 7919 % 101) for i in range(360)], 300, 9, 0.05)
# Rounding reorders the computed tails here: pruning without the rounding
# margin gets levels 4 and 5 wrong.
@example(
    (1e8 + np.random.default_rng(0).integers(0, 20, 640)).tolist(), 640, 6, 0.25
)
# The benchmark's configuration: two or three sparse-pass blocks and 6-11
# band rectangles a level, on the stream the golden fixture uses.
@example(att_utilization_stream(1024 + SLIDE, seed=1).tolist(), 1024, 8, 0.1)
@settings(max_examples=100, deadline=None)
def test_level_curves_match_scalar_reference(points, window, buckets, epsilon):
    for constants in (None, SMALL_BLOCKS):
        builder = FixedWindowHistogramBuilder(window, buckets, epsilon)
        builder.extend(np.asarray(points, dtype=np.float64))
        if constants:
            with mock.patch.multiple(fixed_window, **constants):
                builder.update()
        else:
            builder.update()
        positions = range(len(builder))
        for k, level in enumerate(builder._levels, start=1):
            expected = np.array([reference_herror(builder, c, k) for c in positions])
            assert level.curve.tobytes() == expected.tobytes(), (constants, k)
        last = len(builder) - 1
        final = reference_herror(builder, last, buckets)
        assert float(builder.herror_estimate).hex() == float(final).hex()


def main(path: Path = GOLDEN) -> None:
    payload = {name: record(name) for name in sorted(CONFIGS)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
