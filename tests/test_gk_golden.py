"""Bit-identity guards for the Greenwald-Khanna summary.

``tests/data/gk_golden.json`` records, for every combination of five
epsilons (compress periods 500, 50, 10, 2 and 1), four streams and two
batch schedules, the whole summary at six checkpoints: the stored values
as ``float.hex``, the gaps, the deltas and the count.  Any change to the
insertion position, the delta rule, the compress schedule or the merge
order shows up here as an exact mismatch.

The property test checks batching itself: ``extend`` over any split of a
stream must leave the same summary as per-point ``insert`` (the reference
path) after every batch.

Regenerate (only when a change is *meant* to move the summaries)::

    PYTHONPATH=src python -m tests.test_gk_golden
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets import att_utilization_stream
from repro.sketches.gk import GKQuantileSummary

GOLDEN = Path(__file__).parent / "data" / "gk_golden.json"
LENGTH = 2048
CHECKPOINTS = 6
EPSILONS = (0.001, 0.01, 0.05, 0.2, 0.45)
#: Ragged batch sizes, cycled: single points, batches inside one compress
#: period, and batches spanning many periods at every epsilon.
RAGGED = (1, 5, 64, 2, 130, 1, 333, 17, 1, 500)


def _stream(kind: str) -> np.ndarray:
    if kind == "utilization":
        return att_utilization_stream(LENGTH, seed=1)
    if kind == "ties":
        return np.random.default_rng(1).integers(0, 8, LENGTH).astype(np.float64)
    if kind == "ascending":
        return np.arange(LENGTH, dtype=np.float64)
    if kind == "descending":
        return np.arange(LENGTH, 0, -1, dtype=np.float64)
    raise ValueError(kind)


def _sizes(schedule: str) -> list[int]:
    pattern = (64,) if schedule == "batch64" else RAGGED
    sizes, total = [], 0
    while total < LENGTH:
        size = min(pattern[len(sizes) % len(pattern)], LENGTH - total)
        sizes.append(size)
        total += size
    return sizes


CONFIGS = [
    f"eps{epsilon:g}_{kind}_{schedule}"
    for epsilon in EPSILONS
    for kind in ("utilization", "ties", "ascending", "descending")
    for schedule in ("batch64", "ragged")
]


def _snapshot(summary: GKQuantileSummary) -> dict:
    state = summary.to_dict()
    return {
        "count": state["count"],
        "values": [float(value).hex() for value, _, _ in state["tuples"]],
        "gaps": [g for _, g, _ in state["tuples"]],
        "deltas": [delta for _, _, delta in state["tuples"]],
    }


def record(name: str) -> list[dict]:
    """Snapshots of one configuration, at six batch ends spread over the run."""
    epsilon, kind, schedule = name.split("_")
    stream = _stream(kind)
    sizes = _sizes(schedule)
    marks = set(np.linspace(0, len(sizes) - 1, CHECKPOINTS).round().astype(int))
    summary = GKQuantileSummary(float(epsilon[3:]))
    snapshots, start = [], 0
    for index, size in enumerate(sizes):
        summary.extend(stream[start : start + size])
        start += size
        if index in marks:
            snapshots.append(_snapshot(summary))
    return snapshots


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", CONFIGS)
def test_summary_matches_golden(golden, name):
    assert record(name) == golden[name]


_values = st.lists(
    st.one_of(
        st.integers(0, 6).map(float),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=400,
)


@given(
    st.sampled_from(EPSILONS),
    _values,
    st.lists(st.integers(1, 120), min_size=1, max_size=20),
)
# Every batch a single point.
@example(0.05, [float(v % 7) for v in range(60)], [1])
# One batch spanning forty compress periods, then one spanning 200.
@example(0.05, [float(v * 7919 % 101) for v in range(400)], [400])
@example(0.45, [float(v * 31 % 17) for v in range(200)], [200])
@settings(max_examples=150, deadline=None)
def test_batched_extend_matches_per_point_insert(epsilon, values, sizes):
    reference = GKQuantileSummary(epsilon)
    batched = GKQuantileSummary(epsilon)
    start = batch = 0
    while start < len(values):
        chunk = values[start : start + sizes[batch % len(sizes)]]
        for value in chunk:
            reference.insert(value)
        # Both input kinds: float64 arrays and plain sequences.
        batched.extend(np.asarray(chunk) if batch % 2 else chunk)
        assert batched.to_dict() == reference.to_dict()
        start += len(chunk)
        batch += 1


def main(path: Path = GOLDEN) -> None:
    payload = {name: record(name) for name in CONFIGS}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
