"""Micro-benchmarks of the core primitives (multi-round timings).

Not tied to a paper figure; these watch for regressions in the building
blocks the experiments rest on: the optimal DP, one fixed-window rebuild,
agglomerative per-point cost, the Haar transform, and GK insertion (per
point, and in the serving tiers' 512-point batches).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AgglomerativeHistogramBuilder,
    FixedWindowHistogramBuilder,
    optimal_histogram,
)
from repro.datasets import att_utilization_stream
from repro.sketches import GKQuantileSummary
from repro.wavelets import WaveletSynopsis, haar_transform

STREAM = att_utilization_stream(6000, seed=99)


def test_optimal_dp_n512_b8(benchmark):
    values = STREAM[:512]
    benchmark(optimal_histogram, values, 8)


def test_fixed_window_rebuild_n512_b8(benchmark):
    builder = FixedWindowHistogramBuilder(512, 8, 0.25)
    builder.extend(STREAM[:512])
    builder.update()
    cursor = {"position": 512}

    def slide_once():
        builder.append(STREAM[cursor["position"] % STREAM.size])
        cursor["position"] += 1
        builder.update()

    benchmark(slide_once)


def test_agglomerative_append_b8(benchmark):
    builder = AgglomerativeHistogramBuilder(8, 0.25)
    builder.extend(STREAM[:2000])
    cursor = {"position": 2000}

    def append_once():
        builder.append(STREAM[cursor["position"] % STREAM.size])
        cursor["position"] += 1

    benchmark(append_once)


def test_haar_transform_n1024(benchmark):
    values = STREAM[:1024]
    benchmark(haar_transform, values)


def test_wavelet_synopsis_n1024_b16(benchmark):
    values = STREAM[:1024]
    benchmark(WaveletSynopsis.from_values, values, 16)


def test_gk_insert_eps001(benchmark):
    summary = GKQuantileSummary(0.01)
    summary.extend(STREAM[:3000])
    cursor = {"position": 3000}

    def insert_once():
        summary.insert(float(STREAM[cursor["position"] % STREAM.size]))
        cursor["position"] += 1

    benchmark(insert_once)


def test_gk_extend_512_eps005(benchmark):
    """The kernel both serving tiers run: 512-point batches into a warm
    summary at the GK fleets' epsilon."""
    summary = GKQuantileSummary(0.05)
    summary.extend(STREAM[:3000])
    batches = [STREAM[start : start + 512] for start in range(0, 5632, 512)]
    cursor = {"batch": 0}

    def extend_once():
        summary.extend(batches[cursor["batch"] % len(batches)])
        cursor["batch"] += 1

    benchmark(extend_once)


def test_histogram_range_query_b32(benchmark):
    histogram = optimal_histogram(STREAM[:1024], 32)
    rng = np.random.default_rng(0)
    queries = [
        tuple(sorted((int(rng.integers(1024)), int(rng.integers(1024)))))
        for _ in range(64)
    ]
    queries = [(i, j) for i, j in queries if i <= j]

    def run_queries():
        total = 0.0
        for i, j in queries:
            total += histogram.range_sum(i, j)
        return total

    benchmark(run_queries)
