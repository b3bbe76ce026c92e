"""Figure 6(c)/(d): histogram maintenance time vs subsequence length.

Paper observations to reproduce in shape: construction time grows only
mildly with the window length (the per-point cost is polylogarithmic in
n), grows as B increases or epsilon decreases, and the wavelet
recomputed-per-slide baseline is drastically more expensive in total
algorithmic work (the paper omits its curve for being up to an order of
magnitude worse).

Note on constants: the paper's C implementation makes the wavelet's O(n)
slide look slow next to polylog histogram maintenance; in this library
the wavelet's O(n) is one numpy FFT-like pass, so *absolute* times still
favour the wavelet at every window here.  Re-measured with each level's
HERROR curve computed by one blocked numpy broadcast (2-core Intel Xeon,
CPython 3.11, numpy 2.4, 40 arrivals): at B=8 the histogram takes
1.5-9.8 ms per arrival at eps=0.5 and 1.6-19 ms at eps=0.1 for n=128-1024,
the wavelet 0.08-0.25 ms.  ``herror_evals`` is the hardware-independent
work measure; the scaling ablation (bench_ablation_scaling) carries the
growth-rate comparison.
"""

from __future__ import annotations

from repro.bench import fig6_time

WINDOWS = (128, 256, 512, 1024)
BUCKETS = (8, 16)


def _run(epsilon: float):
    return fig6_time(
        epsilon, window_sizes=WINDOWS, bucket_counts=BUCKETS, arrivals=40
    )


def test_fig6c_time_loose_epsilon(benchmark, record_table):
    table = benchmark.pedantic(_run, args=(0.5,), rounds=1, iterations=1)
    record_table("fig6c_time_eps0.5", table)
    rows = table.rows()
    # Sublinear growth: 8x window -> well under 8x work per arrival.
    small = next(r for r in rows if r["window"] == 128 and r["buckets"] == 8)
    large = next(r for r in rows if r["window"] == 1024 and r["buckets"] == 8)
    assert large["herror_evals"] < 8 * small["herror_evals"]


def test_fig6d_time_tight_epsilon(benchmark, record_table):
    table = benchmark.pedantic(_run, args=(0.1,), rounds=1, iterations=1)
    record_table("fig6d_time_eps0.1", table)
    rows = table.rows()
    small = next(r for r in rows if r["window"] == 128 and r["buckets"] == 8)
    large = next(r for r in rows if r["window"] == 1024 and r["buckets"] == 8)
    assert large["herror_evals"] < 8 * small["herror_evals"]
