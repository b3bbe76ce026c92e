"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Small integer-valued sequences, the paper's data model (bounded integers).
int_sequences = st.lists(
    st.integers(min_value=0, max_value=100), min_size=1, max_size=60
).map(lambda xs: np.asarray(xs, dtype=np.float64))

#: Sequences long enough for multi-bucket histograms.
longer_sequences = st.lists(
    st.integers(min_value=0, max_value=100), min_size=8, max_size=80
).map(lambda xs: np.asarray(xs, dtype=np.float64))

#: Modest float sequences for numeric modules (wavelets, distances).
float_sequences = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
).map(lambda xs: np.asarray(xs, dtype=np.float64))

#: Raw integer lists (no numpy mapping) for window/order-statistics tests
#: that index into the original Python list.
int_point_lists = st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=80)

#: Signed integer lists, long enough to force GK summary compression.
signed_int_lists = st.lists(
    st.integers(min_value=-100, max_value=100), min_size=1, max_size=400
)

bucket_counts = st.integers(min_value=1, max_value=8)
epsilons = st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0])


# ---------------------------------------------------------------------------
# Registry backends
# ---------------------------------------------------------------------------

#: Canonical constructor parameters for every registry backend, shared by
#: all backend sweeps (runtime, service, chaos, obs, verify).  Sized small
#: so exact-oracle comparisons stay fast.
BACKEND_PARAMS: dict[str, dict] = {
    "fixed_window": dict(window_size=64, num_buckets=8, epsilon=0.25),
    "agglomerative": dict(num_buckets=8, epsilon=0.25),
    "wavelet": dict(window_size=64, budget=8),
    "dynamic_wavelet": dict(domain_size=128, budget=8),
    "gk_quantiles": dict(epsilon=0.05),
    "equi_depth": dict(num_buckets=8),
    "reservoir": dict(capacity=32),
    "exact": dict(window_size=64),
    "eh_count": dict(window=64, epsilon=0.25),
    "cr_precis": dict(rows=5, base=23, domain=131072),
}


def _registry_backends() -> list[str]:
    from repro.runtime.registry import available_maintainers

    return sorted(available_maintainers())


@pytest.fixture(params=_registry_backends())
def all_backends(request) -> tuple[str, dict]:
    """``(backend, params)`` for every backend the registry exposes.

    Parametrized over the registry itself, so registering a ninth
    backend automatically enrolls it in every sweep that uses this
    fixture -- and fails loudly until canonical test parameters exist.
    """
    name = request.param
    assert name in BACKEND_PARAMS, (
        f"backend {name!r} is registered but has no canonical test params; "
        "add it to tests/conftest.py BACKEND_PARAMS"
    )
    return name, dict(BACKEND_PARAMS[name])


# ---------------------------------------------------------------------------
# Serving tiers
# ---------------------------------------------------------------------------


def _one_shard_router(snapshot_dir=None, **options):
    from repro.shard import ShardRouter

    return ShardRouter(1, snapshot_dir, **options)


def _supervised_service(snapshot_dir=None, **options):
    from repro.service import StreamService

    return StreamService(snapshot_dir, supervise=True, **options)


@pytest.fixture(
    params=[
        pytest.param("StreamService"),
        pytest.param("ShardRouter", marks=pytest.mark.shard),
    ]
)
def tier(request):
    """A constructor for each serving tier.

    ``tier(**options)`` builds a threaded ``StreamService`` or a 1-shard
    ``ShardRouter`` with the given options (``snapshot_dir``, ``qos``,
    ``fault_injector``, ...); ``type(instance).restore`` brings either
    back from its snapshot directory.  A test that parametrizes ``tier``
    indirectly may also ask for ``"SupervisedStreamService"``.
    """
    if request.param == "ShardRouter":
        return _one_shard_router
    if request.param == "SupervisedStreamService":
        return _supervised_service
    from repro.service import StreamService

    return StreamService


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def step_sequence() -> np.ndarray:
    """Three exact plateaus: optimal 3-bucket SSE is zero."""
    return np.asarray([1.0] * 5 + [7.0] * 4 + [3.0] * 6)


@pytest.fixture
def utilization_1k() -> np.ndarray:
    from repro.datasets import att_utilization_stream

    return att_utilization_stream(1000, seed=42)
