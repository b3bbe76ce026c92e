"""Validate-before-mutate: a failed batch ingest must apply nothing.

``Maintainer._ingest_batch`` documents the contract every batch caller
relies on: when ``extend`` raises, the synopsis must be exactly as it
was.  :class:`~repro.runtime.pipeline.StreamPipeline` rolls its arrival
counter back for the *whole* chunk when no maintainer consumed it, and
:class:`~repro.service.stream_worker.StreamWorker` attributes the
failure to exactly the un-ingested suffix (quarantining offenders,
replaying the rest) -- a backend that quietly applies a prefix before
noticing a bad value mid-batch makes both bookkeepings wrong and the
recovered stream diverge from a clean run.

Every registry backend is probed with poison planted at the *end* of a
batch (the position a prefix-mutating implementation gets wrong), on
both the small-batch scalar path and the vectorized path.  The uniform
property: either the whole batch is accepted, or the failed extend left
``state_dict()`` bit-identical to the pre-batch state.
"""

import numpy as np
import pytest

from repro.runtime import maintainer as maintainer_module
from repro.runtime import make_maintainer
from repro.runtime import pipeline as pipeline_module
from repro.runtime.pipeline import StreamPipeline
from repro.service import StreamService, protocol, stream_worker

from .conftest import BACKEND_PARAMS as BACKEND_KWARGS

#: Integral, in-domain values every backend (incl. the frequency-vector
#: dynamic wavelet) accepts.
CLEAN = [3.0, 17.0, 41.0, 5.0, 29.0, 7.0, 63.0, 11.0]

#: Probes covering the failure modes the backends can hit: non-finite
#: values, a negative (rejected by the equi-depth summary), and a value
#: far outside the dynamic wavelet's domain.
POISON = [float("nan"), float("inf"), float("-inf"), -1.0, 1.0e6]


def _build(backend):
    maintainer = make_maintainer(backend, **BACKEND_KWARGS[backend])
    maintainer.extend(np.asarray(CLEAN, dtype=np.float64))
    return maintainer


def _synopsis_state(maintainer):
    """state_dict minus the wall-clock telemetry (not synopsis state)."""
    state = maintainer.state_dict()
    state.pop("stats", None)
    return state


@pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
@pytest.mark.parametrize("clean_points", [3, 24], ids=["scalar", "vectorized"])
@pytest.mark.parametrize("bad", POISON, ids=["nan", "inf", "-inf", "neg", "huge"])
class TestAllOrNothingExtend:
    def test_failed_extend_leaves_state_untouched(self, backend, clean_points, bad):
        maintainer = _build(backend)
        before = maintainer.state_dict()
        points_before = maintainer.stats().points
        batch = np.asarray(
            (CLEAN * 3)[:clean_points] + [bad], dtype=np.float64
        )
        try:
            maintainer.extend(batch)
        except (ValueError, OverflowError):
            after = maintainer.state_dict()
            assert after == before, (
                f"{backend}: failed extend mutated state "
                f"(poison {bad!r} at position {clean_points})"
            )
            assert maintainer.stats().points == points_before
        else:
            # The backend accepts this value (e.g. the GK summary or the
            # reservoir order any float): the whole batch must be in.
            assert maintainer.stats().points == points_before + batch.size

    def test_retry_after_failure_matches_clean_run(self, backend, clean_points, bad):
        """After a rejected batch, re-feeding the clean prefix converges.

        This is the recovery sequence the stream worker performs: the
        failed batch is split at the poison point and the clean part is
        re-fed.  The result must equal a maintainer that never saw the
        poison at all.
        """
        maintainer = _build(backend)
        clean_part = np.asarray((CLEAN * 3)[:clean_points], dtype=np.float64)
        batch = np.concatenate([clean_part, [bad]])
        try:
            maintainer.extend(batch)
        except (ValueError, OverflowError):
            maintainer.extend(clean_part)
        else:
            pytest.skip(f"{backend} accepts {bad!r}; no recovery path to check")
        reference = _build(backend)
        reference.extend(clean_part)
        assert _synopsis_state(maintainer) == _synopsis_state(reference)


class TestPipelineRollback:
    """The arrival counter stays batch-exact across rejected chunks."""

    @pytest.mark.parametrize("backend", sorted(BACKEND_KWARGS))
    def test_arrivals_rolled_back_on_rejected_chunk(self, backend):
        maintainer = make_maintainer(backend, **BACKEND_KWARGS[backend])
        pipeline = StreamPipeline([maintainer], maintain_every=4)
        pipeline.extend(np.asarray(CLEAN, dtype=np.float64))
        arrivals = pipeline.arrivals
        poisoned = np.asarray(CLEAN[:3] + [float("nan")], dtype=np.float64)
        try:
            pipeline.extend(poisoned)
        except (ValueError, OverflowError):
            assert pipeline.arrivals == arrivals, (
                f"{backend}: arrival counter drifted on a rejected chunk"
            )
        else:
            assert pipeline.arrivals == arrivals + poisoned.size

    def test_resumed_pipeline_matches_uninterrupted_run(self):
        """Reject -> re-feed clean suffix == clean run (cadence aligned)."""
        interrupted = make_maintainer("fixed_window", **BACKEND_KWARGS["fixed_window"])
        pipeline = StreamPipeline([interrupted], maintain_every=4)
        head = np.asarray(CLEAN, dtype=np.float64)
        tail = np.asarray(CLEAN[:3], dtype=np.float64)
        pipeline.extend(head)
        with pytest.raises(ValueError):
            pipeline.extend(np.concatenate([tail, [float("nan")]]))
        pipeline.extend(tail)

        clean = make_maintainer("fixed_window", **BACKEND_KWARGS["fixed_window"])
        reference = StreamPipeline([clean], maintain_every=4)
        reference.extend(head)
        reference.extend(tail)
        assert pipeline.arrivals == reference.arrivals
        assert _synopsis_state(interrupted) == _synopsis_state(clean)


#: The four ways a non-finite point can reach a backend through the
#: maintainer verbs: a float64 array (which skips list conversion) and a
#: single point, each with NaN and with an infinity.
NON_FINITE = {
    "extend_nan": lambda m: m.extend(np.array([1.0, np.nan, 2.0])),
    "extend_inf": lambda m: m.extend(np.array([1.0, np.inf, 2.0])),
    "append_nan": lambda m: m.append(float("nan")),
    "append_inf": lambda m: m.append(float("inf")),
}


@pytest.mark.parametrize("probe", sorted(NON_FINITE))
def test_every_backend_rejects_non_finite_points(all_backends, probe):
    """``extend`` and ``append`` refuse NaN and infinities for every
    registered backend before the backend sees them: a NaN in a window
    makes every range sum over it NaN, and GK would keep an infinity as
    its exact maximum."""
    backend, params = all_backends
    maintainer = make_maintainer(backend, **params)
    maintainer.extend(np.asarray(CLEAN, dtype=np.float64))
    before = _synopsis_state(maintainer)
    with pytest.raises(ValueError):
        NON_FINITE[probe](maintainer)
    assert maintainer.stats().points == len(CLEAN)
    assert _synopsis_state(maintainer) == before


class TestOneFinitenessScan:
    """A service batch meets the finiteness scan once, at ``ingest``;
    every public verb below it still scans what a direct caller passes."""

    #: The modules a threaded batch passes through, each with its own
    #: ``as_stream_batch`` import.
    MODULES = (protocol, stream_worker, pipeline_module, maintainer_module)

    def test_service_batch_is_scanned_once(self, monkeypatch):
        calls = []
        for module in self.MODULES:

            def counted(values, _scan=module.as_stream_batch, _module=module):
                calls.append(_module.__name__)
                return _scan(values)

            monkeypatch.setattr(module, "as_stream_batch", counted)
        with StreamService() as service:
            service.create_stream(
                "s", backend="gk_quantiles", params=BACKEND_KWARGS["gk_quantiles"]
            )
            service.ingest("s", np.arange(512, dtype=np.float64))
            service.flush()
            assert service.stats("s")["arrivals"] == 512
        assert calls == [protocol.__name__]

    @pytest.mark.parametrize("size", [3, 512])
    def test_every_verb_still_refuses_non_finite_points(self, size):
        poisoned = np.arange(size, dtype=np.float64)
        poisoned[-1] = np.nan
        params = BACKEND_KWARGS["gk_quantiles"]
        with StreamService() as service:
            service.create_stream("s", backend="gk_quantiles", params=params)
            with pytest.raises(ValueError, match="finite"):
                service.ingest("s", poisoned)
            with pytest.raises(ValueError, match="finite"):
                service._worker("s").submit(poisoned)
            service.flush()
            assert service.stats("s")["arrivals"] == 0
        maintainer = make_maintainer("gk_quantiles", **params)
        pipeline = StreamPipeline([maintainer])
        with pytest.raises(ValueError, match="finite"):
            pipeline.extend(poisoned)
        with pytest.raises(ValueError, match="finite"):
            maintainer.extend(poisoned)
        assert pipeline.arrivals == maintainer.stats().points == 0
