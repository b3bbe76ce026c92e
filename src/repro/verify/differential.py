"""Differential and metamorphic checking of registry backends.

:class:`DifferentialChecker` drives three registry-built maintainers and
one exact :class:`~repro.verify.oracles.Oracle` over the same fuzzed
stream, in lockstep:

* the **primary** ingests each batch whole and is audited against the
  oracle's exact answers (epsilon bounds, HERROR monotonicity, window
  integrity -- whatever the backend's guarantee is);
* the **twin** ingests every batch split in two
  (``extend(a + b)`` vs ``extend(a); extend(b)``) -- the batch-split
  metamorphic relation.  Profiles emit integer-valued floats, so the
  twin's synopsis must match the primary's *exactly*, not approximately;
* the **restored** maintainer is born mid-run from the primary's
  ``state_dict`` pushed through a real JSON round-trip, then fed the
  remaining stream -- the checkpoint/restore metamorphic relation
  (round-trip followed by identical input must be indistinguishable from
  never having been snapshotted).

All maintainers are maintained at the same arrival positions, so the
deterministic telemetry counters (:meth:`MaintainerStats.counters`) must
agree too; a divergence there means batched and split ingestion did
different amounts of work, which historically is how cadence bugs have
announced themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..core.bucket import Histogram
from ..counting.cr_precis import CRPrecis
from ..counting.eh import ExponentialHistogram
from ..runtime.adapters import BufferSynopsis
from ..runtime.registry import make_maintainer
from ..runtime.statecodec import flatten_state, unflatten_state
from ..sketches.gk import GKQuantileSummary
from ..sketches.reservoir import ReservoirSample
from ..warehouse.streaming import StreamingEquiDepthSummary
from ..wavelets.synopsis import WaveletSynopsis
from .fuzzer import StreamFuzzer
from .oracles import QUANTILE_PROBES, Oracle, Violation, oracle_for

__all__ = ["DifferentialChecker", "DifferentialResult", "observe"]


def observe(maintainer) -> dict:
    """A canonical, comparable observation of a maintainer's state.

    Two maintainers that have consumed the same stream through any batch
    chunking (or through a checkpoint round-trip) must produce *equal*
    observations.  The observation covers the served synopsis, rendered
    per type, plus the deterministic telemetry counters.
    """
    synopsis = maintainer.synopsis()
    if isinstance(synopsis, Histogram):
        rendered = {
            "kind": "histogram",
            "buckets": [
                (bucket.start, bucket.end, bucket.value)
                for bucket in synopsis.buckets
            ],
        }
    elif isinstance(synopsis, WaveletSynopsis):
        rendered = {
            "kind": "wavelet",
            "coefficients": sorted(synopsis.coefficients.items()),
            "length": len(synopsis),
        }
    elif isinstance(synopsis, GKQuantileSummary):
        rendered = {
            "kind": "gk",
            "count": len(synopsis),
            "size": synopsis.summary_size,
            "quantiles": [synopsis.query(f) for f in QUANTILE_PROBES],
        }
    elif isinstance(synopsis, StreamingEquiDepthSummary):
        rendered = {"kind": "equi_depth", "state": synopsis.to_dict()}
    elif isinstance(synopsis, ReservoirSample):
        # to_dict carries the rng state: chunking must not even change
        # the random number consumption, let alone the sample.
        rendered = {"kind": "reservoir", "state": synopsis.to_dict()}
    elif isinstance(synopsis, BufferSynopsis):
        rendered = {"kind": "buffer", "values": synopsis.to_array().tolist()}
    elif isinstance(synopsis, ExponentialHistogram):
        # The full bucket state (not just the estimates): chunking or a
        # restore that perturbed any bank must be visible.
        rendered = {"kind": "eh_count", "state": synopsis.to_dict()}
    elif isinstance(synopsis, CRPrecis):
        rendered = {"kind": "cr_precis", "state": synopsis.to_dict()}
    else:  # pragma: no cover - new backend without an observation rule
        raise TypeError(
            f"no observation rule for synopsis type {type(synopsis).__name__}"
        )
    return {"synopsis": rendered, "counters": maintainer.stats().counters()}


@dataclass
class DifferentialResult:
    """Outcome of one differential run (one backend x profile x config)."""

    backend: str
    profile: str
    seed: int
    points: int
    params: dict
    checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "profile": self.profile,
            "seed": self.seed,
            "points": self.points,
            "params": dict(self.params),
            "checks": self.checks,
            "passed": self.passed,
            "violations": [v.to_dict() for v in self.violations],
        }


class DifferentialChecker:
    """Drive one backend and its oracle in lockstep over a fuzzed stream.

    Parameters
    ----------
    backend / params:
        Registry name and constructor keywords, exactly as
        :func:`~repro.runtime.registry.make_maintainer` takes them.
    profile / seed:
        Fuzzing profile and the single seed all randomness derives from.
    total_points:
        Stream length of the run.
    maintain_every:
        Maintenance cadence in arrivals (every maintainer is maintained
        at the same positions).
    check_every:
        Oracle-audit cadence in arrivals.  Each check runs the backend's
        exact-oracle audit plus the metamorphic equivalences; a final
        check always runs at end of stream.
    max_batch:
        Upper bound on fuzzed batch sizes.
    oracle:
        Override the oracle (defaults to ``oracle_for(backend, params)``).
        Passing a deliberately broken maintainer/oracle pair is how the
        test suite proves the checker *can* fail.
    """

    def __init__(
        self,
        backend: str,
        params: dict,
        *,
        profile: str = "uniform",
        seed: int = 0,
        total_points: int = 1024,
        maintain_every: int = 32,
        check_every: int = 256,
        max_batch: int = 48,
        oracle: Oracle | None = None,
    ) -> None:
        if total_points < 1:
            raise ValueError("total_points must be >= 1")
        if maintain_every < 1 or check_every < 1:
            raise ValueError("cadences must be >= 1")
        self.backend = backend
        self.params = dict(params)
        self.profile = profile
        self.seed = int(seed)
        self.total_points = int(total_points)
        self.maintain_every = int(maintain_every)
        self.check_every = int(check_every)
        self.max_batch = int(max_batch)
        self._oracle = oracle

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _fuzzer(self) -> StreamFuzzer:
        clip = None
        if self.backend == "dynamic_wavelet":
            clip = int(self.params["domain_size"])
        return StreamFuzzer(self.profile, self.seed, clip_domain=clip)

    @staticmethod
    def _split_extend(maintainer, batch: np.ndarray) -> None:
        """Feed ``batch`` as two pieces (and exercise ``append`` on
        single-point pieces): the left side of the metamorphic relation."""
        pivot = batch.size // 2
        for piece in (batch[:pivot], batch[pivot:]):
            if piece.size == 1:
                maintainer.append(float(piece[0]))
            elif piece.size:
                maintainer.extend(piece)

    def run(self) -> DifferentialResult:
        """Execute the full differential run; returns the result record."""
        result = DifferentialResult(
            backend=self.backend,
            profile=self.profile,
            seed=self.seed,
            points=self.total_points,
            params=dict(self.params),
        )
        primary = make_maintainer(self.backend, **self.params)
        twin = make_maintainer(self.backend, **self.params)
        restored = None
        oracle = self._oracle or oracle_for(self.backend, self.params)

        arrivals = 0
        next_maintain = self.maintain_every
        next_check = self.check_every
        restore_at = self.total_points // 2

        def check_now() -> None:
            result.checks += 1
            for violation in oracle.check(primary):
                result.violations.append(
                    Violation(
                        violation.check,
                        violation.detail,
                        observed=violation.observed,
                        bound=violation.bound,
                        position=arrivals,
                    )
                )
            reference = observe(primary)
            if observe(twin) != reference:
                result.violations.append(
                    Violation(
                        "chunking-equivalence",
                        "extend(a + b) and extend(a); extend(b) diverged",
                        position=arrivals,
                    )
                )
            # The restored maintainer re-materializes derived structures
            # once after loading (snapshots carry only durable state), so
            # its operation counters sit one rebuild ahead; its *answers*
            # must be indistinguishable.
            if (
                restored is not None
                and observe(restored)["synopsis"] != reference["synopsis"]
            ):
                result.violations.append(
                    Violation(
                        "restore-equivalence",
                        "state_dict round-trip followed by identical input "
                        "diverged from the uninterrupted maintainer",
                        position=arrivals,
                    )
                )

        for batch in self._fuzzer().batches(
            self.total_points, max_batch=self.max_batch
        ):
            primary.extend(batch)
            self._split_extend(twin, batch)
            if restored is not None:
                restored.extend(batch)
            oracle.extend(batch)
            arrivals += batch.size

            if arrivals >= next_maintain:
                primary.maintain()
                twin.maintain()
                if restored is not None:
                    restored.maintain()
                next_maintain += self.maintain_every * (
                    (arrivals - next_maintain) // self.maintain_every + 1
                )

            if restored is None and arrivals >= restore_at:
                # Checkpoint metamorphic: a *real* JSON round-trip (the
                # same serialization the snapshot store performs), not
                # just an in-memory dict copy.  Maintain primary AND twin
                # first so the observation below does not advance the
                # primary's rebuild counters past the twin's.
                primary.maintain()
                twin.maintain()
                payload = json.loads(json.dumps(primary.state_dict()))
                restored = make_maintainer(self.backend, **self.params)
                restored.load_state_dict(payload)
                if observe(restored)["synopsis"] != observe(primary)["synopsis"]:
                    result.violations.append(
                        Violation(
                            "restore-identity",
                            "state_dict round-trip did not restore an "
                            "identical maintainer",
                            position=arrivals,
                        )
                    )
                # The snapshot store's binary codec must be just as
                # lossless: flatten to a JSON skeleton plus raw arrays,
                # rebuild, compare answers.
                skeleton, arrays = flatten_state(primary.state_dict())
                via_arrays = make_maintainer(self.backend, **self.params)
                via_arrays.load_state_dict(
                    unflatten_state(json.loads(json.dumps(skeleton)), arrays)
                )
                if observe(via_arrays)["synopsis"] != observe(primary)["synopsis"]:
                    result.violations.append(
                        Violation(
                            "restore-identity-arrays",
                            "flattened state round-trip did not restore an "
                            "identical maintainer",
                            position=arrivals,
                        )
                    )

            if arrivals >= next_check:
                check_now()
                next_check += self.check_every * (
                    (arrivals - next_check) // self.check_every + 1
                )

        primary.maintain()
        twin.maintain()
        if restored is not None:
            restored.maintain()
        check_now()
        return result
