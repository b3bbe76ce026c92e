"""Tests for the differential-oracle certification subsystem (repro.verify).

Three layers of trust:

* the machinery itself works (fuzzer determinism, oracle wiring, CLI);
* every registry backend passes certification (the shipped guarantee);
* the checker *can* fail -- deliberately broken backends must be caught,
  including the off-by-one split regression the subsystem exists for.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core.fixed_window import FixedWindowHistogramBuilder
from repro.runtime.registry import make_maintainer
from repro.service import StreamService, StreamSpec
from repro.sketches.gk import GKQuantileSummary
from repro.verify import (
    GRID_BACKENDS,
    PROFILES,
    SIGNED_PROFILES,
    DifferentialChecker,
    StreamFuzzer,
    certify,
    compatible_profiles,
    default_grid,
    observe,
    oracle_for,
)
from repro.verify.__main__ import main as verify_main

from .conftest import BACKEND_PARAMS

pytestmark = pytest.mark.verify


class TestStreamFuzzer:
    def test_deterministic_from_seed(self):
        first = list(StreamFuzzer("zipf", 7).batches(300))
        second = list(StreamFuzzer("zipf", 7).batches(300))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "profile", [p for p in PROFILES if p not in SIGNED_PROFILES]
    )
    def test_profiles_emit_nonnegative_integers(self, profile):
        values = StreamFuzzer(profile, 3).take(500)
        assert values.dtype == np.float64
        assert float(values.min()) >= 0.0
        assert np.array_equal(values, np.rint(values))

    @pytest.mark.parametrize("profile", SIGNED_PROFILES)
    def test_signed_profiles_are_deterministic(self, profile):
        first = StreamFuzzer(profile, 13).take(600)
        second = StreamFuzzer(profile, 13).take(600)
        assert np.array_equal(first, second)
        assert np.array_equal(first, np.rint(first))

    def test_turnstile_profile_is_a_strict_turnstile(self):
        """Deletions only ever target live keys: decoded frequencies must
        stay non-negative at every prefix, and a healthy fraction of
        updates must actually be deletions."""
        from collections import Counter

        from repro.counting.encoding import decode_updates

        values = StreamFuzzer("turnstile", 9).take(2000)
        keys, deltas = decode_updates(values)
        live: Counter = Counter()
        for key, delta in zip(keys.tolist(), deltas.tolist()):
            live[key] += delta
            assert live[key] >= 0
        deletions = int((deltas < 0).sum())
        assert 0.2 <= deletions / values.size <= 0.5

    def test_expiry_profile_has_long_quiet_stretches(self):
        values = StreamFuzzer("expiry", 5).take(2000)
        zero_runs = []
        run = 0
        for v in values.tolist():
            if v == 0.0:
                run += 1
            else:
                if run:
                    zero_runs.append(run)
                run = 0
        assert max(zero_runs, default=0) >= 90

    def test_clip_domain_respected(self):
        fuzzer = StreamFuzzer("spike", 1, clip_domain=64)
        values = fuzzer.take(1000)
        assert float(values.max()) <= 63.0

    def test_batches_cover_exact_total(self):
        batches = list(StreamFuzzer("uniform", 0).batches(257, max_batch=10))
        assert sum(batch.size for batch in batches) == 257
        assert all(1 <= batch.size <= 10 for batch in batches)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            StreamFuzzer("gaussian")


class TestOracleWiring:
    def test_every_backend_has_an_oracle(self, all_backends):
        backend, params = all_backends
        oracle = oracle_for(backend, params)
        oracle.extend(np.asarray([1.0, 2.0, 3.0]))
        assert oracle.count == 3

    def test_observe_is_stable_and_discriminating(self, all_backends):
        backend, params = all_backends
        stream = StreamFuzzer("uniform", 5).take(200)
        one = make_maintainer(backend, **params)
        two = make_maintainer(backend, **params)
        one.extend(stream)
        two.extend(stream)
        one.maintain()
        two.maintain()
        assert observe(one) == observe(two)
        two.extend(stream[:7])
        two.maintain()
        assert observe(one) != observe(two)


class TestDifferentialSweep:
    @pytest.mark.parametrize("profile", ["uniform", "spike"])
    def test_backend_certifies(self, all_backends, profile):
        backend, params = all_backends
        result = DifferentialChecker(
            backend,
            params,
            profile=profile,
            seed=11,
            total_points=384,
            check_every=128,
        ).run()
        assert result.passed, [str(v) for v in result.violations]
        assert result.checks >= 3

    def test_report_roundtrips_through_json(self):
        cases = default_grid(quick=True, backends=["exact"], points=128)
        report = certify(cases)
        assert report.passed
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["passed"] is True
        assert payload["backends"] == ["exact"]

    def test_grid_covers_all_backends(self):
        cases = default_grid(quick=True)
        assert {case.backend for case in cases} == set(GRID_BACKENDS)
        with pytest.raises(KeyError):
            default_grid(backends=["no_such_backend"])

    def test_grid_fails_loudly_when_registry_outgrows_it(self):
        """Registering a backend without adding certification params to
        GRID_BACKENDS must break the default grid, not silently skip."""
        import repro.verify.runner as runner

        registered = list(runner.available_maintainers()) + ["brand_new"]
        with mock.patch.object(
            runner, "available_maintainers", lambda: registered
        ):
            with pytest.raises(RuntimeError, match="brand_new"):
                runner.default_grid(quick=True)

    def test_signed_profiles_only_reach_turnstile_backends(self):
        from repro.verify.runner import TURNSTILE_BACKENDS

        for backend in GRID_BACKENDS:
            allowed = compatible_profiles(backend)
            if backend in TURNSTILE_BACKENDS:
                assert set(SIGNED_PROFILES) <= set(allowed)
            else:
                assert not set(SIGNED_PROFILES) & set(allowed)
        for case in default_grid():
            if case.profile in SIGNED_PROFILES:
                assert case.backend in TURNSTILE_BACKENDS


class TestInjectedBugsAreCaught:
    """The checker must fail when the implementation is wrong."""

    def test_off_by_one_split_selection_fails_epsilon_bound(self):
        """Regression gate: shift `fixed_window` split selection by one
        position and the differential checker must report an epsilon-bound
        violation against the exact V-optimal DP."""
        original = FixedWindowHistogramBuilder._best_split

        def off_by_one(self, c, k):
            split = original(self, c, k)
            return max(1, split - 1) if split > 1 else split

        with mock.patch.object(
            FixedWindowHistogramBuilder, "_best_split", off_by_one
        ):
            result = DifferentialChecker(
                "fixed_window",
                BACKEND_PARAMS["fixed_window"],
                profile="spike",
                seed=0,
                total_points=512,
            ).run()
        assert not result.passed
        assert {"epsilon-bound"} <= {v.check for v in result.violations}

    def test_corrupted_quantile_answers_fail_rank_check(self):
        original = GKQuantileSummary.query

        def shifted(self, fraction):
            return original(self, min(1.0, fraction * 0.5 + 0.4))

        with mock.patch.object(GKQuantileSummary, "query", shifted):
            result = DifferentialChecker(
                "gk_quantiles",
                BACKEND_PARAMS["gk_quantiles"],
                profile="permutation",
                seed=2,
                total_points=512,
            ).run()
        assert not result.passed
        assert {"quantile-rank"} <= {v.check for v in result.violations}

    def test_dropped_points_fail_chunking_equivalence(self):
        """A maintainer that silently drops one point of every split batch
        diverges from its whole-batch twin."""
        # The maintainer hands each validated batch to the builder's slide.
        original = FixedWindowHistogramBuilder._slide

        def lossy(self, values):
            values = np.asarray(values, dtype=np.float64)
            original(self, values[:-1] if values.size > 3 else values)

        with mock.patch.object(FixedWindowHistogramBuilder, "_slide", lossy):
            result = DifferentialChecker(
                "fixed_window",
                BACKEND_PARAMS["fixed_window"],
                profile="uniform",
                seed=4,
                total_points=256,
            ).run()
        assert not result.passed


class TestCommandLine:
    def test_quick_single_backend_exits_zero(self, capsys):
        code = verify_main(["--quick", "--backend", "exact", "--points", "128"])
        assert code == 0
        assert "CERTIFIED" in capsys.readouterr().out

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = verify_main(
            ["--quick", "--backend", "reservoir", "--points", "96",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["backends"] == ["reservoir"]

    def test_list_prints_grid_without_running(self, capsys):
        code = verify_main(["--list", "--quick"])
        assert code == 0
        out = capsys.readouterr().out
        assert "22 cases" in out

    def test_rejects_bad_points(self, capsys):
        assert verify_main(["--points", "0"]) == 2

    def test_exits_nonzero_on_violation(self, capsys):
        original = FixedWindowHistogramBuilder._best_split

        def off_by_one(self, c, k):
            split = original(self, c, k)
            return max(1, split - 1) if split > 1 else split

        with mock.patch.object(
            FixedWindowHistogramBuilder, "_best_split", off_by_one
        ):
            code = verify_main(
                ["--quick", "--backend", "fixed_window", "--points", "512"]
            )
        assert code == 1
        assert "VIOLATIONS FOUND" in capsys.readouterr().out


class TestServiceCertify:
    def test_certify_monitored_stream(self):
        with StreamService() as service:
            service.create_stream(
                "hist",
                spec=StreamSpec(
                    backend="fixed_window",
                    params=BACKEND_PARAMS["fixed_window"],
                    accuracy=dict(window_size=64, check_every=64),
                ),
            )
            rng = np.random.default_rng(21)
            for _ in range(6):
                service.ingest("hist", rng.integers(0, 50, 50).astype(float))
            report = service.certify("hist", points=256)
        assert report["passed"] is True
        assert report["restore_identity"] is True
        assert report["live_accuracy"]["exact"] is True
        assert report["live_accuracy"]["within_bound"] is True
        assert report["differential"]["passed"] is True
        json.dumps(report)  # JSON-serializable end to end

    def test_certify_without_monitor(self):
        with StreamService() as service:
            service.create_stream(
                "q", backend="gk_quantiles", params=BACKEND_PARAMS["gk_quantiles"]
            )
            service.ingest("q", np.arange(300.0))
            report = service.certify("q", profile="sorted", points=256)
        assert report["passed"] is True
        assert report["live_accuracy"] is None

    def test_certify_records_a_span(self):
        with StreamService() as service:
            service.create_stream(
                "s", backend="exact", params=BACKEND_PARAMS["exact"]
            )
            service.ingest("s", np.arange(64.0))
            service.certify("s", points=128)
            assert len(service.spans(stage="certify")) == 1


class CertifiedStreamMachine(RuleBasedStateMachine):
    """Interleave ingest / maintain / checkpoint / crash / query against
    the exact V-optimal oracle.

    A crash rolls the maintainer back to the last checkpoint *and* the
    mirrored history back to the same arrival, so every audit compares
    the maintainer against exactly the stream it should have absorbed.
    """

    PARAMS = dict(window_size=32, num_buckets=4, epsilon=0.5)

    def __init__(self):
        super().__init__()
        self.maintainer = make_maintainer("fixed_window", **self.PARAMS)
        self.history: list[float] = []
        self.snapshot: tuple[dict, int] | None = None

    @rule(points=st.lists(st.integers(0, 50), min_size=1, max_size=8))
    def ingest(self, points):
        batch = np.asarray(points, dtype=np.float64)
        self.maintainer.extend(batch)
        self.history.extend(batch.tolist())

    @rule()
    def maintain(self):
        if self.history:
            self.maintainer.maintain()

    @rule()
    def checkpoint(self):
        if not self.history:
            return
        self.maintainer.maintain()
        payload = json.loads(json.dumps(self.maintainer.state_dict()))
        self.snapshot = (payload, len(self.history))

    @rule()
    def crash_and_restore(self):
        if self.snapshot is None:
            return
        payload, arrival = self.snapshot
        self.maintainer = make_maintainer("fixed_window", **self.PARAMS)
        self.maintainer.load_state_dict(json.loads(json.dumps(payload)))
        self.history = self.history[:arrival]

    @rule()
    def audit(self):
        if not self.history:
            return
        oracle = oracle_for("fixed_window", self.PARAMS)
        oracle.extend(np.asarray(self.history, dtype=np.float64))
        violations = oracle.check(self.maintainer)
        assert not violations, [str(v) for v in violations]


CertifiedStreamMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)
TestCertifiedStreamMachine = CertifiedStreamMachine.TestCase
