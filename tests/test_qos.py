"""Multi-tenant QoS and control-plane hardening tests.

Covers the :mod:`repro.service.qos` policy layer (tenant token buckets,
priority classes, the graceful-degradation ladder, deterministic
shedding and honest shed accounting), its enforcement in both serving
tiers, and the router's hardened control plane (per-verb deadlines,
bounded idempotent retry, the per-shard circuit breaker).  Fault
schedules come from :class:`repro.service.faults.FaultInjector`, so
every overload and wedge in here is deterministic.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import (
    FaultInjector,
    QoSConfig,
    QoSController,
    QuotaExceededError,
    StreamService,
    StreamSpec,
    TenantQuota,
)
from repro.service.config import build_service, load_config
from repro.service.qos import (
    LEVEL_HEALTHY,
    LEVEL_SHED,
    LEVEL_STALE,
    LEVEL_THROTTLE,
    SHED_METRIC,
    THROTTLED_METRIC,
    TRANSITIONS_METRIC,
)
from repro.shard import CircuitBreaker, ShardRouter, ShardUnavailableError
from repro.shard.breaker import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN
from repro.shard.router import _IDEMPOTENT_VERBS, VERB_DEADLINES

GK = dict(epsilon=0.1)
#: A window_size above every stream's length here: each GK check is exact.
ACCURACY = dict(window_size=8192, check_every=64)


def _stream(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.floor(rng.random(n) * 101.0)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_controller(clock=None, **overrides) -> QoSController:
    return QoSController(QoSConfig(**overrides), clock=clock or FakeClock())


# ---------------------------------------------------------------------------
# Configuration objects
# ---------------------------------------------------------------------------


class TestQuotaAndConfig:
    def test_quota_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TenantQuota(rate=0.0, burst=10.0)
        with pytest.raises(ValueError, match="burst"):
            TenantQuota(rate=1.0, burst=0.5)
        with pytest.raises(ValueError, match="unknown quota keys"):
            TenantQuota.from_dict({"rate": 1.0, "burst": 2.0, "color": "red"})
        with pytest.raises(ValueError, match="both"):
            TenantQuota.from_dict({"rate": 1.0})
        quota = TenantQuota(rate=5.0, burst=20.0)
        assert TenantQuota.from_dict(quota.to_dict()) == quota

    def test_config_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="fill thresholds"):
            QoSConfig(throttle_fill=0.8, shed_fill=0.5)
        with pytest.raises(ValueError, match="latency thresholds"):
            QoSConfig(throttle_latency=1.0, shed_latency=0.5)
        with pytest.raises(ValueError, match="duplicate tenant"):
            QoSConfig(
                tenants=(
                    ("a", TenantQuota(1.0, 1.0)),
                    ("a", TenantQuota(2.0, 2.0)),
                )
            )
        with pytest.raises(ValueError, match="cooldown"):
            QoSConfig(cooldown=0)

    def test_config_roundtrip_and_quota_lookup(self):
        config = QoSConfig(
            tenants=(("gold", TenantQuota(rate=100.0, burst=200.0)),),
            default_quota=TenantQuota(rate=10.0, burst=20.0),
            shed_fraction=0.25,
            cooldown=3,
            seed=7,
        )
        assert QoSConfig.from_dict(config.to_dict()) == config
        assert config.quota_for("gold").rate == 100.0
        assert config.quota_for("anyone").burst == 20.0
        assert QoSConfig().quota_for("anyone") is None
        with pytest.raises(ValueError, match="unknown qos keys"):
            QoSConfig.from_dict({"sched_fraction": 0.5})


# ---------------------------------------------------------------------------
# Token buckets
# ---------------------------------------------------------------------------


class TestTokenBuckets:
    def test_burst_refusal_and_refill(self):
        clock = FakeClock()
        ctrl = make_controller(
            clock, default_quota=TenantQuota(rate=10.0, burst=20.0)
        )
        ctrl.register_stream("s", "acme", 0)
        kept, shed = ctrl.admit("s", np.ones(20))
        assert kept.size == 20 and shed == 0
        with pytest.raises(QuotaExceededError) as err:
            ctrl.admit("s", np.ones(5))
        assert err.value.retry_after == pytest.approx(0.5)
        assert err.value.tenant == "acme"
        assert err.value.stream == "s"
        clock.advance(0.5)
        kept, _ = ctrl.admit("s", np.ones(5))
        assert kept.size == 5

    def test_oversize_batch_always_makes_progress(self):
        clock = FakeClock()
        ctrl = make_controller(
            clock, default_quota=TenantQuota(rate=1.0, burst=10.0)
        )
        ctrl.register_stream("s", "acme", 0)
        kept, _ = ctrl.admit("s", np.ones(50))  # > burst, full bucket: admit
        assert kept.size == 50
        with pytest.raises(QuotaExceededError) as err:
            ctrl.admit("s", np.ones(50))  # drained bucket: wait for burst
        assert err.value.retry_after == pytest.approx(10.0)
        clock.advance(10.0)
        kept, _ = ctrl.admit("s", np.ones(50))
        assert kept.size == 50

    def test_unmetered_and_unregistered_streams_pass(self):
        ctrl = make_controller()  # no quotas anywhere
        ctrl.register_stream("s", "acme", 0)
        kept, shed = ctrl.admit("s", np.ones(10_000))
        assert kept.size == 10_000 and shed == 0
        kept, shed = ctrl.admit("ghost", np.ones(7))  # never registered
        assert kept.size == 7 and shed == 0
        snapshot = ctrl.snapshot()
        assert snapshot["admitted_points"] == 10_000
        assert "ghost" not in snapshot["streams"]


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------


class TestLadder:
    def make(self, **overrides):
        signals = {"queue_fill": 0.0, "p99_latency": 0.0}
        ctrl = make_controller(**overrides)
        ctrl.set_signal_source(lambda: dict(signals))
        return ctrl, signals

    def test_escalation_immediate_demotion_hysteretic(self):
        ctrl, signals = self.make(cooldown=2)
        assert ctrl.evaluate() == LEVEL_HEALTHY
        signals["queue_fill"] = 0.8  # >= shed_fill, jumps two levels
        assert ctrl.evaluate() == LEVEL_SHED
        signals["queue_fill"] = 0.2
        assert ctrl.evaluate() == LEVEL_SHED  # calm eval 1 of 2
        assert ctrl.evaluate() == LEVEL_THROTTLE  # one level per cooldown
        assert ctrl.evaluate() == LEVEL_THROTTLE
        assert ctrl.evaluate() == LEVEL_HEALTHY
        assert ctrl.level_name() == "healthy"
        trans = ctrl.registry.counter(TRANSITIONS_METRIC, level="shed")
        assert trans.value == 1

    def test_latency_escalates_then_mutes_until_rearmed(self):
        ctrl, signals = self.make(cooldown=1)
        signals["p99_latency"] = 2.0  # >= stale_latency
        assert ctrl.evaluate() == LEVEL_STALE
        # Fill is calm and the reservoir does not decay: the ladder
        # steps all the way down, muting the stale latency reading
        # instead of re-escalating each step.
        assert ctrl.evaluate() == LEVEL_SHED
        assert ctrl.evaluate() == LEVEL_THROTTLE
        assert ctrl.evaluate() == LEVEL_HEALTHY
        signals["p99_latency"] = 0.3  # still muted: no escalation
        assert ctrl.evaluate() == LEVEL_HEALTHY
        signals["p99_latency"] = 0.0  # healthy reading re-arms the signal
        assert ctrl.evaluate() == LEVEL_HEALTHY
        signals["p99_latency"] = 0.3  # >= shed_latency, armed again
        assert ctrl.evaluate() == LEVEL_SHED

    def test_stale_demotion_gated_on_drained(self):
        ctrl, signals = self.make(cooldown=1)
        drained = [False]
        ctrl.set_drained(lambda: drained[0])
        signals["queue_fill"] = 0.99
        assert ctrl.evaluate() == LEVEL_STALE
        signals["queue_fill"] = 0.0
        assert ctrl.evaluate() == LEVEL_STALE  # backlog still replaying
        assert ctrl.evaluate() == LEVEL_STALE
        drained[0] = True
        assert ctrl.evaluate() == LEVEL_SHED

    def test_force_level_pins_and_releases(self):
        ctrl, signals = self.make(cooldown=2)
        ctrl.force_level("shed")
        assert ctrl.evaluate() == LEVEL_SHED
        assert ctrl.snapshot()["forced"] == "shed"
        ctrl.force_level(None)
        assert ctrl.evaluate() == LEVEL_SHED  # hysteresis still applies
        assert ctrl.evaluate() == LEVEL_THROTTLE


# ---------------------------------------------------------------------------
# Deterministic shedding and accounting
# ---------------------------------------------------------------------------


class TestShedding:
    def test_shed_fraction_and_determinism(self):
        batch = np.arange(1000, dtype=np.float64)
        kept = []
        for _ in range(2):
            ctrl = make_controller(shed_fraction=0.5, seed=4)
            ctrl.register_stream("s", "acme", 1)
            ctrl.force_level("shed")
            admitted, shed = ctrl.admit("s", batch)
            assert 400 <= shed <= 600  # Weyl sample is near-uniform
            kept.append(admitted)
        assert np.array_equal(kept[0], kept[1])  # same seed, same mask
        other = make_controller(shed_fraction=0.5, seed=5)
        other.register_stream("s", "acme", 1)
        other.force_level("shed")
        admitted, _ = other.admit("s", batch)
        assert not np.array_equal(kept[0], admitted)

    def test_quota_refusal_does_not_advance_the_shed_schedule(self):
        clock = FakeClock()
        ctrl = make_controller(
            clock,
            default_quota=TenantQuota(rate=1.0, burst=8.0),
            shed_fraction=0.5,
        )
        ctrl.register_stream("s", "acme", 1)
        ctrl.force_level("shed")
        first = np.arange(64, dtype=np.float64)
        second = np.arange(64, 128, dtype=np.float64)
        ctrl.admit("s", first)  # oversize rule drains the bucket
        with pytest.raises(QuotaExceededError):
            ctrl.admit("s", second)
        clock.advance(8.0)
        retried, _ = ctrl.admit("s", second)
        reference = make_controller(shed_fraction=0.5)  # unmetered twin
        reference.register_stream("s", "acme", 1)
        reference.force_level("shed")
        reference.admit("s", first)
        expected, _ = reference.admit("s", second)
        assert np.array_equal(retried, expected)

    def test_stale_serve_sheds_everything_sheddable(self):
        ctrl = make_controller()
        ctrl.register_stream("bulk", "acme", 1)
        ctrl.register_stream("crit", "acme", 0)
        ctrl.force_level("stale_serve")
        kept, shed = ctrl.admit("bulk", np.ones(100))
        assert kept.size == 0 and shed == 100
        assert ctrl.serving_stale("bulk") is True
        assert ctrl.serving_stale("crit") is False
        kept, shed = ctrl.admit("crit", np.ones(100))
        assert kept.size == 100 and shed == 0

    def test_throttle_inflates_sheddable_cost(self):
        clock = FakeClock()
        ctrl = make_controller(
            clock,
            default_quota=TenantQuota(rate=10.0, burst=10.0),
            throttle_factor=0.5,
        )
        ctrl.register_stream("s", "acme", 1)
        ctrl.force_level("throttle")
        kept, _ = ctrl.admit("s", np.ones(5))  # costs 5 / 0.5 = 10 tokens
        assert kept.size == 5
        with pytest.raises(QuotaExceededError) as err:
            ctrl.admit("s", np.ones(1))  # needs 2 tokens at rate 10/s
        assert err.value.retry_after == pytest.approx(0.2)
        throttled = ctrl.registry.counter(
            THROTTLED_METRIC, tenant="acme", priority="1"
        )
        assert throttled.value == 1

    def test_note_shed_and_snapshot_accounting(self):
        ctrl = make_controller()
        ctrl.register_stream("s", "acme", 2)
        ctrl.note_shed("s", 40)  # e.g. drop_oldest evictions
        ctrl.count_shed("acme", 2, 2)  # raw accounting, no stream record
        snapshot = ctrl.snapshot()
        assert snapshot["shed_points"] == 42
        assert snapshot["streams"]["s"] == {
            "tenant": "acme",
            "priority": 2,
            "sheddable": True,
            "shed_points": 40,
        }
        assert (
            ctrl.registry.counter(SHED_METRIC, tenant="acme", priority="2").value
            == 42
        )


# ---------------------------------------------------------------------------
# Threaded-service enforcement
# ---------------------------------------------------------------------------


class TestServiceQoS:
    def test_spec_tenant_priority_validation_and_roundtrip(self):
        with pytest.raises(ValueError, match="tenant"):
            StreamSpec(backend="exact", tenant="")
        with pytest.raises(ValueError, match="priority"):
            StreamSpec(backend="exact", priority=-1)
        spec = StreamSpec(backend="exact", tenant="gold", priority=0)
        again = StreamSpec.from_dict(spec.to_dict())
        assert (again.tenant, again.priority) == ("gold", 0)
        legacy = StreamSpec.from_dict({"backend": "exact"})
        assert (legacy.tenant, legacy.priority) == ("default", 1)

    def test_ingest_admission_and_typed_refusal(self, tier):
        qos = QoSConfig(default_quota=TenantQuota(rate=50.0, burst=100.0))
        with tier(qos=qos) as service:
            service.create_stream("gk", backend="gk_quantiles", params=GK)
            assert service.ingest("gk", _stream(100)) == 100
            with pytest.raises(QuotaExceededError) as err:
                service.ingest("gk", _stream(50, seed=1))
            assert err.value.retry_after > 0
            assert err.value.tenant == "default"
            snapshot = service.qos()
            assert snapshot["admitted_points"] == 100
            assert service.health("gk")["degradation"] == "healthy"

    def test_caller_built_controller_records_into_service_registry(self):
        ctrl = make_controller()
        with StreamService(qos=ctrl) as service:
            service.create_stream("s", backend="gk_quantiles", params=GK)
            ctrl.force_level("shed")
            assert service.ingest("s", _stream(256)) < 256
            names = {sample["name"] for sample in service.metrics()}
            assert {TRANSITIONS_METRIC, SHED_METRIC} <= names
            assert TRANSITIONS_METRIC in service.prometheus_metrics()

    def test_forced_shed_is_accounted_by_qos_alone(self):
        ctrl = QoSController(QoSConfig())
        with StreamService(qos=ctrl) as service:
            service.create_stream(
                "s", backend="gk_quantiles", params=GK, accuracy=ACCURACY
            )
            service.ingest("s", _stream(128))
            ctrl.force_level("shed")
            accepted = service.ingest("s", _stream(256, seed=1))
            assert 0 < accepted < 256
            assert service.flush("s") is True
            shed = service.qos()["streams"]["s"]["shed_points"]
            assert shed == 256 - accepted
            assert service.stats("s")["arrivals"] + shed == 128 + 256
            # Shed points never reach the stream: the monitor judges the
            # points that did, exactly, and keeps no shed ledger.
            report = service.accuracy("s")
            assert report["unverified"] == 0
            assert report["violations"] == 0
            assert "shed_points" not in report

    def test_stale_serve_marks_views_and_health(self):
        ctrl = QoSController(QoSConfig())
        with StreamService(qos=ctrl) as service:
            service.create_stream("s", backend="gk_quantiles", params=GK)
            service.create_stream(
                "crit", backend="gk_quantiles", params=GK, priority=0
            )
            service.ingest("s", _stream(200))
            service.ingest("crit", _stream(200))
            assert service.flush() is True
            ctrl.force_level("stale_serve")
            assert service.ingest("s", _stream(50, seed=2)) == 0
            assert service.ingest("crit", _stream(50, seed=2)) == 50
            assert service.view("s").stale is True
            assert service.view("crit").stale is False
            health = service.health("s")
            assert health["degradation"] == "stale_serve"
            assert health["qos_shed"] is True
            assert health["state"] == "degraded"
            assert "qos_shed" not in service.health("crit")

    def test_dead_letter_retry_reenters_admission(self, tier):
        ctrl = QoSController(
            QoSConfig(default_quota=TenantQuota(rate=0.5, burst=4.0))
        )
        with tier(qos=ctrl) as service:
            service.create_stream(
                "d", backend="equi_depth", params=dict(num_buckets=4)
            )
            service.ingest("d", [1.0, -3.0, 2.0])  # equi-depth poison
            service.flush("d")
            assert len(service.dead_letters("d")) == 1
            ctrl.force_level("shed")
            with pytest.raises(QuotaExceededError, match="shed"):
                service.retry_dead_letters("d")
            ctrl.force_level("healthy")
            outcome = service.retry_dead_letters("d")
            assert outcome == {"retried": 1, "succeeded": 0, "failed": 1}
            with pytest.raises(QuotaExceededError):  # bucket is drained now
                service.retry_dead_letters("d")

    def test_priority_aware_drop_oldest_counts_shed(self):
        ctrl = QoSController(QoSConfig())
        injector = FaultInjector().slow_ingest_at(
            1, 0.02, stream="m", times=40
        )
        with StreamService(qos=ctrl, fault_injector=injector) as service:
            service.create_stream(
                "m", backend="gk_quantiles", params=GK,
                queue_capacity=64, backpressure="drop_oldest",
                priority=2, accuracy=ACCURACY,
            )

            def produce(seed: int) -> None:
                for i in range(20):
                    service.ingest("m", _stream(64, seed=seed * 100 + i))

            threads = [
                threading.Thread(target=produce, args=(t,)) for t in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert service.flush("m") is True
            snapshot = service.qos()
            assert snapshot["shed_points"] > 0
            # Admission sheds and queue evictions both land in the same
            # ledger: the controller totals, the stream's record and the
            # per-tenant metric agree, and account every offered point.
            assert snapshot["streams"]["m"]["shed_points"] == snapshot["shed_points"]
            assert (
                service.stats("m")["arrivals"] + snapshot["shed_points"]
                == 3 * 20 * 64
            )
            counter = ctrl.registry.counter(
                SHED_METRIC, tenant="default", priority="2"
            )
            assert counter.value == snapshot["shed_points"]
            assert service.accuracy("m")["violations"] == 0
            # Polling qos() drives ladder evaluation on a quiet service;
            # with the queue drained it must walk back to healthy.
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if service.qos()["level"] == "healthy":
                    break
                time.sleep(0.02)
            assert service.health("m")["state"] == "healthy"

    def test_config_file_parses_qos_tables(self, tmp_path):
        payload = {
            "mode": "threaded",
            "qos": {
                "shed_fraction": 0.5,
                "default": {"rate": 100.0, "burst": 200.0},
                "tenants": {"gold": {"rate": 500.0, "burst": 1000.0}},
            },
            "streams": [
                {
                    "name": "cpu",
                    "backend": "gk_quantiles",
                    "params": {"epsilon": 0.1},
                    "tenant": "gold",
                    "priority": 0,
                }
            ],
        }
        path = tmp_path / "svc.json"
        path.write_text(json.dumps(payload))
        config = load_config(path)
        assert config.qos.quota_for("gold").rate == 500.0
        assert config.qos.quota_for("anyone").burst == 200.0
        name, spec = config.streams[0]
        assert name == "cpu" and (spec.tenant, spec.priority) == ("gold", 0)
        service = build_service(config)
        try:
            assert service.ingest("cpu", _stream(50)) == 50
            assert service.qos()["admitted_points"] == 50
        finally:
            service.close(checkpoint=False)

    def test_cli_exposes_qos_flags(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        assert "--qos-rate" in result.stdout
        assert "--qos-burst" in result.stdout


# ---------------------------------------------------------------------------
# Circuit breaker (pure unit)
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_trip_halfopen_probe_and_reclose(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            shard="0", failure_threshold=2, reset_timeout=5.0, clock=clock
        )
        assert breaker.state == STATE_CLOSED
        assert breaker.allow() is True
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert breaker.allow() is False
        assert breaker.blocked() is True
        clock.advance(5.1)
        assert breaker.blocked() is False
        assert breaker.allow() is True  # the single half-open probe
        assert breaker.state == STATE_HALF_OPEN
        assert breaker.allow() is False  # no second concurrent probe
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.state_name() == "closed"

    def test_failed_probe_reopens_and_counts_trips(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        breaker = CircuitBreaker(
            shard="1", failure_threshold=1, reset_timeout=1.0,
            registry=registry, clock=clock,
        )
        breaker.record_failure()
        clock.advance(1.1)
        assert breaker.allow() is True
        breaker.record_failure()  # probe failed: straight back to open
        assert breaker.state == STATE_OPEN
        trips = registry.counter("repro_breaker_trips_total", shard="1")
        assert trips.value == 2
        breaker.reset()
        assert breaker.state == STATE_CLOSED


# ---------------------------------------------------------------------------
# Router control plane: deadlines, retries, breaker
# ---------------------------------------------------------------------------


@pytest.mark.shard
class TestRouterControlPlane:
    def test_per_verb_deadline_table(self):
        assert VERB_DEADLINES["ping"] == 2.0
        assert VERB_DEADLINES["health"] == 2.0
        assert "flush" not in VERB_DEADLINES  # long verbs keep the flat cap
        assert "health" in _IDEMPOTENT_VERBS
        assert "create_stream" not in _IDEMPOTENT_VERBS
        with ShardRouter(num_shards=1) as router:
            assert router._verb_deadline("ping") == 2.0
            assert router._verb_deadline("stats") == 5.0
            assert router._verb_deadline("metrics") == 10.0
            assert router._verb_deadline("create_stream") == 30.0
            assert router._verb_deadline("no_such_verb") == 30.0
            assert router._verb_deadline("flush") == pytest.approx(120.0)
            assert router._verb_deadline("checkpoint") == pytest.approx(120.0)

    def test_hung_shard_fails_health_fast(self):
        """The regression contract: a wedged shard fails ``health()`` in
        ~the 2 s health deadline, not the flat 120 s request timeout."""
        injector = FaultInjector().slow_control_at(
            "health", seconds=4.0, times=1
        )
        with ShardRouter(num_shards=1, fault_injector=injector) as router:
            router.create_stream("s", backend="gk_quantiles", params=GK)
            router.ingest("s", _stream(64))
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                router.health("s")
            elapsed = time.monotonic() - started
            assert elapsed < 3.5, f"health() took {elapsed:.1f}s"
            # Slow is not dead: no respawn, and the merged health view
            # renders the wedged shard's streams degraded instead.
            assert router.shard_states()[0]["state"] == "up"

    def test_wedged_shard_trips_breaker_then_recovers(self):
        injector = FaultInjector().slow_control_at(
            "stats", seconds=3.0, times=1
        )
        with ShardRouter(
            num_shards=1, request_timeout=1.0, ctrl_retries=0,
            breaker_threshold=1, breaker_reset=0.5, fault_injector=injector,
        ) as router:
            router.create_stream("s", backend="gk_quantiles", params=GK)
            router.ingest("s", _stream(64))
            started = time.monotonic()
            with pytest.raises(TimeoutError):
                router.stats("s")
            assert time.monotonic() - started < 2.5
            assert router.shard_states()[0]["breaker"] == "open"
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError, match="breaker"):
                router.stats("s")  # fails fast, no socket round-trip
            assert time.monotonic() - started < 0.2
            time.sleep(2.8)  # shard wakes; reset window long expired
            stats = router.stats("s")  # half-open probe succeeds
            assert stats["arrivals"] == 64
            assert router.shard_states()[0]["breaker"] == "closed"
            assert router.shard_states()[0]["state"] == "up"
            assert router.shard_states()[0]["restarts"] == 0

    def test_caller_built_controller_records_into_router_registry(self):
        ctrl = make_controller()
        with ShardRouter(num_shards=1, qos=ctrl) as router:
            router.create_stream("s", backend="gk_quantiles", params=GK)
            ctrl.force_level("shed")
            assert router.ingest("s", _stream(256)) < 256
            names = {
                sample["name"]
                for sample in router.metrics()
                if sample["labels"]["shard"] == "router"
            }
            assert {TRANSITIONS_METRIC, SHED_METRIC} <= names

    def test_router_admission_sheds_are_accounted_at_the_router(self):
        ctrl = QoSController(QoSConfig(seed=5))
        with ShardRouter(num_shards=1, qos=ctrl) as router:
            router.create_stream(
                "q", backend="gk_quantiles", params=GK, accuracy=ACCURACY
            )
            router.ingest("q", _stream(128))
            ctrl.force_level("shed")
            router.ingest("q", _stream(512, seed=1))
            ctrl.force_level(None)
            assert router.flush() is True
            snapshot = router.qos()
            shed = snapshot["streams"]["q"]["shed_points"]
            assert shed > 0
            # The router's controller is the one shed ledger; the shard
            # only ever sees the admitted points, and judges them exactly.
            assert router.stats("q")["arrivals"] + shed == 128 + 512
            report = router.accuracy("q")
            assert report["unverified"] == 0
            assert report["violations"] == 0
            assert router.health("q")["degradation"] in (
                "healthy", "throttle", "shed",
            )


# ---------------------------------------------------------------------------
# Chaos: overload storms and crash recovery
# ---------------------------------------------------------------------------


@pytest.mark.chaos
class TestOverloadChaos:
    def test_sigkill_trips_breaker_and_recloses_after_recovery(
        self, tmp_path
    ):
        with ShardRouter(
            num_shards=1, snapshot_dir=tmp_path / "snap"
        ) as router:
            router.create_stream(
                "r", backend="gk_quantiles", params=GK, maintain_every=16
            )
            data = _stream(300, seed=3)
            router.ingest("r", data[:100])
            router.checkpoint()
            pid = router.shard_states()[0]["pid"]
            os.kill(pid, signal.SIGKILL)
            router.ingest("r", data[100:200])
            router.ingest("r", data[200:])
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                state = router.shard_states()[0]
                if state["state"] == "up" and state["restarts"] >= 1:
                    break
                time.sleep(0.02)
            state = router.shard_states()[0]
            assert state["state"] == "up" and state["restarts"] >= 1
            assert router.flush() is True
            assert router.stats("r")["arrivals"] == 300
            trips = router.registry.counter(
                "repro_breaker_trips_total", shard="0"
            )
            assert trips.value >= 1  # death tripped it...
            assert state["breaker"] == "closed"  # ...recovery reclosed it

    def test_mixed_priority_overload_storm(self):
        """2x overload on a bulk stream: the ladder escalates, gold
        traffic stays healthy and within its accuracy bound, every shed
        point is accounted, and the ladder walks back to healthy."""
        config = QoSConfig(
            evaluate_every=1, cooldown=2, shed_fraction=0.5,
            throttle_fill=0.2, shed_fill=0.35, stale_fill=0.99,
            throttle_latency=10.0, shed_latency=20.0, stale_latency=30.0,
        )
        ctrl = QoSController(config)
        injector = FaultInjector().slow_ingest_at(
            1, 0.02, stream="bulk", times=150
        )
        with StreamService(qos=ctrl, fault_injector=injector) as service:
            service.create_stream(
                "hot", backend="gk_quantiles", params=GK,
                priority=0, accuracy=ACCURACY,
            )
            service.create_stream(
                "bulk", backend="gk_quantiles", params=GK,
                priority=2, queue_capacity=64, backpressure="drop_oldest",
                accuracy=ACCURACY,
            )

            def storm() -> None:
                for i in range(80):
                    service.ingest("bulk", _stream(64, seed=500 + i))

            producer = threading.Thread(target=storm)
            producer.start()
            worst = LEVEL_HEALTHY
            for i in range(40):
                assert service.ingest("hot", _stream(32, seed=i)) == 32
                worst = max(worst, ctrl.level)
                time.sleep(0.002)
            producer.join()
            assert worst >= LEVEL_SHED, (
                f"ladder only reached {worst} under a 2x storm"
            )
            assert service.flush() is True
            hot = service.accuracy("hot")
            snapshot = service.qos()
            assert snapshot["streams"]["hot"]["shed_points"] == 0
            assert hot["violations"] == 0
            assert hot["unverified"] == 0
            assert hot["observed_epsilon"] is not None
            assert service.health("hot")["state"] == "healthy"
            assert snapshot["shed_points"] > 0
            assert snapshot["streams"]["bulk"]["shed_points"] == (
                snapshot["shed_points"]
            )
            assert service.accuracy("bulk")["violations"] == 0
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if service.qos()["level"] == "healthy":
                    break
                time.sleep(0.05)
            assert service.qos()["level"] == "healthy"
