"""Multi-tenant QoS: admission control and the graceful-degradation ladder.

The serving tiers host streams for many *tenants* with different
*priorities*; under overload the right behavior is not binary
(block/reject/drop) but graded -- shed where it costs least, and account
every shed point.  This module is that policy layer, shared by
:class:`~repro.service.service.StreamService` and
:class:`~repro.shard.router.ShardRouter`:

* **Admission control** -- each tenant owns a token bucket
  (:class:`TenantQuota`: ``rate`` points/second refill, ``burst``
  capacity).  A batch that does not fit raises
  :class:`QuotaExceededError` carrying ``retry_after`` seconds, so
  producers can back off instead of spinning.  An oversize batch
  (larger than ``burst``) is admitted against a *full* bucket, the same
  always-make-progress rule the worker queue applies to oversize
  batches.
* **Priority classes** -- ``priority`` is a small integer, ``0`` the
  most critical.  Streams at or above ``shed_priority_floor`` are
  *sheddable*: they are throttled and shed first; streams below the
  floor are only ever refused by their own tenant quota.
* **The degradation ladder** -- four levels driven by queue-fill and
  enqueue-latency signals from the owning tier::

      healthy -> throttle -> shed -> stale_serve

  ``throttle`` clamps sheddable admissions to a fraction of their
  quota (token cost is inflated by ``1/throttle_factor``).  ``shed``
  drops a deterministic, seeded sample of sheddable ingest
  (``shed_fraction``); every shed point is counted here, per stream
  and per tenant -- the controller is the one shed ledger, and a shed
  point never reaches the stream or its accuracy monitor.
  ``stale_serve`` sheds *all* sheddable ingest and the owning service
  marks their served views stale -- queries answer from the last
  :class:`~repro.service.queries.MaterializedView`.

  Escalation is immediate; demotion is hysteretic: the fill signal
  must sit below the current level for ``cooldown`` consecutive
  evaluations, stepping down one level at a time, and stepping out of
  ``stale_serve`` additionally requires the drained-check (the tier
  wires ``caught_up()`` here) so a still-replaying backlog cannot flap
  the ladder.  The latency signal only escalates -- it is a bounded
  reservoir of *recent* observations that does not decay in quiet
  periods, so queue fill is the live signal on the way down (see
  ``docs/DESIGN.md``).

Shedding is position-deterministic: point ``i`` of a stream's offered
sequence is shed iff ``frac((i+1) * phi + phase) < fraction`` (a golden
-ratio Weyl sequence, ``phase`` seeded per stream), so the same
schedule over the same traffic sheds the same points -- chaos runs stay
reproducible, exactly like :class:`~repro.service.faults.FaultInjector`
schedules.

Every decision lands on the registry:
``repro_qos_admitted_total`` / ``repro_qos_shed_total`` /
``repro_qos_throttled_total`` (points, labeled ``tenant`` and
``priority``) and the ``repro_qos_degradation_level`` gauge (0..3).
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import MetricsRegistry

__all__ = [
    "DEGRADATION_LEVELS",
    "QoSConfig",
    "QoSController",
    "QuotaExceededError",
    "TenantQuota",
    "tier_controller",
]

#: Ladder levels, index == severity.
DEGRADATION_LEVELS = ("healthy", "throttle", "shed", "stale_serve")

LEVEL_HEALTHY = 0
LEVEL_THROTTLE = 1
LEVEL_SHED = 2
LEVEL_STALE = 3

ADMITTED_METRIC = "repro_qos_admitted_total"
SHED_METRIC = "repro_qos_shed_total"
THROTTLED_METRIC = "repro_qos_throttled_total"
LEVEL_METRIC = "repro_qos_degradation_level"
TRANSITIONS_METRIC = "repro_qos_transitions_total"

#: Fractional part of the golden ratio -- the Weyl-sequence increment.
_GOLDEN = 0.6180339887498949

#: retry_after reported when a sheddable stream is refused by the ladder
#: itself (no token arithmetic to derive a horizon from).
_LADDER_RETRY_AFTER = 1.0


class QuotaExceededError(RuntimeError):
    """Admission control refused the batch; retry after ``retry_after`` s.

    Raised by :meth:`QoSController.admit` when the tenant's token
    bucket cannot cover the batch, and by the dead-letter retry path
    when a sheddable stream tries to re-feed quarantined records while
    the ladder is at ``shed`` or above.  Carries ``tenant``, ``stream``
    and ``retry_after`` (seconds until the bucket can fit the batch).
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float,
        tenant: str,
        stream: str | None = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)
        self.tenant = tenant
        self.stream = stream


@dataclass(frozen=True)
class TenantQuota:
    """Token-bucket ingest quota of one tenant (points/s + burst)."""

    rate: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("quota rate must be > 0 points/second")
        if self.burst < 1:
            raise ValueError("quota burst must be >= 1 point")

    def to_dict(self) -> dict:
        return {"rate": self.rate, "burst": self.burst}

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantQuota":
        extra = sorted(set(payload) - {"rate", "burst"})
        if extra:
            raise ValueError(f"unknown quota keys: {', '.join(extra)}")
        if "rate" not in payload or "burst" not in payload:
            raise ValueError("a quota needs both 'rate' and 'burst'")
        return cls(rate=float(payload["rate"]), burst=float(payload["burst"]))


class _TokenBucket:
    """One tenant's bucket; all methods run under the controller lock."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, quota: TenantQuota, now: float) -> None:
        self.rate = float(quota.rate)
        self.burst = float(quota.burst)
        self.tokens = self.burst
        self.stamp = now

    def try_take(self, cost: float, now: float) -> float:
        """Take ``cost`` tokens; returns 0.0 or the retry-after in seconds.

        An oversize cost (> burst) is admitted against a full bucket --
        the bucket just drains to zero -- mirroring the worker queue's
        oversize-batch rule so a single huge batch can always progress.
        """
        elapsed = max(0.0, now - self.stamp)
        self.stamp = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        need = min(cost, self.burst)
        if self.tokens >= need:
            self.tokens = max(0.0, self.tokens - cost)
            return 0.0
        return (need - self.tokens) / self.rate


@dataclass(frozen=True)
class QoSConfig:
    """Declarative QoS policy: tenant quotas plus ladder thresholds.

    ``tenants`` maps tenant names to :class:`TenantQuota`;
    ``default_quota`` covers tenants without an entry (``None`` leaves
    them unmetered -- admitted, but still counted and sheddable).
    ``*_fill`` thresholds are queue-fill fractions (0..1) and
    ``*_latency`` are p99 enqueue-latency seconds; crossing either
    escalates to that level.  ``shed_fraction`` is the deterministic
    sample dropped at ``shed``; ``throttle_factor`` scales sheddable
    tenants' effective rate at ``throttle`` and above; ``cooldown`` is
    the consecutive calm evaluations required per demotion step;
    ``evaluate_every`` is the admission-count cadence of ladder
    evaluation.
    """

    tenants: tuple[tuple[str, TenantQuota], ...] = field(default_factory=tuple)
    default_quota: TenantQuota | None = None
    shed_priority_floor: int = 1
    shed_fraction: float = 0.5
    throttle_factor: float = 0.5
    throttle_fill: float = 0.5
    shed_fill: float = 0.75
    stale_fill: float = 0.95
    throttle_latency: float = 0.05
    shed_latency: float = 0.25
    stale_latency: float = 1.0
    cooldown: int = 2
    evaluate_every: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        names = [name for name, _ in self.tenants]
        if len(names) != len(set(names)):
            raise ValueError("duplicate tenant names in qos config")
        if self.shed_priority_floor < 0:
            raise ValueError("shed_priority_floor must be >= 0")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in (0, 1]")
        if not 0.0 < self.throttle_factor <= 1.0:
            raise ValueError("throttle_factor must be in (0, 1]")
        if not 0.0 < self.throttle_fill <= self.shed_fill <= self.stale_fill:
            raise ValueError(
                "fill thresholds must satisfy "
                "0 < throttle_fill <= shed_fill <= stale_fill"
            )
        if not 0.0 < self.throttle_latency <= self.shed_latency <= self.stale_latency:
            raise ValueError(
                "latency thresholds must satisfy "
                "0 < throttle_latency <= shed_latency <= stale_latency"
            )
        if self.cooldown < 1:
            raise ValueError("cooldown must be >= 1")
        if self.evaluate_every < 1:
            raise ValueError("evaluate_every must be >= 1")

    def quota_for(self, tenant: str) -> TenantQuota | None:
        for name, quota in self.tenants:
            if name == tenant:
                return quota
        return self.default_quota

    def to_dict(self) -> dict:
        return {
            "tenants": {name: quota.to_dict() for name, quota in self.tenants},
            "default": (
                self.default_quota.to_dict() if self.default_quota else None
            ),
            "shed_priority_floor": self.shed_priority_floor,
            "shed_fraction": self.shed_fraction,
            "throttle_factor": self.throttle_factor,
            "throttle_fill": self.throttle_fill,
            "shed_fill": self.shed_fill,
            "stale_fill": self.stale_fill,
            "throttle_latency": self.throttle_latency,
            "shed_latency": self.shed_latency,
            "stale_latency": self.stale_latency,
            "cooldown": self.cooldown,
            "evaluate_every": self.evaluate_every,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QoSConfig":
        known = {
            "tenants",
            "default",
            "shed_priority_floor",
            "shed_fraction",
            "throttle_factor",
            "throttle_fill",
            "shed_fill",
            "stale_fill",
            "throttle_latency",
            "shed_latency",
            "stale_latency",
            "cooldown",
            "evaluate_every",
            "seed",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown qos keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        tenants = tuple(
            (name, TenantQuota.from_dict(quota))
            for name, quota in payload.get("tenants", {}).items()
        )
        default = payload.get("default")
        kwargs = {
            key: payload[key]
            for key in known - {"tenants", "default"}
            if key in payload
        }
        return cls(
            tenants=tenants,
            default_quota=(
                TenantQuota.from_dict(default) if default is not None else None
            ),
            **kwargs,
        )


@dataclass
class _StreamRecord:
    tenant: str
    priority: int
    shed_offset: int = 0
    shed_points: int = 0


class QoSController:
    """Runtime enforcement of a :class:`QoSConfig` for one service tier.

    The owning tier registers its streams (tenant + priority), wires a
    ``signal_source`` (queue fill + p99 enqueue latency) and a
    ``drained`` check (the ``caught_up()`` hysteresis used to step out
    of ``stale_serve``), and calls :meth:`admit` on every ingest.
    ``clock`` is injectable for deterministic tests; ``force_level``
    pins the ladder for tests and operational overrides.
    """

    def __init__(
        self,
        config: QoSConfig | None = None,
        *,
        registry: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        self.config = config if config is not None else QoSConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._clock = clock
        self._lock = threading.Lock()
        # note_shed() must stay off the main lock: it is called from
        # worker threads holding their queue condition (drop_oldest
        # evictions) while evaluate() may hold the main lock and call
        # back into those workers for signals.
        self._count_lock = threading.Lock()
        self._streams: dict[str, _StreamRecord] = {}
        self._buckets: dict[str, _TokenBucket] = {}
        self._level = LEVEL_HEALTHY
        self._forced: int | None = None
        self._cool = 0
        # The latency reservoir holds *recent* observations and does
        # not decay while traffic is quiet; once fill has been calm for
        # a full cooldown we mute ("disarm") the latency signal so the
        # stale reservoir cannot re-escalate every demotion step.  It
        # re-arms as soon as latency reads healthy again.
        self._lat_armed = True
        self._admissions = 0
        self._signal_source = None
        self._drained = None
        self._admitted_points = 0
        self._shed_points = 0
        self._throttled_points = 0
        self._level_gauge = self.registry.gauge(LEVEL_METRIC)
        self._level_gauge.set(LEVEL_HEALTHY)

    # ------------------------------------------------------------------
    # Wiring (owning tier)
    # ------------------------------------------------------------------

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Record every later decision into ``registry`` (the owning
        tier's), so ladder, shed and admit metrics reach the tier's
        ``metrics()`` and Prometheus export."""
        with self._lock:
            self.registry = registry
            self._level_gauge = registry.gauge(LEVEL_METRIC)
            self._level_gauge.set(self._level)

    def set_signal_source(self, source) -> None:
        """``source()`` -> ``{"queue_fill": 0..1, "p99_latency": s}``."""
        self._signal_source = source

    def set_drained(self, drained) -> None:
        """``drained()`` gates the ``stale_serve`` -> ``shed`` demotion."""
        self._drained = drained

    def register_stream(self, name: str, tenant: str, priority: int) -> None:
        if not tenant or not isinstance(tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if priority < 0:
            raise ValueError("priority must be >= 0 (0 is most critical)")
        with self._lock:
            self._streams[name] = _StreamRecord(tenant, int(priority))

    def forget_stream(self, name: str) -> None:
        with self._lock:
            self._streams.pop(name, None)

    # ------------------------------------------------------------------
    # Ladder
    # ------------------------------------------------------------------

    @property
    def level(self) -> int:
        return self._level

    def level_name(self) -> str:
        return DEGRADATION_LEVELS[self._level]

    def force_level(self, level: int | str | None) -> None:
        """Pin the ladder (int, name, or None to release the pin)."""
        if isinstance(level, str):
            level = DEGRADATION_LEVELS.index(level)
        with self._lock:
            self._forced = level
            if level is not None:
                self._set_level(level)
                self._cool = 0

    def sheddable(self, name: str) -> bool:
        """Is the stream's priority at or above the shed floor?"""
        with self._lock:
            record = self._streams.get(name)
            if record is None:
                return False
            return record.priority >= self.config.shed_priority_floor

    def serving_stale(self, name: str) -> bool:
        """Should the owning tier serve this stream's view marked stale?"""
        return self._level >= LEVEL_STALE and self.sheddable(name)

    def _fill_level(self, fill: float) -> int:
        if fill >= self.config.stale_fill:
            return LEVEL_STALE
        if fill >= self.config.shed_fill:
            return LEVEL_SHED
        if fill >= self.config.throttle_fill:
            return LEVEL_THROTTLE
        return LEVEL_HEALTHY

    def _latency_level(self, latency: float) -> int:
        if latency >= self.config.stale_latency:
            return LEVEL_STALE
        if latency >= self.config.shed_latency:
            return LEVEL_SHED
        if latency >= self.config.throttle_latency:
            return LEVEL_THROTTLE
        return LEVEL_HEALTHY

    def _set_level(self, level: int) -> None:
        # Caller holds self._lock.
        if level != self._level:
            self.registry.counter(
                TRANSITIONS_METRIC, level=DEGRADATION_LEVELS[level]
            ).inc()
            self._level = level
        self._level_gauge.set(level)

    def evaluate(self) -> int:
        """Re-read the signals and move the ladder; returns the level.

        Escalation follows the worst of both signals immediately;
        demotion is driven by queue fill alone, one level per
        ``cooldown`` consecutive calm evaluations, and leaving
        ``stale_serve`` additionally requires the drained check.  A
        latency reading that still justifies the level we are demoting
        *from* after a full calm cooldown is treated as a stale
        reservoir and muted until it reads healthy once (see the
        ``_lat_armed`` note in ``__init__`` and ``docs/DESIGN.md``).
        """
        # Signals and the drained check run OUTSIDE the controller lock:
        # both call back into the owning tier (worker queue state), and
        # those callbacks may themselves consult the controller.
        signals = self._signal_source() if self._signal_source else {}
        fill = float(signals.get("queue_fill", 0.0))
        latency = float(signals.get("p99_latency", 0.0))
        drained = self._drained() if self._drained is not None else True
        with self._lock:
            if self._forced is not None:
                self._set_level(self._forced)
                return self._level
            fill_level = self._fill_level(fill)
            lat_level = self._latency_level(latency)
            if lat_level == LEVEL_HEALTHY:
                self._lat_armed = True
            raw = max(
                fill_level, lat_level if self._lat_armed else LEVEL_HEALTHY
            )
            if raw > self._level:
                self._set_level(raw)
                self._cool = 0
            elif fill_level < self._level:
                self._cool += 1
                if self._cool >= self.config.cooldown:
                    if self._level == LEVEL_STALE and not drained:
                        return self._level
                    if self._lat_armed and lat_level >= self._level:
                        self._lat_armed = False
                    self._set_level(self._level - 1)
                    self._cool = 0
            else:
                self._cool = 0
            return self._level

    def _maybe_evaluate(self) -> None:
        with self._lock:
            self._admissions += 1
            due = self._admissions % self.config.evaluate_every == 0
        if due:
            self.evaluate()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _shed_phase(self, name: str) -> float:
        crc = zlib.crc32(name.encode("utf-8")) / 2**32
        return (crc + self.config.seed * _GOLDEN) % 1.0

    def _keep_mask(self, name: str, offset: int, size: int, fraction: float):
        positions = np.arange(offset + 1, offset + size + 1, dtype=np.float64)
        u = (positions * _GOLDEN + self._shed_phase(name)) % 1.0
        return u >= fraction

    def admit(self, name: str, batch) -> tuple[np.ndarray, int]:
        """Admit a batch for one stream: ``(kept_batch, shed_points)``.

        Applies the ladder (deterministic shedding of sheddable
        streams), then the tenant's token bucket on the kept points
        (with the throttle clamp inflating sheddable cost).  Raises
        :class:`QuotaExceededError` when the bucket refuses; nothing is
        counted or sampled on refusal, so a retried batch sheds the
        same positions.
        """
        batch = np.asarray(batch, dtype=np.float64)
        size = int(batch.size)
        if size == 0:
            return batch, 0
        self._maybe_evaluate()
        with self._lock:
            record = self._streams.get(name)
            if record is None:
                return batch, 0
            sheddable = record.priority >= self.config.shed_priority_floor
            level = self._level
            kept = batch
            shed = 0
            if sheddable and level >= LEVEL_SHED:
                fraction = (
                    1.0 if level >= LEVEL_STALE else self.config.shed_fraction
                )
                mask = self._keep_mask(name, record.shed_offset, size, fraction)
                kept = batch[mask]
                shed = size - int(kept.size)
            if kept.size:
                self._charge(name, record, sheddable, kept.size, "{} points")
                self._count(ADMITTED_METRIC, record, int(kept.size))
            record.shed_offset += size
            if shed:
                with self._count_lock:
                    record.shed_points += shed
                self._count(SHED_METRIC, record, shed)
        return kept, shed

    def admit_retry(self, name: str, points: int) -> None:
        """All-or-nothing admission for dead-letter retries.

        Retried poison records re-enter admission like fresh traffic:
        refused outright while the ladder sheds the stream, and charged
        to the tenant bucket otherwise.
        """
        if points <= 0:
            return
        with self._lock:
            record = self._streams.get(name)
            if record is None:
                return
            sheddable = record.priority >= self.config.shed_priority_floor
            if sheddable and self._level >= LEVEL_SHED:
                self._count(THROTTLED_METRIC, record, points)
                raise QuotaExceededError(
                    f"stream {name!r} is being shed "
                    f"(level {self.level_name()}); dead-letter retry refused",
                    retry_after=_LADDER_RETRY_AFTER,
                    tenant=record.tenant,
                    stream=name,
                )
            self._charge(
                name, record, sheddable, points, "dead-letter retry of {} points"
            )
            self._count(ADMITTED_METRIC, record, points)

    def _charge(
        self, name: str, record: _StreamRecord, sheddable: bool, points: int,
        refused: str,
    ) -> None:
        """Take ``points`` from the tenant's bucket (a sheddable stream's
        cost inflated at ``throttle``); a refusal counts as throttled and
        raises :class:`QuotaExceededError` naming the points by the
        ``refused`` template.  Caller holds ``self._lock``."""
        cost = float(points)
        if sheddable and self._level >= LEVEL_THROTTLE:
            cost /= self.config.throttle_factor
        bucket = self._bucket(record.tenant)
        if bucket is None:
            return
        retry_after = bucket.try_take(cost, self._clock())
        if retry_after > 0.0:
            self._count(THROTTLED_METRIC, record, points)
            raise QuotaExceededError(
                f"tenant {record.tenant!r} over quota on stream {name!r}: "
                f"{refused.format(points)} refused; retry in {retry_after:.3f}s",
                retry_after=retry_after, tenant=record.tenant, stream=name,
            )

    def _bucket(self, tenant: str) -> _TokenBucket | None:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.config.quota_for(tenant)
            if quota is None:
                return None
            bucket = _TokenBucket(quota, self._clock())
            self._buckets[tenant] = bucket
        return bucket

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def _count(self, metric: str, record: _StreamRecord, points: int) -> None:
        self.registry.counter(
            metric, tenant=record.tenant, priority=str(record.priority)
        ).inc(points)
        with self._count_lock:
            if metric == ADMITTED_METRIC:
                self._admitted_points += points
            elif metric == SHED_METRIC:
                self._shed_points += points
            else:
                self._throttled_points += points

    def note_shed(self, name: str, points: int) -> None:
        """Account points evicted elsewhere (drop_oldest) as shed mass.

        Lock-free with respect to the controller's main lock: callers
        may hold worker queue locks that :meth:`evaluate` reads under
        the main lock.
        """
        record = self._streams.get(name)
        if record is None or points <= 0:
            return
        self.count_shed(record.tenant, record.priority, points)
        with self._count_lock:
            record.shed_points += points

    def count_shed(self, tenant: str, priority: int, points: int) -> None:
        """Raw shed accounting when no registered stream applies."""
        self.registry.counter(
            SHED_METRIC, tenant=tenant, priority=str(priority)
        ).inc(points)
        with self._count_lock:
            self._shed_points += points

    def snapshot(self) -> dict:
        """JSON-friendly view of quotas, ladder and totals (re-evaluates)."""
        self.evaluate()
        with self._lock, self._count_lock:
            return {
                "level": self.level_name(),
                "level_index": self._level,
                "forced": (
                    DEGRADATION_LEVELS[self._forced]
                    if self._forced is not None
                    else None
                ),
                "admitted_points": self._admitted_points,
                "shed_points": self._shed_points,
                "throttled_points": self._throttled_points,
                "tenants": {
                    tenant: {
                        "rate": bucket.rate,
                        "burst": bucket.burst,
                        "tokens": round(bucket.tokens, 3),
                    }
                    for tenant, bucket in sorted(self._buckets.items())
                },
                "streams": {
                    name: {
                        "tenant": record.tenant,
                        "priority": record.priority,
                        "sheddable": (
                            record.priority >= self.config.shed_priority_floor
                        ),
                        "shed_points": record.shed_points,
                    }
                    for name, record in sorted(self._streams.items())
                },
            }


def tier_controller(
    qos: QoSConfig | QoSController | None,
    registry: MetricsRegistry,
    signals,
    drained,
) -> QoSController | None:
    """The QoS controller a tier runs, wired to that tier.

    Built from a config, or the caller's own controller (which keeps its
    clock).  Either way it records into the tier's ``registry`` and reads
    the tier's ``signals`` and ``drained`` checks (see
    :meth:`QoSController.set_signal_source` and
    :meth:`QoSController.set_drained`).
    """
    if qos is None:
        return None
    if isinstance(qos, QoSController):
        qos.bind_registry(registry)
        controller = qos
    else:
        controller = QoSController(qos, registry=registry)
    controller.set_signal_source(signals)
    controller.set_drained(drained)
    return controller
