"""Declarative service configuration: TOML/JSON -> a running service.

A config file describes one service -- its tier (``threaded`` or
``sharded``), durability, and hosted streams -- and
:func:`build_service` turns it into the matching
:class:`~repro.service.protocol.ServiceProtocol` implementation.
``python -m repro.service`` (see :mod:`repro.service.__main__`) is the
CLI around this module.

TOML example::

    mode = "sharded"
    shards = 4
    snapshot_dir = "snapshots"

    [[streams]]
    name = "cpu"
    backend = "gk_quantiles"
    maintain_every = 64
    [streams.params]
    epsilon = 0.05

    [[streams]]
    name = "latency"
    backend = "fixed_window"
    tenant = "gold"
    priority = 0
    [streams.params]
    window_size = 1024
    num_buckets = 16
    epsilon = 0.1

    [qos]
    shed_fraction = 0.5
    [qos.default]
    rate = 50_000
    burst = 100_000
    [qos.tenants.gold]
    rate = 200_000
    burst = 400_000

An optional ``[qos]`` table (see
:class:`~repro.service.qos.QoSConfig`) turns on multi-tenant admission
control and the graceful-degradation ladder on either tier.

The JSON shape is identical (``{"mode": ..., "streams": [...]}``).
TOML needs :mod:`tomllib` (Python 3.11+); JSON works everywhere, so on
3.10 use a ``.json`` config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .qos import QoSConfig
from .service import StreamService, StreamSpec

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10 fallback path
    tomllib = None

__all__ = ["ServiceConfig", "build_service", "load_config"]

_MODES = ("threaded", "sharded")

#: Stream-table keys that feed StreamSpec (everything except "name").
_SPEC_KEYS = (
    "backend",
    "params",
    "maintain_every",
    "queue_capacity",
    "backpressure",
    "checkpoint_every",
    "poison",
    "accuracy",
    "tenant",
    "priority",
)

#: Top-level keys an older version read; a config naming one still loads.
#: ``snapshot_base_every`` went when checkpoints began choosing their own
#: shape by size.
_RETIRED_KEYS = ("snapshot_base_every",)


@dataclass(frozen=True)
class ServiceConfig:
    """One parsed service configuration."""

    mode: str = "threaded"
    shards: int = 4
    snapshot_dir: str | None = None
    snapshot_keep: int = 2
    virtual_nodes: int = 64
    supervise: bool = True
    qos: QoSConfig | None = None
    streams: tuple[tuple[str, StreamSpec], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; use one of {_MODES}"
            )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        names = [name for name, _ in self.streams]
        if len(names) != len(set(names)):
            raise ValueError("duplicate stream names in config")

    @classmethod
    def from_dict(cls, payload: dict) -> "ServiceConfig":
        """Parse a config mapping.  A key an older version read and
        this one retired (``_RETIRED_KEYS``) is ignored."""
        known = {
            "mode",
            "shards",
            "snapshot_dir",
            "snapshot_keep",
            "virtual_nodes",
            "supervise",
            "qos",
            "streams",
        }
        unknown = sorted(set(payload) - known - set(_RETIRED_KEYS))
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        streams = []
        for entry in payload.get("streams", []):
            if "name" not in entry:
                raise ValueError("every [[streams]] table needs a 'name'")
            if "backend" not in entry:
                raise ValueError(
                    f"stream {entry['name']!r} needs a 'backend'"
                )
            extra = sorted(set(entry) - {"name"} - set(_SPEC_KEYS))
            if extra:
                raise ValueError(
                    f"stream {entry['name']!r} has unknown keys: "
                    f"{', '.join(extra)}"
                )
            spec_fields = {
                key: entry[key] for key in _SPEC_KEYS if key in entry
            }
            streams.append((entry["name"], StreamSpec.from_dict(spec_fields)))
        return cls(
            mode=payload.get("mode", "threaded"),
            shards=int(payload.get("shards", 4)),
            snapshot_dir=payload.get("snapshot_dir"),
            snapshot_keep=int(payload.get("snapshot_keep", 2)),
            virtual_nodes=int(payload.get("virtual_nodes", 64)),
            supervise=bool(payload.get("supervise", True)),
            qos=(
                QoSConfig.from_dict(payload["qos"])
                if payload.get("qos") is not None
                else None
            ),
            streams=tuple(streams),
        )


def load_config(path) -> ServiceConfig:
    """Parse a ``.toml`` or ``.json`` config file."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        if tomllib is None:
            raise RuntimeError(
                "TOML configs need Python 3.11+ (tomllib); "
                "use a .json config on this interpreter"
            )
        payload = tomllib.loads(path.read_text())
    elif suffix == ".json":
        payload = json.loads(path.read_text())
    else:
        raise ValueError(
            f"unsupported config suffix {suffix!r}; use .toml or .json"
        )
    return ServiceConfig.from_dict(payload)


def _open_tier(config: ServiceConfig, *, restore: bool):
    """The configured tier, empty or restored from ``snapshot_dir``.

    Both ways take every durability and QoS setting from the config; a
    restored router reads its ring geometry from its own manifest.
    """
    options = dict(snapshot_keep=config.snapshot_keep, qos=config.qos)
    if config.mode == "sharded":
        from ..shard.router import ShardRouter

        tier = ShardRouter
        options.update(
            num_shards=config.shards,
            virtual_nodes=config.virtual_nodes,
            supervise_workers=config.supervise,
        )
    else:
        tier = StreamService
        options.update(supervise=config.supervise)
    if restore:
        return tier.restore(config.snapshot_dir, **options)
    return tier(snapshot_dir=config.snapshot_dir, **options)


def build_service(config: ServiceConfig):
    """A started service with every configured stream created.

    ``threaded`` builds a supervised in-process
    :class:`~repro.service.service.StreamService`; ``sharded`` builds a
    :class:`~repro.shard.router.ShardRouter` with ``config.shards``
    processes.  Both subclass
    :class:`~repro.service.protocol.ServiceProtocol`.
    """
    service = _open_tier(config, restore=False)
    try:
        for name, spec in config.streams:
            service.create_stream(name, spec=spec)
    except Exception:
        service.close(checkpoint=False)
        raise
    return service
