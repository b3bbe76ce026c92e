"""Maintainer adapters for the sliding-window and turnstile synopses.

``"eh_count"`` hosts an :class:`~repro.counting.eh.ExponentialHistogram`
(sliding-window counting over the last ``n`` arrivals) and
``"cr_precis"`` a :class:`~repro.counting.cr_precis.CRPrecis`
(turnstile frequencies with deletions).  Both speak the
:class:`~repro.runtime.maintainer.UpdateMaintainer` contract: the
turnstile backend takes signed deltas, the windowed backend takes
``update(value, count)`` as "``count`` more arrivals of ``value``" and
rejects negative deltas -- a sliding window cannot retract an arrival.

On the ``extend`` channel (the one queues, snapshots, and shard frames
use) ``eh_count`` consumes plain non-negative integer-valued batches,
while ``cr_precis`` decodes the per-element signed-unit turnstile
encoding of :mod:`repro.counting.encoding`.
"""

from __future__ import annotations

import numpy as np

from ..runtime.maintainer import UpdateMaintainer
from .cr_precis import CRPrecis
from .eh import ExponentialHistogram
from .encoding import decode_updates

__all__ = ["EHCountMaintainer", "CRPrecisMaintainer"]


class EHCountMaintainer(UpdateMaintainer):
    """Sliding-window counting over the last ``window`` arrivals."""

    def __init__(
        self, window: int, epsilon: float, name: str | None = None
    ) -> None:
        super().__init__(name or f"eh_count(n={window}, eps={epsilon:g})")
        self._eh = ExponentialHistogram(window, epsilon)

    @property
    def backend(self) -> ExponentialHistogram:
        return self._eh

    def _ingest_batch(self, batch: np.ndarray) -> None:
        values = np.rint(batch).astype(np.int64)
        if values.size and values.min() < 0:
            raise ValueError(
                "sliding-window counting is insert-only: values must be"
                " non-negative (deletions are a turnstile concept; use"
                " the cr_precis backend)"
            )
        self._eh.extend(values)

    def _update(self, key: int, delta: int) -> None:
        if key < 0:
            raise ValueError("windowed counting takes non-negative values")
        if delta < 0:
            raise ValueError(
                "sliding-window counting is insert-only: update() deltas"
                " must be positive (arrivals cannot be retracted)"
            )
        self._eh.extend(np.full(delta, key, dtype=np.int64))

    def synopsis(self) -> ExponentialHistogram:
        return self._eh

    def _state_dict(self) -> dict:
        return {"eh": self._eh.to_dict()}

    def _load_state_dict(self, state: dict) -> None:
        self._eh = ExponentialHistogram.from_dict(state["eh"])


class CRPrecisMaintainer(UpdateMaintainer):
    """Deterministic CR-precis turnstile frequency summary."""

    def __init__(
        self, rows: int, base: int, domain: int, name: str | None = None
    ) -> None:
        super().__init__(
            name or f"cr_precis(t={rows}, base={base}, M={domain})"
        )
        self._table = CRPrecis(rows, base, domain)

    @property
    def backend(self) -> CRPrecis:
        return self._table

    def _ingest_batch(self, batch: np.ndarray) -> None:
        keys, deltas = decode_updates(batch)
        if keys.size and int(keys.max()) >= self._table.domain:
            raise ValueError(
                f"key {int(keys.max())} outside turnstile domain"
                f" [0, {self._table.domain})"
            )
        self._table.apply(keys, deltas)

    def _update(self, key: int, delta: int) -> None:
        # CRPrecis.update validates the key before touching any row.
        self._table.update(key, delta)

    def synopsis(self) -> CRPrecis:
        return self._table

    def _state_dict(self) -> dict:
        return {"table": self._table.to_dict()}

    def _load_state_dict(self, state: dict) -> None:
        self._table = CRPrecis.from_dict(state["table"])
