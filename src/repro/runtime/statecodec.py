"""Split a ``state_dict`` into a JSON skeleton plus raw numeric arrays.

Maintainer state is dominated by long numeric lists -- window buffers,
GK tuple triples, histogram bucket tables -- serialized as JSON text at
~30 bytes per number.  :func:`flatten_state` walks a ``state_dict`` and
pulls those lists out as contiguous little-endian ``float64``/``int64``
numpy arrays, leaving a small JSON-serializable *skeleton* behind with
placeholder nodes pointing at the extracted arrays.  The snapshot store
(:mod:`repro.service.snapshot`) is the codec's one user: it flattens
every maintainer's ``state_dict()`` on write, storing the skeleton as a
short JSON header and the arrays as raw sections (8 bytes per number),
and unflattens on read.

:func:`unflatten_state` is the exact inverse: placeholders are replaced
with ``array.tolist()`` output, so the restored structure is the same
Python object tree JSON round-tripping would have produced (extracted
floats -- ``-0.0``, infinities and NaN payloads included -- and int64
ints round-trip bit-identically).
Anything the codec cannot represent exactly -- short lists, ragged
tables, mixed int/float columns, strings -- simply stays in the
skeleton; the split is lossless by construction.

Two list shapes are extracted:

* homogeneous 1-D: every element the same numeric type (``float`` or
  in-range ``int``; ``bool`` is excluded), at least :data:`MIN_EXTRACT`
  elements;
* rectangular 2-D with per-column homogeneous types (GK's
  ``[[value, g, delta], ...]`` triples: one float column, two int
  columns) -- stored column-wise as one array per column.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flatten_state", "unflatten_state", "MIN_EXTRACT"]

#: Shorter lists stay in the JSON skeleton; extracting them would cost
#: more placeholder text than the raw section saves.
MIN_EXTRACT = 4

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: Placeholder keys; a real state dict must not use them.
_ARRAY_KEY = "__nd__"
_COLUMNS_KEY = "__ndcols__"
_RESERVED = (_ARRAY_KEY, _COLUMNS_KEY)

_DTYPES = {"f8": np.dtype("<f8"), "i8": np.dtype("<i8")}


def _scalar_code(value) -> str | None:
    """``"f8"`` / ``"i8"`` for exactly representable scalars, else None."""
    kind = type(value)
    if kind is float:
        return "f8"
    if kind is int and _INT64_MIN <= value <= _INT64_MAX:
        return "i8"
    return None


def _column_code(values, column: int) -> str | None:
    """Uniform scalar code of one column of a rectangular 2-D list."""
    code = _scalar_code(values[0][column])
    if code is None:
        return None
    for row in values:
        if _scalar_code(row[column]) != code:
            return None
    return code


def _list_code(values) -> str | None:
    """Uniform scalar code of a flat list, or None if not extractable:
    :func:`_scalar_code`'s answer for every element, found in C."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return "f8"
    if kinds == {int} and _INT64_MIN <= min(values) and max(values) <= _INT64_MAX:
        return "i8"
    return None


def _rectangular(values) -> int:
    """Common row length of a 2-D list of lists, or -1 if ragged/not 2-D."""
    first = values[0]
    if type(first) is not list or not first:
        return -1
    width = len(first)
    for row in values:
        if type(row) is not list or len(row) != width:
            return -1
    return width


def _flatten(node, arrays: list[np.ndarray]):
    if isinstance(node, dict):
        for key in _RESERVED:
            if key in node:
                raise ValueError(
                    f"state dict uses reserved codec key {key!r}"
                )
        return {key: _flatten(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        if len(node) >= MIN_EXTRACT:
            code = _list_code(node)
            if code is not None:
                arrays.append(np.asarray(node, dtype=_DTYPES[code]))
                return {_ARRAY_KEY: len(arrays) - 1, "dt": code}
            width = _rectangular(node)
            if width > 0:
                codes = [_column_code(node, c) for c in range(width)]
                if all(code is not None for code in codes):
                    indices = []
                    for column, code in enumerate(codes):
                        arrays.append(
                            np.asarray(
                                [row[column] for row in node],
                                dtype=_DTYPES[code],
                            )
                        )
                        indices.append(len(arrays) - 1)
                    return {_COLUMNS_KEY: indices, "dts": codes}
        return [_flatten(value, arrays) for value in node]
    return node


def _unflatten(node, arrays):
    if isinstance(node, dict):
        if _ARRAY_KEY in node:
            return arrays[node[_ARRAY_KEY]].tolist()
        if _COLUMNS_KEY in node:
            columns = [arrays[index].tolist() for index in node[_COLUMNS_KEY]]
            return [list(row) for row in zip(*columns)]
        return {key: _unflatten(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_unflatten(value, arrays) for value in node]
    return node


def flatten_state(state: dict) -> tuple[dict, list[np.ndarray]]:
    """Split ``state`` into a JSON skeleton and extracted numeric arrays.

    Returns ``(skeleton, arrays)``: placeholder dicts in the skeleton
    reference ``arrays`` by index.  Raises ``ValueError`` if the state
    collides with the reserved placeholder keys.
    """
    arrays: list[np.ndarray] = []
    return _flatten(state, arrays), arrays


def unflatten_state(skeleton: dict, arrays) -> dict:
    """Exact inverse of :func:`flatten_state`.

    ``arrays`` may be any indexable of numpy arrays (as produced by the
    flattener or read back from a binary snapshot's sections).
    """
    return _unflatten(skeleton, arrays)
