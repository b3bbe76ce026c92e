"""Durable checkpoint storage: binary full + delta snapshots in one directory.

One directory holds everything a service needs to come back from a
crash, and it is its own record: a stream's generations are its files.
The store is the only code that knows how state is laid out on disk:
callers hand :meth:`SnapshotStore.write` a maintainer's ``state_dict()``
and get the same dict back from :meth:`SnapshotStore.load_latest`,
whatever file kind it came from.

* ``{name}-{seq:08d}.snap`` -- a **format-3 full snapshot**, the only
  kind :meth:`~SnapshotStore.write` produces: an 8-byte magic, a
  sha256-guarded JSON header (spec, arrival counter, the state skeleton
  of :func:`repro.runtime.statecodec.flatten_state`), then the state's
  numeric bulk and the buffered tail as raw little-endian
  ``float64``/``int64`` sections, each with its own sha256.  The state
  comes back through ``.tolist()``; tail and delta batches are returned
  as zero-copy numpy views over the file bytes.
* ``{name}-{seq:08d}.delta`` -- a **delta checkpoint**: only the batches
  ingested since the previous checkpoint plus the current tail, in the
  same header+sections layout.  A chain of deltas hangs off its full
  *base* generation (``base_seq`` in every link); restore loads the base
  and rolls the chain forward.
* ``{name}-{seq:08d}.json`` -- a format-1/2 JSON snapshot of an older
  store.  Those formats are retired: such a generation is listed like
  any other but refused on load with a :class:`SnapshotCorruptError`
  that names the format, so a directory of them never restores as
  empty.

Stream names are percent-encoded into filenames (``_encode_name``), and
``generations()`` matches an exact name + 8-digit-seq pattern, so
prefix-colliding names (``"a"`` vs ``"a-b"``) can never list, prune, or
fall back onto each other's files.  One listing per write gives the
next sequence number, the delta base (the head itself when it is a
full, the base its verified header names when it is a delta) and the
generations to prune.  A ``manifest.json`` left by an older store is
neither read nor rewritten.

Every write is atomic (temp file + ``fsync`` + ``os.replace`` +
**parent-directory fsync**, so the rename itself survives a crash), and
a checkpoint is one such write.  :meth:`SnapshotStore.load_latest`
verifies every byte it returns and falls back generation by generation
-- a corrupt delta truncates its chain to the verified prefix, a corrupt
base abandons the chain for the next older generation.  Corruption is a
typed :class:`SnapshotCorruptError`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import struct
import threading
import time
from pathlib import Path

import numpy as np

from ..runtime.statecodec import flatten_state, unflatten_state

__all__ = ["SnapshotCorruptError", "SnapshotStore"]

logger = logging.getLogger(__name__)

#: The one format this store writes and reads (formats 1 and 2, the JSON
#: layouts of older stores, are retired).
SNAPSHOT_FORMAT = 3

#: Binary snapshot magic: identifies both the family and the layout rev.
BINARY_MAGIC = b"RPSNAP03"

#: Filename suffix per snapshot kind.
SUFFIX_FULL = ".snap"
SUFFIX_DELTA = ".delta"
SUFFIX_JSON = ".json"
_SUFFIXES = (SUFFIX_JSON, SUFFIX_FULL, SUFFIX_DELTA)

#: ``{encoded name}-{seq:08d}{suffix}``: a generation file.  Encoded
#: names hold no ``-``, so the name is everything before the last one.
_GENERATION_FILE = re.compile(
    rf"^(.+)-(\d{{8}})({'|'.join(re.escape(s) for s in _SUFFIXES)})$"
)

_DTYPES = {"f8": np.dtype("<f8"), "i8": np.dtype("<i8")}

#: Characters allowed verbatim in snapshot filenames; everything else is
#: percent-encoded.  Valid service stream names (letters, digits, ``_``,
#: ``.``) encode to themselves, so legacy filenames stay addressable.
_SAFE_NAME = re.compile(r"[A-Za-z0-9_.]")


class SnapshotCorruptError(ValueError):
    """A snapshot-directory file failed structural / checksum validation."""


def _encode_name(name: str) -> str:
    """Stream name -> filename-safe token (percent-encoding, exact inverse)."""
    return "".join(
        ch if _SAFE_NAME.fullmatch(ch) else
        "".join(f"%{byte:02X}" for byte in ch.encode("utf-8"))
        for ch in name
    )


def _decode_name(token: str) -> str:
    """Inverse of :func:`_encode_name`."""
    out = bytearray()
    i = 0
    while i < len(token):
        if token[i] == "%" and i + 3 <= len(token):
            try:
                out.extend(bytes.fromhex(token[i + 1 : i + 3]))
                i += 3
                continue
            except ValueError:
                pass  # not an escape we wrote; keep the literal "%"
        out.extend(token[i].encode("utf-8"))
        i += 1
    return out.decode("utf-8", errors="replace")


def _fsync_dir(directory: Path, injector=None) -> None:
    """fsync the directory so a completed ``os.replace`` survives a crash.

    Without this the rename lives only in the in-memory directory entry:
    power loss right after the replace can roll the directory back and
    silently lose the "newest" snapshot recovery then trusts.  The
    injector hook lets the chaos suite drop exactly this fsync to prove
    the failure mode is real (and caught).
    """
    if injector is not None and injector.on_dir_fsync(str(directory)):
        return
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes, injector=None) -> None:
    """Atomic durable write: tmp + fsync(file) + replace + fsync(dir)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent, injector)


def _as_batch_array(values) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


def _encode_binary(header: dict, sections: list[tuple[str, bytes]]) -> bytes:
    """Serialize header + raw sections into the ``RPSNAP03`` layout.

    ``magic | u32 header_len | sha256(header) | header JSON | sections``.
    The per-section offsets/digests are folded into the header before it
    is hashed, so the single header digest also pins the section table.
    """
    offset = 0
    table = []
    for name, data in sections:
        table.append(
            {
                "name": name,
                "offset": offset,
                "nbytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        )
        offset += len(data)
    header = {**header, "sections": table}
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [
            BINARY_MAGIC,
            struct.pack("<I", len(head)),
            hashlib.sha256(head).digest(),
            head,
            *(data for _, data in sections),
        ]
    )


def _decode_binary(raw: bytes, path_name: str) -> tuple[dict, dict[str, memoryview]]:
    """Parse and fully verify one binary snapshot file.

    Returns the header plus a name -> memoryview map of the verified
    sections (views into ``raw``; numpy reads them zero-copy).
    """
    view = memoryview(raw)
    fixed = len(BINARY_MAGIC) + 4 + 32
    if len(raw) < fixed or raw[: len(BINARY_MAGIC)] != BINARY_MAGIC:
        raise SnapshotCorruptError(f"{path_name}: not a binary snapshot")
    (head_len,) = struct.unpack_from("<I", raw, len(BINARY_MAGIC))
    head_start = fixed
    head_end = head_start + head_len
    if head_end > len(raw):
        raise SnapshotCorruptError(f"{path_name}: truncated header")
    head = bytes(view[head_start:head_end])
    stored = bytes(view[len(BINARY_MAGIC) + 4 : fixed])
    if hashlib.sha256(head).digest() != stored:
        raise SnapshotCorruptError(f"{path_name}: header checksum mismatch")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotCorruptError(
            f"{path_name}: header is not valid JSON: {error}"
        ) from error
    if header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotCorruptError(
            f"unsupported snapshot format {header.get('format')!r}"
        )
    sections: dict[str, memoryview] = {}
    body = view[head_end:]
    for entry in header.get("sections", []):
        start, nbytes = int(entry["offset"]), int(entry["nbytes"])
        if start + nbytes > len(body):
            raise SnapshotCorruptError(
                f"{path_name}: section {entry['name']!r} exceeds file size"
            )
        data = body[start : start + nbytes]
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise SnapshotCorruptError(
                f"{path_name}: section {entry['name']!r} checksum mismatch"
            )
        sections[entry["name"]] = data
    return header, sections


def _split_arrays(arrays) -> tuple[list[list], bytes]:
    """(dtype/count table, concatenated little-endian bytes) of arrays."""
    table = []
    chunks = []
    for array in arrays:
        code = "i8" if array.dtype.kind == "i" else "f8"
        data = np.ascontiguousarray(array, dtype=_DTYPES[code])
        table.append([code, int(data.size)])
        chunks.append(data.tobytes())
    return table, b"".join(chunks)


def _join_arrays(table, section: memoryview) -> list[np.ndarray]:
    """Inverse of :func:`_split_arrays`: zero-copy views into the section."""
    arrays = []
    offset = 0
    for code, count in table:
        dtype = _DTYPES[code]
        nbytes = dtype.itemsize * int(count)
        arrays.append(
            np.frombuffer(section[offset : offset + nbytes], dtype=dtype)
        )
        offset += nbytes
    return arrays


class SnapshotStore:
    """Snapshot directory manager for one service.

    ``keep`` bounds the retained generations per stream (>= 1; the
    default of 2 keeps one fallback generation behind the newest).
    Generations are counted in *full* snapshots: a delta chain lives and
    dies with its base, so pruning keeps the last ``keep`` bases plus
    every delta hanging off them and can never strand a delta.  An
    optional :class:`~repro.service.faults.FaultInjector` is consulted
    before every write so chaos suites can fail snapshots on schedule.
    Threads may share a store: no two streams share a file.
    """

    def __init__(
        self, directory, *, keep: int = 2, fault_injector=None, registry=None
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self._injector = fault_injector
        self._registry = registry
        # Held across a full's listing, write and prune: it guards one
        # stream's sequence numbers, so two writers never take the same.
        self._lock = threading.Lock()
        self.counters = {
            "writes": 0,
            "write_failures": 0,
            "corrupt_snapshots": 0,
            "fallback_loads": 0,
            "cleanup_errors": 0,
        }

    def _count(self, key: str, stream: str | None = None) -> None:
        """Bump a counter; mirrored per stream onto the registry if any."""
        self.counters[key] += 1
        if self._registry is not None:
            labels = {"stream": stream} if stream is not None else {}
            self._registry.counter(f"repro_snapshot_{key}_total", **labels).inc()

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------

    def write(self, name: str, payload: dict) -> Path:
        """Persist one full stream snapshot as the stream's next generation.

        ``payload`` carries the maintainer's ``state`` (its
        ``state_dict()``), the buffered ``tail`` batches, the
        ``arrivals`` counter, and any further JSON-serializable metadata
        (the service stores its stream ``spec``).  The state is split by
        :func:`~repro.runtime.statecodec.flatten_state` and written as a
        format-3 ``.snap`` in one atomic write; the same listing that
        numbered it then prunes the generations beyond ``keep``.  Write
        failures (including injected ones) are counted and re-raised;
        the previous generations are left untouched.
        """
        with self._lock:
            files = self.generations(name)
            seq = path_seq(files[-1]) + 1 if files else 1
            path = self._commit(
                name, seq, SUFFIX_FULL, self._encode_full(name, seq, payload)
            )
            self._prune(name, [*files, path])
        return path

    def encode_delta(
        self,
        name: str,
        *,
        arrivals: int,
        from_arrivals: int,
        batches,
        tail,
        cut: int | None = None,
    ) -> tuple[dict, bytes] | None:
        """A delta chained onto the newest generation, encoded but not
        written: ``(header, data)``, None without a head (or a known base)
        to chain onto.

        The base is the head itself when it is a full, and the base the
        head's verified header names when it is a delta; an unreadable
        delta head leaves no base.  ``batches`` are the
        ``(start_arrival, batch)`` pairs ingested since the previous
        checkpoint (which ended at ``from_arrivals``); ``tail`` is the
        currently buffered, not-yet-ingested suffix.  ``cut`` is the
        writer's own mark for this point (the shard host's frame
        watermark), kept in the header; a full snapshot keeps it with
        its other metadata.
        """
        files = self.generations(name)
        if not files:
            return None
        head = files[-1]
        head_seq = base_seq = path_seq(head)
        if head.name.endswith(SUFFIX_DELTA):
            try:
                base_seq = int(self._load_binary(head, name)[0]["base_seq"])
            except (KeyError, TypeError, ValueError) as error:
                logger.warning("delta head %s: %s", head.name, error)
                return None
        batch_arrays = [
            (int(start), _as_batch_array(batch)) for start, batch in batches
        ]
        tail_arrays = [_as_batch_array(batch) for batch in tail]
        header = {
            "format": SNAPSHOT_FORMAT,
            "kind": "delta",
            "stream": name,
            "seq": head_seq + 1,
            "base_seq": base_seq,
            "prev_seq": head_seq,
            "created_at": time.time(),
            "arrivals": int(arrivals),
            "from_arrivals": int(from_arrivals),
            "batch_starts": [start for start, _ in batch_arrays],
            "batch_lengths": [int(b.size) for _, b in batch_arrays],
            "tail_lengths": [int(b.size) for b in tail_arrays],
        }
        if cut is not None:
            header["cut"] = int(cut)
        sections = [
            ("batches", b"".join(b.tobytes() for _, b in batch_arrays)),
            ("tail", b"".join(b.tobytes() for b in tail_arrays)),
        ]
        return header, _encode_binary(header, sections)

    def commit_delta(self, delta: tuple[dict, bytes]) -> Path:
        """Write an :meth:`encode_delta` result as the stream's next
        generation, one atomic write like :meth:`write`."""
        header, data = delta
        return self._commit(header["stream"], header["seq"], SUFFIX_DELTA, data)

    def _commit(self, name: str, seq: int, suffix: str, data: bytes) -> Path:
        """Write generation ``seq`` of ``name``, counting the outcome."""
        path = self.directory / f"{_encode_name(name)}-{seq:08d}{suffix}"
        try:
            if self._injector is not None:
                self._injector.on_snapshot_write(name, seq)
            _atomic_write(path, data, self._injector)
        except OSError:
            self._count("write_failures", name)
            raise
        self._count("writes", name)
        return path

    def retire(self, name: str) -> None:
        """Delete every generation of ``name`` (a failed unlink raises)."""
        for path in self.generations(name):
            path.unlink()

    def _encode_full(self, name: str, seq: int, payload: dict) -> bytes:
        """Binary-encode a full snapshot payload."""
        meta = dict(payload)
        skeleton, arrays = flatten_state(meta.pop("state"))
        tail_arrays = [_as_batch_array(b) for b in meta.pop("tail", [])]
        table, state_blob = _split_arrays(arrays)
        header = {
            "format": SNAPSHOT_FORMAT,
            "kind": "full",
            "stream": name,
            "seq": seq,
            "created_at": time.time(),
            "arrivals": int(meta.get("arrivals", 0)),
            "meta": meta,
            "state_skeleton": skeleton,
            "state_arrays": table,
            "tail_lengths": [int(b.size) for b in tail_arrays],
        }
        sections = [
            ("state", state_blob),
            ("tail", b"".join(b.tobytes() for b in tail_arrays)),
        ]
        return _encode_binary(header, sections)

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------

    def load_latest(self, name: str) -> dict:
        """The most recent *verifiable* snapshot payload of ``name``.

        Every file kind comes back in one shape: the written metadata
        plus ``arrivals``, ``state``, ``tail`` (float64 batches) and
        ``chain_bytes`` (see :meth:`_resolve`).

        Tries the on-disk generations newest first, falling back to the
        next older one whenever a file is corrupt, truncated, unreadable,
        or fails a checksum.  A delta head resolves its whole chain: the
        base is loaded, the verified delta prefix is folded into the
        returned payload's ``tail`` (so the restored worker replays
        exactly the points the deltas recorded), and a corrupt link
        truncates the chain at the last good delta.  Raises ``KeyError``
        when the stream has no snapshot at all and
        :class:`SnapshotCorruptError` when every generation is bad.
        """
        candidates = self.generations(name)[::-1]
        if not candidates:
            raise KeyError(f"no snapshot recorded for stream {name!r}")
        failures: list[str] = []
        for position, path in enumerate(candidates):
            try:
                payload = self._resolve(path, name)
            except SnapshotCorruptError as error:
                self._count("corrupt_snapshots", name)
                logger.warning("snapshot %s rejected: %s", path.name, error)
                failures.append(f"{path.name}: {error}")
                continue
            if position > 0:
                self._count("fallback_loads", name)
                logger.warning(
                    "stream %r: fell back to snapshot generation %s",
                    name, path.name,
                )
            return payload
        raise SnapshotCorruptError(
            f"every snapshot generation of stream {name!r} is corrupt: "
            + "; ".join(failures)
        )

    def streams(self) -> list[str]:
        """Stream names with at least one generation on disk, sorted."""
        names = set()
        for filename in os.listdir(self.directory):
            match = _GENERATION_FILE.match(filename)
            if match is not None:
                names.add(_decode_name(match.group(1)))
        return sorted(names)

    def generations(self, name: str) -> list[Path]:
        """On-disk snapshot files of exactly ``name``, oldest first.

        Matches the precise ``{encoded-name}-{8 digits}{suffix}``
        pattern, so stream ``"a"`` never sees ``"a-b"``'s files (the
        old ``{name}-*.json`` glob did).
        """
        token = _encode_name(name)
        matches = []
        for filename in os.listdir(self.directory):
            if not filename.startswith(token):
                continue  # another stream's file: skip the regex
            match = _GENERATION_FILE.match(filename)
            if match is not None and match.group(1) == token:
                matches.append((int(match.group(2)), filename))
        return [self.directory / filename for _, filename in sorted(matches)]

    def _resolve(self, path: Path, name: str) -> dict:
        """Verified payload of one head candidate (chain-resolved), with
        ``chain_bytes``: ``[full, deltas]``, the bytes of the full it rests
        on less its tail, and of the delta links it rolled forward."""
        if path.name.endswith(SUFFIX_JSON):
            raise SnapshotCorruptError(
                "a format-1/2 JSON snapshot; those formats are retired, "
                f"this store reads format {SNAPSHOT_FORMAT} only"
            )
        header, sections = self._load_binary(path, name)
        if header.get("kind") == "delta":
            return self._resolve_chain(header, name)
        payload = self._full_payload(header, sections)
        tail = sum(int(batch.size) for batch in payload["tail"])
        payload["chain_bytes"] = [path.stat().st_size - 8 * tail, 0]
        return payload

    def _load_binary(self, path: Path, name: str):
        try:
            raw = path.read_bytes()
        except OSError as error:
            raise SnapshotCorruptError(
                f"unreadable snapshot {path.name}: {error}"
            ) from error
        header, sections = _decode_binary(raw, path.name)
        if header.get("stream") != name:
            raise SnapshotCorruptError(
                f"snapshot {path.name} belongs to stream "
                f"{header.get('stream')!r}, not {name!r}"
            )
        return header, sections

    def _full_payload(self, header: dict, sections) -> dict:
        arrays = _join_arrays(
            header.get("state_arrays", []), sections.get("state", b"")
        )
        return {
            "format": header["format"],
            "stream": header["stream"],
            "seq": header["seq"],
            "created_at": header["created_at"],
            "arrivals": header.get("arrivals", 0),
            **header.get("meta", {}),
            "state": unflatten_state(header.get("state_skeleton"), arrays),
            "tail": _split_tail(
                header.get("tail_lengths", []), sections.get("tail", b"")
            ),
        }

    def _resolve_chain(self, head: dict, name: str) -> dict:
        """Base payload + the verified delta prefix up to ``head``.

        The chain is replayed positionally: starting at the base's
        arrival counter, a delta batch is accepted when it starts
        exactly at the current position, skipped when it re-states an
        already-covered range (a delta written after a mid-chain restore
        does that), and the chain is truncated at the first gap or
        unverifiable link.  Each delta carries the tail as of its
        checkpoint, so truncation at any link still yields the
        consistent (state, arrivals, tail) triple that link persisted,
        and the ``cut`` it recorded (None when it recorded none).
        """
        base_seq = int(head["base_seq"])
        base_path = self._chain_file(name, base_seq)
        if base_path is None:
            raise SnapshotCorruptError(
                f"delta chain of stream {name!r} has no base generation "
                f"{base_seq:08d}"
            )
        payload = self._resolve(base_path, name)
        position = int(payload.get("arrivals", 0))
        accepted: list[np.ndarray] = []
        tail, cut = payload["tail"], payload.get("cut")
        truncated = False
        for seq in range(base_seq + 1, int(head["seq"]) + 1):
            delta_path = self._chain_file(name, seq, delta=True)
            if delta_path is None:
                truncated = True
                break
            try:
                header, sections = self._load_binary(delta_path, name)
                if header.get("kind") != "delta" or int(header["base_seq"]) != base_seq:
                    raise SnapshotCorruptError(
                        f"{delta_path.name}: not a link of chain base "
                        f"{base_seq:08d}"
                    )
                batches = _split_batches(header, sections["batches"])
            except SnapshotCorruptError as error:
                self._count("corrupt_snapshots", name)
                logger.warning("delta %s rejected: %s", delta_path.name, error)
                truncated = True
                break
            advanced = False
            gap = False
            for start, batch in batches:
                if start == position:
                    accepted.append(batch)
                    position += int(batch.size)
                    advanced = True
                elif start + int(batch.size) <= position:
                    continue  # already covered by an earlier link
                else:
                    gap = True
                    break
            if gap:
                self._count("corrupt_snapshots", name)
                logger.warning(
                    "delta %s leaves an arrival gap at %d; chain truncated",
                    delta_path.name, position,
                )
                truncated = True
                break
            if advanced or int(header.get("arrivals", position)) == position:
                tail = _split_tail(
                    header.get("tail_lengths", []), sections.get("tail", b"")
                )
                cut = header.get("cut")
            payload["chain_bytes"][1] += delta_path.stat().st_size
        if truncated:
            self._count("fallback_loads", name)
        payload["tail"] = list(accepted) + list(tail)
        if cut is not None or "cut" in payload:
            payload["cut"] = cut
        return payload

    def _chain_file(
        self, name: str, seq: int, *, delta: bool = False
    ) -> Path | None:
        """The on-disk file of generation ``seq``, if any."""
        suffix = SUFFIX_DELTA if delta else SUFFIX_FULL
        path = self.directory / f"{_encode_name(name)}-{seq:08d}{suffix}"
        return path if path.exists() else None

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def _prune(self, name: str, files: list[Path]) -> None:
        """Drop ``name``'s generations (``files``, oldest first) beyond
        ``keep``, counting (not hiding) errors.

        ``keep`` counts full snapshots; everything older than the oldest
        retained full is deleted.  Deltas between retained fulls (or
        after the newest) survive with their base, so the cut can never
        strand a delta whose base is gone.
        """
        full_seqs = [
            path_seq(path)
            for path in files
            if not path.name.endswith(SUFFIX_DELTA)
        ]
        if len(full_seqs) <= self.keep:
            return
        cutoff = full_seqs[-self.keep]
        for stale in files:
            if path_seq(stale) >= cutoff:
                continue
            try:
                stale.unlink()
            except OSError as error:
                self._count("cleanup_errors", name)
                logger.warning(
                    "could not remove stale snapshot %s: %s", stale, error
                )


def path_seq(path: Path) -> int:
    """Sequence number embedded in a generation's filename."""
    return int(_GENERATION_FILE.match(path.name).group(2))


def _split_tail(lengths, section) -> list[np.ndarray]:
    """Tail section -> list of float64 batch views."""
    batches = []
    offset = 0
    for length in lengths:
        nbytes = 8 * int(length)
        batches.append(
            np.frombuffer(section[offset : offset + nbytes], dtype="<f8")
        )
        offset += nbytes
    return batches


def _split_batches(header: dict, section) -> list[tuple[int, np.ndarray]]:
    """Delta batches section -> (start_arrival, batch) views."""
    starts = header.get("batch_starts", [])
    lengths = header.get("batch_lengths", [])
    if len(starts) != len(lengths):
        raise SnapshotCorruptError("delta batch table is inconsistent")
    batches = []
    offset = 0
    for start, length in zip(starts, lengths):
        nbytes = 8 * int(length)
        if offset + nbytes > len(section):
            raise SnapshotCorruptError("delta batches exceed section size")
        batches.append(
            (
                int(start),
                np.frombuffer(section[offset : offset + nbytes], dtype="<f8"),
            )
        )
        offset += nbytes
    return batches
