"""Snapshot integrity: checksums, generation fallback, typed corruption.

Pins the durability half of the fault-tolerance contract across both
on-disk kinds (format-3 binary fulls and format-3 deltas): every file is
checksummed and verified on load; loads fall back generation by
generation when the newest file is corrupt, truncated, or mislabeled (a
missing one leaves the previous generation as the newest); a corrupt
delta link truncates its chain to the verified prefix; corruption
surfaces as the typed :class:`SnapshotCorruptError`, and so does a
format-1/2 JSON generation an older store left (those formats are
retired); the files are the only record (a ``manifest.json`` an older
store left is ignored), and a checkpoint is one atomic write; filenames
isolate prefix-colliding stream names; and pruning never strands a
delta without its base.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.service import SnapshotCorruptError, SnapshotStore, snapshot
from repro.service.faults import FaultInjector
from repro.service.snapshot import (
    BINARY_MAGIC,
    _decode_binary,
    _encode_binary,
    _encode_name,
)


def payload(arrivals, marker):
    return {"arrivals": arrivals, "state": {"marker": marker}, "tail": []}


def state_payload(arrivals, values, tail=()):
    """A payload whose state has numeric bulk for the binary sections."""
    return {
        "arrivals": arrivals,
        "spec": {"backend": "stub"},
        "state": {"w": [float(v) for v in values], "scalar": 7},
        "tail": [np.asarray(t, dtype=np.float64) for t in tail],
    }


class TestChecksums:
    def test_bitflip_fails_checksum(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=1)
        path = store.write("s", payload(10, "a"))
        raw = path.read_bytes()
        tampered = raw.replace(b'"arrivals":10', b'"arrivals":99', 1)
        assert tampered != raw  # same length, still valid JSON
        path.write_bytes(tampered)
        with pytest.raises(SnapshotCorruptError, match="checksum mismatch"):
            store.load_latest("s")

    def test_unknown_format_rejected(self, tmp_path):
        """A format-1/2 ``.json`` generation an older store wrote is
        listed but refused with the retired-format message, never
        skipped, so its stream cannot restore as empty; a binary header
        of another format is refused too."""
        store = SnapshotStore(tmp_path, keep=1)
        body = {"format": 2, "stream": "s", "seq": 1, **payload(5, "old")}
        (tmp_path / "s-00000001.json").write_text(json.dumps(body))
        assert store.streams() == ["s"]
        with pytest.raises(SnapshotCorruptError, match="format-1/2 JSON.*retired"):
            store.load_latest("s")
        assert store.counters["corrupt_snapshots"] == 1
        data = _encode_binary({"format": 4, "stream": "s"}, [])
        with pytest.raises(SnapshotCorruptError, match="unsupported snapshot format 4"):
            _decode_binary(data, "s-00000002.snap")


class TestBinaryFormat:
    def test_write_always_produces_binary_snap(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for state in ({}, {"marker": "a"}, state_payload(0, [1.5] * 8)["state"]):
            path = store.write("s", {"arrivals": 8, "state": state})
            assert path.suffix == ".snap"
            assert path.read_bytes().startswith(BINARY_MAGIC)
            assert store.load_latest("s")["state"] == state

    def test_binary_round_trip_is_bit_identical(self, tmp_path):
        store = SnapshotStore(tmp_path)
        values = [1.5, -0.0, 2.5, float("inf"), 3.5]
        store.write(
            "s", state_payload(8, values, tail=[[4.0, 5.0], [6.0]])
        )
        loaded = store.load_latest("s")
        assert loaded["state"] == {"w": values, "scalar": 7}
        assert [math.copysign(1.0, v) for v in loaded["state"]["w"]] == [
            math.copysign(1.0, v) for v in values
        ]
        assert loaded["arrivals"] == 8
        assert loaded["spec"] == {"backend": "stub"}
        assert [t.tolist() for t in loaded["tail"]] == [[4.0, 5.0], [6.0]]

    def test_corrupt_section_byte_is_detected(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=1)
        path = store.write("s", state_payload(8, [1.5, 2.5, 3.5, 4.5]))
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip one bit in the last section
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="checksum mismatch"):
            store.load_latest("s")

    def test_corrupt_header_is_detected(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=1)
        path = store.write("s", state_payload(8, [1.5]))
        raw = bytearray(path.read_bytes())
        raw[len(BINARY_MAGIC) + 4 + 32] ^= 0xFF  # first header byte
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptError, match="header checksum"):
            store.load_latest("s")

    def test_corrupt_binary_newest_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        store.write("s", state_payload(4, [1.0]))
        newest = store.write("s", state_payload(8, [2.0]))
        newest.write_bytes(b"garbage")
        loaded = store.load_latest("s")
        assert loaded["arrivals"] == 4
        assert store.counters["fallback_loads"] == 1


class TestDeltaChains:
    def test_delta_chain_resolves_onto_base(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write("s", state_payload(4, [1.0], tail=[[9.0]]))
        store.commit_delta(store.encode_delta(
            "s", arrivals=6, from_arrivals=4,
            batches=[(4, np.array([5.0, 6.0]))], tail=[np.array([7.0])],
        ))
        store.commit_delta(store.encode_delta(
            "s", arrivals=7, from_arrivals=6,
            batches=[(6, np.array([7.0]))], tail=[],
        ))
        loaded = store.load_latest("s")
        # Base state + arrivals, with every delta batch folded into the
        # tail so a restore replays the chain through normal ingestion.
        assert loaded["arrivals"] == 4
        assert [t.tolist() for t in loaded["tail"]] == [[5.0, 6.0], [7.0]]

    def test_corrupt_middle_delta_truncates_chain(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write("s", state_payload(4, [1.0], tail=[[0.5]]))
        first = store.commit_delta(store.encode_delta(
            "s", arrivals=6, from_arrivals=4,
            batches=[(4, np.array([5.0, 6.0]))], tail=[np.array([7.0])],
        ))
        store.commit_delta(store.encode_delta(
            "s", arrivals=8, from_arrivals=6,
            batches=[(6, np.array([7.0, 8.0]))], tail=[],
        ))
        first.write_bytes(b"garbage")
        loaded = store.load_latest("s")
        # The chain is cut at the corrupt link: base state + base tail.
        assert loaded["arrivals"] == 4
        assert [t.tolist() for t in loaded["tail"]] == [[0.5]]
        assert store.counters["corrupt_snapshots"] >= 1
        assert store.counters["fallback_loads"] >= 1

    def test_delta_with_arrival_gap_truncates_chain(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write("s", state_payload(4, [1.0]))
        store.commit_delta(store.encode_delta(
            "s", arrivals=9, from_arrivals=7,
            batches=[(7, np.array([8.0, 9.0]))], tail=[],  # gap: 4 -> 7
        ))
        loaded = store.load_latest("s")
        assert loaded["arrivals"] == 4
        assert loaded["tail"] == []

    def test_delta_without_base_encodes_to_none(self, tmp_path):
        store = SnapshotStore(tmp_path)
        delta = store.encode_delta(
            "s", arrivals=2, from_arrivals=0,
            batches=[(0, np.array([1.0, 2.0]))], tail=[],
        )
        assert delta is None  # the caller writes a full instead
        assert store.generations("s") == []

    def test_prune_never_strands_a_delta(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=1)
        store.write("s", state_payload(2, [1.0]))  # seq 1 (old base)
        store.commit_delta(store.encode_delta(
            "s", arrivals=3, from_arrivals=2,
            batches=[(2, np.array([3.0]))], tail=[],
        ))  # seq 2
        store.write("s", state_payload(4, [2.0]))  # seq 3 (new base)
        store.commit_delta(store.encode_delta(
            "s", arrivals=5, from_arrivals=4,
            batches=[(4, np.array([5.0]))], tail=[],
        ))  # seq 4
        names = [p.name for p in store.generations("s")]
        # keep=1 counts *full* generations: the old base and its delta
        # are gone, the live base and its trailing delta both survive.
        assert names == ["s-00000003.snap", "s-00000004.delta"]
        loaded = store.load_latest("s")
        assert loaded["arrivals"] == 4
        assert [t.tolist() for t in loaded["tail"]] == [[5.0]]


class TestGenerationFallback:
    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        store.write("s", payload(100, "gen1"))
        newest = store.write("s", payload(200, "gen2"))
        newest.write_text("not json at all")
        loaded = store.load_latest("s")
        assert loaded["state"] == {"marker": "gen1"}
        assert loaded["arrivals"] == 100
        assert store.counters["corrupt_snapshots"] == 1
        assert store.counters["fallback_loads"] == 1

    def test_truncated_newest_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        store.write("s", payload(100, "gen1"))
        newest = store.write("s", payload(200, "gen2"))
        newest.write_bytes(newest.read_bytes()[:40])
        assert store.load_latest("s")["state"] == {"marker": "gen1"}

    def test_missing_newest_file_falls_back(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        store.write("s", payload(100, "gen1"))
        newest = store.write("s", payload(200, "gen2"))
        newest.unlink()
        assert store.load_latest("s")["state"] == {"marker": "gen1"}
        # The files are the only record: nothing says a newer one
        # existed, so generation 1 is the newest, not a fallback.
        assert store.counters["fallback_loads"] == 0

    def test_wrong_stream_snapshot_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        store.write("s", payload(100, "mine"))
        newest = store.write("s", payload(200, "mine2"))
        # A fully valid snapshot of another stream under "s"'s filename.
        foreign = store.write("other", payload(300, "theirs"))
        newest.write_bytes(foreign.read_bytes())
        assert store.load_latest("s")["state"] == {"marker": "mine"}

    def test_all_generations_corrupt_raises_typed_error(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for marker in ("gen1", "gen2"):
            store.write("s", payload(100, marker))
        for path in store.generations("s"):
            path.write_text("garbage")
        with pytest.raises(SnapshotCorruptError, match="every snapshot"):
            store.load_latest("s")
        # Both generations were inspected and rejected.
        assert store.counters["corrupt_snapshots"] >= 2

    def test_missing_stream_is_keyerror_not_corruption(self, tmp_path):
        store = SnapshotStore(tmp_path)
        with pytest.raises(KeyError):
            store.load_latest("nope")


class TestNameIsolation:
    """Prefix-colliding stream names must never see each other's files."""

    def test_prefix_colliding_generations_are_disjoint(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write("a", payload(1, "mine"))
        store.write("a-b", payload(2, "theirs"))
        store.write("a-b", payload(3, "theirs2"))
        assert len(store.generations("a")) == 1
        assert len(store.generations("a-b")) == 2
        assert store.load_latest("a")["state"] == {"marker": "mine"}

    def test_prune_of_one_name_spares_its_prefix_sibling(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=1)
        store.write("a-b", payload(1, "sibling"))
        for generation in range(3):
            store.write("a", payload(generation, f"g{generation}"))
        # "a"'s pruning ran twice; "a-b"'s only generation must survive.
        assert len(store.generations("a")) == 1
        assert store.load_latest("a-b")["state"] == {"marker": "sibling"}

    def test_fallback_never_crosses_stream_names(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        store.write("a-b", payload(7, "theirs"))
        newest = store.write("a", payload(1, "mine"))
        newest.write_text("garbage")
        # The only fallback candidate for "a" is its own (corrupt) file;
        # the old glob would have fallen back onto "a-b"'s snapshot.
        with pytest.raises(SnapshotCorruptError):
            store.load_latest("a")

    def test_hostile_names_are_percent_encoded(self, tmp_path):
        store = SnapshotStore(tmp_path)
        name = "../evil stream/θ"
        path = store.write(name, payload(5, "x"))
        assert path.parent == tmp_path  # no directory traversal
        assert "/" not in path.name and " " not in path.name
        assert store.load_latest(name)["state"] == {"marker": "x"}
        assert store.streams() == [name]

    def test_encode_name_keeps_valid_names_verbatim(self):
        assert _encode_name("cpu_load.p99") == "cpu_load.p99"
        assert _encode_name("a-b") == "a%2Db"


class TestManifestHardening:
    """The directory is the only record: a ``manifest.json`` an older
    store left is neither read nor rewritten, and a reopened store
    numbers and chains its generations from the files alone."""

    @staticmethod
    def _check_leftover_is_ignored(tmp_path, content):
        """Run a store beside a leftover ``manifest.json`` (``None``: a
        directory of that name) and check it is neither read nor
        rewritten."""
        manifest = tmp_path / "manifest.json"
        if content is None:
            manifest.mkdir()
        else:
            manifest.write_bytes(content)
        store = SnapshotStore(tmp_path)
        store.write("s", state_payload(4, [1.0]))
        store.commit_delta(store.encode_delta(
            "s", arrivals=6, from_arrivals=4,
            batches=[(4, np.array([5.0, 6.0]))], tail=[],
        ))
        assert store.streams() == ["s"]
        loaded = store.load_latest("s")
        assert loaded["arrivals"] == 4
        assert [t.tolist() for t in loaded["tail"]] == [[5.0, 6.0]]
        store.retire("s")
        assert store.streams() == []
        if content is None:
            assert manifest.is_dir() and not any(manifest.iterdir())
        else:
            assert manifest.read_bytes() == content
        assert store.counters["corrupt_snapshots"] == 0

    def test_empty_manifest_is_ignored(self, tmp_path):
        self._check_leftover_is_ignored(tmp_path, b"")

    def test_torn_manifest_is_ignored(self, tmp_path):
        self._check_leftover_is_ignored(tmp_path, b"{torn")

    def test_non_object_manifest_is_ignored(self, tmp_path):
        self._check_leftover_is_ignored(
            tmp_path, json.dumps(["not", "a", "dict"]).encode()
        )

    def test_directory_manifest_is_ignored(self, tmp_path):
        self._check_leftover_is_ignored(tmp_path, None)

    def test_reopened_store_continues_sequence_numbers(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write("s", payload(10, "a"))
        store.write("s", payload(20, "b"))
        path = SnapshotStore(tmp_path).write("s", payload(30, "c"))
        # The new store numbered its write from the surviving files.
        assert path.name == "s-00000003.snap"
        assert SnapshotStore(tmp_path).load_latest("s")["state"] == {"marker": "c"}

    def test_reopened_store_delta_names_the_head_deltas_base(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write("s", state_payload(4, [1.0]))  # seq 1: the base
        store.commit_delta(store.encode_delta(
            "s", arrivals=6, from_arrivals=4,
            batches=[(4, np.array([5.0, 6.0]))], tail=[],
        ))  # seq 2
        reopened = SnapshotStore(tmp_path)
        head = reopened.commit_delta(reopened.encode_delta(
            "s", arrivals=8, from_arrivals=6,
            batches=[(6, np.array([7.0, 8.0]))], tail=[],
        ))  # seq 3: its base is the one seq 2's header names
        header, _ = _decode_binary(head.read_bytes(), head.name)
        assert (header["seq"], header["base_seq"], header["prev_seq"]) == (3, 1, 2)
        recovered = SnapshotStore(tmp_path)
        loaded = recovered.load_latest("s")
        assert loaded["arrivals"] == 4
        assert [t.tolist() for t in loaded["tail"]] == [[5.0, 6.0], [7.0, 8.0]]
        assert recovered.counters["fallback_loads"] == 0

    def test_unreadable_delta_head_at_rebuild_forces_a_full(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write("s", state_payload(4, [1.0]))
        head = store.commit_delta(store.encode_delta(
            "s", arrivals=6, from_arrivals=4,
            batches=[(4, np.array([5.0, 6.0]))], tail=[],
        ))
        head.write_bytes(b"garbage")
        # No trustworthy base to chain from: the caller writes a full.
        delta = store.encode_delta(
            "s", arrivals=8, from_arrivals=6,
            batches=[(6, np.array([7.0, 8.0]))], tail=[],
        )
        assert delta is None
        assert store.write("s", state_payload(8, [2.0])).suffix == ".snap"
        assert store.load_latest("s")["arrivals"] == 8


class TestDirFsync:
    def test_dropped_dir_fsync_is_audited(self, tmp_path):
        injector = FaultInjector().drop_dir_fsync(times=1)
        store = SnapshotStore(tmp_path, fault_injector=injector)
        store.write("s", payload(10, "a"))
        kinds = [event["kind"] for event in injector.events]
        assert "dir_fsync" in kinds
        assert injector.pending() == 0

    def test_torn_rename_after_dropped_fsync_is_survivable(self, tmp_path):
        # Simulate the failure window the dir fsync closes: the rename
        # of generation 2 happened, but the directory update was lost on
        # crash.  Recovery must fall back to generation 1 instead of
        # erroring.
        injector = FaultInjector().drop_dir_fsync(times=2)
        store = SnapshotStore(tmp_path, fault_injector=injector)
        store.write("s", payload(100, "gen1"))
        newest = store.write("s", payload(200, "gen2"))
        # the crash rolls the un-fsynced directory back:
        newest.unlink()
        recovered = SnapshotStore(tmp_path)
        assert recovered.load_latest("s")["state"] == {"marker": "gen1"}

    def test_each_checkpoint_is_one_atomic_write(self, tmp_path, monkeypatch):
        calls = []
        for function in ("_atomic_write", "_fsync_dir"):
            original = getattr(snapshot, function)

            def counted(*args, _name=function, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(snapshot, function, counted)
        store = SnapshotStore(tmp_path)
        store.write("s", state_payload(4, [1.0]))
        assert sorted(calls) == ["_atomic_write", "_fsync_dir"]
        calls.clear()
        delta = store.encode_delta(
            "s", arrivals=6, from_arrivals=4,
            batches=[(4, np.array([5.0, 6.0]))], tail=[],
        )
        store.commit_delta(delta)
        assert sorted(calls) == ["_atomic_write", "_fsync_dir"]
        assert store.counters["writes"] == 2
        assert not (tmp_path / "manifest.json").exists()


class TestRetentionAndHygiene:
    def test_keep_bounds_generations(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for generation in range(5):
            store.write("s", payload(generation * 10, f"g{generation}"))
        files = store.generations("s")
        assert len(files) == 2
        assert [p.name for p in files] == ["s-00000004.snap", "s-00000005.snap"]

    def test_keep_validated(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            SnapshotStore(tmp_path, keep=0)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.write("s", payload(10, "a"))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_cleanup_errors_counted_not_raised(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path, keep=1)
        store.write("s", payload(10, "a"))

        def refuse(self):
            raise OSError("simulated unlink failure")

        monkeypatch.setattr(type(tmp_path), "unlink", refuse)
        store.write("s", payload(20, "b"))  # prune must not raise
        monkeypatch.undo()
        assert store.counters["cleanup_errors"] == 1
        assert store.load_latest("s")["state"] == {"marker": "b"}
