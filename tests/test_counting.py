"""Tests for repro.counting: sliding-window EH and CR-precis turnstile.

Four layers:

* the core structures honor their deterministic guarantees (DGIM
  eps-relative window counts -- including the eps=0.01/n=100 regime the
  exemplar implementations skip -- and the CRT overestimate bound under
  deletions);
* the signed-unit turnstile codec survives arbitrary batch splits;
* the :class:`~repro.runtime.maintainer.UpdateMaintainer` adapters keep
  exact state round-trips and honest stats accounting;
* the service tiers carry turnstile updates end to end (insert-only
  backends quarantine deletions as poison instead of corrupting state).
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import (
    BasicCountingEH,
    CRPrecis,
    CRPrecisMaintainer,
    EHCountMaintainer,
    ExponentialHistogram,
    decode_updates,
    encode_update,
    encode_updates,
    first_primes,
)
from repro.runtime import UpdateMaintainer, make_maintainer
from repro.service import StreamService

from .conftest import BACKEND_PARAMS


# ---------------------------------------------------------------------------
# BasicCountingEH: DGIM invariants and the sharpened estimate
# ---------------------------------------------------------------------------


def exact_window_count(bits: list[int], window: int) -> int:
    return sum(bits[-window:])


class TestBasicCountingEH:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BasicCountingEH(0, 0.5)
        with pytest.raises(ValueError):
            BasicCountingEH(10, 0.0)
        with pytest.raises(ValueError):
            BasicCountingEH(10, 1.5)

    @pytest.mark.parametrize(
        "window,epsilon",
        [(100, 0.01), (100, 0.1), (64, 0.25), (16, 0.5), (1, 0.5), (1000, 0.05)],
    )
    def test_relative_error_bound_holds(self, window, epsilon):
        """The sharpened estimate keeps the eps-relative bound in every
        regime -- including eps=0.01, n=100, the case the exemplar
        implementation explicitly skips its own bound check for."""
        rng = np.random.default_rng(7)
        core = BasicCountingEH(window, epsilon)
        bits: list[int] = []
        worst = 0.0
        for now in range(1, 4001):
            bit = int(rng.random() < 0.6)
            bits.append(bit)
            if bit:
                core.add(now)
            if now % 37 == 0:
                exact = exact_window_count(bits, window)
                estimate = core.estimate(now)
                if exact:
                    worst = max(worst, abs(estimate - exact) / exact)
                else:
                    assert estimate == 0.0
        assert worst <= epsilon, worst

    def test_bucket_structure_invariants(self):
        core = BasicCountingEH(256, 0.1)
        for now in range(1, 2001):
            core.add(now)
            sizes = [size for size, _ in core.buckets]
            stamps = [stamp for _, stamp in core.buckets]
            assert all(size & (size - 1) == 0 for size in sizes)
            assert stamps == sorted(stamps)
            # Sizes are nonincreasing toward the new end; each class
            # holds at most max_per_class buckets.
            assert sizes == sorted(sizes, reverse=True)
            assert max(Counter(sizes).values()) <= core.max_per_class

    def test_space_is_logarithmic(self):
        core = BasicCountingEH(10_000, 0.1)
        for now in range(1, 50_001):
            core.add(now)
        # O((1/eps) log^2 n) buckets, not O(n).
        assert core.bucket_count() < 200

    def test_estimate_exact_while_oldest_bucket_is_unit(self):
        core = BasicCountingEH(64, 0.5)
        for now in range(1, 4):
            core.add(now)
            if core.buckets[0][0] == 1:
                assert core.estimate(now) == float(now)

    def test_expiry_empties_the_window(self):
        core = BasicCountingEH(8, 0.25)
        for now in range(1, 20):
            core.add(now)
        assert core.estimate(1000) == 0.0
        assert core.bucket_count(live_only=True, now=1000) == 0

    def test_queries_are_pure(self):
        core = BasicCountingEH(8, 0.25)
        for now in range(1, 50):
            core.add(now)
        before = [list(b) for b in core.buckets]
        core.estimate(49)
        core.error_bound(49)
        core.bucket_count(live_only=True, now=49)
        assert core.buckets == before

    def test_dict_roundtrip_is_exact(self):
        core = BasicCountingEH(32, 0.2)
        for now in range(1, 100):
            if now % 3:
                core.add(now)
        payload = json.loads(json.dumps(core.to_dict()))
        clone = BasicCountingEH.from_dict(payload)
        assert clone.buckets == core.buckets
        assert clone.k == core.k
        assert clone.max_per_class == core.max_per_class
        assert clone.estimate(99) == core.estimate(99)


# ---------------------------------------------------------------------------
# ExponentialHistogram: windowed count / sum / mean / variance
# ---------------------------------------------------------------------------


class TestExponentialHistogram:
    def test_rejects_negative_values(self):
        summary = ExponentialHistogram(16, 0.25)
        with pytest.raises(ValueError):
            summary.append(-1)

    def test_window_length_is_exact(self):
        summary = ExponentialHistogram(10, 0.5)
        assert summary.window_count() == 0
        for i in range(25):
            summary.append(i % 3)
            assert summary.window_count() == min(10, i + 1)

    def test_windowed_sums_meet_epsilon(self):
        window, epsilon = 64, 0.25
        rng = np.random.default_rng(11)
        summary = ExponentialHistogram(window, epsilon)
        values: list[int] = []
        for i in range(2000):
            value = int(rng.integers(0, 100))
            summary.append(value)
            values.append(value)
            if i % 53 == 0 and i > 0:
                tail = np.asarray(values[-window:])
                exact_sum = float(tail.sum())
                exact_nonzero = float((tail != 0).sum())
                if exact_sum:
                    rel = abs(summary.window_sum() - exact_sum) / exact_sum
                    assert rel <= epsilon
                if exact_nonzero:
                    rel = abs(summary.nonzero_count() - exact_nonzero)
                    assert rel / exact_nonzero <= epsilon

    def test_mean_and_variance_bounds(self):
        window, epsilon = 64, 0.25
        rng = np.random.default_rng(3)
        summary = ExponentialHistogram(window, epsilon)
        values: list[int] = []
        for _ in range(500):
            value = int(rng.integers(0, 50))
            summary.append(value)
            values.append(value)
        tail = np.asarray(values[-window:], dtype=np.float64)
        exact_mean = float(tail.mean())
        exact_m2 = float((tail * tail).sum())
        length = len(tail)
        assert abs(summary.window_mean() - exact_mean) <= epsilon * exact_mean
        variance_allowance = (
            epsilon * exact_m2 / length
            + (2 * epsilon + epsilon**2) * exact_mean**2
        )
        assert (
            abs(summary.window_variance() - float(tail.var()))
            <= variance_allowance
        )

    def test_expiry_drains_to_zero(self):
        summary = ExponentialHistogram(8, 0.25)
        for _ in range(40):
            summary.append(7)
        for _ in range(8):
            summary.append(0)
        assert summary.nonzero_count() == 0.0
        assert summary.window_sum() == 0.0
        assert summary.window_mean() == 0.0
        assert summary.window_variance() == 0.0

    def test_sum_error_bound_is_honest(self):
        window, epsilon = 32, 0.25
        summary = ExponentialHistogram(window, epsilon)
        values: list[int] = []
        rng = np.random.default_rng(5)
        for _ in range(300):
            value = int(rng.integers(0, 40))
            summary.append(value)
            values.append(value)
        exact = float(np.asarray(values[-window:]).sum())
        assert abs(summary.window_sum() - exact) <= summary.sum_error_bound()

    def test_restore_at_huge_arrival_index_continues_exactly(self):
        """Arrival indices are plain Python ints: a summary restored at
        arrival 10**12 behaves exactly like its donor -- no timestamp
        wrap, no recycling (the exemplar's open TODO)."""
        donor = ExponentialHistogram(16, 0.25)
        donor.arrivals = 10**12
        twin_payload = json.loads(json.dumps(donor.to_dict()))
        restored = ExponentialHistogram.from_dict(twin_payload)
        stream = np.asarray([3, 0, 9, 5, 0, 2, 8, 1] * 4, dtype=np.int64)
        donor.extend(stream)
        restored.extend(stream)
        assert donor.to_dict() == restored.to_dict()
        assert donor.arrivals == 10**12 + stream.size
        exact = float(stream[-16:].sum())
        assert abs(donor.window_sum() - exact) <= 0.25 * exact

    def test_dict_roundtrip_is_exact(self):
        summary = ExponentialHistogram(32, 0.2)
        rng = np.random.default_rng(9)
        summary.extend(rng.integers(0, 60, 500).astype(np.int64))
        payload = json.loads(json.dumps(summary.to_dict()))
        clone = ExponentialHistogram.from_dict(payload)
        assert clone.to_dict() == summary.to_dict()
        assert clone.window_sum() == summary.window_sum()
        assert clone.bucket_cells() == summary.bucket_cells()


# ---------------------------------------------------------------------------
# CR-precis
# ---------------------------------------------------------------------------


class TestFirstPrimes:
    def test_known_prefixes(self):
        assert first_primes(2, 5) == [2, 3, 5, 7, 11]
        assert first_primes(23, 5) == [23, 29, 31, 37, 41]
        assert first_primes(24, 2) == [29, 31]

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            first_primes(2, 0)


class TestCRPrecis:
    PARAMS = dict(rows=5, base=23, domain=131072)

    def _turnstile_stream(self, seed, updates):
        rng = np.random.default_rng(seed)
        live: Counter = Counter()
        ops = []
        for _ in range(updates):
            if live and rng.random() < 0.4:
                keys = sorted(live)
                key = keys[int(rng.integers(len(keys)))]
                ops.append((key, -1))
                live[key] -= 1
                if not live[key]:
                    del live[key]
            else:
                key = int(min(rng.zipf(1.4), self.PARAMS["domain"] - 1))
                ops.append((key, 1))
                live[key] += 1
        return ops, live

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CRPrecis(0, 23, 100)
        with pytest.raises(ValueError):
            CRPrecis(3, 1, 100)
        with pytest.raises(ValueError):
            CRPrecis(3, 23, 1)

    def test_point_queries_bracket_truth_under_deletions(self):
        table = CRPrecis(**self.PARAMS)
        ops, live = self._turnstile_stream(2, 3000)
        for key, delta in ops:
            table.update(key, delta)
        assert table.l1() == sum(live.values())
        bound = table.overestimate_bound()
        for key in list(live)[:50] + [99_999]:
            truth = live.get(key, 0)
            served = table.point_query(key)
            assert served >= truth  # never underestimates
            assert served - truth <= bound

    def test_error_exponent_matches_crt_definition(self):
        table = CRPrecis(**self.PARAMS)
        # 23^3 = 12167 <= 131071 < 23^4: two keys collide in <= 3 rows.
        assert table.error_exponent() == 3

    def test_heavy_hitters_have_no_false_negatives(self):
        table = CRPrecis(rows=5, base=23, domain=4096)
        truth = Counter({7: 500, 900: 300, 4000: 150})
        for key, count in truth.items():
            table.update(key, count)
        for key in range(0, 4096, 37):
            if key not in truth:
                table.update(key, 1)
        phi = 0.05
        hot = table.heavy_hitters(phi)
        threshold = phi * table.l1()
        for key, count in truth.items():
            if count >= threshold:
                assert key in hot
                assert hot[key] >= count

    def test_range_count_overestimates_within_bound(self):
        table = CRPrecis(rows=5, base=23, domain=4096)
        truth = Counter()
        rng = np.random.default_rng(4)
        for _ in range(800):
            key = int(rng.integers(100, 200))
            table.update(key, 1)
            truth[key] += 1
        exact = sum(truth[k] for k in range(120, 181))
        served = table.range_count(120, 180)
        per_key = table.overestimate_bound()
        assert exact <= served <= exact + 61 * per_key

    def test_update_validates_before_mutating(self):
        table = CRPrecis(rows=3, base=5, domain=64)
        with pytest.raises(ValueError):
            table.update(64, 1)
        with pytest.raises(ValueError):
            table.update(-1, 1)
        assert table.l1() == 0
        assert all(int(row.sum()) == 0 for row in table.tables)

    def test_apply_matches_update_loop(self):
        bulk = CRPrecis(rows=4, base=11, domain=1024)
        slow = CRPrecis(rows=4, base=11, domain=1024)
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 1024, 500).astype(np.int64)
        deltas = np.where(rng.random(500) < 0.3, -1, 1).astype(np.int64)
        # Keep it a strict turnstile: flip early deletions to inserts.
        running: Counter = Counter()
        for i in range(keys.size):
            if deltas[i] < 0 and running[int(keys[i])] <= 0:
                deltas[i] = 1
            running[int(keys[i])] += int(deltas[i])
        bulk.apply(keys, deltas)
        for key, delta in zip(keys.tolist(), deltas.tolist()):
            slow.update(key, delta)
        assert all(
            np.array_equal(a, b) for a, b in zip(bulk.tables, slow.tables)
        )
        assert bulk.updates == slow.updates == 500

    def test_table_cells_is_sum_of_moduli(self):
        table = CRPrecis(**self.PARAMS)
        assert table.table_cells() == sum(table.primes) == 23 + 29 + 31 + 37 + 41

    def test_dict_roundtrip_is_exact(self):
        table = CRPrecis(rows=3, base=7, domain=512)
        for key in (3, 200, 511, 3):
            table.update(key, 2)
        table.update(3, -1)
        payload = json.loads(json.dumps(table.to_dict()))
        clone = CRPrecis.from_dict(payload)
        assert clone.to_dict() == table.to_dict()
        assert clone.point_query(3) == table.point_query(3)

    def test_roundtrip_rejects_mismatched_rows(self):
        table = CRPrecis(rows=3, base=7, domain=512)
        payload = table.to_dict()
        payload["tables"][0] = payload["tables"][0][:-1]
        with pytest.raises(ValueError):
            CRPrecis.from_dict(payload)


# ---------------------------------------------------------------------------
# Signed-unit turnstile codec
# ---------------------------------------------------------------------------


class TestTurnstileCodec:
    def test_single_update_roundtrip(self):
        batch = encode_update(5, 3)
        assert batch.tolist() == [5.0, 5.0, 5.0]
        keys, deltas = decode_updates(batch)
        assert keys.tolist() == [5, 5, 5]
        assert deltas.tolist() == [1, 1, 1]

    def test_deletion_encoding_keeps_key_zero_distinct(self):
        keys, deltas = decode_updates(encode_update(0, -2))
        assert keys.tolist() == [0, 0]
        assert deltas.tolist() == [-1, -1]

    def test_zero_delta_is_empty(self):
        assert encode_update(9, 0).size == 0
        assert encode_updates([]).size == 0

    def test_rejects_negative_keys(self):
        with pytest.raises(ValueError):
            encode_update(-1, 1)

    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=-4, max_value=4),
            ),
            max_size=30,
        ),
        split=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=50, deadline=None)
    def test_batches_split_safely(self, updates, split):
        """Any split of an encoded batch decodes to the same multiset of
        unit updates -- the property that lets turnstile traffic ride
        queues, snapshots, and shard frames that re-chunk freely."""
        batch = encode_updates(updates)
        split = min(split, batch.size)
        whole = Counter(
            zip(*(arr.tolist() for arr in decode_updates(batch)))
        )
        first = decode_updates(batch[:split])
        second = decode_updates(batch[split:])
        rejoined = Counter(zip(*(arr.tolist() for arr in first)))
        rejoined.update(Counter(zip(*(arr.tolist() for arr in second))))
        assert rejoined == whole
        net = Counter()
        for key, delta in updates:
            net[key] += delta
        decoded_net = Counter()
        for (key, delta), count in whole.items():
            decoded_net[key] += delta * count
        assert {k: v for k, v in net.items() if v} == {
            k: v for k, v in decoded_net.items() if v
        }


# ---------------------------------------------------------------------------
# UpdateMaintainer adapters
# ---------------------------------------------------------------------------


class TestEHCountMaintainer:
    def test_registered_and_typed(self):
        maintainer = make_maintainer("eh_count", **BACKEND_PARAMS["eh_count"])
        assert isinstance(maintainer, UpdateMaintainer)
        assert isinstance(maintainer.synopsis(), ExponentialHistogram)

    def test_update_is_repeated_arrival(self):
        via_update = EHCountMaintainer(window=16, epsilon=0.25)
        via_extend = EHCountMaintainer(window=16, epsilon=0.25)
        via_update.update(7, 5)
        via_extend.extend(np.full(5, 7.0))
        assert (
            via_update.state_dict()["backend"]
            == via_extend.state_dict()["backend"]
        )
        assert via_update.stats().points == via_extend.stats().points == 5

    def test_update_rejects_deletions_and_negative_keys(self):
        maintainer = EHCountMaintainer(window=16, epsilon=0.25)
        with pytest.raises(ValueError, match="insert-only"):
            maintainer.update(3, -1)
        with pytest.raises(ValueError):
            maintainer.update(-3, 1)
        assert maintainer.stats().points == 0
        assert maintainer.synopsis().arrivals == 0

    def test_extend_rejects_negative_and_nonfinite(self):
        maintainer = EHCountMaintainer(window=16, epsilon=0.25)
        with pytest.raises(ValueError, match="cr_precis"):
            maintainer.extend(np.asarray([1.0, -2.0]))
        with pytest.raises(ValueError):
            maintainer.extend(np.asarray([np.nan]))
        assert maintainer.synopsis().arrivals == 0

    def test_zero_delta_update_is_a_noop(self):
        maintainer = EHCountMaintainer(window=16, epsilon=0.25)
        maintainer.update(4, 0)
        assert maintainer.stats().points == 0
        assert maintainer.stats().batches == 0

    def test_state_roundtrip_through_json(self):
        maintainer = EHCountMaintainer(window=32, epsilon=0.25)
        rng = np.random.default_rng(8)
        maintainer.extend(rng.integers(0, 50, 300).astype(float))
        payload = json.loads(json.dumps(maintainer.state_dict()))
        clone = EHCountMaintainer(window=32, epsilon=0.25)
        clone.load_state_dict(payload)
        tail = rng.integers(0, 50, 50).astype(float)
        maintainer.extend(tail)
        clone.extend(tail)
        assert (
            clone.state_dict()["backend"] == maintainer.state_dict()["backend"]
        )
        assert clone.stats().counters() == maintainer.stats().counters()


class TestCRPrecisMaintainer:
    def test_registered_and_typed(self):
        maintainer = make_maintainer("cr_precis", **BACKEND_PARAMS["cr_precis"])
        assert isinstance(maintainer, UpdateMaintainer)
        assert isinstance(maintainer.synopsis(), CRPrecis)

    def test_update_matches_encoded_extend(self):
        via_update = CRPrecisMaintainer(rows=4, base=11, domain=1024)
        via_extend = CRPrecisMaintainer(rows=4, base=11, domain=1024)
        updates = [(5, 3), (900, 2), (5, -1), (0, 4), (0, -2)]
        for key, delta in updates:
            via_update.update(key, delta)
        via_extend.extend(encode_updates(updates))
        assert (
            via_update.state_dict()["backend"]
            == via_extend.state_dict()["backend"]
        )
        # points counts unit updates on both channels: sum(|delta|) = 12.
        assert via_update.stats().points == via_extend.stats().points == 12

    def test_stats_count_deletions_as_work(self):
        maintainer = CRPrecisMaintainer(rows=4, base=11, domain=1024)
        maintainer.update(3, 5)
        maintainer.update(3, -5)
        assert maintainer.stats().points == 10
        assert maintainer.synopsis().l1() == 0

    def test_extend_validates_domain_before_mutating(self):
        maintainer = CRPrecisMaintainer(rows=3, base=5, domain=64)
        with pytest.raises(ValueError, match="outside turnstile domain"):
            maintainer.extend(np.asarray([3.0, 64.0]))
        assert maintainer.synopsis().l1() == 0
        assert maintainer.stats().points == 0

    def test_state_roundtrip_through_json(self):
        maintainer = CRPrecisMaintainer(rows=4, base=11, domain=1024)
        maintainer.extend(encode_updates([(5, 3), (17, 2), (5, -2)]))
        payload = json.loads(json.dumps(maintainer.state_dict()))
        clone = CRPrecisMaintainer(rows=4, base=11, domain=1024)
        clone.load_state_dict(payload)
        assert clone.state_dict() == maintainer.state_dict()
        assert clone.stats().counters() == maintainer.stats().counters()
        assert clone.synopsis().point_query(5) == 1


# ---------------------------------------------------------------------------
# Registry error paths
# ---------------------------------------------------------------------------


class TestRegistryErrorPaths:
    def test_duplicate_registration_is_an_error(self):
        from repro.runtime.registry import register_maintainer

        with pytest.raises(ValueError, match="already registered"):
            register_maintainer("eh_count", lambda **kw: None)

    def test_unknown_name_lists_new_backends(self):
        with pytest.raises(KeyError) as excinfo:
            make_maintainer("eh_coutn")
        message = str(excinfo.value)
        assert "eh_count" in message
        assert "cr_precis" in message

    def test_invalid_name_rejected(self):
        from repro.runtime.registry import register_maintainer

        with pytest.raises(ValueError, match="invalid maintainer name"):
            register_maintainer("bad name!", lambda **kw: None)


# ---------------------------------------------------------------------------
# Service tiers carry turnstile updates
# ---------------------------------------------------------------------------


class TestServiceUpdateVerbs:
    def test_cr_precis_point_query_after_service_updates(self):
        with StreamService() as service:
            service.create_stream(
                "freq", backend="cr_precis", params=BACKEND_PARAMS["cr_precis"]
            )
            assert service.update("freq", 42, 5) == 5
            assert service.update("freq", 42, -2) == 2
            assert service.update_many("freq", [(7, 3), (42, 1)]) == 4
            assert service.update("freq", 9, 0) == 0
            service.flush("freq")
            synopsis = service.synopsis("freq")
            assert synopsis.point_query(42) == 4
            assert synopsis.point_query(7) == 3
            assert synopsis.l1() == 7

    def test_eh_count_accepts_inserts_quarantines_deletions(self):
        with StreamService() as service:
            service.create_stream(
                "win", backend="eh_count", params=BACKEND_PARAMS["eh_count"]
            )
            service.update("win", 5, 3)
            service.flush("win")
            assert service.synopsis("win").arrivals == 3
            # A deletion rides the same channel but the insert-only
            # backend rejects it; the poison policy quarantines the
            # batch instead of corrupting the synopsis.
            service.update("win", 5, -2)
            service.flush("win")
            assert service.synopsis("win").arrivals == 3
            # Each of the |delta| = 2 encoded unit points is quarantined
            # individually.
            letters = service.dead_letters("win")
            assert len(letters) == 2
            assert all(record.value == -6.0 for record in letters)

    def test_accuracy_monitor_auto_resolves_window_count(self):
        from repro.obs import AccuracyMonitor

        params = BACKEND_PARAMS["eh_count"]
        maintainer = make_maintainer("eh_count", **params)
        monitor = AccuracyMonitor("eh_count", params, check_every=1)
        rng = np.random.default_rng(13)
        chunk = rng.integers(0, 80, 256).astype(float)
        maintainer.extend(chunk)
        monitor.extend(chunk)
        report = monitor.check(chunk.size, maintainer)
        # The windowed count and sum, judged against the exact last
        # window the oracle keeps.
        assert monitor.to_dict()["window_points"] == params["window"]
        assert report.exact
        assert report.within_bound, report.violations
        assert report.observed_epsilon <= params["epsilon"]

    def test_accuracy_monitor_window_count_covers_cr_precis(self):
        from repro.obs import AccuracyMonitor

        params = BACKEND_PARAMS["cr_precis"]
        maintainer = make_maintainer("cr_precis", **params)
        monitor = AccuracyMonitor("cr_precis", params, check_every=1)
        batch = encode_updates([(5, 40), (9, 20), (5, -10)])
        maintainer.extend(batch)
        monitor.extend(batch)
        report = monitor.check(batch.size, maintainer)
        # Judged against the exact frequency table (no raw points kept):
        # every probed point query within the CRT collision bound.
        assert monitor.to_dict()["window_points"] == 0
        assert report.exact
        assert report.within_bound, report.violations

    def test_accuracy_monitor_outside_strict_turnstile_is_unverified(self):
        from repro.obs import AccuracyMonitor

        # Deleting a key never inserted drives its frequency negative;
        # the CRT bounds no longer apply, so the check cannot judge.
        params = BACKEND_PARAMS["cr_precis"]
        maintainer = make_maintainer("cr_precis", **params)
        monitor = AccuracyMonitor("cr_precis", params, check_every=1)
        batch = encode_updates([(5, 3), (9, -1)])
        maintainer.extend(batch)
        monitor.extend(batch)
        report = monitor.check(batch.size, maintainer)
        assert not report.exact
        assert report.within_bound is None

    def test_sharded_tier_carries_updates(self):
        from repro.shard import ShardRouter

        with ShardRouter(num_shards=2) as router:
            router.create_stream(
                "freq", backend="cr_precis", params=BACKEND_PARAMS["cr_precis"]
            )
            assert router.update("freq", 100, 4) == 4
            assert router.update_many("freq", [(100, -1), (2000, 2)]) == 3
            router.flush("freq")
            rendered = router.histogram("freq")
            assert rendered["kind"] == "CRPrecis"
            # l1 is exact: 4 inserts - 1 delete + 2 inserts = 5.
            assert sum(rendered["tables"][0]) == 5
