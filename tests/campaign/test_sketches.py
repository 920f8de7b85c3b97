"""Property-based tests of the mergeable campaign sketches.

The sketches' whole value is one invariant: **merge is bit-exactly
associative and commutative**, and aggregating a table equals aggregating
any partition of it in any order.  Hypothesis drives random session
batches, partitions and merge orders through the digest (the SHA-256 of
the canonical serialized form), so "equal" always means byte-identical —
never approximately equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.histogram import LOG_GRID
from repro.campaign.sketches import (
    _DURATION_GRID_SPAN,
    _VOLUME_GRID_SPAN,
    DEFAULT_HLL_SEED,
    CampaignAggregate,
    FixedHistogram,
    HyperLogLog,
    Moments,
    SketchError,
    _bit_length,
    _splitmix64,
    merge_all,
    session_fingerprints,
)
from repro.dataset.aggregation import DURATION_EDGES
from repro.dataset.records import SERVICE_NAMES, SessionTable

#: Small HLL precision for property tests: 256 registers keep each
#: example fast while exercising exactly the same code paths.
P = 8


@st.composite
def session_tables(draw, max_rows: int = 40) -> SessionTable:
    """Random schema-exact session tables, including the empty one."""
    n = draw(st.integers(min_value=0, max_value=max_rows))

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return SessionTable(
        np.asarray(
            column(st.integers(0, len(SERVICE_NAMES) - 1)), dtype=np.int16
        ),
        np.asarray(column(st.integers(0, 9)), dtype=np.int32),
        np.asarray(column(st.integers(0, 6)), dtype=np.int16),
        np.asarray(column(st.integers(0, 1439)), dtype=np.int16),
        np.asarray(
            column(st.floats(1.0, 86400.0, width=32)), dtype=np.float32
        ),
        np.asarray(
            column(st.floats(2.0**-13, 8192.0, width=32)), dtype=np.float32
        ),
        np.asarray(column(st.booleans()), dtype=bool),
    )


def aggregate_of(table: SessionTable) -> CampaignAggregate:
    """One-unit aggregate of a table at the test precision."""
    return CampaignAggregate.from_table(table, n_units=1, precision=P)


class TestMergeAlgebra:
    @settings(max_examples=40, deadline=None)
    @given(session_tables(), session_tables(), session_tables())
    def test_merge_is_associative(self, ta, tb, tc):
        a, b, c = aggregate_of(ta), aggregate_of(tb), aggregate_of(tc)
        left = aggregate_of(ta).merge(aggregate_of(tb)).merge(c)
        right = a.merge(aggregate_of(tb).merge(aggregate_of(tc)))
        assert left.digest() == right.digest()

    @settings(max_examples=40, deadline=None)
    @given(session_tables(), session_tables())
    def test_merge_is_commutative(self, ta, tb):
        ab = aggregate_of(ta).merge(aggregate_of(tb))
        ba = aggregate_of(tb).merge(aggregate_of(ta))
        assert ab.digest() == ba.digest()

    @settings(max_examples=40, deadline=None)
    @given(
        session_tables(max_rows=60),
        st.integers(0, 2**31 - 1),
        st.integers(1, 6),
    )
    def test_any_shard_order_equals_single_pass(self, table, order, k):
        """Sharded merge == one-pass aggregate over the concatenation."""
        n = len(table)
        cuts = sorted(
            np.random.default_rng(order).integers(0, n + 1, size=k - 1)
        )
        bounds = [0, *cuts, n]
        idx = np.arange(n)
        parts = [
            SessionTable(
                *(
                    getattr(table, col)[idx[lo:hi]]
                    for col in SessionTable.COLUMNS
                ),
                validate=False,
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        shards = [
            CampaignAggregate.from_table(p, n_units=0, precision=P)
            for p in parts
        ]
        permuted = list(
            np.random.default_rng(order + 1).permutation(len(shards))
        )
        merged = merge_all(
            (shards[i] for i in permuted), precision=P
        ).count_units(1)
        assert merged.digest() == aggregate_of(table).digest()

    @settings(max_examples=40, deadline=None)
    @given(session_tables())
    def test_empty_aggregate_is_merge_identity(self, table):
        agg = aggregate_of(table)
        before = agg.digest()
        agg.merge(CampaignAggregate.empty(precision=P))
        assert agg.digest() == before


class TestSerializationRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(session_tables())
    def test_round_trip_is_bit_exact(self, table):
        agg = aggregate_of(table)
        clone = CampaignAggregate.from_dict(agg.to_dict())
        assert clone.digest() == agg.digest()
        assert clone.canonical_json() == agg.canonical_json()

    @settings(max_examples=25, deadline=None)
    @given(session_tables(), session_tables())
    def test_merge_of_deserialized_equals_merge_of_originals(self, ta, tb):
        direct = aggregate_of(ta).merge(aggregate_of(tb))
        via_json = CampaignAggregate.from_dict(
            aggregate_of(ta).to_dict()
        ).merge(CampaignAggregate.from_dict(aggregate_of(tb).to_dict()))
        assert via_json.digest() == direct.digest()

    def test_wrong_format_version_rejected(self):
        payload = CampaignAggregate.empty(precision=P).to_dict()
        payload["format"] = 999
        with pytest.raises(SketchError, match="format"):
            CampaignAggregate.from_dict(payload)

    def test_corrupt_payload_rejected(self):
        payload = CampaignAggregate.empty(precision=P).to_dict()
        del payload["minute_sessions"]
        with pytest.raises(SketchError):
            CampaignAggregate.from_dict(payload)


class TestEmptyShardEdgeCase:
    """A zero-session (day, BS) unit must be a valid identity element."""

    def test_empty_table_update_is_identity(self):
        agg = CampaignAggregate.empty(precision=P)
        before = agg.digest()
        agg.update_table(SessionTable.empty())
        assert agg.digest() == before

    def test_derivations_of_empty_are_total(self):
        agg = CampaignAggregate.empty(precision=P)
        agg.count_units(3)  # empty units still cover BS-time
        assert agg.n_sessions == 0
        assert agg.total_volume_mb() == 0.0
        assert agg.day_night_ratio() == 0.0
        assert agg.volume.mean() == 0.0 and agg.volume.variance() == 0.0
        assert agg.duration.mean() == 0.0
        assert agg.distinct_sessions() == 0.0
        for derived in (
            agg.volume_pdf(),
            agg.duration_pdf(),
            agg.circadian_profile(),
            agg.service_session_shares(),
            agg.service_traffic_shares(),
        ):
            assert np.all(np.isfinite(derived))
            assert np.all(derived == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(session_tables())
    def test_merging_empty_units_only_dilutes_rates(self, table):
        """Empty units change per-unit rates but never the counters."""
        agg = aggregate_of(table)
        sessions = agg.n_sessions
        empty = CampaignAggregate.empty(precision=P).count_units(5)
        agg.merge(empty)
        assert agg.n_sessions == sessions
        assert agg.n_units == 6
        assert np.all(np.isfinite(agg.circadian_profile()))


class TestMoments:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(2.0**-13, 65536.0, width=32), max_size=50),
        st.lists(st.floats(2.0**-13, 65536.0, width=32), max_size=50),
    )
    def test_split_update_equals_single_update(self, xs, ys):
        both = Moments(20, 6).update(np.asarray(xs + ys, dtype=np.float64))
        split = (
            Moments(20, 6)
            .update(np.asarray(xs, dtype=np.float64))
            .merge(Moments(20, 6).update(np.asarray(ys, dtype=np.float64)))
        )
        assert both.to_dict() == split.to_dict()

    def test_quanta_mismatch_rejected(self):
        with pytest.raises(SketchError, match="quanta"):
            Moments(20, 6).merge(Moments(10, 6))

    def test_mean_variance_track_numpy(self):
        values = np.linspace(0.5, 99.5, 200)
        m = Moments(20, 6).update(values)
        assert m.count == 200
        assert m.mean() == pytest.approx(float(values.mean()), rel=1e-6)
        assert m.variance() == pytest.approx(float(values.var()), rel=1e-3)
        assert m.minimum == 0.5 and m.maximum == 99.5


class TestFixedHistogram:
    def test_grid_mismatch_rejected(self):
        a = FixedHistogram(np.array([0.0, 1.0, 2.0]))
        b = FixedHistogram(np.array([0.0, 1.0, 3.0]))
        with pytest.raises(SketchError, match="grids"):
            a.merge(b)

    def test_out_of_range_clips_into_edge_bins(self):
        h = FixedHistogram(np.array([0.0, 1.0, 2.0]))
        h.update(np.array([-5.0, 0.5, 99.0]))
        assert h.counts.tolist() == [2, 1]
        assert h.total == 3

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-10.0, 10.0, width=32), min_size=1, max_size=60))
    def test_density_integrates_to_one(self, values):
        h = FixedHistogram(np.linspace(-4.0, 4.0, 17))
        h.update(np.asarray(values, dtype=np.float64))
        integral = float(np.sum(h.density() * np.diff(h.edges)))
        assert integral == pytest.approx(1.0, rel=1e-9)


class TestHyperLogLog:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(500, 20_000))
    def test_estimate_within_standard_error_band(self, offset, n):
        """The estimate stays inside a 4-sigma band of true cardinality."""
        sketch = HyperLogLog(precision=12)
        items = (np.arange(n, dtype=np.uint64) * np.uint64(2**20)) + np.uint64(
            offset
        )
        sketch.add_items(items)
        relative = abs(sketch.estimate() - n) / n
        assert relative <= 4 * sketch.relative_error()

    def test_merge_equals_union(self):
        a, b = HyperLogLog(precision=P), HyperLogLog(precision=P)
        a.add_items(np.arange(0, 3000, dtype=np.uint64))
        b.add_items(np.arange(2000, 5000, dtype=np.uint64))
        union = HyperLogLog(precision=P)
        union.add_items(np.arange(0, 5000, dtype=np.uint64))
        assert np.array_equal(
            a.merge(b).registers, union.registers
        ), "merged registers must equal the union's registers"

    def test_merge_is_idempotent(self):
        a = HyperLogLog(precision=P)
        a.add_items(np.arange(1000, dtype=np.uint64))
        before = a.registers.copy()
        clone = HyperLogLog.from_dict(a.to_dict())
        assert np.array_equal(a.merge(clone).registers, before)

    def test_incompatible_sketches_rejected(self):
        with pytest.raises(SketchError, match="precision"):
            HyperLogLog(precision=8).merge(HyperLogLog(precision=10))
        with pytest.raises(SketchError, match="seed"):
            HyperLogLog(precision=8, seed=1).merge(
                HyperLogLog(precision=8, seed=2)
            )

    def test_seed_changes_registers_not_scale(self):
        items = np.arange(5000, dtype=np.uint64)
        a = HyperLogLog(precision=12, seed=DEFAULT_HLL_SEED).add_items(items)
        b = HyperLogLog(precision=12, seed=999).add_items(items)
        assert not np.array_equal(a.registers, b.registers)
        assert b.estimate() == pytest.approx(5000, rel=4 * b.relative_error())


# ----------------------------------------------------------------------
# Differential tests of the fold's fast pieces against plain oracles
# ----------------------------------------------------------------------
def searchsorted_bins(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The binning oracle: binary search, clipped into the grid."""
    idx = np.searchsorted(edges, values, side="right") - 1
    return np.clip(idx, 0, edges.size - 2)


#: The campaign's two grids, with the coordinate map and outer-edge span
#: under which :meth:`CampaignAggregate.update_table` bins each.
GRIDS = {
    "volume": (LOG_GRID, lambda x: x, _VOLUME_GRID_SPAN),
    "duration": (DURATION_EDGES, np.log, _DURATION_GRID_SPAN),
}

#: Awkward floats: signed zeros, subnormals, the smallest normal, huge
#: magnitudes and infinities.
SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1e-300, -1.0, 1e300, -1e300, np.inf, -np.inf,
]


def fast_bins(grid: str, values: np.ndarray) -> np.ndarray:
    edges, coordinate, span = GRIDS[grid]
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        coords = coordinate(values)
    return FixedHistogram(edges)._bin_index(values, coords, *span)


class TestBinIndex:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_every_edge_and_its_neighbours(self, grid):
        edges = GRIDS[grid][0]
        probes = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            0.5 * (edges[:-1] + edges[1:]),
        ])
        assert np.array_equal(
            fast_bins(grid, probes), searchsorted_bins(edges, probes)
        )

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_out_of_range_infinities_and_subnormals(self, grid):
        edges = GRIDS[grid][0]
        width = edges[-1] - edges[0]
        probes = np.array(
            SPECIAL_FLOATS
            + [edges[0] - width, edges[0] - 1e-9, edges[-1] + 1e-9,
               edges[-1] + width, edges[-1] * 1e6]
        )
        assert np.array_equal(
            fast_bins(grid, probes), searchsorted_bins(edges, probes)
        )

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=50),
        st.lists(st.floats(-6.0, 1e6, allow_nan=False), max_size=50),
    )
    def test_matches_binary_search_on_drawn_floats(self, grid, wide, near):
        probes = np.asarray(wide + near, dtype=np.float64)
        edges = GRIDS[grid][0]
        assert np.array_equal(
            fast_bins(grid, probes), searchsorted_bins(edges, probes)
        )

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_float32_columns_bin_like_the_update_path(self, grid):
        """Session columns are float32: every such value bins exactly."""
        edges = GRIDS[grid][0]
        rng = np.random.default_rng(7)
        low, high = float(edges[0]), float(edges[-1])
        pad = 0.1 * (high - low)
        values = rng.uniform(low - pad, high + pad, 50_000).astype(np.float32)
        probes = values.astype(np.float64)
        assert np.array_equal(
            fast_bins(grid, probes), searchsorted_bins(edges, probes)
        )


class TestBitLength:
    def test_powers_of_two_and_their_predecessors(self):
        words = [0] + [1 << k for k in range(64)] + [
            (1 << k) - 1 for k in range(1, 65)
        ]
        got = _bit_length(np.array(words, dtype=np.uint64))
        assert got.tolist() == [w.bit_length() for w in words]

    def test_random_words(self):
        rng = np.random.default_rng(11)
        words = rng.integers(
            0, np.iinfo(np.uint64).max, 20_000, dtype=np.uint64,
            endpoint=True,
        )
        # Shift some words right so every bit length is well represented.
        words >>= rng.integers(0, 64, words.size).astype(np.uint64)
        got = _bit_length(words)
        assert got.tolist() == [int(w).bit_length() for w in words]


def reference_registers(hashes: np.ndarray, precision: int) -> list[int]:
    """HLL registers from a plain per-hash loop over Python ints."""
    registers = [0] * (1 << precision)
    tail_bits = 64 - precision
    for h in (int(x) for x in hashes):
        bucket = h >> tail_bits
        tail = h & ((1 << tail_bits) - 1)
        registers[bucket] = max(
            registers[bucket], tail_bits + 1 - tail.bit_length()
        )
    return registers


class TestHllRegistersAgainstLoop:
    @pytest.mark.parametrize("precision", [4, 10, 14, 18])
    def test_registers_match_per_hash_loop(self, precision):
        rng = np.random.default_rng(precision)
        hashes = rng.integers(
            0, np.iinfo(np.uint64).max, 4000, dtype=np.uint64,
            endpoint=True,
        )
        tail_bits = 64 - precision
        # Tails of every length, the all-zero tail (maximal rank) and
        # the all-ones tail, in buckets spread over the register file.
        lengths = rng.integers(0, tail_bits + 1, hashes.size)
        mask = np.array(
            [(1 << int(n)) - 1 for n in lengths], dtype=np.uint64
        )
        crafted = (hashes & ~np.uint64((1 << tail_bits) - 1)) | (hashes & mask)
        edge_cases = np.array(
            [0, (1 << tail_bits) - 1, 1, (1 << 64) - 1, 1 << (tail_bits - 1)],
            dtype=np.uint64,
        )
        everything = np.concatenate([hashes, crafted, edge_cases])
        sketch = HyperLogLog(precision=precision).add_hashes(everything)
        assert sketch.registers.tolist() == reference_registers(
            everything, precision
        )


def chained_fingerprints(table: SessionTable, seed: int) -> np.ndarray:
    """Session fingerprints as chained out-of-place splitmix64 rounds."""
    h = np.full(len(table), np.uint64(seed), dtype=np.uint64)
    for column in (
        table.service_idx.astype(np.uint64),
        table.bs_id.astype(np.int64).astype(np.uint64),
        table.day.astype(np.uint64),
        table.start_minute.astype(np.uint64),
        table.duration_s.view(np.uint32).astype(np.uint64),
        table.volume_mb.view(np.uint32).astype(np.uint64),
        table.truncated.astype(np.uint64),
    ):
        h = _splitmix64(h ^ column)
    return h


class TestSessionFingerprints:
    @settings(max_examples=40, deadline=None)
    @given(session_tables(), st.integers(0, 2**64 - 1))
    def test_in_place_rounds_equal_chained_rounds(self, table, seed):
        assert np.array_equal(
            session_fingerprints(table, seed),
            chained_fingerprints(table, seed),
        )

    def test_negative_identifiers_hash_as_twos_complement(self):
        table = SessionTable(
            np.array([0], dtype=np.int16),
            np.array([-3], dtype=np.int32),
            np.array([0], dtype=np.int16),
            np.array([5], dtype=np.int16),
            np.array([2.0], dtype=np.float32),
            np.array([0.5], dtype=np.float32),
            np.array([True]),
            validate=False,
        )
        assert np.array_equal(
            session_fingerprints(table, 9), chained_fingerprints(table, 9)
        )


# ----------------------------------------------------------------------
# Bad values fail at the sketch boundary, before any state changes
# ----------------------------------------------------------------------
def valid_rows(n: int = 32) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    return {
        "service_idx": rng.integers(
            0, len(SERVICE_NAMES), n
        ).astype(np.int16),
        "bs_id": rng.integers(0, 4, n).astype(np.int32),
        "day": np.zeros(n, dtype=np.int16),
        "start_minute": rng.integers(0, 1440, n).astype(np.int16),
        "duration_s": rng.uniform(1.0, 600.0, n).astype(np.float32),
        "volume_mb": rng.uniform(0.01, 50.0, n).astype(np.float32),
        "truncated": rng.random(n) < 0.1,
    }


class TestNonFiniteValuesRejected:
    @pytest.mark.parametrize("column", ["volume_mb", "duration_s"])
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0],
        ids=["nan", "+inf", "-inf", "zero", "negative-zero", "negative"],
    )
    def test_update_raises_and_leaves_the_aggregate_untouched(
        self, column, bad
    ):
        agg = CampaignAggregate.from_table(
            SessionTable(**valid_rows()), n_units=1, precision=P
        )
        before = agg.digest()
        rows = valid_rows()
        rows[column][len(rows[column]) // 2] = bad
        table = SessionTable(**rows, validate=False)
        with pytest.raises(SketchError, match=column):
            agg.update_table(table)
        assert agg.digest() == before
