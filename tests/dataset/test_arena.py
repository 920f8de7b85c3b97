"""SessionArena: reservation, growth, views and snapshots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.records import (
    DEFAULT_ARENA_CAPACITY,
    ROW_BYTES,
    TABLE_SCHEMA,
    RecordsError,
    SessionArena,
    SessionTable,
)


def fill_rows(arena: SessionArena, n: int, *, day: int = 0) -> slice:
    """Reserve ``n`` rows and fill them with simple valid session data."""
    rows = arena.reserve(n)
    base = np.arange(n)
    arena.column("service_idx")[rows] = (base % 3).astype(np.int16)
    arena.column("bs_id")[rows] = 7
    arena.column("day")[rows] = day
    arena.column("start_minute")[rows] = (base % 1440).astype(np.int16)
    arena.column("duration_s")[rows] = 60.0
    arena.column("volume_mb")[rows] = 1.5
    arena.column("truncated")[rows] = False
    return rows


class TestReserveAndGrow:
    def test_reserve_returns_consecutive_slices(self):
        arena = SessionArena(capacity=16)
        assert arena.reserve(5) == slice(0, 5)
        assert arena.reserve(3) == slice(5, 8)
        assert len(arena) == 8

    def test_growth_preserves_filled_rows(self):
        arena = SessionArena(capacity=4)
        fill_rows(arena, 4, day=1)
        before = arena.snapshot()
        fill_rows(arena, 100, day=2)  # forces reallocation
        assert arena.capacity >= 104
        after = arena.view(0, 4)
        for spec in TABLE_SCHEMA:
            np.testing.assert_array_equal(
                getattr(after, spec.name), getattr(before, spec.name)
            )

    def test_growth_is_geometric(self):
        arena = SessionArena(capacity=8)
        arena.reserve(9)
        assert arena.capacity == 16  # doubled, not just fitted

    def test_negative_reserve_rejected(self):
        with pytest.raises(RecordsError):
            SessionArena(capacity=4).reserve(-1)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(RecordsError):
            SessionArena(capacity=0)

    def test_default_capacity(self):
        assert SessionArena().capacity == DEFAULT_ARENA_CAPACITY

    def test_columns_have_schema_dtypes(self):
        arena = SessionArena(capacity=4)
        for spec in TABLE_SCHEMA:
            assert arena.column(spec.name).dtype == spec.np_dtype


class TestReset:
    def test_reset_rewinds_without_reallocating(self):
        arena = SessionArena(capacity=32)
        fill_rows(arena, 10)
        buffer_before = arena.column("volume_mb")
        arena.reset()
        assert len(arena) == 0
        assert arena.capacity == 32
        assert arena.column("volume_mb") is buffer_before
        assert fill_rows(arena, 4) == slice(0, 4)


class TestViewsAndSnapshots:
    def test_view_is_zero_copy(self):
        arena = SessionArena(capacity=16)
        fill_rows(arena, 8)
        table = arena.view(2, 6)
        assert isinstance(table, SessionTable)
        assert len(table) == 4
        assert np.shares_memory(table.volume_mb, arena.column("volume_mb"))
        arena.column("volume_mb")[2] = 99.0
        assert table.volume_mb[0] == np.float32(99.0)

    def test_snapshot_owns_its_data(self):
        arena = SessionArena(capacity=16)
        fill_rows(arena, 8)
        table = arena.snapshot(0, 8)
        arena.column("volume_mb")[0] = 123.0
        assert table.volume_mb[0] == np.float32(1.5)

    def test_view_defaults_to_filled_region(self):
        arena = SessionArena(capacity=16)
        fill_rows(arena, 5)
        assert len(arena.view()) == 5
        assert len(arena.snapshot()) == 5

    def test_view_beyond_filled_rows_rejected(self):
        arena = SessionArena(capacity=16)
        fill_rows(arena, 5)
        with pytest.raises(RecordsError):
            arena.view(0, 6)
        with pytest.raises(RecordsError):
            arena.snapshot(4, 3)
        with pytest.raises(RecordsError):
            arena.view(-1, 2)

    def test_view_validates_on_demand(self):
        arena = SessionArena(capacity=8)
        rows = fill_rows(arena, 3)
        arena.column("duration_s")[rows] = 0.0
        table = arena.view()  # O(1), not validated
        with pytest.raises(RecordsError):
            table.validate()


class TestBudgetAndIntrospection:
    def test_fill_ratio_and_nbytes(self):
        arena = SessionArena(capacity=10)
        assert arena.fill_ratio == 0.0
        fill_rows(arena, 5)
        assert arena.fill_ratio == pytest.approx(0.5)
        assert arena.nbytes == 10 * ROW_BYTES

