"""Tests for the columnar session table."""

import numpy as np
import pytest

from repro.dataset.records import (
    SERVICE_INDEX,
    SERVICE_NAMES,
    RecordsError,
    SessionRecord,
    SessionTable,
)


def small_table():
    return SessionTable(
        service_idx=np.array([0, 1, 0, 5]),
        bs_id=np.array([0, 0, 1, 1]),
        day=np.array([0, 0, 0, 1]),
        start_minute=np.array([10, 20, 30, 40]),
        duration_s=np.array([60.0, 120.0, 30.0, 600.0]),
        volume_mb=np.array([1.0, 2.0, 0.5, 50.0]),
        truncated=np.array([False, True, False, False]),
    )


class TestConstruction:
    def test_len(self):
        assert len(small_table()) == 4

    def test_empty(self):
        assert len(SessionTable.empty()) == 0

    def test_misaligned_columns_raise(self):
        with pytest.raises(RecordsError):
            SessionTable(
                service_idx=np.array([0, 1]),
                bs_id=np.array([0]),
                day=np.array([0, 0]),
                start_minute=np.array([0, 0]),
                duration_s=np.array([1.0, 1.0]),
                volume_mb=np.array([1.0, 1.0]),
                truncated=np.array([False, False]),
            )

    def test_negative_duration_rejected(self):
        with pytest.raises(RecordsError):
            SessionTable(
                service_idx=np.array([0]),
                bs_id=np.array([0]),
                day=np.array([0]),
                start_minute=np.array([0]),
                duration_s=np.array([-1.0]),
                volume_mb=np.array([1.0]),
                truncated=np.array([False]),
            )

    @pytest.mark.parametrize("column", ["duration_s", "volume_mb"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0])
    def test_non_finite_or_non_positive_values_rejected(self, column, bad):
        values = {"duration_s": np.array([1.0, 2.0]),
                  "volume_mb": np.array([1.0, 2.0])}
        values[column][1] = bad
        with pytest.raises(RecordsError, match="finite and positive"):
            SessionTable(
                service_idx=np.array([0, 0]),
                bs_id=np.array([0, 0]),
                day=np.array([0, 0]),
                start_minute=np.array([0, 1]),
                truncated=np.array([False, False]),
                **values,
            )

    def test_bad_service_index_rejected(self):
        with pytest.raises(RecordsError):
            SessionTable(
                service_idx=np.array([len(SERVICE_NAMES)]),
                bs_id=np.array([0]),
                day=np.array([0]),
                start_minute=np.array([0]),
                duration_s=np.array([1.0]),
                volume_mb=np.array([1.0]),
                truncated=np.array([False]),
            )

    def test_bad_minute_rejected(self):
        with pytest.raises(RecordsError):
            SessionTable(
                service_idx=np.array([0]),
                bs_id=np.array([0]),
                day=np.array([0]),
                start_minute=np.array([1440]),
                duration_s=np.array([1.0]),
                volume_mb=np.array([1.0]),
                truncated=np.array([False]),
            )


class TestSelection:
    def test_select_mask(self):
        table = small_table()
        sub = table.select(table.bs_id == 1)
        assert len(sub) == 2
        assert set(sub.bs_id) == {1}

    def test_select_wrong_mask_length(self):
        with pytest.raises(RecordsError):
            small_table().select(np.array([True]))

    def test_for_service(self):
        table = small_table()
        sub = table.for_service(SERVICE_NAMES[0])
        assert len(sub) == 2

    def test_for_unknown_service_raises(self):
        with pytest.raises(RecordsError):
            small_table().for_service("nope")

    def test_for_bs_ids(self):
        assert len(small_table().for_bs_ids([0])) == 2

    def test_for_days(self):
        assert len(small_table().for_days([1])) == 1

    def test_concatenate(self):
        merged = SessionTable.concatenate([small_table(), small_table()])
        assert len(merged) == 8

    def test_concatenate_empty_list(self):
        assert len(SessionTable.concatenate([])) == 0

    SCHEMA_DTYPES = {
        "service_idx": np.int16,
        "bs_id": np.int32,
        "day": np.int16,
        "start_minute": np.int16,
        "duration_s": np.float32,
        "volume_mb": np.float32,
        "truncated": np.bool_,
    }

    def test_empty_table_has_exact_schema_dtypes(self):
        table = SessionTable.empty()
        for column, dtype in self.SCHEMA_DTYPES.items():
            assert getattr(table, column).dtype == dtype, column

    def test_concatenate_all_empty_pieces_keeps_schema(self):
        # A campaign where every BS sampled zero arrivals must still yield
        # a schema-correct empty table.
        merged = SessionTable.concatenate([SessionTable.empty()] * 5)
        assert len(merged) == 0
        for column, dtype in self.SCHEMA_DTYPES.items():
            assert getattr(merged, column).dtype == dtype, column

    def test_concatenate_empty_with_populated_keeps_schema(self):
        merged = SessionTable.concatenate(
            [SessionTable.empty(), small_table(), SessionTable.empty()]
        )
        assert len(merged) == 4
        for column, dtype in self.SCHEMA_DTYPES.items():
            assert getattr(merged, column).dtype == dtype, column


class TestDerived:
    def test_throughput(self):
        table = small_table()
        thr = table.throughput_mbps()
        assert thr[0] == pytest.approx(1.0 * 8.0 / 60.0)

    def test_total_volume(self):
        assert small_table().total_volume_mb() == pytest.approx(53.5)

    def test_rows_iteration(self):
        rows = list(small_table().rows())
        assert len(rows) == 4
        assert isinstance(rows[0], SessionRecord)
        assert rows[0].service == SERVICE_NAMES[0]
        assert rows[1].truncated

    def test_record_throughput(self):
        record = SessionRecord("Facebook", 0, 0, 10, 100.0, 5.0, False)
        assert record.throughput_mbps == pytest.approx(0.4)

    def test_record_zero_duration_throughput_raises(self):
        record = SessionRecord("Facebook", 0, 0, 10, 0.0, 100.0, False)
        with pytest.raises(RecordsError):
            record.throughput_mbps

    def test_table_zero_duration_throughput_raises(self):
        # validate=False is the only way a zero duration reaches the
        # derived quantity; it must raise instead of returning inf.
        table = SessionTable(
            np.array([0], dtype=np.int16),
            np.array([0], dtype=np.int32),
            np.array([0], dtype=np.int16),
            np.array([10], dtype=np.int16),
            np.array([0.0], dtype=np.float32),
            np.array([1.0], dtype=np.float32),
            np.array([False]),
            validate=False,
        )
        with pytest.raises(RecordsError):
            table.throughput_mbps()

    def test_service_index_consistency(self):
        for name, idx in SERVICE_INDEX.items():
            assert SERVICE_NAMES[idx] == name
