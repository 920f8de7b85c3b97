"""Raw columnar segment format: roundtrip and corruption detection."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dataset.records import TABLE_SCHEMA, SessionTable
from repro.io.spool import (
    SEGMENT_SUFFIX,
    SegmentError,
    load_segment,
    save_segment,
)


def make_table(n: int, seed: int = 0) -> SessionTable:
    rng = np.random.default_rng(seed)
    return SessionTable(
        service_idx=rng.integers(0, 5, n, dtype=np.int16),
        bs_id=rng.integers(0, 40, n, dtype=np.int32),
        day=rng.integers(0, 3, n, dtype=np.int16),
        start_minute=rng.integers(0, 1440, n, dtype=np.int16),
        duration_s=rng.uniform(1.0, 300.0, n).astype(np.float32),
        volume_mb=rng.uniform(0.1, 50.0, n).astype(np.float32),
        truncated=rng.random(n) < 0.1,
    )


def assert_tables_equal(a: SessionTable, b: SessionTable) -> None:
    for spec in TABLE_SCHEMA:
        np.testing.assert_array_equal(
            getattr(a, spec.name), getattr(b, spec.name), err_msg=spec.name
        )


class TestRoundtrip:
    def test_byte_identical_roundtrip(self, tmp_path):
        table = make_table(512)
        path = tmp_path / f"chunk{SEGMENT_SUFFIX}"
        save_segment(path, table)
        assert_tables_equal(load_segment(path), table)

    def test_empty_table_roundtrip(self, tmp_path):
        path = tmp_path / f"empty{SEGMENT_SUFFIX}"
        save_segment(path, SessionTable.empty())
        assert len(load_segment(path)) == 0

    def test_header_is_one_json_line(self, tmp_path):
        path = tmp_path / f"chunk{SEGMENT_SUFFIX}"
        save_segment(path, make_table(8))
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["n"] == 8
        assert header["columns"] == [
            [spec.name, spec.dtype] for spec in TABLE_SCHEMA
        ]


class TestCorruptionDetection:
    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / f"chunk{SEGMENT_SUFFIX}"
        save_segment(path, make_table(512))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(SegmentError, match="truncated"):
            load_segment(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / f"chunk{SEGMENT_SUFFIX}"
        save_segment(path, make_table(64))
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 7)
        with pytest.raises(SegmentError, match="truncated or padded"):
            load_segment(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / f"chunk{SEGMENT_SUFFIX}"
        path.write_bytes(b'{"format":"other","version":1,"n":0}\n')
        with pytest.raises(SegmentError, match="not a v1 segment"):
            load_segment(path)

    def test_unparseable_header_rejected(self, tmp_path):
        path = tmp_path / f"chunk{SEGMENT_SUFFIX}"
        path.write_bytes(b"\x93NUMPY not json at all\n")
        with pytest.raises(SegmentError, match="unreadable segment header"):
            load_segment(path)

    def test_schema_drift_rejected(self, tmp_path):
        path = tmp_path / f"chunk{SEGMENT_SUFFIX}"
        save_segment(path, make_table(16))
        raw = path.read_bytes()
        head, body = raw.split(b"\n", 1)
        header = json.loads(head)
        header["columns"][1][1] = "int64"  # widen bs_id
        drifted = json.dumps(header, separators=(",", ":")).encode() + b"\n"
        path.write_bytes(drifted + body)
        with pytest.raises(SegmentError, match="does not match TABLE_SCHEMA"):
            load_segment(path)

    def test_invalid_row_count_rejected(self, tmp_path):
        path = tmp_path / f"chunk{SEGMENT_SUFFIX}"
        save_segment(path, make_table(16))
        raw = path.read_bytes()
        head, body = raw.split(b"\n", 1)
        header = json.loads(head)
        header["n"] = -4
        mangled = json.dumps(header, separators=(",", ":")).encode() + b"\n"
        path.write_bytes(mangled + body)
        with pytest.raises(SegmentError, match="invalid row count"):
            load_segment(path)
