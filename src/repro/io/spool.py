"""Raw columnar segment format: the one on-disk form of a session table.

A *segment* is one :class:`~repro.dataset.records.SessionTable` laid out
exactly as the :class:`~repro.dataset.records.SessionArena` holds it: a
one-line JSON header describing the schema, followed by each column's raw
buffer bytes in schema order.  Every cached table — the simulate stage's
campaign and each chunk
:meth:`~repro.core.generator.TrafficGenerator.spool_campaign` streams —
is stored this way.  Writing is a straight sequence of buffer dumps and
reading a straight sequence of buffer fills — no compression, no archive
framing — so the cache runs at disk bandwidth.  The price is size: a
segment takes about three times the bytes of a compressed archive of the
same table.

The header pins the schema (names, dtypes, row count) and the loader
cross-checks it against :data:`~repro.dataset.records.TABLE_SCHEMA` plus
the file's actual size, so any truncation or drift surfaces as a hard
error — which the artifact cache's ``fetch`` wraps into
:class:`~repro.io.cache.CacheError`, the single corruption signal the
spool-resume path regenerates on.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..dataset.records import ROW_BYTES, TABLE_SCHEMA, SessionTable

#: Artifact suffix of session-table segments.
SEGMENT_SUFFIX = ".seg"

#: Magic identifying a segment header; bump the version on layout changes.
_SEGMENT_FORMAT = "repro-segment"
_SEGMENT_VERSION = 1


class SegmentError(ValueError):
    """Raised on malformed, truncated, or schema-drifted segment files."""


def _header_bytes(n: int) -> bytes:
    """The newline-terminated JSON header of an ``n``-row segment."""
    header = {
        "format": _SEGMENT_FORMAT,
        "version": _SEGMENT_VERSION,
        "n": n,
        "columns": [[spec.name, spec.dtype] for spec in TABLE_SCHEMA],
    }
    return (json.dumps(header, separators=(",", ":")) + "\n").encode("ascii")


def save_segment(path: str | Path, table: SessionTable) -> None:
    """Write ``table`` as one raw columnar segment.

    Columns are dumped in schema order as contiguous raw buffers — the
    arena's own layout — so writing is bounded by disk bandwidth alone.
    """
    n = len(table)
    with open(path, "wb") as fh:
        fh.write(_header_bytes(n))
        for spec in TABLE_SCHEMA:
            fh.write(np.ascontiguousarray(getattr(table, spec.name)).tobytes())


def load_segment(path: str | Path) -> SessionTable:
    """Read a segment back as a (validated) :class:`SessionTable`.

    Raises :class:`SegmentError` on any structural problem: bad magic,
    schema drift against :data:`TABLE_SCHEMA`, or a file size that does
    not match the declared row count (truncation).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        line = fh.readline()
        data_start = fh.tell()
    try:
        header = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SegmentError(f"unreadable segment header in {path}") from exc
    if (
        not isinstance(header, dict)
        or header.get("format") != _SEGMENT_FORMAT
        or header.get("version") != _SEGMENT_VERSION
    ):
        raise SegmentError(f"{path} is not a v{_SEGMENT_VERSION} segment")
    expected_columns = [[spec.name, spec.dtype] for spec in TABLE_SCHEMA]
    if header.get("columns") != expected_columns:
        raise SegmentError(
            f"segment schema of {path} does not match TABLE_SCHEMA"
        )
    n = header.get("n")
    if not isinstance(n, int) or n < 0:
        raise SegmentError(f"segment {path} declares invalid row count {n!r}")
    offset = data_start + n * ROW_BYTES
    if path.stat().st_size != offset:
        raise SegmentError(
            f"segment {path} is truncated or padded: expected {offset} bytes,"
            f" found {path.stat().st_size}"
        )
    columns = []
    with open(path, "rb") as fh:
        fh.seek(data_start)
        for spec in TABLE_SCHEMA:
            # Fresh writable arrays, like those of a freshly computed table.
            columns.append(np.fromfile(fh, dtype=spec.np_dtype, count=n))
    return SessionTable(*columns)
