"""Spool-resume under the arena path: interruption and corruption recovery.

A spooled campaign must survive a killed run (missing trailing chunk), a
torn write (truncated trailing chunk) and a failed write (full disk): the
next ``spool_campaign`` call regenerates exactly the damaged chunks and
the materialized campaign stays byte-identical to an uninterrupted spool.
"""

from __future__ import annotations

import errno

import numpy as np
import pytest

from repro.core.arrivals import ArrivalModel
from repro.core.generator import TrafficGenerator
from repro.core.service_mix import ServiceMix
from repro.dataset.records import TABLE_SCHEMA, SessionArena, SessionTable
from repro.io.cache import ArtifactCache
from repro.io.spool import SEGMENT_SUFFIX, load_segment

SEED = 11
DAYS = 2
CHUNK = 500


@pytest.fixture(scope="module")
def generator(bank):
    """Low-rate generator spanning several chunks at CHUNK=500."""
    arrival = ArrivalModel(peak_mu=2.0, peak_sigma=0.5, night_scale=0.4)
    mix = ServiceMix.from_table1().restricted_to(bank.services())
    return TrafficGenerator({0: arrival, 3: arrival, 7: arrival}, mix, bank)


def spool(generator, cache):
    return generator.spool_campaign(DAYS, SEED, cache, chunk_sessions=CHUNK)


def assert_tables_identical(a, b) -> None:
    for spec in TABLE_SCHEMA:
        left, right = getattr(a, spec.name), getattr(b, spec.name)
        assert left.dtype == right.dtype, spec.name
        np.testing.assert_array_equal(left, right, err_msg=spec.name)


@pytest.fixture(scope="module")
def baseline(generator, tmp_path_factory):
    """An uninterrupted spool: the byte-identity reference."""
    cache = ArtifactCache(tmp_path_factory.mktemp("baseline"))
    manifest = spool(generator, cache)
    assert len(manifest.chunk_keys) > 1, "workload must span several chunks"
    return manifest.load(cache)


class TestInterruptedSpool:
    def test_killed_run_resumes_byte_identical(
        self, generator, baseline, tmp_path
    ):
        """Missing trailing chunk (process died before writing it)."""
        cache = ArtifactCache(tmp_path)
        first = spool(generator, cache)
        last = cache.path_for(first.kind, first.chunk_keys[-1], SEGMENT_SUFFIX)
        last.unlink()
        resumed = spool(generator, cache)
        assert resumed.chunk_keys == first.chunk_keys
        assert last.exists()
        assert_tables_identical(resumed.load(cache), baseline)

    def test_torn_write_regenerates_byte_identical(
        self, generator, baseline, tmp_path
    ):
        """Truncated trailing chunk (torn write): detected and rebuilt."""
        cache = ArtifactCache(tmp_path)
        first = spool(generator, cache)
        last = cache.path_for(first.kind, first.chunk_keys[-1], SEGMENT_SUFFIX)
        raw = last.read_bytes()
        last.write_bytes(raw[: len(raw) // 2])
        resumed = spool(generator, cache)
        assert last.read_bytes() == raw  # rebuilt, not trusted as-is
        assert_tables_identical(resumed.load(cache), baseline)

    def test_intact_chunks_not_rebuilt_on_resume(self, generator, tmp_path):
        """Resume touches only the damaged chunk, never the intact ones."""
        cache = ArtifactCache(tmp_path)
        first = spool(generator, cache)
        paths = {
            key: cache.path_for(first.kind, key, SEGMENT_SUFFIX)
            for key in first.chunk_keys
        }
        stamps = {
            key: path.stat().st_mtime_ns for key, path in paths.items()
        }
        paths[first.chunk_keys[-1]].unlink()
        spool(generator, cache)
        for key in first.chunk_keys[:-1]:
            assert paths[key].stat().st_mtime_ns == stamps[key]

    def test_failed_write_leaves_no_partial_chunk(
        self, generator, baseline, tmp_path, full_disk_on_write
    ):
        """A full disk on the 2nd chunk write: error out, leave no debris."""
        cache = ArtifactCache(tmp_path)
        full_disk_on_write(2)
        with pytest.raises(OSError) as raised:
            spool(generator, cache)
        assert raised.value.errno == errno.ENOSPC
        files = [path for path in tmp_path.rglob("*") if path.is_file()]
        assert [path.name for path in files if path.name.startswith(".tmp-")] == []
        assert len(files) == 1  # the first chunk, written before the failure
        load_segment(files[0])  # complete: a partial segment fails to load
        resumed = spool(generator, cache)
        assert_tables_identical(resumed.load(cache), baseline)


class TestCallerArena:
    def test_tiny_caller_arena_changes_nothing(self, generator, baseline):
        """A caller-provided (deliberately tiny) arena changes nothing."""
        arena = SessionArena(capacity=64)
        # Each chunk is a view the next chunk overwrites: keep a copy.
        chunks = [
            SessionTable.concatenate([chunk.table])
            for chunk in generator.iter_campaign_chunks(
                DAYS, SEED, chunk_sessions=CHUNK, arena=arena
            )
        ]
        assert arena.capacity > 64  # the arena had to grow
        assert_tables_identical(SessionTable.concatenate(chunks), baseline)
