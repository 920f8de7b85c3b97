"""Tests for the content-keyed artifact cache."""

import collections
import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.records import SessionTable
from repro.dataset.simulator import SimulationConfig
from repro.io.cache import (
    CACHE_DIR_ENV,
    CACHE_FORMAT_VERSION,
    ArtifactCache,
    CacheError,
    Encoded,
    canonical_json,
    content_key,
    default_cache_root,
    describe,
    json_member,
)
from repro.io.spool import SEGMENT_SUFFIX, load_segment, save_segment


class _Colour(enum.Enum):
    RED = "red"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class _Cfg:
    n: int
    label: str


@dataclasses.dataclass(frozen=True)
class _Outer:
    cfg: _Cfg
    weights: tuple
    level: _Level


def _describe_before(value: Any) -> Any:
    """``describe`` as it was before its exact-type fast path."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        described = {
            field.name: _describe_before(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        described["__type__"] = type(value).__name__
        return described
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): _describe_before(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_describe_before(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CacheError(
        f"cannot build a content key from a {type(value).__name__} value"
    )


def _key_before(parts: Mapping[str, Any]) -> str:
    """``content_key`` as it was: describe the whole mapping, then dump it."""
    payload = _describe_before(dict(parts, cache_format=CACHE_FORMAT_VERSION))
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _dump(described: Any) -> str:
    return json.dumps(described, sort_keys=True, separators=(",", ":"))


#: Strings that need escaping, leave ASCII, or sort differently as text.
_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(
        ["9", "10", "é", "\u2603", '"', "\\", "\n", "\x00", "\U0001f600"]
    ),
)

_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
    st.sampled_from(list(_Colour) + list(_Level)),
    st.integers(-(2**31), 2**31).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
    st.lists(st.integers(-1000, 1000), max_size=4).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    st.lists(st.floats(allow_nan=False), max_size=4).map(np.array),
    st.builds(_Cfg, n=st.integers(), label=_TEXT),
)

_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(_TEXT, st.integers(0, 12)), inner, max_size=3),
        st.dictionaries(_TEXT, inner, max_size=3).map(collections.OrderedDict),
        st.builds(
            _Outer,
            cfg=st.builds(_Cfg, n=st.integers(), label=_TEXT),
            weights=st.lists(inner, max_size=2).map(tuple),
            level=st.sampled_from(list(_Level)),
        ),
    ),
    max_leaves=8,
)

_PARTS = st.dictionaries(
    st.one_of(_TEXT, st.sampled_from(["cache_format", "arrivals", "bs_ids"])),
    _VALUES,
    max_size=5,
)


class TestDescribe:
    def test_primitives_pass_through(self):
        assert describe(None) is None
        assert describe(3) == 3
        assert describe(1.5) == 1.5
        assert describe("x") == "x"
        assert describe(True) is True

    def test_dataclass_carries_type_name(self):
        described = describe(_Cfg(n=2, label="a"))
        assert described == {"n": 2, "label": "a", "__type__": "_Cfg"}

    def test_enum_and_numpy(self):
        assert describe(_Colour.RED) == "red"
        assert describe(np.int64(7)) == 7
        assert describe(np.array([1, 2])) == [1, 2]

    def test_nested_containers(self):
        assert describe({"a": (1, [2.0, "x"])}) == {"a": [1, [2.0, "x"]]}

    def test_unsupported_type_rejected(self):
        with pytest.raises(CacheError):
            describe(object())


class TestContentKey:
    def test_stable_across_insertion_order(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert content_key({"a": 1}) != content_key({"a": 2})
        assert content_key({"a": 1}) != content_key({"b": 1})

    def test_simulation_config_keys_differ_by_field(self):
        base = content_key({"sim": SimulationConfig(n_days=1)})
        other = content_key({"sim": SimulationConfig(n_days=2)})
        assert base != other

    def test_key_is_short_hex(self):
        key = content_key({"a": 1})
        assert len(key) == 20
        int(key, 16)  # parses as hexadecimal


class TestEncodedSplice:
    """Pre-encoded parts give the key that encoding the whole mapping gave."""

    @settings(max_examples=200, deadline=None)
    @given(value=_VALUES)
    def test_describe_fast_path_matches_the_old_describe(self, value):
        assert _dump(describe(value)) == _dump(_describe_before(value))

    @settings(max_examples=200, deadline=None)
    @given(value=_VALUES)
    def test_canonical_json_is_the_nested_text(self, value):
        whole = _dump(_describe_before({"v": value}))
        assert whole == "{" + json_member("v", canonical_json(value)) + "}"

    @settings(max_examples=200, deadline=None)
    @given(parts=_PARTS, data=st.data())
    def test_any_pre_encoded_subset_gives_the_plain_key(self, parts, data):
        encoded = data.draw(st.sets(st.sampled_from(sorted(parts) or [""])))
        mixed = {
            name: Encoded(canonical_json(value)) if name in encoded else value
            for name, value in parts.items()
        }
        assert content_key(mixed) == content_key(parts) == _key_before(parts)

    def test_members_join_in_string_order(self):
        models = {9: _Cfg(n=9, label="nine"), 10: _Cfg(n=10, label="ten")}
        members = ",".join(
            json_member(str(bs), canonical_json(models[bs]))
            for bs in sorted(models, key=str)
        )
        plain = {"arrivals": {str(bs): m for bs, m in models.items()}}
        spliced = {"arrivals": Encoded("{" + members + "}")}
        assert content_key(spliced) == content_key(plain) == _key_before(plain)

    def test_subclasses_keep_their_branches(self):
        assert describe(_Level.HIGH) == 2 and type(describe(_Level.HIGH)) is int
        assert type(describe(np.float64(0.5))) is float
        assert describe(np.bool_(True)) is True
        ordered = collections.OrderedDict([("b", 1), ("a", 2)])
        assert describe(ordered) == {"b": 1, "a": 2}

    def test_nested_encoded_part_is_rejected(self):
        with pytest.raises(CacheError):
            content_key({"a": [Encoded("1")]})


class TestArtifactCache:
    def test_store_then_fetch(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert not cache.has("kind", "abc", ".txt")
        path = cache.store(
            "kind", "abc", ".txt", lambda p: p.write_text("payload")
        )
        assert path == tmp_path / "kind" / "abc.txt"
        assert cache.has("kind", "abc", ".txt")
        assert cache.fetch("kind", "abc", ".txt", lambda p: p.read_text()) == (
            "payload"
        )

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("kind", "abc", ".txt", lambda p: p.write_text("x"))
        names = [p.name for p in (tmp_path / "kind").iterdir()]
        assert names == ["abc.txt"]

    def test_failed_store_cleans_up(self, tmp_path):
        cache = ArtifactCache(tmp_path)

        def explode(path):
            path.write_text("partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            cache.store("kind", "abc", ".txt", explode)
        assert not cache.has("kind", "abc", ".txt")
        assert list((tmp_path / "kind").iterdir()) == []

    def test_fetch_missing_raises(self, tmp_path):
        with pytest.raises(CacheError):
            ArtifactCache(tmp_path).fetch(
                "kind", "absent", ".txt", lambda p: p.read_text()
            )

    def test_invalid_kind_and_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(CacheError):
            cache.path_for("bad/kind", "abc", ".txt")
        with pytest.raises(CacheError):
            cache.path_for("kind", "", ".txt")

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_root() == tmp_path / "elsewhere"
        assert ArtifactCache().root == tmp_path / "elsewhere"


class TestTablePersistence:
    def _table(self):
        return SessionTable(
            service_idx=np.array([0, 5, 13], dtype=np.int16),
            bs_id=np.array([1, 2, 3]),
            day=np.array([0, 0, 1]),
            start_minute=np.array([10, 500, 1400]),
            duration_s=np.array([12.5, 300.0, 60.0]),
            volume_mb=np.array([0.5, 42.0, 7.25]),
            truncated=np.array([False, True, False]),
        )

    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / f"table{SEGMENT_SUFFIX}"
        original = self._table()
        save_segment(path, original)
        restored = load_segment(path)
        for column in SessionTable.COLUMNS:
            assert np.array_equal(
                getattr(restored, column), getattr(original, column)
            )
            # A cache hit hands out a table as usable as a computed one.
            assert getattr(restored, column).flags.writeable

    def test_empty_table_round_trip(self, tmp_path):
        path = tmp_path / f"empty{SEGMENT_SUFFIX}"
        save_segment(path, SessionTable.empty())
        assert len(load_segment(path)) == 0

    def test_unreadable_file_raises(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.path_for("campaign", "deadbeef", SEGMENT_SUFFIX)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a segment")
        with pytest.raises(CacheError):
            cache.fetch("campaign", "deadbeef", SEGMENT_SUFFIX, load_segment)


class TestCorruptionRecovery:
    """Corrupted cache entries must lead to recomputation, never a crash."""

    def _table(self, n=4):
        rng = np.random.default_rng(0)
        return SessionTable(
            service_idx=np.arange(n, dtype=np.int16) % 10,
            bs_id=np.arange(n),
            day=np.zeros(n, dtype=int),
            start_minute=rng.integers(0, 1440, n),
            duration_s=rng.uniform(1.0, 100.0, n),
            volume_mb=rng.uniform(0.1, 10.0, n),
            truncated=np.zeros(n, dtype=bool),
        )

    def test_truncated_archive_raises_cache_error(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.store(
            "campaign", "deadbeef", SEGMENT_SUFFIX,
            lambda p: save_segment(p, self._table()),
        )
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CacheError):
            cache.fetch("campaign", "deadbeef", SEGMENT_SUFFIX, load_segment)

    def test_wrong_key_archive_raises_cache_error(self, tmp_path):
        # A well-formed segment written under the right cache path but with
        # the wrong columns inside — e.g. produced by an older layout.
        cache = ArtifactCache(tmp_path)
        path = cache.path_for("campaign", "deadbeef", SEGMENT_SUFFIX)
        path.parent.mkdir(parents=True)
        header = {
            "format": "repro-segment",
            "version": 1,
            "n": 3,
            "columns": [["wrong", "int64"], ["keys", "int64"]],
        }
        path.write_bytes(
            (json.dumps(header) + "\n").encode("ascii")
            + np.arange(6, dtype=np.int64).tobytes()
        )
        with pytest.raises(CacheError):
            cache.fetch("campaign", "deadbeef", SEGMENT_SUFFIX, load_segment)

    def test_pipeline_recomputes_over_corrupt_entry(self, tmp_path):
        """A poisoned cache entry is silently recomputed and overwritten."""
        from repro.pipeline.context import RunContext
        from repro.pipeline.stages import ArtifactSpec, Pipeline, Stage

        table = self._table()
        spec = ArtifactSpec(
            kind="campaign",
            suffix=SEGMENT_SUFFIX,
            save=save_segment,
            load=load_segment,
            key_parts=lambda ctx, artifacts: {"seed": ctx.seed},
        )
        pipeline = Pipeline(
            [Stage("make", "table", lambda ctx, artifacts: table, spec=spec)]
        )
        ctx = RunContext(seed=0, cache=ArtifactCache(tmp_path))

        first = pipeline.run(ctx)
        assert first.event("make").status == "computed"
        key = first.event("make").key
        assert pipeline.run(ctx).event("make").status == "cached"

        # Poison the stored artifact in place; the next run must recompute
        # instead of crashing, and must heal the cache for the run after.
        cached_path = ctx.cache.path_for("campaign", key, SEGMENT_SUFFIX)
        cached_path.write_bytes(b"garbage")
        healed = pipeline.run(ctx)
        assert healed.event("make").status == "computed"
        assert len(healed.artifact("table")) == len(table)
        assert pipeline.run(ctx).event("make").status == "cached"

    def test_concurrent_writers_of_one_key_never_collide(self, tmp_path):
        import threading

        cache = ArtifactCache(tmp_path)
        table = self._table(n=50)
        n_writers = 8
        barrier = threading.Barrier(n_writers)
        errors = []

        def write():
            try:
                barrier.wait()
                for _ in range(5):
                    cache.store(
                        "campaign", "samekey", SEGMENT_SUFFIX,
                        lambda p: save_segment(p, table),
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(n_writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # The surviving artifact is complete and valid, and no temporary
        # file escaped its writer.
        restored = cache.fetch(
            "campaign", "samekey", SEGMENT_SUFFIX, load_segment
        )
        assert len(restored) == len(table)
        leftovers = [
            p.name
            for p in (tmp_path / "campaign").iterdir()
            if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
