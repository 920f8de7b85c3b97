"""Content-keyed artifact cache: skip recomputation of unchanged stages.

A pipeline stage's product is fully determined by its configuration and the
run's root seed, so both are folded into a canonical digest — the *content
key* — and the artifact is persisted under it.  A later run with the same
key loads the artifact instead of recomputing it; any change to the
configuration, the seed, or the artifact-format version produces a
different key and a clean miss (stale entries are simply never read).

Layout on disk: ``<root>/<kind>/<key><suffix>``, e.g.
``.repro-cache/campaign/1f0c9a….seg``.  Writes go through a temporary file
plus atomic rename, so a crashed run can never leave a truncated artifact
behind that a later run would trust.  The cache is format-agnostic: callers
pass ``save``/``load`` callbacks, and every session table goes through the
segment pair of :mod:`repro.io.spool`.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.telemetry import Telemetry

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump when a cached artifact's on-disk format changes incompatibly.
CACHE_FORMAT_VERSION = 1

#: Monotonic counter making concurrent same-process writes collision-free.
_TMP_COUNTER = itertools.count()


class CacheError(ValueError):
    """Raised on invalid cache keys or unreadable cached artifacts."""


#: Types :func:`describe` returns as they are.  Exact types only: a
#: subclass (``IntEnum``, ``np.float64``, ``np.bool_``) takes the branch
#: that converts it.
_PLAIN_TYPES = frozenset({int, float, str, bool, type(None)})


def describe(value: Any) -> Any:
    """Canonical JSON-able description of a configuration value.

    Dataclasses become ``{"__type__": name, **fields}``, enums their value,
    numpy scalars plain Python numbers, mappings and sequences recurse.
    Used to build stable content keys from configuration objects without
    each of them having to implement a serialization protocol.
    """
    kind = type(value)
    if kind in _PLAIN_TYPES:
        return value
    if kind is dict:
        return {str(k): describe(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [describe(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        described = {
            field.name: describe(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        described["__type__"] = kind.__name__
        return described
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): describe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [describe(v) for v in value]
    if isinstance(value, (bool, int, float, str)):
        return value
    raise CacheError(
        f"cannot build a content key from a {kind.__name__} value"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON text of ``value`` that content keys hash.

    :func:`describe` output serialized with sorted keys and no
    whitespace — the same text whether ``value`` is encoded on its own or
    nested inside a larger canonical document.
    """
    return json.dumps(describe(value), sort_keys=True, separators=(",", ":"))


def json_member(name: str, fragment: str) -> str:
    """One ``"name":fragment`` member of a canonical JSON object.

    Joining members in sorted-``name`` order with ``","`` inside braces
    gives exactly the text ``json.dumps(..., sort_keys=True)`` writes.
    """
    return f"{json.dumps(name)}:{fragment}"


class Encoded:
    """A content-key part already encoded as :func:`canonical_json` text.

    :func:`content_key` splices the text in as it is, so a part shared by
    many keys is encoded once instead of once per key.  Only top-level
    parts may be pre-encoded: :func:`describe` rejects a nested one.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def content_key(parts: Mapping[str, Any]) -> str:
    """Stable hexadecimal digest of a configuration mapping.

    The mapping is serialized as :func:`canonical_json` — each top-level
    value either encoded here or, when wrapped in :class:`Encoded`, taken
    as already encoded — and hashed with SHA-256; the first 20 hex
    characters are plenty against accidental collisions.  Pre-encoded and
    plain parts give the same key.
    """
    named = {str(name): value for name, value in parts.items()}
    named["cache_format"] = CACHE_FORMAT_VERSION
    text = "{" + ",".join(
        json_member(
            name,
            value.text if isinstance(value, Encoded) else canonical_json(value),
        )
        for name, value in sorted(named.items())
    ) + "}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def default_cache_root() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


class ArtifactCache:
    """Directory of cached artifacts addressed by (kind, content key).

    With a :class:`~repro.obs.telemetry.Telemetry` attached, every probe,
    load and store increments the run's cache metrics (``cache.hit``,
    ``cache.miss``, ``cache.error``, ``cache.stores``, ``cache.bytes_read``,
    ``cache.bytes_written``) — purely observational, artifact contents and
    keys are untouched.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        telemetry: "Telemetry | None" = None,
    ):
        self.root = Path(root) if root is not None else default_cache_root()
        self.telemetry = telemetry

    def _count(self, name: str, amount: int | float = 1) -> None:
        """Increment one cache metric when telemetry is attached."""
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(amount)

    def path_for(self, kind: str, key: str, suffix: str) -> Path:
        """Path an artifact of ``kind`` with content ``key`` lives at."""
        if not kind or any(sep in kind for sep in "/\\"):
            raise CacheError(f"invalid artifact kind {kind!r}")
        if not key:
            raise CacheError("empty content key")
        return self.root / kind / f"{key}{suffix}"

    def has(self, kind: str, key: str, suffix: str) -> bool:
        """Whether an artifact is present for this content key.

        A negative probe counts as one ``cache.miss`` — this is the
        question every caller asks before deciding to recompute.
        """
        present = self.path_for(kind, key, suffix).exists()
        if not present:
            self._count("cache.miss")
        return present

    def store(
        self,
        kind: str,
        key: str,
        suffix: str,
        save: Callable[[Path], None],
    ) -> Path:
        """Persist an artifact atomically via the ``save(path)`` callback.

        ``save`` writes to a temporary path; the file is renamed into place
        only after the write completed, so concurrent or crashed runs never
        expose partial artifacts.  The temporary name is unique per process,
        thread *and* store call, so concurrent writers of the same key never
        step on each other's half-written file — the last rename wins and
        every intermediate state of the final path is a complete artifact.
        """
        final = self.path_for(kind, key, suffix)
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(
            f".tmp-{os.getpid()}-{threading.get_ident()}-"
            f"{next(_TMP_COUNTER)}-{final.name}"
        )
        try:
            save(tmp)
            os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)
        self._count("cache.stores")
        try:
            self._count("cache.bytes_written", final.stat().st_size)
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        return final

    def fetch(
        self,
        kind: str,
        key: str,
        suffix: str,
        load: Callable[[Path], Any],
    ) -> Any:
        """Load a cached artifact via the ``load(path)`` callback."""
        path = self.path_for(kind, key, suffix)
        if not path.exists():
            self._count("cache.miss")
            raise CacheError(f"no cached {kind} artifact for key {key}")
        try:
            value = load(path)
        except Exception as exc:
            self._count("cache.error")
            raise CacheError(f"cannot load cached {kind} at {path}: {exc}") from exc
        self._count("cache.hit")
        try:
            self._count("cache.bytes_read", path.stat().st_size)
        except OSError:  # pragma: no cover - concurrent eviction
            pass
        return value
