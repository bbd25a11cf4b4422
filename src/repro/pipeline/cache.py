"""Content-addressed on-disk cache for pipeline artifacts.

A cache entry is addressed by the SHA-256 of a canonical JSON encoding
of everything that determines the artifact: the task kind, the full
generation parameters (profile knobs, seeds, scale, client count,
cluster configuration), the schema version, and the library version.
Change any input and the key changes; nothing is ever invalidated in
place.

Entries are serialized by :mod:`repro.pipeline.codec` (traces in
columnar form, replays as packed counter rows) and prefixed with a
magic string and a payload checksum.  Writes go to
a temporary file in the destination directory followed by an atomic
:func:`os.replace`, so a crashed or concurrent writer can never leave a
half-written entry under a valid name.  Reads treat *any* problem --
missing file, bad magic, checksum mismatch, unpicklable payload -- as a
cache miss, never an error; corrupt entries are deleted so the next
store replaces them.

The cache root is ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import __version__
from repro.pipeline.codec import decode_artifact, encode_artifact

#: Bump when the serialized artifact layout changes (new fields on trace
#: records, counters, etc.) so stale entries miss instead of loading.
SCHEMA_VERSION = 6  # 6: traces stored only in columnar form

_MAGIC = b"repro-artifact\n"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


def _jsonable(value: Any) -> Any:
    """Canonicalize a key field value for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Path):
        return str(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot build a cache key from {type(value).__name__}")


@dataclass
class CacheStats:
    """Hit/miss accounting, surfaced in the pipeline timing report."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class ArtifactCache:
    """A content-addressed artifact store with atomic writes."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        self.stats = CacheStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactCache(root={str(self.root)!r}, stats={self.stats})"

    # --- keys ----------------------------------------------------------------

    def key_for(self, fields: dict[str, Any]) -> str:
        """Hash the key fields (plus schema/library version) to a hex key."""
        payload = {
            "schema": SCHEMA_VERSION,
            "library": __version__,
            **fields,
        }
        blob = json.dumps(
            _jsonable(payload), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def path_for(self, key: str) -> Path:
        """Where an entry with this key lives (two-level fan-out)."""
        return self.root / key[:2] / f"{key}.pkl"

    # --- I/O -----------------------------------------------------------------

    def load(self, key: str) -> Any | None:
        """Return the cached artifact, or None on a miss.

        Corrupt entries (truncated, bad checksum, unpicklable) count as
        misses and are unlinked so they cannot shadow a future store.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            digest, _, payload = blob[len(_MAGIC):].partition(b"\n")
            if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
                raise ValueError("checksum mismatch")
            artifact = decode_artifact(payload)
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return artifact

    def store(self, key: str, artifact: Any) -> bool:
        """Write an artifact under ``key``; False (not an error) on failure."""
        path = self.path_for(key)
        tmp_name: str | None = None
        try:
            payload = encode_artifact(artifact)
            blob = (
                _MAGIC
                + hashlib.sha256(payload).hexdigest().encode("ascii")
                + b"\n"
                + payload
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
            tmp_name = None
        except (OSError, pickle.PicklingError, TypeError, ValueError):
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return False
        self.stats.stores += 1
        return True


def resolve_cache(
    cache: ArtifactCache | bool | str | os.PathLike | None,
) -> ArtifactCache | None:
    """Normalize the user-facing ``cache=`` knob.

    ``True`` means the default directory, ``False``/``None`` disables
    caching, a path string uses that directory, and an
    :class:`ArtifactCache` passes through (so callers can share stats).
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ArtifactCache()
    if isinstance(cache, ArtifactCache):
        return cache
    return ArtifactCache(cache)
