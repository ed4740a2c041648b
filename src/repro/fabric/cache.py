"""Persistent content-addressed result cache for matrix-shaped jobs.

Every entry is keyed by a sha256 digest of the *content* that produced
it — serialized expression, target name, rulebase fingerprint, repro
version, job parameters (see :mod:`repro.fabric.fingerprint`).  Change
any component and the key changes, so invalidation is automatic; stale
entries simply stop being addressed and are reclaimed by
``python -m repro cache clear``.

Layout (default root ``.repro-cache/``, overridable via the
``REPRO_CACHE_DIR`` environment variable or the ``root`` argument)::

    .repro-cache/
      ab/
        ab3f…e2.json     # {"version": …, "kind": …, "key": …, "value": …}

Entries are written atomically (tmp file + rename) so a crashed writer
can never leave a half-entry under the final name; a corrupt or
truncated entry — or one whose recorded key disagrees with its filename
— is treated as a miss, never an error.

Hit/miss/store counts are tracked per instance (:meth:`ResultCache.stats`
reports them as ``session``); a sweep's registry sees each hit as a
``fabric_tasks{outcome="cached"}`` count from the scheduler.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from typing import Any, Dict, Optional, Tuple

from .fingerprint import digest, repro_version

__all__ = ["ResultCache", "default_cache_dir"]

#: environment override for the cache root
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: default cache root, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


class ResultCache:
    """A content-addressed store of JSON-serializable job results."""

    def __init__(
        self,
        root: Optional[str] = None,
        version: Optional[str] = None,
    ):
        self.root = root if root is not None else default_cache_dir()
        #: the version component mixed into every key (tests may pin it)
        self.version = version if version is not None else repro_version()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys ----------------------------------------------------------
    def key(self, kind: str, *parts: str) -> str:
        """Content-addressed key: kind + components + repro version."""
        return digest(kind, self.version, *parts)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- lookup / store ------------------------------------------------
    def get(self, kind: str, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit; ``(False, None)`` on any miss.

        Unreadable, unparsable, truncated, or mismatching entries are
        misses — the cache never raises on lookup.
        """
        try:
            with open(self._path(key)) as fh:
                payload = json.load(fh)
            if payload["key"] != key or payload["kind"] != kind:
                raise ValueError("cache entry does not match its key")
            value = payload["value"]
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, kind: str, key: str, value: Any) -> None:
        """Atomically persist one result; best-effort (I/O errors are
        swallowed — a read-only cache dir degrades to compute-always)."""
        payload = {
            "version": self.version,
            "kind": kind,
            "key": key,
            "created": time.time(),
            "value": value,
        }
        path = self._path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(payload, fh)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:  # pragma: no cover - disk-full / read-only root
            return
        self.stores += 1

    # -- maintenance ---------------------------------------------------
    def _entries(self):
        if not os.path.isdir(self.root):
            return
        for sub in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".json"):
                    yield os.path.join(subdir, name)

    def stats(self) -> Dict[str, Any]:
        """Disk-level summary: entry/byte totals, split per job kind.

        ``by_kind`` maps kind -> entry count (the historical shape);
        ``kind_bytes`` maps kind -> total bytes of that kind's entries,
        so a daemon operator can see *which* job kind is filling the
        cache, not just that something is.
        """
        entries = 0
        total_bytes = 0
        by_kind: Dict[str, int] = {}
        kind_bytes: Dict[str, int] = {}
        corrupt = 0
        for path in self._entries():
            entries += 1
            size = 0
            try:
                size = os.path.getsize(path)
                total_bytes += size
                with open(path) as fh:
                    kind = json.load(fh).get("kind", "<unknown>")
            except (OSError, ValueError):
                corrupt += 1
                kind = "<corrupt>"
            by_kind[kind] = by_kind.get(kind, 0) + 1
            kind_bytes[kind] = kind_bytes.get(kind, 0) + size
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "by_kind": dict(sorted(by_kind.items())),
            "kind_bytes": dict(sorted(kind_bytes.items())),
            "corrupt": corrupt,
            "session": {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
            },
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ResultCache {self.root!r} hits={self.hits} "
            f"misses={self.misses} stores={self.stores}>"
        )
