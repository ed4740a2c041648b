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

In front of the disk sits a bounded in-memory tier.  It keeps each
entry as its value's canonical text (:func:`encode_value`: compact
JSON with sorted keys, the form a daemon reply frame carries), so a
hot hit reads no file and decodes nothing until a caller asks for the
value.  It fills on disk hits only — :meth:`ResultCache.put` does not
fill it, since a fresh result is often never read back — and evicts
the least recently used entry once the key and text bytes it holds
pass :data:`MEMORY_BYTES`.  Each instance has its own tier:
``clear()`` empties it, but a ``repro cache clear`` in another process
does not.  That is sound because a key is a content digest: an entry
another process deletes is still the right answer for its key.

Counts are tracked per instance (:meth:`ResultCache.stats` reports
them as ``session``: hits, the memory hits among them, misses, stores,
failed stores and the tier's entries, bytes and evictions); a sweep's
registry sees each hit as a ``fabric_tasks{outcome="cached"}`` count
from the scheduler.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from .fingerprint import digest, repro_version

__all__ = ["MEMORY_BYTES", "ResultCache", "default_cache_dir",
           "encode_value"]

#: environment override for the cache root
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: default cache root, relative to the working directory
DEFAULT_CACHE_DIR = ".repro-cache"
#: bound of the in-memory tier: the key and text bytes it may hold
MEMORY_BYTES = 512 * 1024


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_value(value: Any) -> str:
    """A result's canonical text: compact JSON with sorted keys, as
    ``json.dumps(value, sort_keys=True, separators=(",", ":"))``."""
    return _CANONICAL.encode(value)


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
        #: the memory tier's bound; an entry larger than it is not kept
        self.memory_bound = MEMORY_BYTES
        self.hits = 0
        self.memory_hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0
        self.evictions = 0
        # key -> (kind, canonical text), least recently used first; the
        # lock covers it, its byte count and the counts above (a daemon
        # looks up on its event loop and stores on its pump thread)
        self._memory: "OrderedDict[str, Tuple[str, str]]" = OrderedDict()
        self._memory_used = 0
        self._lock = threading.Lock()

    # -- keys ----------------------------------------------------------
    def key(self, kind: str, *parts: str) -> str:
        """Content-addressed key: kind + components + repro version."""
        return digest(kind, self.version, *parts)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    # -- lookup / store ------------------------------------------------
    def get_text(self, kind: str, key: str) -> Optional[str]:
        """A hit's canonical text (:func:`encode_value`), or ``None``.

        The memory tier answers first; a disk hit fills it.
        Unreadable, unparsable, truncated, or mismatching entries are
        misses — the cache never raises on lookup.
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None and entry[0] == kind:
                self._memory.move_to_end(key)
                self.hits += 1
                self.memory_hits += 1
                return entry[1]
        try:
            with open(self._path(key)) as fh:
                payload = json.load(fh)
            if payload["key"] != key or payload["kind"] != kind:
                raise ValueError("cache entry does not match its key")
            text = encode_value(payload["value"])
        except (OSError, ValueError, KeyError, TypeError):
            text = None
        with self._lock:
            if text is None:
                self.misses += 1
            else:
                self.hits += 1
                self._remember(kind, key, text)
        return text

    def get(self, kind: str, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit; ``(False, None)`` on any miss.

        The value is decoded afresh from the hit's text, so a caller
        may mutate it without touching the cache.
        """
        text = self.get_text(kind, key)
        if text is None:
            return False, None
        return True, json.loads(text)

    def _remember(self, kind: str, key: str, text: str) -> None:
        """Keep one entry in the tier, evicting the least recently
        used until it fits its bound (under the lock)."""
        size = len(key) + len(text)
        if size > self.memory_bound:
            return
        self._forget(key)
        self._memory[key] = (kind, text)
        self._memory_used += size
        while self._memory_used > self.memory_bound:
            self._forget(next(iter(self._memory)))
            self.evictions += 1

    def _forget(self, key: str) -> None:
        """Drop one entry from the tier, if held (under the lock)."""
        entry = self._memory.pop(key, None)
        if entry is not None:
            self._memory_used -= len(key) + len(entry[1])

    def put(self, kind: str, key: str, value: Any) -> None:
        """Atomically persist one result; best-effort (a value or an
        I/O error only counts in ``store_errors`` — a read-only cache
        dir degrades to compute-always).  The memory tier drops the key
        rather than fill: it fills when the entry is read back."""
        with self._lock:
            self._forget(key)
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
        except (OSError, TypeError, ValueError):
            with self._lock:
                self.store_errors += 1
            return
        with self._lock:
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
            "session": self.session_stats(),
        }

    def session_stats(self) -> Dict[str, int]:
        """This instance's counts, and what its memory tier holds."""
        with self._lock:
            return {
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "misses": self.misses,
                "stores": self.stores,
                "store_errors": self.store_errors,
                "memory_entries": len(self._memory),
                "memory_bytes": self._memory_used,
                "evictions": self.evictions,
            }

    def clear(self) -> int:
        """Delete every entry, on disk and in memory; returns how many
        were removed from disk."""
        with self._lock:
            self._memory.clear()
            self._memory_used = 0
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
            f"memory_hits={self.memory_hits} misses={self.misses} "
            f"stores={self.stores}>"
        )
