"""Content-addressed artifact store: in-memory LRU plus optional disk.

The store maps a :func:`repro.cache.keys.digest` of a build spec to the
built artifact.  Lookups go memory → disk → build; every build result
is written back to both layers.  The disk layer lives under
``REPRO_CACHE_DIR`` (unset = memory only) and is shared between
processes: sweep workers warmed by :func:`repro.runner.run_cells` read
artifacts their siblings (or previous runs) already built.

Correctness contract
--------------------
Every cached artifact must be **value-equal** to a fresh build — the
wrapped constructors are pure, the pickle round-trip is exact (floats
included), and mutable artifacts are copied on *every* return (hit or
miss) so no caller can mutate the stored instance.  Under that contract
caching can change only wall-clock time, never results, which is what
keeps parallel sweeps bit-identical to serial ones with caching enabled
(property-tested in ``tests/cache/``).

Disk writes are atomic (temp file + ``os.replace``) so concurrent
workers never observe a torn entry; a corrupt or unreadable entry is
treated as a miss and rebuilt.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.cache.keys import digest

#: Environment variable naming the shared on-disk store (unset = memory only).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Set to a non-empty value to disable artifact caching entirely
#: (every build runs fresh — the "cold" baseline for benchmarks).
CACHE_DISABLE_ENV = "REPRO_CACHE_DISABLE"

#: Entries the in-memory LRU holds.
MEMORY_ITEMS = 512


class CacheConfigError(ValueError):
    """Raised for invalid cache configuration."""


@dataclass
class CacheStats:
    """Counters for one :class:`ArtifactCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Total pickled size of the entries currently held in memory.
    memory_bytes: int = 0
    disk_bytes_written: int = 0
    disk_bytes_read: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "memory_bytes": self.memory_bytes,
            "disk_bytes_written": self.disk_bytes_written,
            "disk_bytes_read": self.disk_bytes_read,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class CacheConfig:
    """Picklable cache settings, shipped to pool workers at fork/spawn."""

    directory: str | None = None
    enabled: bool = True

    @classmethod
    def from_env(cls) -> "CacheConfig":
        directory = os.environ.get(CACHE_DIR_ENV) or None
        enabled = not os.environ.get(CACHE_DISABLE_ENV)
        return cls(directory=directory, enabled=enabled)


class ArtifactCache:
    """Two-layer content-addressed cache (see module docstring)."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig.from_env()
        self.stats = CacheStats()
        self._lock = threading.Lock()
        #: digest -> (value, pickled size); insertion order = LRU order.
        self._memory: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        if self.config.directory:
            Path(self.config.directory).mkdir(parents=True, exist_ok=True)

    # -- lookup ----------------------------------------------------------------

    def get_or_build(
        self,
        namespace: str,
        version: int,
        key_parts: Any,
        build: Callable[[], Any],
        copy: Callable[[Any], Any] | None = None,
    ) -> Any:
        """The artifact for ``(namespace, version, key_parts)``.

        ``build`` runs on a miss; its result is stored in both layers
        and returned.  ``copy`` (when given) is applied to every
        returned value — hit *and* miss — so mutable artifacts never
        leak the stored instance to callers.
        """
        if not self.config.enabled:
            return build()
        key = digest(namespace, version, key_parts)
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                value = entry[0]
                return copy(value) if copy else value
        value = self._disk_read(namespace, key)
        if value is not _MISSING:
            with self._lock:
                self.stats.disk_hits += 1
                self._memory_put(key, value, _pickled_size(value))
            return copy(value) if copy else value
        value = build()
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self.stats.misses += 1
            self._memory_put(key, value, len(payload))
        self._disk_write(namespace, key, payload)
        return copy(value) if copy else value

    # -- memory layer ----------------------------------------------------------

    def _memory_put(self, key: str, value: Any, size: int) -> None:
        """Insert under the LRU cap (caller holds the lock)."""
        if key in self._memory:
            self.stats.memory_bytes -= self._memory[key][1]
            del self._memory[key]
        self._memory[key] = (value, size)
        self.stats.memory_bytes += size
        while len(self._memory) > MEMORY_ITEMS:
            _, (_, evicted_size) = self._memory.popitem(last=False)
            self.stats.evictions += 1
            self.stats.memory_bytes -= evicted_size

    # -- disk layer ------------------------------------------------------------

    def _disk_path(self, namespace: str, key: str) -> Path | None:
        if not self.config.directory:
            return None
        safe_namespace = namespace.replace("/", "_")
        return Path(self.config.directory) / safe_namespace / f"{key}.pkl"

    def _disk_read(self, namespace: str, key: str) -> Any:
        path = self._disk_path(namespace, key)
        if path is None:
            return _MISSING
        try:
            payload = path.read_bytes()
            value = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return _MISSING  # absent or torn/stale entry: rebuild
        with self._lock:
            self.stats.disk_bytes_read += len(payload)
        return value

    def _disk_write(self, namespace: str, key: str, payload: bytes) -> None:
        path = self._disk_path(namespace, key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        except OSError:
            return  # a read-only or full store degrades to memory-only
        with self._lock:
            self.stats.disk_bytes_written += len(payload)

    # -- maintenance -----------------------------------------------------------

    def clear(self, disk: bool = True) -> int:
        """Drop every entry; returns the number of disk entries removed."""
        with self._lock:
            self._memory.clear()
            self.stats.memory_bytes = 0
        removed = 0
        if disk and self.config.directory:
            root = Path(self.config.directory)
            for entry in sorted(root.glob("*/*.pkl")):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def disk_usage(self) -> tuple[int, int]:
        """``(entries, bytes)`` currently in the on-disk store."""
        if not self.config.directory:
            return (0, 0)
        entries = 0
        total = 0
        for path in Path(self.config.directory).glob("*/*.pkl"):
            try:
                total += path.stat().st_size
                entries += 1
            except OSError:
                pass
        return (entries, total)

    @property
    def enabled(self) -> bool:
        return self.config.enabled


class _Missing:
    """Sentinel distinguishing 'no entry' from a cached ``None``."""


_MISSING = _Missing()


def _pickled_size(value: Any) -> int:
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 0


# -- process-wide cache ---------------------------------------------------------

_active: ArtifactCache | None = None
_active_lock = threading.Lock()


def artifact_cache() -> ArtifactCache:
    """The process-wide cache, created from the environment on first use."""
    global _active
    with _active_lock:
        if _active is None:
            _active = ArtifactCache()
        return _active


def configure(config: CacheConfig | None = None, **kwargs: Any) -> ArtifactCache:
    """Replace the process-wide cache.

    Either pass a full :class:`CacheConfig`, or keyword overrides on top
    of the environment config (``directory=``, ``enabled=``).  Returns
    the new cache.  Pool workers call this from their initializer so
    every worker shares the parent's disk store.
    """
    global _active
    if config is None:
        base = CacheConfig.from_env()
        config = CacheConfig(
            directory=kwargs.get("directory", base.directory),
            enabled=kwargs.get("enabled", base.enabled),
        )
    elif kwargs:
        raise CacheConfigError("pass either a CacheConfig or keyword overrides")
    with _active_lock:
        _active = ArtifactCache(config)
        return _active


def reset() -> None:
    """Forget the process-wide cache (next use re-reads the environment)."""
    global _active
    with _active_lock:
        _active = None
