"""Content-addressed artifact store: a per-process in-memory LRU.

The store maps a :func:`repro.cache.keys.digest` of a build spec to the
built artifact.  A lookup either hits the LRU or runs the build and
stores its result; the LRU holds at most ``MEMORY_ITEMS`` entries and
evicts the least recently used.  Every process — pool workers included
— keeps its own store.

Correctness contract
--------------------
Every cached artifact must be **value-equal** to a fresh build — the
wrapped constructors are pure, and mutable artifacts are copied on
*every* return (hit or miss) so no caller can mutate the stored
instance.  Under that contract caching can change only wall-clock time,
never results, which is what keeps parallel sweeps bit-identical to
serial ones (property-tested in ``tests/cache/``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.cache.keys import digest

#: Entries the in-memory LRU holds.
MEMORY_ITEMS = 512


@dataclass
class CacheStats:
    """Counters for one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

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
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class ArtifactCache:
    """Content-addressed LRU of built artifacts (see module docstring)."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._lock = threading.Lock()
        #: digest -> artifact; insertion order = LRU order.
        self._memory: OrderedDict[str, Any] = OrderedDict()

    def get_or_build(
        self,
        namespace: str,
        key_parts: Any,
        build: Callable[[], Any],
        copy: Callable[[Any], Any] | None = None,
    ) -> Any:
        """The artifact for ``(namespace, key_parts)``.

        ``build`` runs on a miss; its result is stored and returned.
        ``copy`` (when given) is applied to every returned value — hit
        *and* miss — so mutable artifacts never leak the stored
        instance to callers.
        """
        key = digest(namespace, key_parts)
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                value = self._memory[key]
                return copy(value) if copy else value
        value = build()
        with self._lock:
            self.stats.misses += 1
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > MEMORY_ITEMS:
                self._memory.popitem(last=False)
                self.stats.evictions += 1
        return copy(value) if copy else value


# -- process-wide cache ---------------------------------------------------------

_active: ArtifactCache | None = None
_active_lock = threading.Lock()


def artifact_cache() -> ArtifactCache:
    """The process-wide cache, created on first use."""
    global _active
    with _active_lock:
        if _active is None:
            _active = ArtifactCache()
        return _active


def reset() -> None:
    """Forget the process-wide cache (entries and counters)."""
    global _active
    with _active_lock:
        _active = None
