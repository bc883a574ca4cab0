"""Content-addressed artifact cache for pure expensive constructors.

The paper's comparative sweeps (Figure 10, Table 9, the Section 3.2
scaling study) evaluate many cells that share identical expensive
substructure: channel plans (Section 3.1), topology graphs, and
per-pair route tables.  Every cell is a pure function of its spec (the
:mod:`repro.runner` contract), so those artifacts are pure functions of
*their* specs too — and can be memoized content-addressed without
changing any result.

Layers:

* an in-memory LRU (per process, always on), and
* an optional on-disk store under ``$REPRO_CACHE_DIR``, shared between
  processes — sweep workers and repeated runs reuse each other's work.

Usage::

    from repro.cache import cached

    @cached("channel-plan/greedy")
    def greedy_assignment(ring_size, ...): ...

Keys are canonical hashes of the fully-bound call arguments
(:mod:`repro.cache.keys`), salted with a namespace and version — bump
``version`` whenever a constructor's output format changes so stale
disk entries can never be returned.  Set ``REPRO_CACHE_DISABLE=1`` to
turn the whole subsystem off (the cold baseline), and see
``python -m repro cache stats|clear`` for inspection and maintenance.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

from repro.cache.keys import CacheKeyError, canonical, digest
from repro.cache.store import (
    CACHE_DIR_ENV,
    CACHE_DISABLE_ENV,
    MEMORY_ITEMS,
    ArtifactCache,
    CacheConfig,
    CacheConfigError,
    CacheStats,
    artifact_cache,
    configure,
    reset,
)

__all__ = [
    "ArtifactCache",
    "CACHE_DIR_ENV",
    "CACHE_DISABLE_ENV",
    "CacheConfig",
    "CacheConfigError",
    "CacheKeyError",
    "CacheStats",
    "MEMORY_ITEMS",
    "artifact_cache",
    "cached",
    "canonical",
    "configure",
    "describe",
    "digest",
    "reset",
]


def describe() -> dict:
    """One-call cache introspection: config, hit counters, disk usage.

    The flat dict behind ``python -m repro cache stats`` — also handy
    for dropping into a run manifest's ``extra`` section.  Walks the
    disk store to count entries, so it is a diagnostics call, not a
    hot-path one.
    """
    cache = artifact_cache()
    entries, disk_bytes = cache.disk_usage()
    return {
        "enabled": cache.enabled,
        "directory": cache.config.directory,
        "memory_items": MEMORY_ITEMS,
        "disk_entries": entries,
        "disk_bytes": disk_bytes,
        **cache.stats.as_dict(),
    }


def cached(
    namespace: str,
    version: int = 1,
    copy: Callable[[Any], Any] | None = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Memoize a pure constructor through the process-wide artifact cache.

    The cache key is the canonical encoding of the call's fully-bound
    arguments (defaults applied), so ``f(9)`` and ``f(ring_size=9)``
    share an entry.  ``copy`` is applied to every returned value when
    the artifact is mutable (e.g. topologies) so callers can never
    mutate the stored instance.  The undecorated constructor stays
    reachable as ``fn.__wrapped__`` — the property tests use it to
    compare cached artifacts against fresh builds.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cache = artifact_cache()
            if not cache.enabled:
                return fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key_parts = tuple(sorted(bound.arguments.items()))
            return cache.get_or_build(
                namespace,
                version,
                key_parts,
                lambda: fn(*args, **kwargs),
                copy=copy,
            )

        return wrapper

    return decorate
