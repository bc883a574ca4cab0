"""The two-layer artifact store: LRU, disk sharing, stats, lifecycle."""

import pytest

from repro.cache import (
    ArtifactCache,
    CacheConfig,
    CacheConfigError,
    artifact_cache,
    cached,
    configure,
    reset,
)
from repro.cache import store


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Every test gets a fresh process-wide cache; env config restored after."""
    yield
    reset()


def _build_counter():
    calls = {"n": 0}

    def build():
        calls["n"] += 1
        return {"value": calls["n"]}

    return calls, build


class TestMemoryLayer:
    def test_hit_returns_stored_value(self):
        cache = ArtifactCache(CacheConfig())
        calls, build = _build_counter()
        first = cache.get_or_build("ns", 1, ("k",), build)
        second = cache.get_or_build("ns", 1, ("k",), build)
        assert first == second == {"value": 1}
        assert calls["n"] == 1
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_distinct_keys_build_separately(self):
        cache = ArtifactCache(CacheConfig())
        calls, build = _build_counter()
        cache.get_or_build("ns", 1, ("a",), build)
        cache.get_or_build("ns", 1, ("b",), build)
        assert calls["n"] == 2

    def test_version_salts_the_key(self):
        cache = ArtifactCache(CacheConfig())
        calls, build = _build_counter()
        cache.get_or_build("ns", 1, ("k",), build)
        cache.get_or_build("ns", 2, ("k",), build)
        assert calls["n"] == 2

    def test_lru_eviction_and_counters(self, monkeypatch):
        monkeypatch.setattr(store, "MEMORY_ITEMS", 2)
        cache = ArtifactCache(CacheConfig())
        for key in ("a", "b", "c"):
            cache.get_or_build("ns", 1, (key,), lambda: key)
        assert cache.stats.evictions == 1
        # "a" was evicted; "b" and "c" still hit.
        calls, build = _build_counter()
        cache.get_or_build("ns", 1, ("a",), build)
        assert calls["n"] == 1
        assert cache.stats.memory_bytes > 0

    def test_recently_used_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(store, "MEMORY_ITEMS", 2)
        cache = ArtifactCache(CacheConfig())
        cache.get_or_build("ns", 1, ("a",), lambda: "a")
        cache.get_or_build("ns", 1, ("b",), lambda: "b")
        cache.get_or_build("ns", 1, ("a",), lambda: "a")  # refresh "a"
        cache.get_or_build("ns", 1, ("c",), lambda: "c")  # evicts "b"
        calls, build = _build_counter()
        cache.get_or_build("ns", 1, ("a",), build)
        assert calls["n"] == 0

    def test_cached_none_is_a_hit(self):
        cache = ArtifactCache(CacheConfig())
        calls = {"n": 0}

        def build():
            calls["n"] += 1
            return None

        assert cache.get_or_build("ns", 1, ("k",), build) is None
        assert cache.get_or_build("ns", 1, ("k",), build) is None
        assert calls["n"] == 1

    def test_disabled_always_builds(self):
        cache = ArtifactCache(CacheConfig(enabled=False))
        calls, build = _build_counter()
        cache.get_or_build("ns", 1, ("k",), build)
        cache.get_or_build("ns", 1, ("k",), build)
        assert calls["n"] == 2
        assert cache.stats.lookups == 0

    def test_copy_applied_on_hit_and_miss(self):
        cache = ArtifactCache(CacheConfig())
        build = lambda: {"v": 1}  # noqa: E731
        first = cache.get_or_build("ns", 1, ("k",), build, copy=dict)
        first["v"] = 999  # must not corrupt the stored entry
        second = cache.get_or_build("ns", 1, ("k",), build, copy=dict)
        assert second == {"v": 1}
        assert second is not first


class TestDiskLayer:
    def test_shared_between_instances(self, tmp_path):
        config = CacheConfig(directory=str(tmp_path))
        writer = ArtifactCache(config)
        calls, build = _build_counter()
        writer.get_or_build("ns", 1, ("k",), build)
        reader = ArtifactCache(config)  # fresh memory, same disk
        assert reader.get_or_build("ns", 1, ("k",), build) == {"value": 1}
        assert calls["n"] == 1
        assert reader.stats.disk_hits == 1
        assert reader.stats.disk_bytes_read > 0
        assert writer.stats.disk_bytes_written > 0

    def test_corrupt_entry_rebuilds(self, tmp_path):
        config = CacheConfig(directory=str(tmp_path))
        cache = ArtifactCache(config)
        calls, build = _build_counter()
        cache.get_or_build("ns", 1, ("k",), build)
        for entry in tmp_path.glob("*/*.pkl"):
            entry.write_bytes(b"not a pickle")
        fresh = ArtifactCache(config)
        assert fresh.get_or_build("ns", 1, ("k",), build) == {"value": 2}
        assert calls["n"] == 2

    def test_clear_removes_entries(self, tmp_path):
        cache = ArtifactCache(CacheConfig(directory=str(tmp_path)))
        cache.get_or_build("ns", 1, ("a",), lambda: 1)
        cache.get_or_build("other", 1, ("b",), lambda: 2)
        entries, size = cache.disk_usage()
        assert entries == 2 and size > 0
        assert cache.clear() == 2
        assert cache.disk_usage() == (0, 0)
        calls, build = _build_counter()
        cache.get_or_build("ns", 1, ("a",), build)
        assert calls["n"] == 1

    def test_namespace_slash_maps_to_directory_safe_name(self, tmp_path):
        cache = ArtifactCache(CacheConfig(directory=str(tmp_path)))
        cache.get_or_build("route-table/kshortest", 1, ("k",), lambda: 1)
        assert (tmp_path / "route-table_kshortest").is_dir()


class TestProcessWideCache:
    def test_configure_overrides_and_reset_restores(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        configure(directory=str(tmp_path))
        assert artifact_cache().config.directory == str(tmp_path)
        reset()
        assert artifact_cache().config.directory is None

    def test_configure_rejects_mixed_arguments(self):
        with pytest.raises(CacheConfigError):
            configure(CacheConfig(), directory="/tmp/x")

    def test_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = CacheConfig.from_env()
        assert config.directory == str(tmp_path)
        assert config.enabled

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert not CacheConfig.from_env().enabled


class TestCachedDecorator:
    def test_positional_and_keyword_calls_share_an_entry(self):
        configure(directory=None)
        calls = {"n": 0}

        @cached("test/decorator")
        def build(size, label="x"):
            calls["n"] += 1
            return (size, label)

        assert build(3) == (3, "x")
        assert build(size=3) == (3, "x")
        assert build(3, label="x") == (3, "x")
        assert calls["n"] == 1
        assert build(3, label="y") == (3, "y")
        assert calls["n"] == 2

    def test_wrapped_reaches_the_raw_function(self):
        @cached("test/wrapped")
        def build(x):
            return x + 1

        assert build.__wrapped__(1) == 2

    def test_disabled_cache_bypasses(self):
        configure(enabled=False)
        calls = {"n": 0}

        @cached("test/disabled")
        def build(x):
            calls["n"] += 1
            return x

        build(1)
        build(1)
        assert calls["n"] == 2
