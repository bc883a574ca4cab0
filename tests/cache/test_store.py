"""The in-memory artifact store: LRU, stats, lifecycle."""

import pytest

from repro.cache import ArtifactCache, artifact_cache, cached, describe, reset
from repro.cache import store


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Every test gets a fresh process-wide cache."""
    reset()
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
        cache = ArtifactCache()
        calls, build = _build_counter()
        first = cache.get_or_build("ns", ("k",), build)
        second = cache.get_or_build("ns", ("k",), build)
        assert first == second == {"value": 1}
        assert calls["n"] == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_distinct_keys_build_separately(self):
        cache = ArtifactCache()
        calls, build = _build_counter()
        cache.get_or_build("ns", ("a",), build)
        cache.get_or_build("ns", ("b",), build)
        assert calls["n"] == 2

    def test_namespace_salts_the_key(self):
        cache = ArtifactCache()
        calls, build = _build_counter()
        cache.get_or_build("ns", ("k",), build)
        cache.get_or_build("other", ("k",), build)
        assert calls["n"] == 2

    def test_lru_eviction_and_counters(self, monkeypatch):
        monkeypatch.setattr(store, "MEMORY_ITEMS", 2)
        cache = ArtifactCache()
        for key in ("a", "b", "c"):
            cache.get_or_build("ns", (key,), lambda: key)
        assert cache.stats.evictions == 1
        # "a" was evicted; "b" and "c" still hit.
        calls, build = _build_counter()
        cache.get_or_build("ns", ("a",), build)
        assert calls["n"] == 1
        cache.get_or_build("ns", ("c",), build)
        assert calls["n"] == 1

    def test_recently_used_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(store, "MEMORY_ITEMS", 2)
        cache = ArtifactCache()
        cache.get_or_build("ns", ("a",), lambda: "a")
        cache.get_or_build("ns", ("b",), lambda: "b")
        cache.get_or_build("ns", ("a",), lambda: "a")  # refresh "a"
        cache.get_or_build("ns", ("c",), lambda: "c")  # evicts "b"
        calls, build = _build_counter()
        cache.get_or_build("ns", ("a",), build)
        assert calls["n"] == 0

    def test_cached_none_is_a_hit(self):
        cache = ArtifactCache()
        calls = {"n": 0}

        def build():
            calls["n"] += 1
            return None

        assert cache.get_or_build("ns", ("k",), build) is None
        assert cache.get_or_build("ns", ("k",), build) is None
        assert calls["n"] == 1

    def test_copy_applied_on_hit_and_miss(self):
        cache = ArtifactCache()
        build = lambda: {"v": 1}  # noqa: E731
        first = cache.get_or_build("ns", ("k",), build, copy=dict)
        first["v"] = 999  # must not corrupt the stored entry
        second = cache.get_or_build("ns", ("k",), build, copy=dict)
        assert second == {"v": 1}
        assert second is not first


class TestProcessWideCache:
    def test_reset_forgets_the_process_cache(self):
        calls, build = _build_counter()
        first = artifact_cache()
        first.get_or_build("ns", ("k",), build)
        assert artifact_cache() is first
        reset()
        fresh = artifact_cache()
        assert fresh is not first and fresh.stats.lookups == 0
        fresh.get_or_build("ns", ("k",), build)
        assert calls["n"] == 2

    def test_describe_reports_the_counters(self):
        _, build = _build_counter()
        artifact_cache().get_or_build("ns", ("k",), build)
        artifact_cache().get_or_build("ns", ("k",), build)
        info = describe()
        assert (info["memory_hits"], info["misses"], info["hit_rate"]) == (1, 1, 0.5)
        # No disk layer: the two keys the e2e harness reads stay zero.
        assert (info["disk_hits"], info["disk_bytes_written"]) == (0, 0)


class TestCachedDecorator:
    def test_positional_and_keyword_calls_share_an_entry(self):
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
