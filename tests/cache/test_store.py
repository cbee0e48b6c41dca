"""Tests for the bounded key-value store and its link/unlink hooks."""

import pytest

from repro.cache.eviction import NoEvictionPolicy
from repro.cache.store import (
    REASON_DELETE,
    REASON_EVICT,
    REASON_EXPIRE,
    REASON_FLUSH,
    KeyValueStore,
)
from repro.errors import CapacityError, ConfigurationError


def hooked_store(**kwargs):
    store = KeyValueStore(**kwargs)
    events = []
    store.link_hooks.append(lambda item: events.append(("link", item.key)))
    store.unlink_hooks.append(
        lambda item, reason: events.append(("unlink", item.key, reason))
    )
    return store, events


class TestBasicOps:
    def test_set_get_roundtrip(self):
        store = KeyValueStore()
        store.set("k", "v", now=1.0)
        assert store.get("k", now=2.0) == "v"

    def test_get_missing_returns_none(self):
        store = KeyValueStore()
        assert store.get("nope") is None
        assert store.stats.misses == 1

    def test_contains_and_len(self):
        store = KeyValueStore()
        store.set("a", 1)
        assert "a" in store and "b" not in store
        assert len(store) == 1

    def test_delete(self):
        store = KeyValueStore()
        store.set("k", "v")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_overwrite_replaces_value_and_accounting(self):
        store = KeyValueStore()
        store.set("k", "v1", size=100)
        store.set("k", "v2", size=300)
        assert store.get("k") == "v2"
        assert store.used_bytes == 300
        assert store.stats.items == 1
        assert store.stats.bytes_stored == 300

    def test_peek_does_not_touch(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0)
        before_gets = store.stats.gets
        item = store.peek("k")
        assert item.value == "v"
        assert store.stats.gets == before_gets

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            KeyValueStore(capacity_bytes=0)


class TestExpiry:
    def test_lazy_expiry_on_get(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0, ttl=10.0)
        assert store.get("k", now=5.0) == "v"
        assert store.get("k", now=10.0) is None
        assert store.stats.expirations == 1

    def test_delete_of_expired_reports_absent(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0, ttl=1.0)
        assert store.delete("k", now=2.0) is False
        assert store.stats.expirations == 1

    def test_purge_expired(self):
        store = KeyValueStore()
        for i in range(5):
            store.set(f"k{i}", i, now=0.0, ttl=10.0)
        store.set("fresh", 1, now=0.0)
        assert store.purge_expired(now=11.0) == 5
        assert len(store) == 1


class TestTouch:
    def test_extended_item_survives_purge_at_old_expiry(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0, ttl=10.0)
        assert store.touch("k", now=5.0, expires_at=100.0)
        assert store.purge_expired(now=10.0) == 0
        assert store.get("k", now=50.0) == "v"
        assert store.purge_expired(now=100.0) == 1
        assert "k" not in store

    def test_ttl_added_by_touch_is_purged(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0)
        assert store.touch("k", now=1.0, expires_at=20.0)
        assert store.purge_expired(now=19.0) == 0
        assert store.purge_expired(now=20.0) == 1
        assert "k" not in store

    def test_touch_none_clears_expiry(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0, ttl=5.0)
        assert store.touch("k", now=1.0, expires_at=None)
        assert store.purge_expired(now=1e9) == 0
        assert store.get("k", now=1e9) == "v"

    def test_shortened_expiry_is_purged_early(self):
        store = KeyValueStore()
        store.set("k", "v", now=0.0, ttl=100.0)
        assert store.touch("k", now=1.0, expires_at=5.0)
        assert store.purge_expired(now=5.0) == 1

    def test_touch_missing_or_expired_key(self):
        store, events = hooked_store()
        assert not store.touch("ghost", now=0.0, expires_at=10.0)
        store.set("k", "v", now=0.0, ttl=1.0)
        assert not store.touch("k", now=2.0, expires_at=10.0)
        assert events[-1] == ("unlink", "k", REASON_EXPIRE)
        assert store.stats.expirations == 1


class TestExpiryIndex:
    def test_overwrites_keep_index_bounded(self):
        store = KeyValueStore()
        for i in range(10_000):
            store.set("k", i, now=float(i), ttl=50.0)
        assert len(store._expiry) == 1
        assert store.purge_expired(now=10_049.0) == 1

    def test_touches_and_deletes_keep_index_bounded(self):
        store = KeyValueStore()
        for i in range(1_000):
            store.set(f"k{i}", i, now=0.0, ttl=10.0)
            store.touch(f"k{i}", now=0.0, expires_at=5.0)
            store.delete(f"k{i}")
            assert len(store._expiry) <= 2
        assert store._expiry == []

    def test_flush_clears_index(self):
        store = KeyValueStore()
        for i in range(10):
            store.set(f"k{i}", i, now=0.0, ttl=10.0)
        store.flush()
        assert store._expiry == []
        store.set("k", "v", now=0.0, ttl=1.0)
        assert store.purge_expired(now=1.0) == 1

    def test_no_ttl_items_leave_index_empty(self):
        store = KeyValueStore(capacity_bytes=300)
        for i in range(100):
            store.set(f"k{i}", i, size=100, now=float(i))
        assert store._expiry == []


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        store = KeyValueStore(capacity_bytes=300)
        store.set("a", 1, size=100, now=0.0)
        store.set("b", 2, size=100, now=1.0)
        store.set("c", 3, size=100, now=2.0)
        store.get("a", now=3.0)  # refresh a; b becomes LRU
        store.set("d", 4, size=100, now=4.0)
        assert "b" not in store
        assert all(k in store for k in ("a", "c", "d"))
        assert store.stats.evictions == 1

    def test_oversized_item_rejected(self):
        store = KeyValueStore(capacity_bytes=100)
        with pytest.raises(CapacityError):
            store.set("big", b"x", size=101)

    def test_expired_purged_before_eviction(self):
        store = KeyValueStore(capacity_bytes=200)
        store.set("stale", 1, size=100, now=0.0, ttl=5.0)
        store.set("live", 2, size=100, now=1.0)
        store.set("new", 3, size=100, now=10.0)  # stale is expired now
        assert "live" in store  # survived because stale was purged instead
        assert store.stats.expirations == 1
        assert store.stats.evictions == 0

    def test_no_eviction_policy_overflows(self):
        store = KeyValueStore(capacity_bytes=100, policy=NoEvictionPolicy())
        store.set("a", 1, size=100)
        with pytest.raises(CapacityError):
            store.set("b", 2, size=100)

    def test_used_bytes_tracks(self):
        store = KeyValueStore(capacity_bytes=1000)
        store.set("a", 1, size=400)
        store.set("b", 2, size=400)
        assert store.used_bytes == 800
        store.delete("a")
        assert store.used_bytes == 400


class TestHooks:
    def test_link_unlink_fire_once_per_item(self):
        store, events = hooked_store()
        store.set("k", "v")
        store.delete("k")
        assert events == [("link", "k"), ("unlink", "k", REASON_DELETE)]

    def test_overwrite_fires_unlink_then_link(self):
        store, events = hooked_store()
        store.set("k", "v1")
        store.set("k", "v2")
        assert events == [
            ("link", "k"),
            ("unlink", "k", REASON_DELETE),
            ("link", "k"),
        ]

    def test_eviction_reason(self):
        store, events = hooked_store(capacity_bytes=100)
        store.set("a", 1, size=100)
        store.set("b", 2, size=100)
        assert ("unlink", "a", REASON_EVICT) in events

    def test_expiry_reason(self):
        store, events = hooked_store()
        store.set("k", "v", now=0.0, ttl=1.0)
        store.get("k", now=2.0)
        assert ("unlink", "k", REASON_EXPIRE) in events

    def test_flush_reason_and_reset(self):
        store, events = hooked_store()
        store.set("a", 1)
        store.set("b", 2)
        assert store.flush() == 2
        assert len(store) == 0
        assert store.used_bytes == 0
        reasons = [e[2] for e in events if e[0] == "unlink"]
        assert reasons == [REASON_FLUSH, REASON_FLUSH]


class TestHotKeys:
    def test_hot_keys_definition(self):
        store = KeyValueStore()
        store.set("old", 1, now=0.0)
        store.set("new", 2, now=120.0)
        store.get("old", now=95.0)  # touch old at 95
        hot = store.hot_keys(now=130.0, ttl=40.0)
        assert set(hot) == {"old", "new"}
        hot_late = store.hot_keys(now=150.0, ttl=40.0)
        assert set(hot_late) == {"new"}


class TestStatsIntegration:
    def test_hit_ratio(self):
        store = KeyValueStore()
        store.set("k", "v")
        store.get("k")
        store.get("absent")
        assert store.stats.hit_ratio == 0.5

    def test_requests_counts_all_ops(self):
        store = KeyValueStore()
        store.set("k", "v")
        store.get("k")
        store.delete("k")
        assert store.stats.requests == 3

    def test_snapshot_and_diff(self):
        store = KeyValueStore()
        store.set("a", 1)
        snap = store.stats.snapshot()
        store.set("b", 2)
        store.get("a")
        delta = store.stats.diff(snap)
        assert delta.sets == 1
        assert delta.gets == 1
