"""Tests for the slab allocator and slab-backed store."""

import pytest

from repro.bloom.counting import CountingBloomFilter
from repro.cache.slabs import (
    DEFAULT_PAGE_SIZE,
    SlabAllocator,
    SlabStore,
)
from repro.errors import CapacityError, ConfigurationError

MB = 1 << 20


class TestAllocatorLadder:
    def test_chunk_sizes_grow_geometrically(self):
        alloc = SlabAllocator(8 * MB, min_chunk=100, growth=1.5)
        sizes = [c.chunk_size for c in alloc.classes]
        assert sizes[0] == 100
        for a, b in zip(sizes, sizes[1:-1]):
            assert b == max(a + 1, int(a * 1.5))
        assert sizes[-1] == DEFAULT_PAGE_SIZE  # the max-item class

    def test_class_for_picks_smallest_fitting(self):
        alloc = SlabAllocator(8 * MB, min_chunk=100, growth=2.0)
        assert alloc.class_for(50).chunk_size == 100
        assert alloc.class_for(100).chunk_size == 100
        assert alloc.class_for(101).chunk_size == 200

    def test_oversized_item_rejected(self):
        alloc = SlabAllocator(8 * MB, max_item_size=1024)
        with pytest.raises(CapacityError):
            alloc.class_for(2048)

    def test_overhead_factor(self):
        alloc = SlabAllocator(8 * MB, min_chunk=100, growth=2.0)
        assert alloc.overhead_factor(150) == pytest.approx(200 / 150)
        assert alloc.overhead_factor(0) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlabAllocator(100)  # smaller than a page
        with pytest.raises(ConfigurationError):
            SlabAllocator(8 * MB, growth=1.0)
        with pytest.raises(ConfigurationError):
            SlabAllocator(8 * MB, min_chunk=0)


class TestAllocatorPages:
    def test_allocate_grows_class_by_pages(self):
        alloc = SlabAllocator(4 * MB, min_chunk=1024, growth=2.0)
        slab_class = alloc.allocate(1000)
        assert slab_class.pages == 1
        assert alloc.pages_free == 3
        # Fill the page: no new page needed until chunks run out.
        for _ in range(slab_class.chunks_per_page - 1):
            alloc.allocate(1000)
        assert slab_class.pages == 1
        alloc.allocate(1000)
        assert slab_class.pages == 2

    def test_release_returns_chunk(self):
        alloc = SlabAllocator(4 * MB, min_chunk=1024)
        slab_class = alloc.allocate(1000)
        used = slab_class.used_chunks
        alloc.release(1000)
        assert slab_class.used_chunks == used - 1

    def test_release_on_empty_class_raises(self):
        alloc = SlabAllocator(4 * MB)
        with pytest.raises(ConfigurationError):
            alloc.release(100)

    def test_exhaustion_raises(self):
        alloc = SlabAllocator(1 * MB, min_chunk=512 * 1024, growth=2.0)
        alloc.allocate(500 * 1024)
        alloc.allocate(500 * 1024)  # fills the single page (2 chunks)
        with pytest.raises(CapacityError):
            alloc.allocate(500 * 1024)

    def test_stats_lists_only_assigned_classes(self):
        alloc = SlabAllocator(4 * MB, min_chunk=1024, growth=2.0)
        alloc.allocate(1000)
        stats = alloc.stats()
        assert len(stats) == 1
        assert stats[0]["used_chunks"] == 1


class TestSlabStore:
    def test_set_get_roundtrip(self):
        store = SlabStore(4 * MB)
        store.set("k", b"hello", now=0.0)
        assert store.get("k", 1.0) == b"hello"
        assert len(store) == 1

    def test_eviction_is_within_class(self):
        # Two classes: small items and big items.  Exhausting the small
        # class must evict small items, never big ones (slab calcification).
        store = SlabStore(2 * MB, min_chunk=256 * 1024, growth=2.0)
        store.set("big", b"x" * 600_000, now=0.0)     # 1MB-chunk class
        small_chunk = 256 * 1024
        per_page = DEFAULT_PAGE_SIZE // small_chunk   # 4 chunks
        for i in range(per_page):
            store.set(f"small{i}", b"y" * 100_000, now=float(i + 1))
        # Small class is full (1 page) and no pages remain (big took one).
        store.set("small-extra", b"y" * 100_000, now=100.0)
        assert "big" in store                 # untouched
        assert "small0" not in store          # LRU of its own class evicted
        assert store.stats.evictions == 1

    def test_overwrite_releases_old_chunk(self):
        store = SlabStore(2 * MB, min_chunk=1024, growth=2.0)
        store.set("k", b"a" * 1000, now=0.0)
        used = store.used_bytes
        store.set("k", b"b" * 1000, now=1.0)
        assert store.used_bytes == used
        assert store.stats.items == 1

    def test_item_moving_between_classes(self):
        store = SlabStore(4 * MB, min_chunk=1024, growth=2.0)
        store.set("k", b"a" * 1000, now=0.0)   # 1KB class
        store.set("k", b"a" * 2000, now=1.0)   # 2KB class
        assert store.get("k", 2.0) == b"a" * 2000
        stats = {s["chunk_size"]: s["used_chunks"] for s in store.slab_stats()}
        assert stats[1024] == 0
        assert stats[2048] == 1

    def test_ttl_expiry(self):
        store = SlabStore(2 * MB)
        store.set("k", b"v", now=0.0, ttl=5.0)
        assert store.get("k", 6.0) is None
        assert store.stats.expirations == 1

    def test_touch_moves_expiry(self):
        store = SlabStore(2 * MB)
        store.set("k", b"v", now=0.0, ttl=5.0)
        assert store.touch("k", 1.0, 50.0)
        assert store.get("k", 10.0) == b"v"
        assert store.touch("k", 11.0, None)
        assert store.get("k", 1e9) == b"v"
        assert not store.touch("ghost", 0.0, 1.0)

    def test_delete_and_flush(self):
        store = SlabStore(2 * MB)
        store.set("a", b"1", now=0.0)
        store.set("b", b"2", now=0.0)
        assert store.delete("a") is True
        assert store.flush() == 1
        assert len(store) == 0
        assert store.used_bytes == 0

    def test_digest_hooks_compatible(self):
        # The whole point of matching KeyValueStore's hook interface.
        store = SlabStore(2 * MB)
        digest = CountingBloomFilter(4096, counter_bits=8, num_hashes=4)
        store.link_hooks.append(lambda item: digest.add(item.key))
        store.unlink_hooks.append(lambda item, reason: digest.remove(item.key))
        store.set("k1", b"v", now=0.0)
        store.set("k2", b"v", now=0.0)
        store.delete("k1")
        assert "k1" not in digest
        assert "k2" in digest
        assert digest.count == 1

    def test_chunk_overhead_visible_in_used_bytes(self):
        store = SlabStore(4 * MB, min_chunk=1024, growth=2.0)
        store.set("k", b"x" * 600, now=0.0)  # fits the 1KB chunk
        assert store.used_bytes == 1024      # chunk, not payload, accounted
