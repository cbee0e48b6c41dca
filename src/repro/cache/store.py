"""Bounded key-value store with pluggable eviction and link/unlink hooks.

This is the in-memory heart of a cache server.  The hook pair
``on_link``/``on_unlink`` mirrors memcached's ``do_item_link`` /
``do_item_unlink`` — exactly the two functions the paper instruments to keep
the counting-Bloom-filter digest consistent with cache contents
(Section V-A3).  Every item that enters the store fires ``on_link`` once and
every item that leaves (delete, eviction, or lazy expiry) fires
``on_unlink`` once, so a digest driven by these hooks never deletes an
absent element — the property that rules out one of the two false-negative
sources (Section IV-A).

Expiry is indexed by a min-heap of ``(expires_at, key)`` entries, one pushed
whenever an item gains an expiry, so :meth:`KeyValueStore.purge_expired`
pops only the entries that are due instead of scanning the store.  Entries
go stale when their item is overwritten, deleted or touched; a popped stale
entry is skipped (or re-pushed if its key's expiry moved later), and the
heap is rebuilt once stale entries outnumber live ones.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache.eviction import EvictionPolicy, LRUPolicy
from repro.cache.item import DEFAULT_ITEM_SIZE, CacheItem
from repro.cache.stats import CacheStats
from repro.errors import CapacityError, ConfigurationError

LinkHook = Callable[[CacheItem], None]
UnlinkHook = Callable[[CacheItem, str], None]  # (item, reason)

#: unlink reasons passed to hooks
REASON_DELETE = "delete"
REASON_EVICT = "evict"
REASON_EXPIRE = "expire"
REASON_FLUSH = "flush"


class KeyValueStore:
    """A capacity-bounded dict of :class:`CacheItem` with eviction.

    Args:
        capacity_bytes: total accounting bytes allowed; ``None`` = unbounded.
        policy: eviction policy (default LRU, like memcached).
        default_item_size: accounting size used when a set does not specify
            one (the paper's 4 KB page unit).

    Time is supplied by the caller on every operation (``now``), so the same
    store works under the simulation clock and under wall-clock in the
    asyncio server.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        policy: Optional[EvictionPolicy] = None,
        default_item_size: int = DEFAULT_ITEM_SIZE,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ConfigurationError(
                f"capacity_bytes must be >= 1 or None, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self.policy = policy if policy is not None else LRUPolicy()
        self.default_item_size = default_item_size
        self._items: Dict[str, CacheItem] = {}
        self._used_bytes = 0
        #: min-heap of ``(expires_at, key)``; every live item with an expiry
        #: has an entry no later than its ``expires_at``
        self._expiry: List[Tuple[float, str]] = []
        #: live items with an expiry (the heap's non-stale population)
        self._ttl_items = 0
        self.stats = CacheStats()
        self.link_hooks: List[LinkHook] = []
        self.unlink_hooks: List[UnlinkHook] = []

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: str) -> bool:
        return key in self._items

    @property
    def used_bytes(self) -> int:
        """Accounting bytes currently stored."""
        return self._used_bytes

    def keys(self) -> Iterator[str]:
        """Iterate current keys (snapshot not guaranteed under mutation)."""
        return iter(self._items)

    def peek(self, key: str) -> Optional[CacheItem]:
        """Item for *key* without touching recency or stats; None if absent."""
        return self._items.get(key)

    # ----------------------------------------------------------------- ops

    def get(self, key: str, now: float = 0.0) -> Optional[Any]:
        """Value for *key*, or ``None`` on miss.  Lazily expires stale items.

        An item whose ``created_at`` lies in the future of *now* is treated
        as a miss (without unlinking): the simulation driver may process
        time-overlapping requests sequentially, and a write that completes
        at a later simulated time must not be visible to an earlier read —
        otherwise concurrent cache misses for one key (the dog pile) would
        silently free-ride on each other.
        """
        item = self._items.get(key)
        if item is not None and item.expired(now):
            self._unlink(item, REASON_EXPIRE)
            self.stats.record_expiration(item.size)
            item = None
        if item is not None and item.created_at > now:
            self.stats.record_get(hit=False)
            return None
        if item is None:
            self.stats.record_get(hit=False)
            return None
        item.touch(now)
        self.policy.on_access(key)
        self.stats.record_get(hit=True)
        return item.value

    def set(
        self,
        key: str,
        value: Any,
        now: float = 0.0,
        size: Optional[int] = None,
        ttl: Optional[float] = None,
        flags: int = 0,
    ) -> CacheItem:
        """Insert or overwrite *key*.

        Overwriting fires ``on_unlink`` for the old item and ``on_link`` for
        the new one (memcached replaces items rather than mutating them, and
        the digest counters must track that).

        Raises:
            CapacityError: the item alone exceeds capacity, or eviction
                cannot free enough space.
        """
        item_size = self.default_item_size if size is None else size
        if self.capacity_bytes is not None and item_size > self.capacity_bytes:
            raise CapacityError(
                f"item of {item_size} bytes exceeds capacity "
                f"{self.capacity_bytes}"
            )
        old = self._items.get(key)
        if old is not None:
            self._unlink(old, REASON_DELETE)
            self.stats.bytes_stored -= old.size
            self.stats.items -= 1
        self._make_room(item_size, now)
        item = CacheItem(
            key=key,
            value=value,
            size=item_size,
            created_at=now,
            last_access=now,
            expires_at=None if ttl is None else now + ttl,
            flags=flags,
        )
        self._link(item)
        self.stats.record_set(size_delta=item.size, new_item=True)
        return item

    def delete(self, key: str, now: float = 0.0) -> bool:
        """Remove *key*; returns True if it was present (and not expired)."""
        item = self._items.get(key)
        if item is None:
            return False
        if item.expired(now):
            self._unlink(item, REASON_EXPIRE)
            self.stats.record_expiration(item.size)
            return False
        self._unlink(item, REASON_DELETE)
        self.stats.record_delete(item.size)
        return True

    def touch(
        self, key: str, now: float, expires_at: Optional[float]
    ) -> bool:
        """Set *key*'s absolute expiry (``None`` = never) and record an access.

        Returns False, like :meth:`delete`, if *key* is absent or expired.
        """
        item = self._items.get(key)
        if item is None:
            return False
        if item.expired(now):
            self._unlink(item, REASON_EXPIRE)
            self.stats.record_expiration(item.size)
            return False
        old = item.expires_at
        item.expires_at = expires_at
        item.touch(now)
        if expires_at is None:
            if old is not None:
                self._ttl_items -= 1
                self._compact()
        elif old is None:
            self._ttl_items += 1
            self._index(expires_at, key)
        elif expires_at < old:
            self._index(expires_at, key)
        # A later expiry keeps the old entry; purge_expired re-pushes it.
        return True

    def purge_expired(self, now: float) -> int:
        """Eagerly remove every expired item; returns how many were removed.

        Pops only the due entries of the expiry heap: O(expired * log n),
        and O(1) when nothing has expired.
        """
        heap = self._expiry
        removed = 0
        while heap and heap[0][0] <= now:
            _, key = heapq.heappop(heap)
            item = self._items.get(key)
            if item is None or item.expires_at is None:
                continue  # stale: key gone or its expiry cleared
            if not item.expired(now):
                heapq.heappush(heap, (item.expires_at, key))
                continue  # its expiry moved later
            self._unlink(item, REASON_EXPIRE)
            self.stats.record_expiration(item.size)
            removed += 1
        return removed

    def flush(self) -> int:
        """Drop everything (power cycle / ``flush_all``); returns item count."""
        self._expiry.clear()
        dropped = list(self._items.values())
        for item in dropped:
            self._unlink(item, REASON_FLUSH)
        self.stats.bytes_stored = 0
        self.stats.items = 0
        self.policy.reset()
        return len(dropped)

    def hot_keys(self, now: float, ttl: float) -> List[str]:
        """Keys touched within the last *ttl* seconds (Section II "hot" data)."""
        return [
            item.key for item in self._items.values() if item.is_hot(now, ttl)
        ]

    # ------------------------------------------------------------ internal

    def _make_room(self, needed: int, now: float) -> None:
        if self.capacity_bytes is None:
            return
        # Lazy-expire before evicting live data.
        if self._used_bytes + needed > self.capacity_bytes:
            self.purge_expired(now)
        while self._used_bytes + needed > self.capacity_bytes:
            victim_key = self.policy.victim()  # raises CapacityError if none
            victim = self._items[victim_key]
            self._unlink(victim, REASON_EVICT)
            self.stats.record_eviction(victim.size)

    def _link(self, item: CacheItem) -> None:
        self._items[item.key] = item
        self._used_bytes += item.size
        self.policy.on_link(item.key)
        if item.expires_at is not None:
            self._ttl_items += 1
            self._index(item.expires_at, item.key)
        for hook in self.link_hooks:
            hook(item)

    def _index(self, expires_at: float, key: str) -> None:
        heapq.heappush(self._expiry, (expires_at, key))
        self._compact()

    def _compact(self) -> None:
        """Rebuild the expiry heap once stale entries outnumber live ones.

        The rebuild keeps one exact entry per live TTL'd item and costs
        O(heap), paid for by the pushes or unlinks since the last one.
        """
        heap = self._expiry
        if len(heap) <= 2 * self._ttl_items:
            return
        items = self._items
        live = {k for _, k in heap if k in items}
        heap[:] = [
            (items[k].expires_at, k)
            for k in live
            if items[k].expires_at is not None
        ]
        heapq.heapify(heap)

    def _unlink(self, item: CacheItem, reason: str) -> None:
        self._items.pop(item.key, None)
        self._used_bytes -= item.size
        if item.expires_at is not None:
            self._ttl_items -= 1
            self._compact()
        self.policy.on_unlink(item.key)
        for hook in self.unlink_hooks:
            hook(item, reason)
