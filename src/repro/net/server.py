"""Asyncio memcached server with a built-in counting-Bloom-filter digest.

The runnable analogue of the paper's modified memcached (Section V-A3): a
TCP server speaking the classic text protocol whose item link/unlink events
keep a counting Bloom filter consistent with the store, with the reserved
keys ``SET_BLOOM_FILTER`` (snapshot) and ``BLOOM_FILTER`` (fetch snapshot as
normal data).  The store and digest are the *same* classes the simulation
uses — only time comes from the wall clock here.

Example::

    server = MemcachedServer(capacity_bytes=64 * 1024 * 1024)
    await server.start("127.0.0.1", 0)   # port 0 -> ephemeral
    ...
    await server.stop()
"""

from __future__ import annotations

import asyncio
import socket
import time
from typing import Dict, Optional

from repro.bloom.config import BloomConfig, optimal_config
from repro.cache.eviction import LRUPolicy
from repro.cache.item import CacheItem
from repro.cache.store import KeyValueStore
from repro.bloom.counting import CountingBloomFilter
from repro.cache.slabs import SlabStore
from repro.errors import CapacityError, ConfigurationError
from repro.net import protocol as proto
from repro.net.parser import BadCommand, CommandParser

#: per-connection read size; big enough that a pipelined burst of
#: commands lands in one read and its replies go out in one write
READ_CHUNK = 65536


class MemcachedServer:
    """A single cache node reachable over TCP.

    Args:
        capacity_bytes: store capacity (LRU beyond it), ``None`` = unbounded.
        bloom_config: digest sizing; defaults to the Section IV-B optimum
            for the capacity-implied key count.
        clock: time source (injectable for tests; defaults to wall clock).
        use_slabs: back the server with the memcached-style slab allocator
            (:class:`~repro.cache.slabs.SlabStore`) instead of byte-exact
            accounting; enables ``stats slabs`` and requires a capacity.
        nodelay: set ``TCP_NODELAY`` on accepted sockets (default True) —
            reply batches must not sit behind Nagle while the client
            pipelines; the net throughput bench A/Bs this knob.
        max_inflight: global cap on commands accepted but not yet
            replied-and-drained, across all connections (``None`` =
            unbounded, the pre-armor behaviour).  Commands over the cap
            are *shed*: answered ``SERVER_ERROR busy`` without being
            dispatched, so an overload burst costs one error line each
            instead of queue growth.
        max_conn_inflight: per-connection watermark — a connection whose
            single read chunk carries more commands than this has its
            reads paused (``transport.pause_reading()``) until the
            replies drain, bounding per-connection pipeline memory.
        write_high_water: per-connection write-buffer high watermark in
            bytes (``None`` = asyncio default).  A slow-reading client
            then blocks ``drain()`` early, which holds its commands
            in-flight and lets the global cap shed around it.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        bloom_config: Optional[BloomConfig] = None,
        clock=time.monotonic,
        use_slabs: bool = False,
        nodelay: bool = True,
        max_inflight: Optional[int] = None,
        max_conn_inflight: Optional[int] = None,
        write_high_water: Optional[int] = None,
    ) -> None:
        self._clock = clock
        self.nodelay = nodelay
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if max_conn_inflight is not None and max_conn_inflight < 1:
            raise ConfigurationError(
                f"max_conn_inflight must be >= 1, got {max_conn_inflight}"
            )
        self.max_inflight = max_inflight
        self.max_conn_inflight = max_conn_inflight
        self.write_high_water = write_high_water
        #: commands accepted but not yet replied-and-drained (all conns)
        self.inflight = 0
        #: commands refused with ``SERVER_ERROR busy``
        self.shed_commands = 0
        #: times a connection's reads were paused at the watermark
        self.paused_reads = 0
        if use_slabs:
            if capacity_bytes is None:
                raise ConfigurationError("use_slabs requires capacity_bytes")
            self.store = SlabStore(capacity_bytes)
        else:
            self.store = KeyValueStore(
                capacity_bytes=capacity_bytes, policy=LRUPolicy(),
                default_item_size=0,
            )
        if bloom_config is None:
            expected = (
                max(1024, capacity_bytes // 4096) if capacity_bytes else 100_000
            )
            bloom_config = optimal_config(expected)
        self.digest: CountingBloomFilter = bloom_config.build()
        self.bloom_config = bloom_config
        self.store.link_hooks.append(self._on_link)
        self.store.unlink_hooks.append(self._on_unlink)
        self._snapshot: Optional[bytes] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self.connections = 0
        # cas bookkeeping: every successful store stamps the new item with
        # the next unique id (CacheItem.cas), so evicted keys leave nothing.
        self._cas_counter = 0

    # ------------------------------------------------------------- digest

    def _on_link(self, item: CacheItem) -> None:
        self.digest.add(item.key)

    def _on_unlink(self, item: CacheItem, reason: str) -> None:
        self.digest.remove(item.key)

    def take_snapshot(self) -> bytes:
        """Freeze the digest into a bit array (``get SET_BLOOM_FILTER``)."""
        self._snapshot = self.digest.snapshot().to_bytes()
        return self._snapshot

    # ------------------------------------------------------------ lifecycle

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Begin serving; returns the bound port."""
        self._server = await asyncio.start_server(self._handle, host, port)
        return self.port

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------- serving

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection with chunked reads and batched replies.

        Commands are framed by the incremental
        :class:`~repro.net.parser.CommandParser` — a pipelined burst
        arriving in one TCP segment is parsed, dispatched, and answered
        with **one** write, so a client pipelining *k* commands pays ~one
        syscall round trip instead of *k* (the server half of the
        pipelined transport).

        Backpressure: each accepted command counts against the global
        ``max_inflight`` from dispatch until its chunk's replies have
        drained — a slow-reading client therefore holds its commands
        in-flight and the excess offered load is shed with
        ``SERVER_ERROR busy`` instead of queued.  A chunk carrying more
        than ``max_conn_inflight`` commands additionally pauses that
        connection's reads until the replies drain (the per-connection
        watermark).
        """
        self.connections += 1
        transport = writer.transport
        if self.nodelay:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:  # pragma: no cover - non-TCP transports
                    pass
        if self.write_high_water is not None:
            transport.set_write_buffer_limits(high=self.write_high_water)
        parser = CommandParser()
        out = bytearray()
        try:
            closing = False
            while not closing:
                data = await reader.read(READ_CHUNK)
                if not data:
                    break
                accepted = 0
                for item in parser.feed(data):
                    if isinstance(item, BadCommand):
                        out += proto.client_error_response(item.message)
                        if item.fatal:
                            # The stream is desynchronized past a bad
                            # data block; reply and drop the connection,
                            # as memcached does.
                            closing = True
                            break
                        continue
                    if item.command == "quit":
                        closing = True
                        break
                    if (
                        self.max_inflight is not None
                        and self.inflight >= self.max_inflight
                    ):
                        # Shed: a well-formed error line in the command's
                        # reply slot — the stream stays framed, and the
                        # command is never dispatched.
                        self.shed_commands += 1
                        if not item.noreply:
                            out += proto.busy_response(
                                f"inflight limit {self.max_inflight}"
                            )
                        continue
                    self.inflight += 1
                    accepted += 1
                    response = self._dispatch(item)
                    if response and not item.noreply:
                        out += response
                paused = False
                if (
                    self.max_conn_inflight is not None
                    and accepted > self.max_conn_inflight
                ):
                    try:
                        transport.pause_reading()
                        paused = True
                        self.paused_reads += 1
                    except RuntimeError:  # pragma: no cover - closing race
                        pass
                try:
                    if out:
                        writer.write(bytes(out))
                        out.clear()
                        await writer.drain()
                finally:
                    self.inflight -= accepted
                    if paused:
                        try:
                            transport.resume_reading()
                        except RuntimeError:  # pragma: no cover
                            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Teardown races (peer gone, loop shutting down) are benign.
                pass

    # ------------------------------------------------------------ commands

    def _dispatch(self, request: proto.Request) -> bytes:
        command = request.command
        if command in ("get", "gets"):
            return self._do_get(request)
        if command in ("set", "add", "replace", "cas"):
            return self._do_store(request)
        if command in ("append", "prepend"):
            return self._do_concat(request)
        if command in ("incr", "decr"):
            return self._do_arith(request)
        if command == "touch":
            return self._do_touch(request)
        if command == "delete":
            return self._do_delete(request)
        if command == "stats":
            if request.keys and request.keys[0] == "slabs":
                return self._do_stats_slabs()
            return proto.stats_response(self._stats_dict())
        if command == "flush_all":
            self.store.flush()
            return b"OK" + proto.CRLF
        if command == "version":
            return b"VERSION proteus-repro 1.0.0" + proto.CRLF
        return proto.error_response()

    def _do_get(self, request: proto.Request) -> bytes:
        now = self._clock()
        keys = request.keys
        if (
            request.command == "get"
            and len(keys) == 1
            and keys[0] != proto.KEY_SNAPSHOT
            and keys[0] != proto.KEY_FETCH_DIGEST
        ):
            # Hot path: the pipelined live tier issues pages as bursts of
            # single-key gets; skip the chunk-list machinery for them.
            key = keys[0]
            value = self.store.get(key, now)
            if value is None:
                return b"END\r\n"
            item = self.store.peek(key)
            return proto.value_response(
                key, item.flags if item is not None else 0, value
            ) + b"END\r\n"
        chunks = []
        for key in keys:
            if key == proto.KEY_SNAPSHOT:
                # Reserved key: snapshot the digest, acknowledge with a
                # 1-byte value so stock clients see a normal hit.
                self.take_snapshot()
                chunks.append(proto.value_response(key, 0, b"1"))
                continue
            if key == proto.KEY_FETCH_DIGEST:
                if self._snapshot is not None:
                    chunks.append(proto.value_response(key, 0, self._snapshot))
                continue
            value = self.store.get(key, now)
            if value is not None:
                item = self.store.peek(key)
                flags = item.flags if item is not None else 0
                cas = item.cas if request.command == "gets" else None
                chunks.append(proto.value_response(key, flags, value, cas=cas))
        chunks.append(proto.end_response())
        return b"".join(chunks)

    def _do_store(self, request: proto.Request) -> bytes:
        key = request.keys[0]
        if key in (proto.KEY_SNAPSHOT, proto.KEY_FETCH_DIGEST):
            return proto.client_error_response(f"{key} is reserved")
        now = self._clock()
        current = self.store.peek(key)
        exists = current is not None and not current.expired(now)
        if request.command == "add" and exists:
            return proto.not_stored_response()
        if request.command == "replace" and not exists:
            return proto.not_stored_response()
        if request.command == "cas":
            if not exists:
                return proto.not_found_response()
            if current.cas != request.cas:
                return proto.exists_response()
        ttl = float(request.exptime) if request.exptime > 0 else None
        try:
            stored = self.store.set(
                key,
                request.value,
                now=now,
                size=len(request.value),
                ttl=ttl,
                flags=request.flags,
            )
        except CapacityError as exc:
            return proto.error_response(str(exc))
        self._stamp_cas(stored)
        return proto.stored_response()

    def _stamp_cas(self, item: CacheItem) -> None:
        self._cas_counter += 1
        item.cas = self._cas_counter

    def _do_concat(self, request: proto.Request) -> bytes:
        key = request.keys[0]
        if key in (proto.KEY_SNAPSHOT, proto.KEY_FETCH_DIGEST):
            return proto.client_error_response(f"{key} is reserved")
        now = self._clock()
        item = self.store.peek(key)
        if item is None or item.expired(now):
            return proto.not_stored_response()
        if request.command == "append":
            merged = bytes(item.value) + request.value
        else:
            merged = request.value + bytes(item.value)
        expires = item.expires_at
        stored = self.store.set(
            key, merged, now=now, size=len(merged), flags=item.flags,
            ttl=None if expires is None else max(0.0, expires - now),
        )
        self._stamp_cas(stored)
        return proto.stored_response()

    def _do_arith(self, request: proto.Request) -> bytes:
        key = request.keys[0]
        now = self._clock()
        value = self.store.get(key, now)
        if value is None:
            return proto.not_found_response()
        try:
            number = int(bytes(value).decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            return proto.client_error_response(
                "cannot increment or decrement non-numeric value"
            )
        if request.command == "incr":
            number = (number + request.delta) % (1 << 64)
        else:
            number = max(0, number - request.delta)  # decr clamps at zero
        item = self.store.peek(key)
        encoded = str(number).encode("ascii")
        expires = item.expires_at if item is not None else None
        stored = self.store.set(
            key, encoded, now=now, size=len(encoded),
            flags=item.flags if item is not None else 0,
            ttl=None if expires is None else max(0.0, expires - now),
        )
        self._stamp_cas(stored)
        return proto.number_response(number)

    def _do_touch(self, request: proto.Request) -> bytes:
        key = request.keys[0]
        now = self._clock()
        expires_at = (
            None if request.exptime <= 0 else now + float(request.exptime)
        )
        if not self.store.touch(key, now, expires_at):
            return proto.not_found_response()
        return proto.touched_response()

    def _do_delete(self, request: proto.Request) -> bytes:
        if self.store.delete(request.keys[0], self._clock()):
            return proto.deleted_response()
        return proto.not_found_response()

    def _do_stats_slabs(self) -> bytes:
        if not isinstance(self.store, SlabStore):
            return proto.stats_response({})
        stats: Dict[str, object] = {}
        for row in self.store.slab_stats():
            prefix = str(row["class"])
            stats[f"{prefix}:chunk_size"] = row["chunk_size"]
            stats[f"{prefix}:total_pages"] = row["pages"]
            stats[f"{prefix}:used_chunks"] = row["used_chunks"]
            stats[f"{prefix}:free_chunks"] = row["free_chunks"]
        return proto.stats_response(stats)

    def _stats_dict(self) -> Dict[str, object]:
        stats = self.store.stats
        return {
            "cmd_get": stats.gets,
            "get_hits": stats.hits,
            "get_misses": stats.misses,
            "cmd_set": stats.sets,
            "evictions": stats.evictions,
            "expired_unfetched": stats.expirations,
            "curr_items": len(self.store),
            "bytes": self.store.used_bytes,
            "digest_keys": self.digest.count,
            "digest_overflows": self.digest.overflow_events,
            "digest_bytes": self.digest.size_bytes(),
            "curr_connections": self.connections,
            "inflight_commands": self.inflight,
            "shed_commands": self.shed_commands,
            "paused_reads": self.paused_reads,
        }


def main(argv: Optional[list] = None) -> None:  # pragma: no cover - CLI
    """Run one cache node as its own process (``python -m repro.net.server``).

    The net throughput bench uses this to put the server on its own core
    — a co-located server shares the client's event loop and measures
    GIL contention, not the transport.
    """
    import argparse

    parser = argparse.ArgumentParser(description="Run one cache node")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--capacity-mb", type=float, default=None)
    parser.add_argument("--expected-keys", type=int, default=100_000)
    parser.add_argument("--max-inflight", type=int, default=None)
    parser.add_argument("--max-conn-inflight", type=int, default=None)
    args = parser.parse_args(argv)

    async def serve() -> None:
        server = MemcachedServer(
            capacity_bytes=(
                int(args.capacity_mb * (1 << 20)) if args.capacity_mb else None
            ),
            bloom_config=optimal_config(args.expected_keys),
            max_inflight=args.max_inflight,
            max_conn_inflight=args.max_conn_inflight,
        )
        port = await server.start(args.host, args.port)
        print(f"LISTENING {port}", flush=True)
        await asyncio.Event().wait()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":  # pragma: no cover
    main()
