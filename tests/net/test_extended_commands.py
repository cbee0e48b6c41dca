"""Live TCP tests for the extended memcached commands."""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.errors import ProtocolError
from repro.net import protocol as proto
from repro.net.client import MemcachedClient
from repro.net.server import MemcachedServer

CFG = optimal_config(2000)


def run(coro):
    return asyncio.run(coro)


async def with_server(test_body, **server_kwargs):
    server_kwargs.setdefault("bloom_config", CFG)
    server = MemcachedServer(**server_kwargs)
    await server.start()
    try:
        async with MemcachedClient("127.0.0.1", server.port) as client:
            await test_body(server, client)
    finally:
        await server.stop()


class TestCas:
    def test_gets_returns_cas_id(self):
        async def body(server, client):
            await client.set("k", b"v1")
            first = await client.gets("k")
            assert first.value == b"v1"
            await client.set("k", b"v2")
            second = await client.gets("k")
            assert second.cas > first.cas

        run(with_server(body))

    def test_cas_succeeds_when_unchanged(self):
        async def body(server, client):
            await client.set("k", b"v1")
            token = await client.gets("k")
            assert await client.cas("k", b"v2", token.cas) == "stored"
            assert await client.get("k") == b"v2"

        run(with_server(body))

    def test_cas_fails_after_concurrent_write(self):
        async def body(server, client):
            await client.set("k", b"v1")
            token = await client.gets("k")
            await client.set("k", b"intervening")
            assert await client.cas("k", b"v2", token.cas) == "exists"
            assert await client.get("k") == b"intervening"

        run(with_server(body))

    def test_cas_on_missing_key(self):
        async def body(server, client):
            assert await client.cas("ghost", b"v", 1) == "not_found"

        run(with_server(body))

    def test_flush_all_leaves_no_per_key_cas_state(self):
        async def body(server, client):
            for i in range(20):
                await client.set(f"k{i}", b"v")
            assert (await client.gets("k0")).cas > 0
            await client.flush_all()
            assert len(server.store) == 0
            for value in vars(server).values():
                if isinstance(value, dict):
                    assert not any(f"k{i}" in value for i in range(20))

        run(with_server(body))

    def test_gets_miss_returns_none(self):
        async def body(server, client):
            assert await client.gets("missing") is None

        run(with_server(body))


class TestConcat:
    def test_append(self):
        async def body(server, client):
            await client.set("k", b"hello")
            assert await client.append("k", b" world")
            assert await client.get("k") == b"hello world"

        run(with_server(body))

    def test_prepend(self):
        async def body(server, client):
            await client.set("k", b"world")
            assert await client.prepend("k", b"hello ")
            assert await client.get("k") == b"hello world"

        run(with_server(body))

    def test_concat_on_missing_key_not_stored(self):
        async def body(server, client):
            assert not await client.append("ghost", b"x")
            assert not await client.prepend("ghost", b"x")

        run(with_server(body))

    def test_concat_keeps_digest_consistent(self):
        async def body(server, client):
            await client.set("k", b"a")
            await client.append("k", b"b")
            assert server.digest.count == 1  # replace, not duplicate insert
            assert "k" in server.digest

        run(with_server(body))


class TestArithmetic:
    def test_incr(self):
        async def body(server, client):
            await client.set("n", b"10")
            assert await client.incr("n", 5) == 15
            assert await client.get("n") == b"15"

        run(with_server(body))

    def test_decr_clamps_at_zero(self):
        async def body(server, client):
            await client.set("n", b"3")
            assert await client.decr("n", 10) == 0

        run(with_server(body))

    def test_arith_on_missing_returns_none(self):
        async def body(server, client):
            assert await client.incr("ghost") is None
            assert await client.decr("ghost") is None

        run(with_server(body))

    def test_arith_on_non_numeric_raises(self):
        async def body(server, client):
            await client.set("s", b"not-a-number")
            with pytest.raises(ProtocolError):
                await client.incr("s")

        run(with_server(body))

    def test_incr_wraps_at_64_bits(self):
        async def body(server, client):
            await client.set("n", str(2 ** 64 - 1).encode())
            assert await client.incr("n", 1) == 0

        run(with_server(body))


class TestTouch:
    def test_touch_extends_expiry(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            await client.set("k", b"v", exptime=10)
            fake["t"] = 8.0
            assert await client.touch("k", 100)
            fake["t"] = 50.0
            assert await client.get("k") == b"v"

        run(with_server(body))

    def test_touch_missing_key(self):
        async def body(server, client):
            assert not await client.touch("ghost", 10)

        run(with_server(body))

    def test_touch_zero_clears_expiry(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            await client.set("k", b"v", exptime=5)
            assert await client.touch("k", 0)
            fake["t"] = 1e9
            assert await client.get("k") == b"v"

        run(with_server(body))


    def test_touch_ttl_reaches_the_expiry_index(self):
        async def body(server, client):
            fake = {"t": 0.0}
            server._clock = lambda: fake["t"]
            await client.set("k", b"v")
            await client.set("j", b"v", exptime=10)
            assert await client.touch("k", 5)
            assert await client.touch("j", 100)
            assert server.store.purge_expired(10.0) == 1
            assert "k" not in server.store and "j" in server.store
            assert "k" not in server.digest

        run(with_server(body))


class TestGetMulti:
    def test_batched_hits_and_misses(self):
        async def body(server, client):
            await client.set("a", b"1")
            await client.set("b", b"2")
            out = await client.get_multi(["a", "missing", "b"])
            assert out == {"a": b"1", "b": b"2"}

        run(with_server(body))

    def test_empty_batch(self):
        async def body(server, client):
            assert await client.get_multi([]) == {}

        run(with_server(body))

    def test_large_batch(self):
        async def body(server, client):
            for i in range(64):
                await client.set(f"k{i}", str(i).encode())
            out = await client.get_multi([f"k{i}" for i in range(64)])
            assert len(out) == 64
            assert out["k7"] == b"7"

        run(with_server(body))


class TestParsingOfNewCommands:
    def test_cas_parse(self):
        req = proto.parse_command_line(b"cas k 1 0 3 42\r\n")
        assert req.command == "cas" and req.cas == 42 and req.num_bytes == 3

    def test_cas_wrong_arity(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"cas k 1 0 3\r\n")

    def test_incr_parse(self):
        req = proto.parse_command_line(b"incr k 7\r\n")
        assert req.command == "incr" and req.delta == 7

    def test_incr_negative_delta_rejected(self):
        with pytest.raises(ProtocolError):
            proto.parse_command_line(b"incr k -1\r\n")

    def test_touch_parse(self):
        req = proto.parse_command_line(b"touch k 60 noreply\r\n")
        assert req.command == "touch" and req.exptime == 60 and req.noreply

    def test_append_parse(self):
        req = proto.parse_command_line(b"append k 0 0 5\r\n")
        assert req.command == "append" and req.num_bytes == 5
