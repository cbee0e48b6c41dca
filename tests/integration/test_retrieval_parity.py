"""Sim-vs-live parity for the shared Algorithm-2 retrieval engine.

Both :class:`repro.web.frontend.WebServer` (simulated substrate) and
:class:`repro.net.webtier.AsyncProteusFrontend` (asyncio TCP substrate)
drive the one sans-IO :class:`repro.core.retrieval.RetrievalEngine`.  These
tests put *equivalent cluster states* on both substrates and assert the
engines take identical :class:`FetchPath` branches for every scenario:
hit-new, hit-old, digest false positive, miss, and coalesced.
"""

import asyncio

import pytest

from repro.bloom.bloom import BloomFilter
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.retrieval import FetchPath
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.sim.latency import Constant
from repro.web.frontend import WebServer

CFG = optimal_config(2000)
NUM_SERVERS = 4


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------- substrates


class SimSubstrate:
    """The simulated three-tier testbed, advanced by an explicit clock."""

    def __init__(self, coalesce=False, db_latency=0.005):
        self.cache = CacheCluster(
            ProteusRouter(NUM_SERVERS),
            capacity_bytes=4096 * 2000,
            ttl=60.0,
            bloom_config=CFG,
        )
        self.db = DatabaseCluster(2, service_model=Constant(db_latency))
        self.web = WebServer(
            0, self.cache, self.db,
            cache_latency=Constant(0.001), web_overhead=Constant(0.001),
            coalesce_misses=coalesce,
        )
        self.clock = 0.0

    def fetch(self, key):
        self.clock += 0.05
        return self.web.fetch(key, self.clock).path

    def scale_to(self, n_new):
        self.clock += 0.05
        self.cache.scale_to(n_new, now=self.clock)

    def transition(self):
        return self.cache.routing_epochs(self.clock).transition


class LiveSubstrate:
    """The asyncio TCP testbed: real sockets on localhost."""

    def __init__(self, coalesce=False):
        self.coalesce = coalesce
        self.db_reads = 0
        self.servers = []
        self.web = None

    async def start(self):
        self.servers = [
            MemcachedServer(bloom_config=CFG) for _ in range(NUM_SERVERS)
        ]
        endpoints = []
        for server in self.servers:
            port = await server.start()
            endpoints.append(("127.0.0.1", port))
        self.web = AsyncProteusFrontend(
            endpoints, CFG, self._db_fetch, coalesce_misses=self.coalesce
        )
        await self.web.connect()
        return self

    async def _db_fetch(self, key):
        self.db_reads += 1
        await asyncio.sleep(0.02)  # DB service time; opens a coalescing window
        return f"db-value-of-{key}".encode()

    async def fetch(self, key):
        result = await self.web.fetch(key)
        return result.path

    async def stop(self):
        if self.web is not None:
            await self.web.close()
        for server in self.servers:
            await server.stop()

    def transition(self):
        return self.web._current_transition()


# ------------------------------------------------------------------- parity


def remapped_keys(count=40):
    """Keys whose owner changes between the 4- and 3-server mappings."""
    router = ProteusRouter(NUM_SERVERS)
    found = []
    for i in range(100_000):
        key = f"page:{i}"
        if router.route(key, 4) != router.route(key, 3):
            found.append(key)
            if len(found) == count:
                return found
    raise AssertionError("not enough remapped keys")


class TestFetchPathParity:
    def test_miss_then_hit_new(self):
        sim = SimSubstrate()

        async def body():
            live = await LiveSubstrate().start()
            try:
                sim_paths = [sim.fetch("page:a"), sim.fetch("page:a")]
                live_paths = [
                    await live.fetch("page:a"), await live.fetch("page:a")
                ]
                assert sim_paths == live_paths == [
                    FetchPath.MISS_DB, FetchPath.HIT_NEW,
                ]
            finally:
                await live.stop()

        run(body())

    def test_hit_old_after_scale_down(self):
        keys = remapped_keys()
        sim = SimSubstrate()

        async def body():
            live = await LiveSubstrate().start()
            try:
                for key in keys:
                    sim.fetch(key)
                    await live.fetch(key)
                sim.scale_to(3)
                await live.web.scale_to(3, ttl=60.0)
                sim_paths = [sim.fetch(key) for key in keys]
                live_paths = [await live.fetch(key) for key in keys]
                # Identical decisions, key by key, across substrates.
                assert sim_paths == live_paths
                assert FetchPath.HIT_OLD in sim_paths
                assert FetchPath.MISS_DB not in sim_paths
                # Property 1: the second pass is authoritative everywhere.
                for key in keys:
                    assert sim.fetch(key) is FetchPath.HIT_NEW
                    assert (await live.fetch(key)) is FetchPath.HIT_NEW
            finally:
                await live.stop()

        run(body())

    def test_digest_false_positive(self):
        keys = remapped_keys()
        sim = SimSubstrate()
        router = ProteusRouter(NUM_SERVERS)

        def lying_filter():
            lying = BloomFilter(64, num_hashes=1)
            lying._bits = bytearray(b"\xff" * len(lying._bits))
            return lying

        async def body():
            live = await LiveSubstrate().start()
            try:
                for key in keys:
                    sim.fetch(key)
                    await live.fetch(key)
                sim.scale_to(3)
                await live.web.scale_to(3, ttl=60.0)
                # Replace every old-owner digest with an all-ones filter, so
                # a never-cached remapped key probes its old owner, misses,
                # and is classified as a false positive on both substrates.
                for sid in range(NUM_SERVERS):
                    sim.transition().digests[sid] = lying_filter()
                    live.transition().digests[sid] = lying_filter()
                probe = next(
                    f"page:fp-{i}" for i in range(100_000)
                    if router.route(f"page:fp-{i}", 4)
                    != router.route(f"page:fp-{i}", 3)
                )
                sim_path = sim.fetch(probe)
                live_path = await live.fetch(probe)
                assert sim_path is live_path is FetchPath.FALSE_POSITIVE_DB
            finally:
                await live.stop()

        run(body())

    def test_cold_miss_during_transition(self):
        keys = remapped_keys()
        sim = SimSubstrate()

        async def body():
            live = await LiveSubstrate().start()
            try:
                for key in keys:
                    sim.fetch(key)
                    await live.fetch(key)
                sim.scale_to(3)
                await live.web.scale_to(3, ttl=60.0)
                sim_path = sim.fetch("page:never-cached")
                live_path = await live.fetch("page:never-cached")
                assert sim_path is live_path is FetchPath.MISS_DB
            finally:
                await live.stop()

        run(body())

    def test_coalesced_storm_costs_one_db_read(self):
        sim = SimSubstrate(coalesce=True, db_latency=0.1)
        # Sim: 5 requests inside the leader's DB window.
        sim_paths = [sim.web.fetch("hot", now=i * 0.001).path for i in range(5)]
        sim_db_reads = sim.db.total_requests()

        async def body():
            live = await LiveSubstrate(coalesce=True).start()
            try:
                live_paths = await asyncio.gather(
                    *[live.fetch("hot") for _ in range(5)]
                )
                return list(live_paths), live.db_reads
            finally:
                await live.stop()

        live_paths, live_db_reads = run(body())
        assert sim_db_reads == live_db_reads == 1
        assert sorted(sim_paths) == sorted(live_paths)
        assert sim_paths.count(FetchPath.MISS_DB) == 1
        assert sim_paths.count(FetchPath.COALESCED) == 4

    @pytest.mark.parametrize("own_keys", [False, True])
    def test_coalesced_batch_storm_costs_one_db_read(self, own_keys):
        # Five concurrent pages ask for "hot" — alone, or next to a
        # page-private key so every round fans out under gather.  Their
        # first probes are held until all have answered, so every page
        # reaches WaitForLeader together: the first page to find no leader
        # must claim the key at once, or another page slips into the gap
        # before its DB read starts and reads the DB too.
        pages = [["hot", f"own:{i}"] if own_keys else ["hot"] for i in range(5)]
        router = ProteusRouter(NUM_SERVERS)
        first_probes = sum(
            len({router.route(key, NUM_SERVERS) for key in page})
            for page in pages
        )

        async def body():
            live = await LiveSubstrate(coalesce=True).start()
            gate = asyncio.Event()
            answered = 0
            get_multi = live.web._get_multi

            async def held(server_id, keys, deadline=None):
                nonlocal answered
                hits = await get_multi(server_id, keys, deadline)
                answered += 1
                if answered == first_probes:
                    gate.set()
                await gate.wait()
                return hits

            live.web._get_multi = held
            try:
                results = await asyncio.gather(
                    *[live.web.fetch_many(page) for page in pages]
                )
                return [page["hot"].path for page in results], live.db_reads
            finally:
                await live.stop()

        hot_paths, db_reads = run(body())
        assert db_reads == 1 + (5 if own_keys else 0)
        assert sorted(hot_paths) == sorted(
            [FetchPath.MISS_DB] + [FetchPath.COALESCED] * 4
        )

    def test_stats_objects_directly_comparable(self):
        # Both substrates expose the same FetchStats type with FetchPath
        # keys, so reports diff without label translation.
        sim = SimSubstrate()

        async def body():
            live = await LiveSubstrate().start()
            try:
                sim.fetch("k")
                sim.fetch("k")
                await live.fetch("k")
                await live.fetch("k")
                assert sim.web.stats.counts == live.web.stats.counts
                assert sim.web.stats.as_labels() == live.web.stats.as_labels()
                assert live.web.stats.counts[FetchPath.COALESCED] == 0
            finally:
                await live.stop()

        run(body())
