"""One-key timing: ``fetch(k, t)`` and ``fetch_many([k], t)`` agree exactly.

Both simulated entry points drive the engine through one executor and one
clock rule (a round ends with its slowest command).  With constant latency
models, twin clusters given the same history must therefore complete a
one-key request at the same virtual time on every Algorithm-2 path — this
pins the executor's per-command clock charges for each path.
"""

import pytest

from repro.bloom import BloomFilter
from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.retrieval import FetchPath
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.sim.latency import Constant
from repro.web.frontend import WebServer

NUM_SERVERS = 4
CFG = optimal_config(2000)
ROUTER = ProteusRouter(NUM_SERVERS)
#: the request under test starts here; setup happens before it
T = 1.0


def remapped(prefix):
    """A key whose owner differs between the 4- and 3-server mappings."""
    for i in range(100_000):
        key = f"{prefix}:{i}"
        if ROUTER.route(key, 4) != ROUTER.route(key, 3):
            return key
    raise AssertionError("no remapped key found")


def make_web():
    cache = CacheCluster(
        ProteusRouter(NUM_SERVERS),
        capacity_bytes=4096 * 2000,
        ttl=60.0,
        bloom_config=CFG,
    )
    db = DatabaseCluster(2, service_model=Constant(0.05))
    return WebServer(
        0, cache, db,
        cache_latency=Constant(0.001), web_overhead=Constant(0.002),
        coalesce_misses=True,
    )


def lying_digests(web):
    """Replace every old-owner digest with an all-ones filter."""
    transition = web.cache.routing_epochs(T).transition
    for server_id in range(NUM_SERVERS):
        lying = BloomFilter(64, num_hashes=1)
        lying._bits = bytearray(b"\xff" * len(lying._bits))
        transition.digests[server_id] = lying


def setup_hit_new(web):
    web.fetch("page:warm", 0.0)
    return "page:warm"


def setup_hit_old(web):
    key = remapped("page:hot")
    web.fetch(key, 0.0)
    web.cache.scale_to(3, now=0.5)
    return key


def setup_false_positive(web):
    web.fetch(remapped("page:other"), 0.0)
    web.cache.scale_to(3, now=0.5)
    lying_digests(web)
    return remapped("page:fp")


def setup_miss(web):
    return "page:cold"


def setup_coalesced(web):
    # A leader's DB read started just before T is still in flight.
    web.fetch("page:pile", T - 0.01)
    return "page:pile"


def setup_degraded(web):
    web.fetch("page:dead", 0.0)
    web.cache.fail_server(ROUTER.route("page:dead", NUM_SERVERS), 0.5)
    return "page:dead"


SCENARIOS = {
    FetchPath.HIT_NEW: setup_hit_new,
    FetchPath.HIT_OLD: setup_hit_old,
    FetchPath.FALSE_POSITIVE_DB: setup_false_positive,
    FetchPath.MISS_DB: setup_miss,
    FetchPath.COALESCED: setup_coalesced,
    FetchPath.DEGRADED_DB: setup_degraded,
}


@pytest.mark.parametrize("path", list(SCENARIOS), ids=lambda p: p.value)
def test_fetch_and_one_key_batch_complete_together(path):
    single_web, batch_web = make_web(), make_web()
    key = SCENARIOS[path](single_web)
    assert SCENARIOS[path](batch_web) == key

    single = single_web.fetch(key, T)
    batched = batch_web.fetch_many([key], T)[key]

    assert single.path is batched.path is path
    assert single.value == batched.value
    assert single.degraded == batched.degraded
    assert single.started == batched.started == T
    assert single.completed == batched.completed
    assert single.completed > T
