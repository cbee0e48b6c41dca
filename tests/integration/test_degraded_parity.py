"""Sim-vs-live parity under faults: one FaultSchedule, two substrates.

The same scripted fault is realized twice — in the simulator as
crash events (via :func:`failure_events_from_schedule`) and against the
live tier as chaos-proxy plans (via :meth:`FaultSchedule.plans_at`) —
and both sides must report the *same* engine accounting: identical
``FetchStats.counts`` per path and identical ``FetchStats.degraded``
event counters.  This is the fault-injection extension of the repo's
sim-vs-live retrieval parity suite.
"""

import asyncio

import pytest

from repro.bloom.config import optimal_config
from repro.cache.cluster import CacheCluster
from repro.core.router import ProteusRouter
from repro.database.cluster import DatabaseCluster
from repro.experiments.failover import failure_events_from_schedule
from repro.net.chaosproxy import ChaosProxy
from repro.net.server import MemcachedServer
from repro.net.webtier import AsyncProteusFrontend
from repro.resilience import FaultPlan, FaultSchedule, ResiliencePolicy
from repro.sim.latency import Constant
from repro.web.frontend import WebServer

N_SERVERS = 3
BLOOM = optimal_config(1000)
KEYS = [f"page:{i}" for i in range(24)]
#: live fails fast so the degraded answer arrives within the test budget
POLICY = ResiliencePolicy.aggressive(op_timeout=0.2)
FAULT_AT = 1.0


def schedule_killing(server_id):
    schedule = FaultSchedule()
    schedule.add(FAULT_AT, server_id, FaultPlan.killed())
    return schedule


def run(coro):
    return asyncio.run(coro)


def value_of(key):
    return f"db:{key}".encode()


async def database(key):
    return value_of(key)


def run_sim(schedule, transition_to=None):
    """Warm, apply *schedule* as crash events, refetch; return the stats
    and each refetched key's (path, degraded) pair."""
    cache = CacheCluster(
        ProteusRouter(N_SERVERS),
        capacity_bytes=4096 * 2000,
        bloom_config=BLOOM,
    )
    db = DatabaseCluster(2, service_model=Constant(0.0001))
    web = WebServer(
        0, cache, db,
        cache_latency=Constant(0.0001), web_overhead=Constant(0.0001),
    )
    now = 0.0
    for key in KEYS:
        web.fetch(key, now=now)
        now += 0.01
    if transition_to is not None:
        cache.scale_to(transition_to, now=FAULT_AT)
    for event in failure_events_from_schedule(schedule):
        cache.fail_server(event.server_id, event.when)
    now = FAULT_AT + 0.1
    flags = {}
    for key in KEYS:
        result = web.fetch(key, now=now)
        flags[key] = (result.path, result.degraded)
        now += 0.01
    return web.stats, flags


async def run_live(schedule, transition_to=None):
    """The same script against real servers behind chaos proxies."""
    servers = [MemcachedServer(bloom_config=BLOOM) for _ in range(N_SERVERS)]
    for server in servers:
        await server.start()
    proxies = [ChaosProxy("127.0.0.1", server.port) for server in servers]
    for proxy in proxies:
        await proxy.start()
    web = AsyncProteusFrontend(
        [("127.0.0.1", proxy.port) for proxy in proxies],
        BLOOM,
        database,
        resilience=POLICY,
    )
    try:
        await web.connect()
        for key in KEYS:
            await web.fetch(key)
        if transition_to is not None:
            await web.scale_to(transition_to, ttl=60.0)
        for server_id, plan in schedule.plans_at(FAULT_AT + 0.1).items():
            proxies[server_id].set_plan(plan)
        flags = {}
        for key in KEYS:
            result = await web.fetch(key)
            assert result.value == value_of(key)
            flags[key] = (result.path, result.degraded)
        return web.stats, flags
    finally:
        await web.close()
        for proxy in proxies:
            await proxy.close()
        for server in servers:
            await server.stop()


def assert_parity(sim, live):
    (sim_stats, sim_flags), (live_stats, live_flags) = sim, live
    # Per key: the same path and the same served-around-a-fault flag.
    assert sim_flags == live_flags
    assert sim_stats.counts == live_stats.counts
    assert sim_stats.degraded == live_stats.degraded
    assert sim_stats.degraded_events == live_stats.degraded_events


@pytest.mark.timeout(120)
class TestDegradedParity:
    def test_killed_owner_steady_state(self):
        # Kill server 0 after warming: its keys degrade to the database
        # (probe skipped, write-back skipped) on both substrates.
        schedule = schedule_killing(0)
        sim = run_sim(schedule)
        assert_parity(sim, run(run_live(schedule)))
        sim_stats, sim_flags = sim
        assert sim_stats.counts["degraded_db"] > 0
        assert any(degraded for _, degraded in sim_flags.values())
        assert sim_stats.degraded["probe_new"] > 0
        assert sim_stats.degraded["writeback"] > 0

    def test_killed_old_owner_mid_transition(self):
        # Scale 3 -> 2, then kill the retiring server: every moved key's
        # digest hit leads to a dead old owner, so the hot-copy pull
        # degrades to the database while the write-back still installs
        # the value at the healthy new owner.
        schedule = schedule_killing(2)
        sim = run_sim(schedule, transition_to=2)
        assert_parity(sim, run(run_live(schedule, transition_to=2)))
        sim_stats, _ = sim
        assert sim_stats.degraded["probe_old"] > 0
        assert sim_stats.counts["degraded_db"] > 0

    def test_benign_schedule_stays_clean(self):
        # An empty schedule maps to zero crash events and benign proxies:
        # both substrates must report zero degraded activity.
        schedule = FaultSchedule()
        sim = run_sim(schedule)
        assert_parity(sim, run(run_live(schedule)))
        sim_stats, _ = sim
        assert sim_stats.degraded_events == 0
