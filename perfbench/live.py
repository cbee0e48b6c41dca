"""The live workloads: ``AsyncProteusFrontend`` over TCP against cache nodes
in a second process.

Load shape: the cache-node host (:mod:`nodehost`) runs every node on one
event loop in its own process; this process runs the frontend with
``pool_size=1`` (one connection per node) and a closed loop of two page
workers with no think time.  The two processes are pinned to a CPU each
(one CPU if only one is usable), and each CPU also runs the reference load
of :mod:`refload`, which measures its speed: the gated CPU times are
scaled by it.  A page is 64 distinct keys drawn from a Zipf
distribution over the catalogue.  The database is the in-process
:class:`~answers.VersionedDatabase`, which answers at once.

A run measures one *plain* phase (``--trace 0``), or three phases of a
third of the time each (``--trace 1``): the same loop untraced, the same
loop traced, and the same page stream sent straight through
``MemcachedClient.get_multi`` to each owning node (the wire ceiling).
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bloom.config import optimal_config
from repro.core.retrieval import FetchPath
from repro.core.transition import Transition
from repro.net.client import MemcachedClient
from repro.net.parser import ReplyParser
from repro.net.webtier import AsyncProteusFrontend

from answers import FAILED, Checker, VersionedDatabase
from machine import cpu_seconds, cpu_ticks, peak_rss_mb
from refload import NICE, CoRunner
from spans import Tracer, clock, ledger_gap

HERE = Path(__file__).resolve().parent

PAGE_KEYS = 64
WORKERS = 2
#: distinct pages and operations generated per run (cycled)
PAGE_POOL = 4096
OP_POOL = 8192
SETUP_REPEATS = 3
#: concurrent puts while filling the nodes
FILL_BATCH = 256
#: drain window of each ``scale_to`` in the churn cycle, seconds
DRAIN_TTL = 1.0
#: churn cycle, in pages fetched since the phase began: scale 4->3 at
#: ``DOWN_AT``, back to 4 at ``UP_AT``, repeating every ``CYCLE`` pages
CYCLE, DOWN_AT, UP_AT = 240, 40, 120


@dataclass(frozen=True)
class Shape:
    nodes: int
    catalogue: int
    value_size: int
    #: per-node store capacity in bytes
    capacity_bytes: int
    alpha: float
    #: share of operations (page fetches and puts) that are puts
    put_share: float
    scale_cycle: bool

    @property
    def expected_keys(self) -> int:
        """Keys a node can hold: sizes its counting Bloom filter."""
        return min(self.catalogue, self.capacity_bytes // self.value_size)

    @property
    def fill_keys(self) -> int:
        """Keys all nodes together can hold, up to the catalogue."""
        return min(self.catalogue, self.nodes * self.expected_keys)


SHAPES = {
    # Every node could hold the whole catalogue: the working set fits.
    "live-hit": Shape(
        nodes=4, catalogue=20_000, value_size=128,
        capacity_bytes=20_000 * 128, alpha=0.9, put_share=0.0,
        scale_cycle=False,
    ),
    # The four nodes together hold a third of the catalogue.
    "live-churn": Shape(
        nodes=4, catalogue=24_576, value_size=512,
        capacity_bytes=1 << 20, alpha=0.6, put_share=0.05,
        scale_cycle=True,
    ),
}


class Inputs:
    """Everything the workload sends, made from the seed."""

    def __init__(self, shape: Shape, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n = shape.catalogue
        names = [f"obj:{i:06d}" for i in range(n)]
        #: key by popularity rank (rank 0 hottest)
        self.by_rank = [names[i] for i in rng.permutation(n)]
        cdf = np.cumsum(1.0 / np.arange(1, n + 1) ** shape.alpha)
        cdf /= cdf[-1]

        def ranks(count: int) -> np.ndarray:
            return np.minimum(
                np.searchsorted(cdf, rng.random(count), side="right"), n - 1
            )

        self.pages: List[List[str]] = []
        for _ in range(PAGE_POOL):
            page: Dict[int, None] = {}
            while len(page) < PAGE_KEYS:
                for rank in ranks(2 * PAGE_KEYS).tolist():
                    page[rank] = None
                    if len(page) == PAGE_KEYS:
                        break
            self.pages.append([self.by_rank[rank] for rank in page])
        #: per operation: the key to put, or None for a page fetch
        puts = rng.random(OP_POOL) < shape.put_share
        put_keys = ranks(OP_POOL).tolist()
        self.ops: List[Optional[str]] = [
            self.by_rank[rank] if put else None
            for put, rank in zip(puts.tolist(), put_keys)
        ]


class Phase:
    """Tallies of one measured stretch of the closed loop."""

    def __init__(self, seconds: float) -> None:
        self.start = clock()
        self.deadline = self.start + seconds
        self.end = self.start
        self.stopping = False
        self.pages = 0
        self.keys = 0
        self.correct = 0
        self.page_ms: List[float] = []
        self.put_ms: List[float] = []
        self.scale_ms: List[float] = []

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def keys_per_s(self) -> float:
        return self.correct / self.wall if self.wall > 0 else 0.0


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    return float(np.percentile(values, pct, method="inverted_cdf"))


class LiveBench:
    def __init__(self, workload: str, seed: int) -> None:
        self.shape = SHAPES[workload]
        self.inputs = Inputs(self.shape, seed)
        self.bloom = optimal_config(self.shape.expected_keys)
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.frontend: Optional[AsyncProteusFrontend] = None
        self.admin: List[MemcachedClient] = []
        self.db: Optional[VersionedDatabase] = None
        self.checker: Optional[Checker] = None
        self.cursor = 0
        #: the CPU the node process is pinned to
        self.node_cpu = min(os.sched_getaffinity(0))
        #: reference loads on (this process's CPU, the node process's CPU)
        self.loads: Tuple[CoRunner, ...] = ()
        #: the first exception an operation raised, for the report
        self.first_error: Optional[str] = None

    # ------------------------------------------------------------ set-up

    async def setup(self) -> Tuple[float, float]:
        """Spawn the nodes, connect, fill; returns the CPU seconds this
        process and the node process spent on it."""
        self.db = VersionedDatabase(self.inputs.by_rank, self.shape.value_size)
        checker = self.checker
        self.checker = Checker(self.db)
        if checker is not None:  # keep the tallies of earlier set-ups
            self.checker.attempted = checker.attempted
            self.checker.failed = checker.failed
        started = time.process_time()
        env = dict(os.environ)
        src = str(HERE.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "nodehost.py"),
            "--nodes", str(self.shape.nodes),
            "--capacity-bytes", str(self.shape.capacity_bytes),
            "--expected-keys", str(self.shape.expected_keys),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            env=env,
        )
        os.sched_setaffinity(self.proc.pid, {self.node_cpu})
        line = (await self.proc.stdout.readline()).decode()
        if not line.startswith("PORTS "):
            raise RuntimeError(f"cache-node host did not start: {line!r}")
        endpoints = [("127.0.0.1", int(port)) for port in line.split()[1:]]
        self.frontend = AsyncProteusFrontend(
            endpoints, self.bloom, self.db.read, pool_size=1
        )
        await self.frontend.connect()
        self.admin = [
            await MemcachedClient(host, port).connect()
            for host, port in endpoints
        ]
        # Put the hottest keys the nodes can hold, coldest first, so the
        # nodes start out holding what an LRU cache keeps under this stream.
        fill = self.inputs.by_rank[:self.shape.fill_keys][::-1]
        for i in range(0, len(fill), FILL_BATCH):
            await asyncio.gather(
                *(self._fill(key) for key in fill[i:i + FILL_BATCH])
            )
        return time.process_time() - started, cpu_seconds(self.proc.pid)

    def _failed(self, error: Exception) -> None:
        if self.first_error is None:
            self.first_error = f"{type(error).__name__}: {error}"

    async def _fill(self, key: str) -> None:
        try:
            await self.frontend.put(key, self.db.values[key])
        except Exception as error:
            self._failed(error)
            self.checker.put_done(key, 0, ok=False)
        else:
            self.checker.put_done(key, 0, ok=True)

    async def teardown(self) -> None:
        if self.frontend is not None:
            await self.frontend.close()
            self.frontend = None
        for client in self.admin:
            await client.close()
        self.admin = []
        if self.proc is not None:
            if self.proc.returncode is None:
                self.proc.stdin.write(b"quit\n")
                try:
                    await asyncio.wait_for(self.proc.wait(), 10)
                except asyncio.TimeoutError:
                    self.proc.kill()
                    await self.proc.wait()
            self.proc = None

    async def node_command(self, command: str) -> str:
        self.proc.stdin.write(command.encode() + b"\n")
        await self.proc.stdin.drain()
        return (await self.proc.stdout.readline()).decode()

    async def wire_stats(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for client in self.admin:
            for name, value in (await client.stats()).items():
                if value.isdigit():
                    totals[name] = totals.get(name, 0) + int(value)
        return totals

    # ------------------------------------------------------- closed loop

    async def _fetch(self, phase: Phase, keys: List[str]) -> None:
        checker = self.checker
        floors = checker.snapshot(keys) if checker.acked else {}
        started = clock()
        try:
            results = await self.frontend.fetch_many(keys)
        except Exception as error:
            self._failed(error)
            checker.check_error(keys)
            return
        phase.page_ms.append((clock() - started) * 1e3)
        phase.pages += 1
        phase.keys += len(keys)
        phase.correct += checker.check_page(keys, results, floors)

    async def _put(self, phase: Phase, key: str) -> None:
        value = self.db.bump(key)
        version = self.db.versions[key]
        started = clock()
        try:
            await self.frontend.put(key, value)
        except Exception as error:
            self._failed(error)
            self.checker.put_done(key, version, ok=False)
            return
        phase.put_ms.append((clock() - started) * 1e3)
        self.checker.put_done(key, version, ok=True)

    async def _worker(self, phase: Phase) -> None:
        pages, ops = self.inputs.pages, self.inputs.ops
        while clock() < phase.deadline:
            index = self.cursor
            self.cursor += 1
            put_key = ops[index % len(ops)]
            if put_key is None:
                await self._fetch(phase, pages[index % len(pages)])
            else:
                await self._put(phase, put_key)

    async def _reach(self, phase: Phase, mark: int) -> bool:
        while phase.pages < mark:
            if phase.stopping:
                return False
            await asyncio.sleep(0.005)
        return True

    async def _scale(self, phase: Phase, n: int) -> None:
        started = clock()
        await self.frontend.scale_to(n, ttl=DRAIN_TTL)
        phase.scale_ms.append((clock() - started) * 1e3)
        await asyncio.sleep(DRAIN_TTL + 0.01)

    async def _scale_cycle(self, phase: Phase) -> None:
        """4 -> 3 -> 4 at fixed page counts; after each drain window the
        drained node is flushed, as powering it off would."""
        full = self.shape.nodes
        base = 0
        while await self._reach(phase, base + DOWN_AT):
            await self._scale(phase, full - 1)
            await self.admin[full - 1].flush_all()
            await self._reach(phase, base + UP_AT)
            await self._scale(phase, full)
            base += CYCLE

    async def run_phase(self, seconds: float) -> Phase:
        phase = Phase(seconds)
        cycle = (
            asyncio.ensure_future(self._scale_cycle(phase))
            if self.shape.scale_cycle else None
        )
        await asyncio.gather(*(self._worker(phase) for _ in range(WORKERS)))
        phase.end = clock()
        phase.stopping = True
        if cycle is not None:
            await cycle
        return phase

    async def run_raw(self, seconds: float) -> Phase:
        """The page stream through ``get_multi`` per owning node; every
        value that comes back is checked, and ``keys`` counts the keys
        requested."""
        phase = Phase(seconds)
        router, n = self.frontend.router, self.shape.nodes
        groups = []
        for keys in self.inputs.pages:
            owners: Dict[int, List[str]] = {}
            for key, owner in zip(keys, router.route_many(keys, n)):
                owners.setdefault(owner, []).append(key)
            groups.append(list(owners.items()))
        clients = self.admin
        checker = self.checker

        async def worker() -> None:
            while clock() < phase.deadline:
                index = self.cursor
                self.cursor += 1
                page = groups[index % len(groups)]
                started = clock()
                replies = await asyncio.gather(
                    *(clients[owner].get_multi(keys) for owner, keys in page)
                )
                phase.page_ms.append((clock() - started) * 1e3)
                phase.pages += 1
                phase.keys += sum(len(keys) for _, keys in page)
                for reply in replies:
                    for key, value in reply.items():
                        checker.attempted += 1
                        if checker.classify(key, value) == FAILED:
                            checker.failed += 1

        await asyncio.gather(*(worker() for _ in range(WORKERS)))
        phase.end = clock()
        return phase

    # ------------------------------------------------------------ tracing

    def install_trace(self, tracer: Tracer) -> None:
        fe = self.frontend
        count_keys = lambda args: len(args[0])  # noqa: E731
        tracer.patch(fe, "fetch_many", lambda fn: tracer.wrap_async(
            "net.webtier.fetch_many", fn, items=count_keys))
        tracer.patch(fe, "put", lambda fn: tracer.wrap_async(
            "net.webtier.put", fn))
        tracer.patch(fe, "scale_to", lambda fn: tracer.wrap_async(
            "net.webtier.scale_to", fn))
        tracer.patch(fe, "database", lambda fn: tracer.wrap_async(
            "database.read", fn))
        for attr in ("retrieve_many", "retrieve"):
            tracer.patch(fe.engine, attr, lambda fn: tracer.wrap_generator(
                "core.retrieval.plan", fn))
        for attr in ("route_many", "route", "route_hashed"):
            tracer.patch(fe.router, attr, lambda fn: tracer.wrap(
                "core.router.route", fn))
        for attr in ("digest_hit_many", "digest_hit"):
            tracer.patch(Transition, attr, lambda fn: tracer.wrap(
                "core.transition.digest", fn))
        for pool in fe.pools:
            tracer.patch(pool, "acquire", lambda fn: tracer.wrap_async(
                "net.pool.acquire", fn))
        second = lambda args: len(args[1])  # noqa: E731
        tracer.patch(MemcachedClient, "get_multi", lambda fn: tracer.wrap_async(
            "net.client.get_multi", fn, items=second))
        tracer.patch(MemcachedClient, "set_multi", lambda fn: tracer.wrap_async(
            "net.client.set_multi", fn, items=second))
        tracer.patch(MemcachedClient, "set", lambda fn: tracer.wrap_async(
            "net.client.set", fn))
        tracer.patch(ReplyParser, "feed", lambda fn: tracer.wrap(
            "net.client.reply_parse", fn, root=True))
        tracer.patch(self.checker, "check_page", lambda fn: tracer.wrap(
            "bench.check", fn))

    # ---------------------------------------------------------- counters

    def counters(self) -> Dict[str, float]:
        fe = self.frontend
        counts = fe.stats.counts
        ticks, steal = cpu_ticks()
        return {
            "hit_new": counts[FetchPath.HIT_NEW],
            "hit_old": counts[FetchPath.HIT_OLD],
            "db": counts[FetchPath.MISS_DB]
            + counts[FetchPath.FALSE_POSITIVE_DB]
            + counts[FetchPath.DEGRADED_DB],
            "retries": fe.transient_failures,
            "shed_rpcs": fe.shed_rpcs,
            "unavailable_rpcs": fe.unavailable_rpcs,
            "pool_waited": sum(p.waited for p in fe.pools if p is not None),
            "db_reads": self.db.reads,
            "cpu": time.process_time(),
            "node_cpu": cpu_seconds(self.proc.pid),
            "ticks": ticks,
            "steal_ticks": steal,
        }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


async def run_live(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result record the command prints."""
    bench = LiveBench(workload, seed)
    affinity = os.sched_getaffinity(0)
    front_cpu, bench.node_cpu = min(affinity), max(affinity)
    os.sched_setaffinity(0, {front_cpu})
    # Started before any socket or pipe exists, so the forks hold none.
    loads = {cpu: CoRunner(cpu) for cpu in {front_cpu, bench.node_cpu}}
    bench.loads = (loads[front_cpu], loads[bench.node_cpu])
    setups = []
    try:
        for repeat in range(SETUP_REPEATS):
            setups.append(await bench.setup())
            if repeat < SETUP_REPEATS - 1:
                await bench.teardown()
        if trace:
            result = await _traced_run(bench, seconds)
        else:
            result = await _plain_run(bench, seconds)
    finally:
        await bench.teardown()
        for load in loads.values():
            load.stop()
        os.sched_setaffinity(0, affinity)
    checker = bench.checker
    # The set-ups take too little CPU time to measure the loads' rates over
    # them; the measured phase gives each CPU's speed.
    front_scale, node_scale = result["scales"]
    result.update(
        setup_s=statistics.median(
            front * front_scale + node * node_scale for front, node in setups
        ),
        placement=(
            f"frontend on CPU {front_cpu}, nodes on CPU {bench.node_cpu}, "
            f"each CPU shared with a nice-{NICE} reference load"
        ),
        attempted=checker.attempted,
        failed=checker.failed,
        stale=checker.stale,
        first_error=bench.first_error,
    )
    return result


async def _plain_run(bench: LiveBench, seconds: float) -> dict:
    before = bench.counters()
    marks = [load.sample() for load in bench.loads]
    phase = await bench.run_phase(seconds)
    scales = tuple(load.scale(mark) for load, mark in zip(bench.loads, marks))
    used = _delta(bench.counters(), before)
    return {
        "phase": phase,
        "counts": used,
        "scales": scales,
        "rss_mb": peak_rss_mb(),
        "node_rss_mb": peak_rss_mb(bench.proc.pid),
    }


async def _traced_run(bench: LiveBench, seconds: float) -> dict:
    share = seconds / 3
    plain = await _plain_run(bench, share)

    tracer = Tracer()
    bench.install_trace(tracer)
    loop = asyncio.get_running_loop()
    stats_before = await bench.wire_stats()
    before = bench.counters()
    await bench.node_command("trace on")
    loop.set_task_factory(tracer.task_factory)
    try:
        phase = await bench.run_phase(share)
    finally:
        loop.set_task_factory(None)
        tracer.restore()
    # Seconds the tracer spent folding spans inside the window are its own.
    window = phase.wall - tracer.fold_seconds
    node = json.loads(await bench.node_command("trace off"))
    used = _delta(bench.counters(), before)
    wire = _delta(await bench.wire_stats(), stats_before)
    raw = await bench.run_raw(share)
    return {
        "phase": plain["phase"],
        "counts": plain["counts"],
        "scales": plain["scales"],
        "rss_mb": plain["rss_mb"],
        "node_rss_mb": plain["node_rss_mb"],
        "traced": phase,
        "traced_window": window,
        "traced_counts": used,
        "layers": tracer.totals(),
        "node_layers": node["layers"],
        "wire": wire,
        "raw": raw,
    }


def scaled_cpu(result: dict) -> Tuple[float, float]:
    """CPU seconds of the measured phase, this process's and the node
    process's, each scaled to the reference speed of its CPU."""
    plain = result["counts"]
    front_scale, node_scale = result["scales"]
    return plain["cpu"] * front_scale, plain["node_cpu"] * node_scale


def end_to_end(result: dict) -> Dict[str, float]:
    phase: Phase = result["phase"]
    return {
        "setup_s": result["setup_s"],
        "cpu_us_per_key": 1e6 * sum(scaled_cpu(result)) / max(1, phase.correct),
        "rss_mb": result["rss_mb"],
    }


def report(result: dict) -> Dict[str, float]:
    """Every live figure the run produced, by per-layer metric name."""
    phase: Phase = result["phase"]
    front_cpu, node_cpu = scaled_cpu(result)
    attempted = max(1, result["attempted"])
    out = {
        "keys_per_s": phase.keys_per_s,
        "page_p50_ms": percentile(phase.page_ms, 50),
        "page_p90_ms": percentile(phase.page_ms, 90),
        "page_p99_ms": percentile(phase.page_ms, 99),
        "net.webtier.put_p50_ms": percentile(phase.put_ms, 50),
        "net.webtier.put_p99_ms": percentile(phase.put_ms, 99),
        "net.webtier.cpu_us_per_key": 1e6 * front_cpu / max(1, phase.keys),
        "net.server.cpu_us_per_key": 1e6 * node_cpu / max(1, phase.keys),
        "net.server.rss_mb": result["node_rss_mb"],
        "checker.fail_ratio": result["failed"] / attempted,
        "checker.stale_ratio": result["stale"] / attempted,
    }
    if "traced" not in result:
        return out
    traced: Phase = result["traced"]
    keys = max(1, traced.keys)
    pages = max(1, traced.pages)
    layers = result["layers"]
    node = result["node_layers"]
    counts = result["traced_counts"]
    wire = result["wire"]
    raw: Phase = result["raw"]

    def row(name):
        return layers.get(name)

    def per_key(name, field="busy"):
        entry = row(name)
        return 1e6 * getattr(entry, field) / keys if entry else 0.0

    def per_call(name, field="wall", scale=1e6):
        entry = row(name)
        return scale * getattr(entry, field) / entry.calls if entry else 0.0

    def node_row(name, field):
        return node.get(name, {}).get(field, 0)

    def node_per_call(name, field, scale=1e6):
        calls = node_row(name, "calls")
        return scale * node_row(name, field) / calls if calls else 0.0

    get_multi, set_multi = row("net.client.get_multi"), row("net.client.set_multi")
    sets = node_row("cache.store.set", "calls")
    commands = node_row("net.parser.feed", "items")
    raw_keys_per_s = raw.keys / raw.wall if raw.wall > 0 else 0.0
    out.update({
        "net.webtier.self_us_per_key": per_key("net.webtier.fetch_many", "self"),
        "net.webtier.scale_to_ms": per_call("net.webtier.scale_to", scale=1e3),
        "net.webtier.raw_ratio": (
            phase.keys_per_s / raw_keys_per_s if raw_keys_per_s else 0.0
        ),
        "core.retrieval.plan_us_per_key": per_key("core.retrieval.plan"),
        "core.retrieval.rounds_per_page": (
            row("core.retrieval.plan").items / pages
            if row("core.retrieval.plan") else 0.0
        ),
        "core.retrieval.hit_new_ratio": counts["hit_new"] / keys,
        "core.retrieval.hit_old_ratio": counts["hit_old"] / keys,
        "core.retrieval.db_ratio": counts["db"] / keys,
        "core.router.route_us_per_key": per_key("core.router.route"),
        "core.transition.digest_us_per_key": per_key("core.transition.digest"),
        "core.transition.digest_consults": (
            row("core.transition.digest").calls
            if row("core.transition.digest") else 0
        ),
        "resilience.retries": counts["retries"],
        "resilience.shed_rpcs": counts["shed_rpcs"],
        "resilience.unavailable_rpcs": counts["unavailable_rpcs"],
        "net.pool.acquire_us": per_call("net.pool.acquire"),
        "net.pool.waited": counts["pool_waited"],
        "net.client.get_multi_us": per_call("net.client.get_multi"),
        "net.client.get_multi_per_page": (
            get_multi.calls / pages if get_multi else 0.0
        ),
        "net.client.keys_per_get_multi": (
            get_multi.items / get_multi.calls if get_multi else 0.0
        ),
        "net.client.set_multi_us": per_call("net.client.set_multi"),
        "net.client.set_multi_per_page": (
            set_multi.calls / pages if set_multi else 0.0
        ),
        "net.client.reply_parse_us_per_key": per_key("net.client.reply_parse"),
        "net.client.raw_keys_per_s": raw_keys_per_s,
        "net.server.cmd_get": wire.get("cmd_get", 0) / keys,
        "net.server.cmd_set": wire.get("cmd_set", 0) / keys,
        "net.server.get_hits": wire.get("get_hits", 0) / keys,
        "net.server.evictions": wire.get("evictions", 0) / keys,
        "net.parser.command_parse_us_per_cmd": (
            1e6 * node_row("net.parser.feed", "busy") / commands
            if commands else 0.0
        ),
        "cache.store.get_us": node_per_call("cache.store.get", "self"),
        "cache.store.set_us": node_per_call("cache.store.set", "self"),
        "cache.store.purge_expired_us_per_set": (
            1e6 * node_row("cache.store.purge_expired", "busy") / sets
            if sets else 0.0
        ),
        "bloom.counting.update_us": node_per_call("bloom.counting.update", "busy"),
        "bloom.counting.snapshot_ms": node_per_call(
            "bloom.counting.snapshot", "busy", scale=1e3
        ),
        "database.reads_per_key": counts["db_reads"] / keys,
        "trace.overhead_ratio": (
            traced.correct / result["traced_window"] / phase.keys_per_s
            if phase.keys_per_s else 0.0
        ),
        "trace.ledger_gap": ledger_gap(layers, result["traced_window"]),
        "trace.node_self_share": sum(
            row["self"] for row in node.values()
        ) / result["traced_window"],
    })
    return out
