"""The paper-day replay: ``ClusterExperiment(ScenarioSpec.proteus(), ...)``.

The shape of the figure benchmarks (``benchmarks/conftest.py``): twelve
90 s slots with ``8,7,6,5,4,4,5,6,7,8,8,7`` active cache servers, 22 users
per active server, 8 cache / 4 web / 4 database servers; the seed is the
command line's.  It runs on the scalar ``retrieve`` path, the simulator's
event loop and the power meter, and makes no network calls.

The gated figure is each replay's process CPU time around
``experiment.run()``, scaled to a reference CPU speed measured by a load
sharing the CPU meanwhile (:mod:`refload`), the median over the replays
of one seed; the replays' simulated outputs (the Fig. 9 spike height and
the Fig. 11 energy) must repeat exactly.
"""

from __future__ import annotations

import os
import statistics
import time
from array import array
from typing import Dict, List

import numpy as np

from repro.cache.server import CacheServer
from repro.core.transition import Transition
from repro.experiments.cluster import (
    ClusterExperiment,
    ExperimentConfig,
    ScenarioSpec,
)
from repro.power.meter import PowerMeter
from repro.provisioning.policies import ProvisioningSchedule
from repro.web.frontend import WebServer
from repro.workload.synthetic import SyntheticUser

from machine import cpu_ticks, peak_rss_mb
from refload import CoRunner
from spans import Tracer, clock, ledger_gap

COUNTS = [8, 7, 6, 5, 4, 4, 5, 6, 7, 8, 8, 7]
SETUP_REPEATS = 100
#: at least this many timed replays per run, so the CPU time is a median
MIN_REPLAYS = 3
SECONDS_PER_REPLAY = 10
#: paths that must never occur on this replay
FORBIDDEN_PATHS = ("degraded_db", "shed")


def build(seed: int) -> ClusterExperiment:
    config = ExperimentConfig(
        schedule=ProvisioningSchedule(90.0, COUNTS),
        users_per_slot=[n * 22 for n in COUNTS],
        num_cache_servers=8,
        num_web_servers=4,
        num_db_shards=4,
        catalogue_size=12_000,
        cache_capacity_bytes=4096 * 2000,
        ttl=45.0,
        plot_slots=48,
        pages_per_user=50,
        seed=seed,
        warmup_seconds=30.0,
    )
    return ClusterExperiment(ScenarioSpec.proteus(), config)


class Replay:
    """One replay's host time and simulated outputs.

    With *fetch_times* the host time of every ``WebServer.fetch`` call is
    kept as well (the per-request latency figures of a traced run); the
    replays that give the gated CPU time run without that wrapper.
    """

    def __init__(
        self, experiment: ClusterExperiment, fetch_times: bool = False
    ) -> None:
        self.fetch_s = array("d")
        if fetch_times:
            record = self.fetch_s.append
            for web in experiment.webs:

                def timed_fetch(key, now, fetch=web.fetch):
                    started = clock()
                    result = fetch(key, now)
                    record(clock() - started)
                    return result

                web.fetch = timed_fetch
        started, cpu_started = clock(), time.process_time()
        self.report = experiment.run()
        self.cpu = time.process_time() - cpu_started
        self.wall = clock() - started
        #: CPU speed relative to the reference while it ran (1: not measured)
        self.scale = 1.0
        self.events = experiment.loop.dispatched
        paths = self.report.fetch_paths
        self.requests = self.report.total_requests
        self.consistent = self.requests == sum(paths.values()) and not any(
            paths.get(path, 0) for path in FORBIDDEN_PATHS
        )

    @property
    def requests_per_s(self) -> float:
        """Simulated requests per CPU second."""
        return self.requests / self.cpu

    def outputs(self) -> tuple:
        """The simulated results one seed must reproduce exactly."""
        return (
            self.report.total_requests,
            self.report.peak_latency(99.9),
            self.report.energy_kwh["total"],
        )


def install_trace(tracer: Tracer, experiment: ClusterExperiment) -> None:
    tracer.patch(experiment.loop, "step", lambda fn: tracer.wrap(
        "sim.events.step", fn))
    tracer.patch(WebServer, "fetch", lambda fn: tracer.wrap(
        "web.frontend.fetch", fn))
    for web in experiment.webs:
        tracer.patch(web.engine, "retrieve", lambda fn: tracer.wrap_generator(
            "core.retrieval.plan", fn))
    router = experiment.cache.router
    for attr in ("route_many", "route", "route_hashed"):
        tracer.patch(router, attr, lambda fn: tracer.wrap(
            "core.router.route", fn))
    for attr in ("digest_hit_many", "digest_hit"):
        tracer.patch(Transition, attr, lambda fn: tracer.wrap(
            "core.transition.digest", fn))
    tracer.patch(CacheServer, "get", lambda fn: tracer.wrap(
        "cache.server.get", fn))
    tracer.patch(CacheServer, "set", lambda fn: tracer.wrap(
        "cache.server.set", fn))
    tracer.patch(SyntheticUser, "next_key", lambda fn: tracer.wrap(
        "workload.synthetic.next_key", fn))
    tracer.patch(PowerMeter, "sample", lambda fn: tracer.wrap(
        "power.meter.sample", fn))


def run_sim(seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the result record the command prints.

    The work is fixed by *seconds*, not by how fast it goes: one replay
    per ``SECONDS_PER_REPLAY`` (at least ``MIN_REPLAYS``), or with *trace*
    one plain replay, one with per-fetch timing and one traced replay.
    """
    affinity = os.sched_getaffinity(0)
    cpu = min(affinity)
    os.sched_setaffinity(0, {cpu})
    load = CoRunner(cpu)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.process_time()
            experiment = build(seed)
            setups.append(time.process_time() - started)
        count = 1 if trace else max(
            MIN_REPLAYS, int(seconds // SECONDS_PER_REPLAY)
        )
        ticks, steal = cpu_ticks()
        replays: List[Replay] = []
        for _ in range(count):
            mark = load.sample()
            replay = Replay(experiment)
            replay.scale = load.scale(mark)
            replays.append(replay)
            if len(replays) == 1:
                rss_mb = peak_rss_mb()
            experiment = build(seed)
        ticks_after, steal_after = cpu_ticks()
    finally:
        load.stop()
        os.sched_setaffinity(0, affinity)
    # The builds take too little CPU time to measure the load's rate over
    # them; the replays that follow at once give the CPU's speed.
    scale = statistics.median(replay.scale for replay in replays)
    result = {
        "setup_s": statistics.median(setups) * scale,
        "steal_share": (steal_after - steal) / max(1, ticks_after - ticks),
        "replays": replays,
        "rss_mb": rss_mb,
    }
    checked = list(replays)
    if trace:
        timed = Replay(experiment, fetch_times=True)
        checked.append(timed)
        result["fetch_s"] = timed.fetch_s
        experiment = build(seed)
        tracer = Tracer()
        install_trace(tracer, experiment)
        try:
            traced = Replay(experiment)
        finally:
            tracer.restore()
        checked.append(traced)
        result["traced"] = traced
        # Seconds the tracer spent folding spans inside the replay are its own.
        result["traced_window"] = traced.wall - tracer.fold_seconds
        result["traced_cpu"] = traced.cpu - tracer.fold_seconds
        result["layers"] = tracer.totals()
    result["attempted"] = sum(replay.requests for replay in checked)
    result["failed"] = sum(
        replay.requests for replay in checked if not replay.consistent
    )
    result["deterministic"] = len({replay.outputs() for replay in checked}) == 1
    return result


def end_to_end(result: dict) -> Dict[str, float]:
    replays: List[Replay] = result["replays"]
    return {
        "setup_s": result["setup_s"],
        "cpu_us_per_key": 1e6 * statistics.median(
            r.cpu * r.scale / r.requests for r in replays
        ),
        "rss_mb": result["rss_mb"],
    }


def report(result: dict) -> Dict[str, float]:
    """Every sim-day figure the run produced, by per-layer metric name."""
    first: Replay = result["replays"][0]
    paths = first.report.fetch_paths
    requests = max(1, first.requests)
    replays: List[Replay] = result["replays"]
    out = {
        "keys_per_s": statistics.median(r.requests_per_s for r in replays),
        "sim.p999_peak_ms": 1e3 * first.report.peak_latency(99.9),
        "sim.energy_kwh": first.report.energy_kwh["total"],
        "sim.events.events": first.events,
        "core.retrieval.hit_new_ratio": paths.get("hit_new", 0) / requests,
        "core.retrieval.hit_old_ratio": paths.get("hit_old", 0) / requests,
        "core.retrieval.db_ratio": (
            paths.get("miss_db", 0) + paths.get("false_positive_db", 0)
            + paths.get("degraded_db", 0)
        ) / requests,
        "checker.fail_ratio": result["failed"] / max(1, result["attempted"]),
    }
    if "traced" not in result:
        return out
    traced: Replay = result["traced"]
    layers = result["layers"]
    p50, p90, p99 = np.percentile(
        result["fetch_s"], [50, 90, 99], method="inverted_cdf"
    )
    count = max(1, traced.requests)

    def per_call(name, field="busy"):
        row = layers.get(name)
        return 1e6 * getattr(row, field) / row.calls if row else 0.0

    def per_request(name, field="busy"):
        row = layers.get(name)
        return 1e6 * getattr(row, field) / count if row else 0.0

    plan = layers.get("core.retrieval.plan")
    out.update({
        "page_p50_ms": 1e3 * float(p50),
        "page_p90_ms": 1e3 * float(p90),
        "page_p99_ms": 1e3 * float(p99),
        "sim.events.self_us_per_event": per_call("sim.events.step", "self"),
        "web.frontend.fetch_self_us": per_call("web.frontend.fetch", "self"),
        "cache.server.get_us": per_call("cache.server.get"),
        "cache.server.set_us": per_call("cache.server.set"),
        "workload.synthetic.next_key_us": per_call("workload.synthetic.next_key"),
        "power.meter.sample_us": per_call("power.meter.sample"),
        "core.retrieval.plan_us_per_key": per_request("core.retrieval.plan"),
        "core.retrieval.rounds_per_page": plan.items / count if plan else 0.0,
        "core.router.route_us_per_key": per_request("core.router.route"),
        "core.transition.digest_us_per_key": per_request("core.transition.digest"),
        "core.transition.digest_consults": (
            layers["core.transition.digest"].calls
            if "core.transition.digest" in layers else 0
        ),
        "trace.overhead_ratio": (
            traced.requests / result["traced_cpu"] / first.requests_per_s
        ),
        "trace.ledger_gap": ledger_gap(layers, result["traced_window"]),
    })
    return out
