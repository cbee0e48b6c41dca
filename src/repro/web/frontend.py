"""The simulated web-server tier: a latency-model driver for Algorithm 2.

The retrieval *decisions* — routing against old/new epochs, digest
consultation, false-positive classification, dog-pile coalescing,
:class:`~repro.core.retrieval.FetchPath` accounting — live in the sans-IO
:class:`~repro.core.retrieval.RetrievalEngine`.  A :class:`WebServer` only
executes the engine's commands against the simulated substrate: it charges
latency-model samples and connection-pool costs to a virtual clock and
performs the cache/database calls the commands name.

A web server owns no cluster state: it routes with the shared deterministic
router and consults the shared transition epoch
(:meth:`~repro.cache.cluster.CacheCluster.routing_epochs`), so any number
of web servers run the same logic and agree on every decision — the
paper's consistency objective.  The asyncio tier
(:class:`repro.net.webtier.AsyncProteusFrontend`) drives the *same* engine
over live TCP.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Tuple

from repro.cache.cluster import CacheCluster
from repro.core.retrieval import (
    CheckDigestMulti,
    Command,
    FetchPath,
    FetchResult,
    FetchStats,
    LeaderWindowRegistry,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalConfig,
    RetrievalConfigMixin,
    RetrievalEngine,
    SERVER_UNAVAILABLE,
    WaitForLeader,
    WriteBackMulti,
)
from repro.core.transition import RoutingEpochs
from repro.database.cluster import DatabaseCluster
from repro.errors import ConfigurationError
from repro.sim.latency import Constant, LatencyModel
from repro.web.pool import PoolRegistry

#: Default one-way cache operation latency (LAN RTT + memcached service).
DEFAULT_CACHE_OP_LATENCY = 0.001
#: Default servlet CPU overhead per request.
DEFAULT_WEB_OVERHEAD = 0.002


def drive_rounds(
    steps: Generator,
    execute: Callable[[Command, RoutingEpochs, float], Tuple[Any, float]],
    epochs: RoutingEpochs,
    clock: float,
) -> Tuple[Any, float]:
    """Run a planner to completion on a virtual clock; returns (its
    result, end clock).

    ``execute(command, epochs, start)`` returns ``(answer, end)``.  The
    commands of a round all start at the round's base clock — they model
    concurrent fan-out — and the round ends with its slowest command, as a
    real multiget fan-out would.  The one-key planners yield one-command
    rounds, so each round costs exactly its command.
    """
    answers: Any = None
    try:
        while True:
            round_ = steps.send(answers)
            answers = []
            done = clock
            for command in round_:
                answer, end = execute(command, epochs, clock)
                answers.append(answer)
                if end > done:
                    done = end
            clock = done
    except StopIteration as stop:
        return stop.value, clock


class WebServer(RetrievalConfigMixin):
    """One servlet container driving the shared retrieval engine.

    Args:
        server_id: id within the web tier (diagnostics only).
        cache: the cache tier (routing + transition epochs + servers).
        database: the authoritative sharded store.
        cache_latency: per-cache-operation latency model.
        web_overhead: per-request servlet processing model.
        pools: connection-pool registry (accounting; singleton per backend).
        seed: RNG seed for latency sampling.
        coalesce_misses: dog-pile protection (see
            :class:`~repro.core.retrieval.RetrievalConfig`); off by default
            as in the paper's evaluation.
        config: full engine options (overrides *coalesce_misses*); shared
            config surface via :class:`RetrievalConfigMixin`.
        admission: DB-path admission controller (typically a
            :class:`~repro.resilience.admission.VirtualQueueAdmission`);
            ``None`` admits everything.  When set, DB-path work over the
            depth bound is shed (:attr:`FetchPath.SHED`, value ``None``)
            while hits keep being served — the sim's queue-model mirror
            of the live frontend's admission control.
    """

    def __init__(
        self,
        server_id: int,
        cache: CacheCluster,
        database: DatabaseCluster,
        cache_latency: Optional[LatencyModel] = None,
        web_overhead: Optional[LatencyModel] = None,
        pools: Optional[PoolRegistry] = None,
        seed: int = 0,
        coalesce_misses: bool = False,
        config: Optional[RetrievalConfig] = None,
        admission=None,
    ) -> None:
        if server_id < 0:
            raise ConfigurationError(f"server_id must be >= 0, got {server_id}")
        self.server_id = server_id
        self.cache = cache
        self.database = database
        self.cache_latency = cache_latency or Constant(DEFAULT_CACHE_OP_LATENCY)
        self.web_overhead = web_overhead or Constant(DEFAULT_WEB_OVERHEAD)
        self.pools = pools or PoolRegistry()
        self.engine = RetrievalEngine(
            cache.router, coalesce_misses=coalesce_misses, config=config
        )
        self.engine.admission = admission
        self._rng = random.Random((seed << 16) ^ server_id)
        #: in-flight DB-fetch windows for dog-pile coalescing
        self._leaders = LeaderWindowRegistry()

    # ------------------------------------------------------------- facade

    @property
    def stats(self) -> FetchStats:
        """Per-path counters (owned by the engine)."""
        return self.engine.stats

    @property
    def admission(self):
        """The engine's DB-path admission controller (may be ``None``)."""
        return self.engine.admission

    def queue_depth(self, now: float) -> float:
        """Outstanding admitted DB work at *now* (0 without admission)."""
        if self.engine.admission is None:
            return 0.0
        return self.engine.admission.depth(now)

    # ------------------------------------------------------------- helpers

    def _cache_op(self, now: float) -> float:
        """Advance time by one cache round trip."""
        return now + self.cache_latency.sample(self._rng)

    # ----------------------------------------------------------- Algorithm 2

    def fetch(self, key: str, now: float) -> FetchResult:
        """Retrieve *key*, migrating it on demand if a transition is live."""
        epochs = self.cache.routing_epochs(now)
        clock = now + self.web_overhead.sample(self._rng)
        outcome, clock = drive_rounds(
            self.engine.retrieve(key, epochs, now=now),
            self._execute, epochs, clock,
        )
        return FetchResult.from_outcome(outcome, now, clock)

    def fetch_many(
        self, keys: Iterable[str], now: float
    ) -> Dict[str, FetchResult]:
        """Retrieve a whole key set through the engine's batch planner.

        One logical page request: probes and write-backs are grouped per
        owning server, so the batch charges **one latency sample per server
        touched per round** instead of one per key.  Values, paths, and
        :class:`FetchStats` counts are identical to looping :meth:`fetch`
        over the keys; the batch completes as a unit, so every key shares
        the batch's completion time.
        """
        epochs = self.cache.routing_epochs(now)
        clock = now + self.web_overhead.sample(self._rng)
        outcomes, clock = drive_rounds(
            self.engine.retrieve_many(keys, epochs, now=now),
            self._execute, epochs, clock,
        )
        return {
            key: FetchResult.from_outcome(outcome, now, clock)
            for key, outcome in outcomes.items()
        }

    def _execute(
        self, command: Command, epochs: RoutingEpochs, clock: float
    ) -> Tuple[Any, float]:
        """Perform one engine command starting at *clock*; returns
        (answer, completion time)."""
        kind = type(command)
        if kind is ProbeCacheMulti:
            server = self.cache.server(command.server_id)
            pool = self.pools.pool(f"cache:{command.server_id}")
            clock += pool.acquire()
            clock = self._cache_op(clock)
            if not server.state.serves_requests:
                # Crashed/off server: the failed attempt still cost one
                # round trip; the connection is ejected, not re-pooled, and
                # the engine degrades around the dead server.
                pool.discard()
                return SERVER_UNAVAILABLE, clock
            hits = {}
            for key in command.keys:
                value = server.get(key, clock)
                if value is not None:
                    hits[key] = value
            pool.release()
            return hits, clock
        if kind is ReadDatabase:
            db_pool = self.pools.pool("database")
            clock += db_pool.acquire()
            response = self.database.get(command.key, clock)
            db_pool.release()
            clock = response.completion_time
            if self.engine.admission is not None:
                # The admitted read occupies a virtual queue slot until
                # its completion time — the depth the controller bounds.
                self.engine.admission.db_finished(clock, completed=clock)
            if command.announce_leader:
                # Followers arriving before the write-back lands coalesce.
                self._leaders.announce(
                    command.key, clock + 2 * self.cache_latency.mean, now=clock
                )
            return response.value, clock
        if kind is WriteBackMulti:
            # Pipelined write-backs: one round trip for the whole group.
            clock = self._cache_op(clock)
            server = self.cache.server(command.server_id)
            if not server.state.serves_requests:
                return SERVER_UNAVAILABLE, clock
            for key, value in command.items:
                server.set(key, value, now=clock)
            return None, clock
        if kind is CheckDigestMulti:
            # Local bit tests against the broadcast snapshot — no round
            # trip, no clock charge.
            transition = epochs.transition
            if transition is None:
                return [False] * len(command.keys), clock
            return (
                transition.digest_hit_many(
                    command.server_id, command.keys, command.hashes
                ),
                clock,
            )
        if kind is WaitForLeader:
            leader_done = self._leaders.leader_done(command.key, clock)
            if leader_done is None:
                return False, clock
            return True, leader_done
        raise ConfigurationError(f"unknown engine command: {command!r}")
