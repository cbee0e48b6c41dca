"""Replicated data retrieval — Section III-E made operational.

The paper keeps ``r`` copies of each ``(key, data)`` pair via ``r``
consistent-hashing rings that share one virtual-node placement, so that a
crashed cache server does not turn every one of its keys into a database
read.  The read/write *decisions* — which replicas to probe, when a read
counts as a failover, which owners to repopulate — live in the sans-IO
:class:`~repro.core.retrieval.ReplicatedRetrievalEngine`;
:class:`ReplicatedWebServer` executes its commands against the simulated
substrate, exactly as :class:`~repro.web.frontend.WebServer` does for the
unreplicated Algorithm 2:

* **writes** go to every *distinct* replica owner (conflict probability per
  Eq. 3 is small, so usually ``r`` servers);
* **reads** try the replica owners in ring order, skipping servers the
  cluster has marked failed; only if every live replica misses does the
  request reach the database, after which all live replica owners are
  repopulated.

Transitions compose: the active count used for routing comes from the
shared :class:`~repro.core.transition.TransitionManager`, so provisioning
changes re-balance every ring identically (they share the placement).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.cache.cluster import CacheCluster
from repro.core.replication import ReplicatedProteusRouter
from repro.core.retrieval import (
    Command,
    ProbeCacheMulti,
    ReadDatabase,
    ReplicatedOutcome,
    ReplicatedRetrievalEngine,
    RetrievalConfig,
    RetrievalConfigMixin,
    SKIPPED,
    WriteBackMulti,
)
from repro.core.transition import RoutingEpochs
from repro.database.cluster import DatabaseCluster
from repro.errors import ConfigurationError
from repro.sim.latency import Constant, LatencyModel
from repro.web.frontend import (
    DEFAULT_CACHE_OP_LATENCY,
    DEFAULT_WEB_OVERHEAD,
    drive_rounds,
)


@dataclass
class ReplicatedFetchResult:
    """Outcome of one replicated retrieval."""

    key: str
    value: Any
    started: float
    completed: float
    #: replica owner that answered, or None if the DB (or the local
    #: hot-key cache) did
    served_by: Optional[int]
    #: how many replica owners were probed before an answer
    probes: int
    touched_database: bool
    #: True when the frontend-local hot-key cache served (no probes)
    local: bool = False

    @classmethod
    def from_outcome(
        cls, outcome: ReplicatedOutcome, started: float, completed: float
    ) -> "ReplicatedFetchResult":
        """Stamp an engine outcome with the driver's start/end times."""
        return cls(
            key=outcome.key, value=outcome.value, started=started,
            completed=completed, served_by=outcome.served_by,
            probes=outcome.probes, touched_database=outcome.touched_database,
            local=outcome.local,
        )

    @property
    def latency(self) -> float:
        return self.completed - self.started

class ReplicatedWebServer(RetrievalConfigMixin):
    """Algorithm-2-style retrieval over ``r`` replica rings with failover."""

    def __init__(
        self,
        server_id: int,
        cache: CacheCluster,
        database: DatabaseCluster,
        cache_latency: Optional[LatencyModel] = None,
        web_overhead: Optional[LatencyModel] = None,
        seed: int = 0,
        config: Optional[RetrievalConfig] = None,
    ) -> None:
        if not isinstance(cache.router, ReplicatedProteusRouter):
            raise ConfigurationError(
                "ReplicatedWebServer requires a cluster routed by "
                "ReplicatedProteusRouter"
            )
        self.server_id = server_id
        self.cache = cache
        self.router: ReplicatedProteusRouter = cache.router
        self.database = database
        self.cache_latency = cache_latency or Constant(DEFAULT_CACHE_OP_LATENCY)
        self.web_overhead = web_overhead or Constant(DEFAULT_WEB_OVERHEAD)
        self.engine = ReplicatedRetrievalEngine(cache.router, config=config)
        self._rng = random.Random((seed << 12) ^ server_id)

    # ------------------------------------------------------------- facade

    @property
    def failovers(self) -> int:
        """Reads answered by a non-primary replica (failover events)."""
        return self.engine.failovers

    @property
    def database_reads(self) -> int:
        """Reads that reached the database."""
        return self.engine.database_reads

    def _live_targets(self, key: str, num_active: int) -> List[int]:
        failed = self.cache.failed_servers()
        plan = self.router.read_plan(key, num_active, exclude=failed)
        return list(plan.targets)  # empty when every replica crashed: DB only

    def fetch(self, key: str, now: float) -> ReplicatedFetchResult:
        """Read *key* from the first live replica, else the database."""
        epochs = self.cache.routing_epochs(now)
        clock = now + self.web_overhead.sample(self._rng)
        # One command per round, write-backs included: a fetch's time is
        # the sum of its commands.
        outcome, clock = drive_rounds(
            self.engine.retrieve(
                key, epochs, failed=self.cache.failed_servers(), now=now
            ),
            self._execute, epochs, clock,
        )
        return ReplicatedFetchResult.from_outcome(outcome, now, clock)

    def fetch_many(
        self, keys: Iterable[str], now: float
    ) -> Dict[str, ReplicatedFetchResult]:
        """Read a whole key set, one multiget per replica owner per ring
        round; outcomes match looping :meth:`fetch` over the keys."""
        epochs = self.cache.routing_epochs(now)
        clock = now + self.web_overhead.sample(self._rng)
        outcomes, clock = drive_rounds(
            self.engine.retrieve_many(
                keys, epochs, failed=self.cache.failed_servers(), now=now
            ),
            self._execute, epochs, clock,
        )
        return {
            key: ReplicatedFetchResult.from_outcome(outcome, now, clock)
            for key, outcome in outcomes.items()
        }

    def _execute(
        self, command: Command, epochs: RoutingEpochs, clock: float
    ) -> Tuple[Any, float]:
        """Perform one engine command; returns (answer, done time).  The
        replicated planners consult no digest, so *epochs* is unused."""
        kind = type(command)
        if kind is ProbeCacheMulti:
            server = self.cache.server(command.server_id)
            if not server.state.serves_requests:
                return SKIPPED, clock
            sample = self.cache_latency.sample(self._rng)
            clock += sample
            if self.hot_key_cache:
                # Feed the observed per-probe latency into the armor's
                # load EWMA (the d-choices signal).
                self.engine.armor.loads.observe_latency(
                    command.server_id, sample
                )
            hits = {}
            for key in command.keys:
                value = server.get(key, clock)
                if value is not None:
                    hits[key] = value
            return hits, clock
        if kind is WriteBackMulti:
            server = self.cache.server(command.server_id)
            if server.state.serves_requests:
                clock += self.cache_latency.sample(self._rng)
                for key, value in command.items:
                    server.set(key, value, now=clock)
            return None, clock
        if kind is ReadDatabase:
            response = self.database.get(command.key, clock)
            return response.value, response.completion_time
        raise ConfigurationError(f"unexpected engine command: {command!r}")

    def put(self, key: str, value: Any, now: float) -> List[int]:
        """Write *key* to every live distinct replica owner; returns them."""
        epochs = self.cache.routing_epochs(now)
        written: List[int] = []
        for target in self._live_targets(key, epochs.new):
            server = self.cache.server(target)
            if server.state.serves_requests:
                server.set(key, value, now=now)
                written.append(target)
        if self.hot_key_cache:
            # Digest-style invalidation: the local hot-key copy is stale
            # the moment the authoritative replicas change.
            self.engine.armor.invalidate(key)
        return written

    def put_many(
        self, items: Iterable[Tuple[str, Any]], now: float
    ) -> Dict[str, List[int]]:
        """Batched :meth:`put`: write each pair to its live replica owners.

        Writes are grouped per server (the way a client pipelines a
        ``set_multi``), but the stored values and the returned
        key -> written-servers map are identical to calling :meth:`put`
        per pair.  Duplicate keys collapse: the last value wins and the
        key is written once.
        """
        epochs = self.cache.routing_epochs(now)
        failed = self.cache.failed_servers()
        final: Dict[str, Any] = {}
        for key, value in items:
            final[key] = value
        written: Dict[str, List[int]] = {}
        grouped: Dict[int, List[str]] = {}
        for key in final:
            plan = self.router.read_plan(key, epochs.new, exclude=failed)
            live = [
                target
                for target in plan.targets
                if self.cache.server(target).state.serves_requests
            ]
            written[key] = live  # replica-ring order, as put() returns
            for target in live:
                grouped.setdefault(target, []).append(key)
        for target in sorted(grouped):
            server = self.cache.server(target)
            for key in grouped[target]:
                server.set(key, final[key], now=now)
        if self.hot_key_cache:
            for key in final:
                self.engine.armor.invalidate(key)
        return written
