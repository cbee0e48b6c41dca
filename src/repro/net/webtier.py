"""An asyncio web tier driving Algorithm 2 against live memcached servers.

Completes the runnable substrate: where :mod:`repro.web.frontend` executes
the retrieval engine inside the simulator, :class:`AsyncProteusFrontend`
executes the *same* engine — the sans-IO
:class:`~repro.core.retrieval.RetrievalEngine` — over real TCP against
:class:`~repro.net.server.MemcachedServer` (or stock memcached, for the
standard commands) endpoints:

* routing by the deterministic Proteus placement;
* smooth scale-down/up: ``get SET_BLOOM_FILTER`` + ``get BLOOM_FILTER`` on
  every old owner (the digest broadcast, over the wire), then Algorithm 2
  per request until the TTL deadline passes — tracked by the same
  :class:`~repro.core.transition.TransitionManager` the simulator uses;
* dog-pile coalescing (``coalesce_misses=True``): concurrent misses for one
  key await the leader's DB fetch on an :class:`asyncio.Future` instead of
  issuing duplicate reads;
* the backing database is an async callable, so tests plug in a dict and a
  deployment plugs in a real pool.

Each endpoint is fronted by a :class:`~repro.net.pool.ConnectionPool` of
pipelined :class:`~repro.net.client.MemcachedClient` connections
(``pool_size`` per server, lazily dialled): concurrent ``fetch`` /
``fetch_many`` tasks to the same server no longer serialize on one
stream — commands pipeline within each connection and spread across the
pool, the way the paper's web tier pools its spymemcached connections.
``pipeline=False`` restores the strict one-in-flight discipline per
connection (the A/B baseline the net throughput bench measures).

Fault tolerance
---------------

Every cache RPC runs through :meth:`AsyncProteusFrontend._cache_rpc`,
which layers the :mod:`repro.resilience` policies around the socket work:

* a per-server :class:`~repro.resilience.CircuitBreaker` refuses the RPC
  outright while the server's circuit is open (no connect-timeout tax on
  every request to a dead server);
* transient transport faults are retried with the policy's seeded
  backoff, against the auto-reconnecting client;
* a per-request :class:`~repro.resilience.Deadline` bounds the total time
  spent on cache-side recovery — a sleep that would overrun the budget is
  skipped and the request fails over immediately.

When the policy's ``degrade_to_database`` flag is set (the default), an
RPC that cannot be completed answers the engine with
``SERVER_UNAVAILABLE`` instead of raising, and Algorithm 2 degrades: a
dead new owner forces a database read (``FetchPath.DEGRADED_DB``), a dead
old owner skips the migration probe, and a failed write-back is recorded
but never fails the fetch.  The caller always gets a correct value;
``stats.degraded`` says what it cost.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.bloom.bloom import BloomFilter
from repro.bloom.config import BloomConfig
from repro.core.retrieval import (
    CheckDigestMulti,
    Command,
    FetchResult,
    FetchStats,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalConfig,
    RetrievalConfigMixin,
    RetrievalEngine,
    SERVER_UNAVAILABLE,
    WaitForLeader,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import Transition, TransitionManager
from repro.errors import (
    ClientOverloadError,
    ConfigurationError,
    DeadlineExceeded,
    DigestBroadcastError,
    OverloadError,
    ServerBusyError,
    TransitionError,
    TransportError,
)
from repro.net.pool import ConnectionPool
from repro.resilience import (
    AdaptiveConcurrencyLimiter,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    RetryBudget,
)

#: async database fetch: key -> value bytes (authoritative, never misses)
DatabaseFetch = Callable[[str], Awaitable[bytes]]


def _is_timeout(error: BaseException) -> bool:
    """True when *error* is (or was caused by) an operation timeout —
    the congestion signal the AIMD limiter shrinks on.  Refused
    connections are a liveness problem (the breaker's job), not a
    window problem, so they deliberately do not count."""
    seen = set()
    current: Optional[BaseException] = error
    while current is not None and id(current) not in seen:
        if isinstance(current, asyncio.TimeoutError):
            return True
        seen.add(id(current))
        current = current.__cause__
    return False


class AsyncProteusFrontend(RetrievalConfigMixin):
    """Algorithm 2 over TCP memcached endpoints.

    Args:
        endpoints: ``(host, port)`` per cache server, in provisioning order.
        bloom_config: the cluster-wide digest geometry (web servers know it
            out of band, as in the paper).
        database: async authoritative fetch.
        initial_active: ``n(0)``.
        clock: time source for TTL deadlines (injectable in tests).
        coalesce_misses: dog-pile protection (see
            :class:`~repro.core.retrieval.RetrievalConfig`).
        config: full engine options (overrides *coalesce_misses*); shared
            config surface via :class:`RetrievalConfigMixin`.
        resilience: retry/breaker/deadline policy for cache RPCs;
            :meth:`ResiliencePolicy.default` when omitted.
        pool_size: pipelined connections per cache server (the paper's
            web tier pools its spymemcached connections the same way).
        pipeline: allow many in-flight commands per connection (default);
            ``False`` is the pre-pipelining one-exchange-at-a-time
            baseline.
        nodelay: set ``TCP_NODELAY`` on every cache connection.
        max_inflight_per_conn: per-connection in-flight window handed to
            every pool (see
            :class:`~repro.net.pool.ConnectionPool`); with a request
            deadline attached, a fully saturated pool fails fast instead
            of queueing.  ``None`` keeps the unbounded pre-armor
            behaviour.
        admission: DB-path admission controller (typically a
            :class:`~repro.resilience.ConcurrencyAdmission`) wired into
            the engine; ``None`` admits everything.  Shed DB work
            answers ``None`` with :attr:`FetchPath.SHED` — hits are
            always served.
    """

    def __init__(
        self,
        endpoints: Sequence[Tuple[str, int]],
        bloom_config: BloomConfig,
        database: DatabaseFetch,
        initial_active: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        coalesce_misses: bool = False,
        config: Optional[RetrievalConfig] = None,
        resilience: Optional[ResiliencePolicy] = None,
        pool_size: int = 4,
        pipeline: bool = True,
        nodelay: bool = True,
        max_inflight_per_conn: Optional[int] = None,
        admission=None,
    ) -> None:
        if not endpoints:
            raise ConfigurationError("need at least one cache endpoint")
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1: {pool_size}")
        self.endpoints = list(endpoints)
        self.bloom_config = bloom_config
        self.database = database
        self.router = ProteusRouter(len(self.endpoints))
        self.engine = RetrievalEngine(
            self.router, coalesce_misses=coalesce_misses, config=config
        )
        self._clock = clock
        self.pool_size = pool_size
        self.pipeline = pipeline
        self.nodelay = nodelay
        self.pools: List[Optional[ConnectionPool]] = [None] * len(endpoints)
        self._started = False
        active = len(self.endpoints) if initial_active is None else initial_active
        if not 1 <= active <= len(self.endpoints):
            raise ConfigurationError(f"initial_active out of range: {active}")
        self._manager = TransitionManager(active)
        #: key -> future resolved when the leader's write-back lands
        self._inflight: Dict[str, asyncio.Future] = {}
        self.resilience = resilience or ResiliencePolicy.default()
        self.max_inflight_per_conn = max_inflight_per_conn
        self.engine.admission = admission
        #: one breaker per cache server, sharing this frontend's clock
        self.breakers: List[CircuitBreaker] = [
            self.resilience.new_breaker(clock) for _ in endpoints
        ]
        #: one retry budget for the whole frontend (``None`` when the
        #: policy's ``retry_budget_ratio`` is 0): the cap is on *total*
        #: retry volume, so a storm cannot multiply across servers
        self.retry_budget: Optional[RetryBudget] = (
            self.resilience.new_retry_budget(clock)
        )
        #: per-server AIMD in-flight windows (``None`` entries when the
        #: policy's ``limiter_window`` is 0)
        self.limiters: List[Optional[AdaptiveConcurrencyLimiter]] = [
            self.resilience.new_limiter(clock) for _ in endpoints
        ]
        #: cache RPCs answered with ``SERVER_UNAVAILABLE`` (degraded)
        self.unavailable_rpcs = 0
        #: transient cache-RPC failures observed (pre-retry, per attempt)
        self.transient_failures = 0
        #: cache RPCs refused by overload armor (limiter window full,
        #: server busy reply, saturated pool) — never retried
        self.shed_rpcs = 0
        #: retries skipped because the budget was spent
        self.budget_denied_retries = 0

    # ------------------------------------------------------------- facade

    @property
    def n_active(self) -> int:
        """The committed active count (the new mapping's ``n``)."""
        return self._manager.active_count

    @property
    def stats(self) -> FetchStats:
        """Per-path counters (owned by the engine), same
        :class:`FetchPath` keys as the simulator's."""
        return self.engine.stats

    @property
    def admission(self):
        """The engine's DB-path admission controller (may be ``None``)."""
        return self.engine.admission

    def queue_depth(self, now: Optional[float] = None) -> float:
        """Outstanding admitted DB work (0 without admission) — the
        gauge health monitors watch alongside the shed rate."""
        if self.engine.admission is None:
            return 0.0
        return self.engine.admission.depth(
            self._clock() if now is None else now
        )

    def transport_stats(self) -> Dict[str, int]:
        """Aggregated transport/overload counters across every pool,
        limiter, and the retry budget — the frontend-level stats surface
        the ISSUE's armor exposes (all monotonic)."""
        pools = [pool for pool in self.pools if pool is not None]
        stats = {
            "dials": sum(p.dials for p in pools),
            "ejections": sum(p.ejections for p in pools),
            "reconnects": self.reconnects,
            "pool_waited": sum(p.waited for p in pools),
            "pool_leases_peak": max(
                (p.leases_peak for p in pools), default=0
            ),
            "pool_overflow_failures": sum(
                p.overflow_failures for p in pools
            ),
            "unavailable_rpcs": self.unavailable_rpcs,
            "transient_failures": self.transient_failures,
            "shed_rpcs": self.shed_rpcs,
            "budget_denied_retries": self.budget_denied_retries,
            "shed_fetches": self.engine.stats.shed,
        }
        if self.retry_budget is not None:
            stats["retries_granted"] = self.retry_budget.granted
            stats["retries_denied"] = self.retry_budget.denied
        limiters = [lim for lim in self.limiters if lim is not None]
        if limiters:
            stats["limiter_shed"] = sum(lim.shed for lim in limiters)
            stats["limiter_cuts"] = sum(lim.cuts for lim in limiters)
            stats["limiter_peak_inflight"] = max(
                lim.peak_inflight for lim in limiters
            )
        return stats

    # ----------------------------------------------------------- lifecycle

    async def connect(self) -> "AsyncProteusFrontend":
        """Create one connection pool per endpoint and prewarm each.

        An endpoint that refuses the initial dial does not fail the whole
        frontend: its pool stays registered (it keeps dialling lazily),
        its breaker absorbs the failures, and requests degrade around it
        until it comes back.
        """
        for index, (host, port) in enumerate(self.endpoints):
            if self.pools[index] is None:
                self.pools[index] = ConnectionPool(
                    host,
                    port,
                    size=self.pool_size,
                    timeout=self.resilience.op_timeout,
                    pipeline=self.pipeline,
                    nodelay=self.nodelay,
                    max_inflight_per_conn=self.max_inflight_per_conn,
                )
            try:
                await self.pools[index].prewarm()
            except (TransportError, OSError):
                self.breakers[index].record_failure()
        self._started = True
        return self

    async def close(self) -> None:
        for index, pool in enumerate(self.pools):
            if pool is not None:
                await pool.close()
                self.pools[index] = None
        self._started = False

    async def __aenter__(self) -> "AsyncProteusFrontend":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def reconnects(self) -> int:
        """Connection churn across every server's pool (client redials
        plus pool ejections) — the signal health monitors watch."""
        return sum(pool.reconnects for pool in self.pools if pool is not None)

    def _pool(self, server_id: int) -> ConnectionPool:
        pool = self.pools[server_id]
        if pool is None or not self._started:
            raise ConfigurationError(
                f"no connection pool for cache server {server_id}; "
                "call connect()"
            )
        return pool

    async def _set(
        self,
        server_id: int,
        key: str,
        value: bytes,
        deadline: Optional[Deadline] = None,
    ) -> None:
        async with self._pool(server_id).connection(deadline) as client:
            await client.set(key, value)

    async def _get_multi(
        self,
        server_id: int,
        keys: Sequence[str],
        deadline: Optional[Deadline] = None,
    ) -> Dict[str, bytes]:
        async with self._pool(server_id).connection(deadline) as client:
            return await client.get_multi(keys)

    async def _set_multi(
        self, server_id: int, items, deadline: Optional[Deadline] = None
    ) -> None:
        async with self._pool(server_id).connection(deadline) as client:
            await client.set_multi(items)

    # ------------------------------------------------------ fault-tolerant RPC

    async def _cache_rpc(
        self,
        server_id: int,
        op: Callable[[], Awaitable[Any]],
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Run one cache RPC under the breaker + retry + deadline policy.

        *op* is a zero-argument coroutine factory (so each retry issues a
        fresh exchange; the endpoint lock is taken inside it, which keeps
        the lock released across backoff sleeps).  Answers the engine with
        ``SERVER_UNAVAILABLE`` — never raises a transient error — when the
        policy degrades to the database; with ``degrade_to_database=False``
        the final transient error propagates instead.  Fatal errors
        (anything the retry policy does not classify transient) always
        propagate: retrying cannot change a configuration mistake.

        Overload armor (all opt-in via :class:`ResiliencePolicy`):

        * an already-expired deadline fails fast — no dial, no queue,
          no retry;
        * the per-server AIMD limiter bounds concurrent RPCs; a refused
          acquire degrades immediately (counted in :attr:`shed_rpcs`);
        * :class:`~repro.errors.OverloadError` answers (``SERVER_ERROR
          busy`` sheds, saturated pools, full client windows) are
          **never retried** — a storm cannot amplify through here;
        * every retry sleep must be granted by the frontend-wide
          :class:`~repro.resilience.RetryBudget`, so total retry volume
          stays a bounded fraction of request volume;
        * operation timeouts feed ``limiter.on_overload`` (the window
          shrinks multiplicatively); successes grow it back additively.
        """
        policy = self.resilience
        if deadline is not None and deadline.expired():
            # Fail fast on a dead budget: skip dialling and queueing
            # entirely — the RPC could not possibly be useful.
            self.unavailable_rpcs += 1
            if policy.degrade_to_database:
                return SERVER_UNAVAILABLE
            deadline.check(f"cache rpc to server {server_id}")
        breaker = self.breakers[server_id]
        if not breaker.allow(self._clock()):
            self.unavailable_rpcs += 1
            if policy.degrade_to_database:
                return SERVER_UNAVAILABLE
            raise TransportError(
                f"circuit open for cache server {server_id}"
            )
        limiter = self.limiters[server_id]
        if limiter is not None and not limiter.try_acquire(self._clock()):
            self.shed_rpcs += 1
            self.unavailable_rpcs += 1
            if policy.degrade_to_database:
                return SERVER_UNAVAILABLE
            raise ClientOverloadError(
                f"cache server {server_id}: in-flight window full"
            )
        try:
            if self.retry_budget is not None:
                # Deposit happens per RPC, not per attempt: the budget
                # caps retries at a fraction of *request* volume.
                self.retry_budget.record_request(now=self._clock())
            sleeps = list(policy.retry.delays())
            last_error: Optional[BaseException] = None
            for attempt in range(policy.retry.max_attempts):
                if deadline is not None and deadline.expired():
                    break
                try:
                    result = await op()
                except OverloadError as error:
                    # A shed reply or a local bound: retrying would feed
                    # the storm, so degrade straight to the database.
                    last_error = error
                    self.shed_rpcs += 1
                    if limiter is not None and isinstance(
                        error, ServerBusyError
                    ):
                        limiter.on_overload(self._clock())
                    break
                except DeadlineExceeded as error:
                    last_error = error
                    break
                except Exception as error:
                    if not policy.retry.is_transient(error):
                        raise
                    last_error = error
                    self.transient_failures += 1
                    breaker.record_failure(self._clock())
                    if limiter is not None and _is_timeout(error):
                        limiter.on_overload(self._clock())
                    if attempt >= len(sleeps):
                        break
                    if not breaker.allow(self._clock()):
                        # The circuit tripped mid-loop: stop hammering.
                        break
                    if self.retry_budget is not None and (
                        not self.retry_budget.allow_retry(self._clock())
                    ):
                        self.budget_denied_retries += 1
                        break
                    sleep = sleeps[attempt]
                    if deadline is not None and not deadline.allows(sleep):
                        break
                    if sleep > 0:
                        await asyncio.sleep(sleep)
                else:
                    breaker.record_success(self._clock())
                    if limiter is not None:
                        limiter.on_success(self._clock())
                    return result
        finally:
            if limiter is not None:
                limiter.release()
        self.unavailable_rpcs += 1
        if policy.degrade_to_database:
            return SERVER_UNAVAILABLE
        if last_error is not None:
            raise last_error
        raise TransportError(
            f"request deadline spent before cache server {server_id} answered"
        )

    # ----------------------------------------------------------- transitions

    def _current_transition(self) -> Optional[Transition]:
        return self._manager.current(self._clock())

    async def scale_to(self, n_new: int, ttl: float) -> Transition:
        """Begin a smooth transition: broadcast digests, flip routing.

        The caller is responsible for actually powering servers up/down at
        the deadline (the actuator's job); the frontend only needs the
        routing epochs and the digests.

        Digests are requested only from the *ceding* servers — the old
        owners the router's backend reports may lose keys
        (:meth:`~repro.core.router.Router.ceding_servers`); for Proteus
        scale-down that is exactly the draining servers.  The broadcast is
        all-or-nothing: each ceding owner's snapshot
        + fetch is retried under the resilience policy, and if any server
        still cannot answer, :class:`~repro.errors.DigestBroadcastError`
        (a :class:`~repro.errors.TransitionError`) is raised *before* the
        transition manager is armed — routing state rolls back to exactly
        what it was, the failures are reported per server, and the caller
        may simply retry ``scale_to``.  (Snapshots taken on the servers
        that did answer are harmless: the next broadcast re-snapshots.)
        """
        if not 1 <= n_new <= len(self.endpoints):
            raise TransitionError(f"n_new out of range: {n_new}")
        now = self._clock()
        if self._manager.in_transition(now):
            raise TransitionError("previous drain window still open")
        if n_new == self.n_active:
            raise TransitionError("already at the requested size")
        n_old = self.n_active
        ceding = self.router.ceding_servers(n_old, n_new)
        digests: Dict[int, BloomFilter] = {}
        failures: Dict[int, BaseException] = {}
        for server_id in ceding:
            try:
                digests[server_id] = await self._broadcast_digest(server_id)
            except Exception as error:
                if not self.resilience.retry.is_transient(error):
                    raise
                failures[server_id] = error
        if failures:
            detail = "; ".join(
                f"server {server_id}: {type(error).__name__}: {error}"
                for server_id, error in sorted(failures.items())
            )
            raise DigestBroadcastError(
                f"digest broadcast failed on {len(failures)}/{len(ceding)} "
                f"ceding servers, transition not started ({detail})",
                failures=failures,
            )
        # Keep the manager's default in sync for observers that read it,
        # but size *this* transition's window explicitly — an adaptive TTL
        # policy may hand every transition a different drain window.
        self._manager.ttl = ttl
        return self._manager.begin(
            n_new, now, digests=digests, ceding=ceding, ttl=ttl
        )

    async def _broadcast_digest(self, server_id: int) -> BloomFilter:
        """Snapshot + fetch one old owner's digest, retrying transient
        faults (the pair is idempotent, so it retries as a unit).  Every
        retry sleep is charged against the frontend's
        :class:`~repro.resilience.RetryBudget` — digest broadcasts are
        rare but ride the same retry machinery, so they obey the same
        storm bound."""
        retry = self.resilience.retry
        if self.retry_budget is not None:
            self.retry_budget.record_request(now=self._clock())
        sleeps = list(retry.delays())
        last_error: Optional[BaseException] = None
        for attempt in range(retry.max_attempts):
            try:
                async with self._pool(server_id).connection() as client:
                    # Two sequential exchanges on one connection: replies
                    # are matched FIFO, so interleaved traffic from other
                    # tasks cannot reorder snapshot before fetch.
                    await client.snapshot_digest()
                    return await client.fetch_digest(
                        self.bloom_config.num_counters,
                        self.bloom_config.num_hashes,
                    )
            except Exception as error:
                if not retry.is_transient(error):
                    raise
                last_error = error
                if attempt >= len(sleeps):
                    continue
                if self.retry_budget is not None and (
                    not self.retry_budget.allow_retry(self._clock())
                ):
                    self.budget_denied_retries += 1
                    break
                if sleeps[attempt] > 0:
                    await asyncio.sleep(sleeps[attempt])
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------ Algorithm 2

    async def fetch(self, key: str) -> FetchResult:
        """Retrieve *key*; returns the unified
        :class:`~repro.core.retrieval.FetchResult` — the same type the
        simulated tier returns, timed against this frontend's clock.

        ``result.path`` is a :class:`~repro.core.retrieval.FetchPath` — a
        ``str`` subclass, so comparisons against the wire labels
        (``"hit_new"``, ...) keep working.
        """
        started = self._clock()
        epochs = self._manager.routing_counts(started)
        outcome = await self._drive(
            self.engine.retrieve(key, epochs, now=started), epochs
        )
        return FetchResult.from_outcome(outcome, started, self._clock())

    async def fetch_many(self, keys: Iterable[str]) -> Dict[str, FetchResult]:
        """Retrieve a whole key set with at most one ``get_multi`` round
        trip per probed server per routing epoch.

        Drives :meth:`RetrievalEngine.retrieve_many`: each round's commands
        execute concurrently (``asyncio.gather``), so probes of different
        servers overlap the way spymemcached pipelines a page's lookups.
        Values, paths, and :class:`FetchStats` counts are identical to
        awaiting :meth:`fetch` once per key.
        """
        started = self._clock()
        epochs = self._manager.routing_counts(started)
        outcomes = await self._drive(
            self.engine.retrieve_many(keys, epochs, now=started), epochs
        )
        completed = self._clock()
        return {
            key: FetchResult.from_outcome(outcome, started, completed)
            for key, outcome in outcomes.items()
        }

    async def _drive(self, steps: Generator, epochs) -> Any:
        """Run a planner to completion under one request deadline.

        A one-command round is awaited directly (no task per command, so a
        one-key fetch runs straight through); larger rounds run under
        ``asyncio.gather``.  Every leader this request claims is resolved
        on the way out — after its write-back landed, or on failure — so
        followers re-probing the new owner find the value.
        """
        deadline = self.resilience.new_deadline(self._clock)
        leaders: Dict[str, asyncio.Future] = {}
        answers: Any = None
        try:
            while True:
                round_ = steps.send(answers)
                if len(round_) == 1:
                    answers = (
                        await self._execute(
                            round_[0], epochs, leaders, deadline
                        ),
                    )
                else:
                    answers = await asyncio.gather(
                        *(
                            self._execute(command, epochs, leaders, deadline)
                            for command in round_
                        )
                    )
        except StopIteration as stop:
            return stop.value
        finally:
            for key, leader in leaders.items():
                if self._inflight.get(key) is leader:
                    del self._inflight[key]
                if not leader.done():
                    leader.set_result(None)

    def _claim_leader(
        self, key: str, leaders: Dict[str, asyncio.Future]
    ) -> None:
        """Register this request as *key*'s in-flight DB leader."""
        leader = asyncio.get_running_loop().create_future()
        self._inflight[key] = leaders[key] = leader

    async def _execute(
        self,
        command: Command,
        epochs,
        leaders: Dict[str, asyncio.Future],
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """Perform one engine command; returns its answer."""
        kind = type(command)
        if kind is ProbeCacheMulti:
            server_id, keys = command.server_id, command.keys
            return await self._cache_rpc(
                server_id,
                lambda: self._get_multi(server_id, keys, deadline),
                deadline,
            )
        if kind is WriteBackMulti:
            # Pipelined write-backs: one round trip for the whole group.
            server_id, items = command.server_id, command.items
            return await self._cache_rpc(
                server_id,
                lambda: self._set_multi(server_id, items, deadline),
                deadline,
            )
        if kind is CheckDigestMulti:
            # Answered locally against the broadcast snapshot — never a
            # wire round trip.
            transition = epochs.transition
            if transition is None:
                return [False] * len(command.keys)
            return transition.digest_hit_many(
                command.server_id, command.keys, command.hashes
            )
        if kind is WaitForLeader:
            pending = self._inflight.get(command.key)
            if pending is None:
                # Claim the key the moment "no leader" is answered: this
                # request reads the DB next, and a concurrent miss must not
                # slip into the gap before that read starts.
                self._claim_leader(command.key, leaders)
                return False
            await asyncio.shield(pending)
            return True
        if kind is ReadDatabase:
            key = command.key
            if command.announce_leader and key not in self._inflight:
                self._claim_leader(key, leaders)
            try:
                return await self.database(key)
            finally:
                if self.engine.admission is not None:
                    # Free the admitted slot even on DB failure.
                    finished = self._clock()
                    self.engine.admission.db_finished(
                        finished, completed=finished
                    )
        raise ConfigurationError(f"unknown engine command: {command!r}")

    async def put(self, key: str, value: bytes) -> None:
        """Write-through to the authoritative owner under the new mapping."""
        await self._set(self.router.route(key, self.n_active), key, value)
        if self.config.hot_key_cache:
            # Digest-style invalidation: drop the stale local hot-key copy.
            self.engine.armor.invalidate(key)
