"""The sans-IO Algorithm-2 retrieval core (paper Section IV, "Date Retrieval").

Algorithm 2 — route to the new owner, consult the old owner's digest on a
miss during a transition, fall back to the database, write the value back —
is pure *decision* logic.  What differs between execution substrates is only
how each step is performed: the simulator charges latency-model samples
against a virtual clock, the live tier awaits memcached round trips over
TCP.  This module owns the decisions; drivers own the I/O.

The planners are generators that *yield rounds* — tuples of commands with
no mutual dependencies, drawn from one vocabulary
(:class:`ProbeCacheMulti`, :class:`CheckDigestMulti`,
:class:`WriteBackMulti`, :class:`WaitForLeader`, :class:`ReadDatabase`) —
and receive each round's answers, aligned by index, via ``send``.  A
driver is one small loop around one command executor, shared by the
one-key planner :meth:`RetrievalEngine.retrieve` and the batch planner
:meth:`RetrievalEngine.retrieve_many`::

    steps = engine.retrieve(key, epochs)  # or engine.retrieve_many(keys, epochs)
    answers = None
    try:
        while True:
            round_ = steps.send(answers)
            answers = tuple(execute(command) for command in round_)
    except StopIteration as stop:
        outcome = stop.value  # RetrievalOutcome (a key -> outcome map for a batch)

Because both the simulated web tier (:class:`repro.web.frontend.WebServer`)
and the asyncio tier (:class:`repro.net.webtier.AsyncProteusFrontend`)
drive this one engine, the branch structure of Algorithm 2 — and therefore
the :class:`FetchPath` accounting — cannot drift between them.  The same
holds for the Section III-E replica-failover read path, encoded by
:class:`ReplicatedRetrievalEngine`.

Epochs come in as :class:`~repro.core.transition.RoutingEpochs` — the
simulator reads them from :meth:`repro.cache.cluster.CacheCluster.\
routing_epochs`, the live tier from its own
:class:`~repro.core.transition.TransitionManager` — so the engine never
needs to know where transition state lives.

**Batched retrieval.**  :meth:`RetrievalEngine.retrieve_many` runs
Algorithm 2 for a whole key set at once, grouping probes and write-backs by
owning server per routing epoch so a driver can cover N keys with one
multiget round trip per touched server instead of one round trip per key.
A live driver may execute each round concurrently (``asyncio.gather`` over
per-server ``get_multi`` calls) while a simulated driver charges one
latency sample per server touched.  The one-key planner yields one-command
rounds, so a round's clock rule (the slowest command) reduces to the
command's own cost.  Per-item semantics are untouched: for any key set and
transition state the outcome map and the :class:`FetchStats` counts are
identical to N sequential :meth:`RetrievalEngine.retrieve` runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.bloom.hashing import KeyHashes, digest_bases_many
from repro.core.hotkey import HotKeyArmor
from repro.core.transition import RoutingEpochs

__all__ = [
    "CheckDigestMulti",
    "Command",
    "CommandRound",
    "DEGRADED_EVENTS",
    "FetchPath",
    "FetchResult",
    "FetchStats",
    "LeaderWindowRegistry",
    "ProbeCacheMulti",
    "ReadDatabase",
    "ReplicatedOutcome",
    "ReplicatedRetrievalEngine",
    "RetrievalConfig",
    "RetrievalConfigMixin",
    "RetrievalEngine",
    "RetrievalOutcome",
    "SERVER_UNAVAILABLE",
    "SKIPPED",
    "WaitForLeader",
    "WriteBackMulti",
]


# --------------------------------------------------------------------- paths


class FetchPath(str, enum.Enum):
    """Which branch of Algorithm 2 served the request.

    A ``str`` mix-in so members compare and hash like their wire labels
    (``FetchPath.HIT_NEW == "hit_new"``): simulator reports and live-tier
    reports key their counters identically and stay directly comparable.
    """

    #: served from the frontend-local hot-key cache (sketch-elected keys
    #: only; DistCache-style armor) — no cache-server round trip at all.
    HIT_LOCAL = "hit_local"
    #: hit at the authoritative (new-mapping) server — Alg. 2 line 3.
    HIT_NEW = "hit_new"
    #: digest hit, data pulled from the old owner — Alg. 2 line 7 ("hot").
    HIT_OLD = "hit_old"
    #: digest said yes but the old server missed — false positive, went to DB.
    FALSE_POSITIVE_DB = "false_positive_db"
    #: digest said no (cold data) or no transition in flight — went to DB.
    MISS_DB = "miss_db"
    #: coalesced behind an in-flight DB fetch for the same key (dog-pile
    #: protection, the paper's reference [12] scenario).
    COALESCED = "coalesced"
    #: a cache fault (dead/unreachable server, unknown digest) blocked the
    #: normal path and the database served instead — the *failure* fallback
    #: of Algorithm 2, as opposed to the ordinary-miss fallbacks above.
    DEGRADED_DB = "degraded_db"
    #: admission control refused the DB-path work (overload): the request
    #: was *not served* (value ``None``) — unlike :attr:`DEGRADED_DB`,
    #: which is served correctly at extra latency cost.  Hits never land
    #: here: they complete before any database decision is made.
    SHED = "shed"


#: The degraded-path event labels :class:`FetchStats` counts — one per
#: fault the engine can serve around: the new owner's probe skipped, the
#: old owner's probe skipped, a digest consult answered "unknown", and a
#: write-back that could not be installed.
DEGRADED_EVENTS = ("probe_new", "probe_old", "digest", "writeback")


@dataclass
class FetchStats:
    """Per-path counters for one Algorithm-2 executor (web server)."""

    counts: Dict[FetchPath, int] = field(
        default_factory=lambda: {path: 0 for path in FetchPath}
    )
    #: how often the engine served *around* a fault, per degraded event
    #: (see :data:`DEGRADED_EVENTS`); one request may record several.
    degraded: Dict[str, int] = field(
        default_factory=lambda: {event: 0 for event in DEGRADED_EVENTS}
    )

    def record(self, path: FetchPath) -> None:
        self.counts[path] += 1

    def record_degraded(self, event: str) -> None:
        """Count one served-around fault (see :data:`DEGRADED_EVENTS`)."""
        self.degraded[event] = self.degraded.get(event, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def shed(self) -> int:
        """Requests refused by admission control (not served)."""
        return self.counts[FetchPath.SHED]

    @property
    def goodput(self) -> int:
        """Requests actually served (total minus shed)."""
        return self.total - self.shed

    @property
    def shed_fraction(self) -> float:
        """Fraction of requests shed — the health monitor's overload
        signal."""
        total = self.total
        return self.shed / total if total else 0.0

    @property
    def degraded_events(self) -> int:
        """Total faults served around (sum over the degraded counters)."""
        return sum(self.degraded.values())

    @property
    def database_fraction(self) -> float:
        """Fraction of requests that reached the DB tier."""
        total = self.total
        if total == 0:
            return 0.0
        db = (
            self.counts[FetchPath.FALSE_POSITIVE_DB]
            + self.counts[FetchPath.MISS_DB]
            + self.counts[FetchPath.DEGRADED_DB]
        )
        return db / total

    def as_labels(self) -> Dict[str, int]:
        """Counters keyed by wire label (for JSON reports)."""
        return {path.value: count for path, count in self.counts.items()}


# ------------------------------------------------------------- configuration


@dataclass
class RetrievalConfig:
    """Engine-level retrieval options, shared by every driver.

    One instance lives on the engine; drivers re-export it via
    :class:`RetrievalConfigMixin` instead of copying property/setter
    plumbing, so a new option lands in every substrate at once.
    """

    #: dog-pile protection — while a DB fetch for a key is in flight, later
    #: misses for the same key wait for it instead of issuing duplicate DB
    #: reads (the "memcache dog pile" the paper's introduction cites).  Off
    #: by default: the paper's evaluation runs without it, and the Fig. 9
    #: spike depends on the dog pile being possible.
    coalesce_misses: bool = False
    #: upper bound on keys per batched command (:class:`ProbeCacheMulti` /
    #: :class:`WriteBackMulti`); larger groups are split, the way memcached
    #: clients chunk oversized multigets.  ``0`` disables the limit.
    max_multiget_keys: int = 64
    #: hot-key armor — serve sketch-elected hot keys from a tiny
    #: frontend-local cache (:class:`~repro.core.hotkey.HotKeyCache`) with
    #: digest-style TTL-bounded staleness.  Off by default: the paper's
    #: Algorithm 2 runs without it; the armor is the DistCache-inspired
    #: extension for Zipf head keys.  Takes effect only when the driver
    #: passes its clock (``now=``) to ``retrieve``/``retrieve_many``.
    hot_key_cache: bool = False
    #: entries the frontend-local hot-key cache holds (the Zipf *head*).
    hot_key_capacity: int = 64
    #: staleness bound for locally served values, in driver-clock seconds.
    hot_key_ttl: float = 1.0
    #: candidate keys the top-k election sketch tracks (>= capacity; the
    #: 2x headroom the election guarantee assumes).
    hot_key_track: int = 128
    #: count-min geometry backing the election (width x depth counters).
    hot_key_sketch_width: int = 1024
    hot_key_sketch_depth: int = 4
    #: replicas sampled by load-aware read routing: a sketch-elected hot
    #: key reads from the least-loaded of ``d_choices`` replica owners
    #: (power-of-two choices at 2).  ``1`` keeps strict ring order; only
    #: the replicated engine uses this.
    d_choices: int = 1
    #: halflife (driver-clock seconds) of the per-server load EWMA that
    #: feeds the ``d_choices`` pick.
    load_halflife: float = 1.0


class RetrievalConfigMixin:
    """Facade over the engine's :class:`RetrievalConfig` for drivers.

    Any driver holding its engine at ``self.engine`` inherits the shared
    config surface — ``config``, ``coalesce_misses``, ``max_multiget_keys``
    — without re-implementing the properties per substrate.
    """

    engine: Any

    @property
    def config(self) -> RetrievalConfig:
        """The engine's retrieval options (shared, live object)."""
        return self.engine.config

    @property
    def coalesce_misses(self) -> bool:
        return self.engine.config.coalesce_misses

    @coalesce_misses.setter
    def coalesce_misses(self, enabled: bool) -> None:
        self.engine.config.coalesce_misses = enabled

    @property
    def max_multiget_keys(self) -> int:
        return self.engine.config.max_multiget_keys

    @max_multiget_keys.setter
    def max_multiget_keys(self, limit: int) -> None:
        self.engine.config.max_multiget_keys = limit

    @property
    def hot_key_cache(self) -> bool:
        return self.engine.config.hot_key_cache

    @hot_key_cache.setter
    def hot_key_cache(self, enabled: bool) -> None:
        self.engine.config.hot_key_cache = enabled

    @property
    def d_choices(self) -> int:
        return self.engine.config.d_choices

    @d_choices.setter
    def d_choices(self, choices: int) -> None:
        self.engine.config.d_choices = choices


# ------------------------------------------------------------------ commands
#
# Both planners speak one vocabulary.  Every command is a plain slotted
# dataclass (cheap to build on the one-key path) and drivers dispatch on its
# concrete type; the answers a driver sends back:
#
# ================ ==========================================================
# command          driver answer
# ================ ==========================================================
# ProbeCacheMulti  dict of key -> value for the hits (misses are absent)
# CheckDigestMulti sequence of bools aligned with ``keys``
# WriteBackMulti   ignored
# WaitForLeader    ``True`` when a leader's DB fetch was waited for
# ReadDatabase     the value
# ================ ==========================================================
#
# The three cache commands may instead be answered SERVER_UNAVAILABLE (the
# whole group degrades) and probes also accept SKIPPED.


@dataclass(slots=True)
class ProbeCacheMulti:
    """``get_multi`` *keys* from cache server *server_id* — one round trip.

    Driver answer: a ``dict`` mapping each key that **hit** to its value
    (missing keys missed, exactly like memcached's multiget reply), or
    :data:`SKIPPED` when the server is not serving requests (replicated
    reads only; no probe happened for any key).
    """

    server_id: int
    keys: Tuple[str, ...]


@dataclass(slots=True)
class CheckDigestMulti:
    """Consult old owner *server_id*'s broadcast digest for every key — one
    grouped consult per ceding server.

    Driver answer: a sequence of bools aligned with ``keys``
    (:meth:`~repro.core.transition.Transition.digest_hit_many`; all
    ``False`` when no digest was broadcast for that server — the safe
    fallback: skip the old owner, go to the database) — or
    :data:`SERVER_UNAVAILABLE` when the server's digest state cannot be
    consulted at all, which degrades the whole group to the database.

    ``hashes`` (when set) is aligned with ``keys`` and carries each key's
    memoized :class:`~repro.bloom.hashing.KeyHashes`, so the digest probes
    reuse the double-hash pair instead of rehashing; it is excluded from
    equality so command traces compare on the decision alone.
    """

    server_id: int
    keys: Tuple[str, ...]
    hashes: Tuple[KeyHashes, ...] = field(compare=False, repr=False, default=())


@dataclass(slots=True)
class WriteBackMulti:
    """Install every ``(key, value)`` pair at server *server_id* — one
    pipelined round trip (Alg. 2 line 12).

    Driver answer: ignored.  Replicated drivers silently skip write-backs
    to servers that are not serving requests.
    """

    server_id: int
    items: Tuple[Tuple[str, Any], ...]

    @property
    def keys(self) -> Tuple[str, ...]:
        """The grouped keys (derived from ``items``)."""
        return tuple(key for key, _ in self.items)


@dataclass(slots=True)
class WaitForLeader:
    """If another request's DB fetch for *key* is in flight, wait for it.

    Driver answer: ``True`` when a leader existed and the wait completed
    (the engine then re-probes the new owner), ``False`` when there was no
    leader or its window already closed (the engine reads the DB itself).
    A driver with real concurrency claims the key for this request as it
    answers ``False``, so no concurrent miss slips in before the read.
    """

    key: str


@dataclass(slots=True)
class ReadDatabase:
    """Read *key* from the authoritative store (never misses).

    Driver answer: the value.  When ``announce_leader`` is set the driver
    must also publish this request as the key's in-flight leader so that
    concurrent misses can coalesce behind it (see :class:`WaitForLeader`).
    """

    key: str
    announce_leader: bool = False


Command = Union[
    ProbeCacheMulti,
    CheckDigestMulti,
    WriteBackMulti,
    WaitForLeader,
    ReadDatabase,
]

#: One step of the round protocol: commands with no mutual dependencies,
#: answered by a tuple of results aligned by index.  Drivers may execute a
#: round's commands concurrently.
CommandRound = Tuple[Command, ...]


class _DriverSignal:
    """An identity sentinel a driver may answer a command with.

    Falsy on purpose: an answer that is a signal must not read as a hit
    in any driver that forgets to special-case it.
    """

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        return False


#: Driver answer to :class:`ProbeCacheMulti` meaning "server not serving;
#: probe did not happen" — distinct from an empty dict (a real miss).
SKIPPED = _DriverSignal("SKIPPED")

#: Driver answer to :class:`ProbeCacheMulti` / :class:`CheckDigestMulti` /
#: :class:`WriteBackMulti` meaning "the server could not be reached (dead,
#: hung, or open-circuit)".
#: The engine *degrades* instead of failing: a skipped probe is a forced
#: miss, an unanswerable digest consult skips the old owner, and a failed
#: write-back is recorded but never fails the fetch — the request still
#: completes via the database (:attr:`FetchPath.DEGRADED_DB`).
SERVER_UNAVAILABLE = _DriverSignal("SERVER_UNAVAILABLE")


def _probed(answer: Any, key: str) -> Any:
    """*key*'s value from a one-key probe's answer: the value, ``None`` on a
    miss, or the :class:`_DriverSignal` the driver answered with."""
    if answer:
        return answer.get(key)
    return answer if isinstance(answer, _DriverSignal) else None


def _chunked(items: Sequence, size: int) -> Iterable[tuple]:
    """Split *items* into tuples of at most *size* (``size <= 0``: one)."""
    if size <= 0:
        yield tuple(items)
        return
    for start in range(0, len(items), size):
        yield tuple(items[start:start + size])


# ------------------------------------------------------------------ outcomes


@dataclass
class RetrievalOutcome:
    """Decision summary of one Algorithm-2 retrieval (no timing — the
    driver owns clocks and wraps this in its own result type)."""

    key: str
    value: Any
    path: FetchPath
    new_server: int
    old_server: Optional[int] = None
    #: True when the engine served *around* at least one fault (skipped
    #: probe, unknown digest, or failed write-back) on the way.
    degraded: bool = False

    @property
    def touched_database(self) -> bool:
        return self.path in (
            FetchPath.FALSE_POSITIVE_DB,
            FetchPath.MISS_DB,
            FetchPath.DEGRADED_DB,
        )


@dataclass
class FetchResult:
    """Outcome **and timing** of one retrieval — the unified fetch return
    type across substrates.

    The simulated :class:`~repro.web.frontend.WebServer` stamps ``started``
    / ``completed`` with virtual-clock seconds, the live
    :class:`~repro.net.webtier.AsyncProteusFrontend` with its (monotonic)
    wall clock; everything else is substrate-independent, so reports built
    from either tier diff field for field.
    """

    key: str
    value: Any
    path: FetchPath
    started: float
    completed: float
    new_server: int
    old_server: Optional[int] = None
    #: True when a fault was served around (see
    #: :attr:`RetrievalOutcome.degraded`).
    degraded: bool = False

    @classmethod
    def from_outcome(
        cls, outcome: RetrievalOutcome, started: float, completed: float
    ) -> "FetchResult":
        """Stamp an engine outcome with the driver's start/end times."""
        return cls(
            key=outcome.key, value=outcome.value, path=outcome.path,
            started=started, completed=completed,
            new_server=outcome.new_server, old_server=outcome.old_server,
            degraded=outcome.degraded,
        )

    @property
    def latency(self) -> float:
        """End-to-end response time in seconds."""
        return self.completed - self.started

    @property
    def touched_database(self) -> bool:
        return self.path in (
            FetchPath.FALSE_POSITIVE_DB,
            FetchPath.MISS_DB,
            FetchPath.DEGRADED_DB,
        )


@dataclass
class ReplicatedOutcome:
    """Decision summary of one replicated (Section III-E) retrieval."""

    key: str
    value: Any
    #: replica owner that answered, or None if the DB (or the frontend's
    #: local hot-key cache) did
    served_by: Optional[int]
    #: how many replica owners were actually probed before an answer
    probes: int
    touched_database: bool
    #: True when a non-primary replica covered for the ring-0 owner
    failover: bool
    #: True when the frontend-local hot-key cache served (no probes at all)
    local: bool = False
    #: True when admission control refused the DB read (overload): the
    #: request was *not served* — ``value`` is ``None``.
    shed: bool = False


# ------------------------------------------------------------------- engines


def _armor_from_config(config: RetrievalConfig) -> HotKeyArmor:
    """Build one engine's hot-key armor from its config knobs."""
    return HotKeyArmor(
        cache_capacity=config.hot_key_capacity,
        cache_ttl=config.hot_key_ttl,
        track=config.hot_key_track,
        sketch_width=config.hot_key_sketch_width,
        sketch_depth=config.hot_key_sketch_depth,
        load_halflife=config.load_halflife,
    )


class RetrievalEngine:
    """Algorithm 2 as a transport-agnostic state machine.

    Args:
        router: the deterministic routing strategy shared by every web
            server (the consistency objective: same router, same decisions).
        coalesce_misses: shorthand for
            ``RetrievalConfig(coalesce_misses=...)`` (see
            :class:`RetrievalConfig`); ignored when *config* is given.
        stats: per-path counters; a fresh :class:`FetchStats` by default.
        config: the engine options object; drivers re-export it via
            :class:`RetrievalConfigMixin`.
    """

    def __init__(
        self,
        router,
        coalesce_misses: bool = False,
        stats: Optional[FetchStats] = None,
        config: Optional[RetrievalConfig] = None,
    ) -> None:
        self.router = router
        self.config = (
            config
            if config is not None
            else RetrievalConfig(coalesce_misses=coalesce_misses)
        )
        self.stats = stats if stats is not None else FetchStats()
        self._armor: Optional[HotKeyArmor] = None
        #: DB-path admission controller (duck-typed:
        #: :class:`repro.resilience.admission.AdmissionController`).
        #: ``None`` (default) admits everything — the pre-armor
        #: behaviour.  When set and the driver passes its clock as
        #: ``now``, the engine consults ``admission.admit_db(now)``
        #: immediately before any database read; a refusal sheds the
        #: request (:attr:`FetchPath.SHED`, value ``None``).  Hits are
        #: never consulted — they complete before the decision point.
        self.admission = None

    @property
    def coalesce_misses(self) -> bool:
        return self.config.coalesce_misses

    @coalesce_misses.setter
    def coalesce_misses(self, enabled: bool) -> None:
        self.config.coalesce_misses = enabled

    @property
    def armor(self) -> HotKeyArmor:
        """The hot-key armor bundle (built lazily from the config knobs).

        Geometry knobs (capacity/ttl/sketch) are read once, on first use;
        the ``hot_key_cache`` switch itself may be toggled at any time.
        """
        if self._armor is None:
            self._armor = _armor_from_config(self.config)
        return self._armor

    def retrieve(
        self, key: str, epochs: RoutingEpochs, now: Optional[float] = None
    ) -> Generator[CommandRound, Any, RetrievalOutcome]:
        """Yield the one-command rounds that retrieve *key* under *epochs*.

        The data path (paper Algorithm 2):

        1. probe the *new* mapping's owner; return on hit.
        2. On a miss *during a transition*, check the *old* owner's
           broadcast digest.  On a digest hit, probe the old server (the
           key is "hot" there); a miss here is a digest false positive.
        3. Still nothing: wait behind an in-flight leader if coalescing,
           else read the database.
        4. Write the value into the new owner and return it.

        Property 1 (Section IV-A): only the *first* request for a hot key
        touches the old server; the write-back in step 4 makes every
        subsequent request a step-1 hit.  Property 2: after TTL seconds
        every hot key has migrated, so the old server can power off.

        The key is hashed at most once per base: one
        :class:`~repro.bloom.hashing.KeyHashes` carries the ring hash to
        both epochs' routing lookups and the double-hash pair to the digest
        check.  Decisions are bit-identical to routing/probing per step.

        **Degraded mode.**  Any probe, digest consult, or write-back may be
        answered with :data:`SERVER_UNAVAILABLE`; the engine serves around
        the fault instead of raising — a skipped probe is a forced miss, an
        unknown digest skips the old owner, a failed write-back never fails
        the fetch — and a request the database served *because of* a fault
        records :attr:`FetchPath.DEGRADED_DB` (plus per-event counters in
        :class:`FetchStats`), never a plain miss.

        **Hot-key armor.**  With ``config.hot_key_cache`` enabled and the
        driver's clock passed as *now*, every access feeds the top-k
        election sketch, and a sketch-elected key with a fresh local copy
        is served without yielding a single command
        (:attr:`FetchPath.HIT_LOCAL`); values fetched for hot keys are
        admitted to the local cache at the same moment Algorithm 2 writes
        them back, so local staleness is TTL-bounded the way transition
        staleness is.  Without *now* the armor is inert (back-compat).
        """
        hashes = KeyHashes(key)
        if now is not None and self.config.hot_key_cache:
            local = self.armor.lookup(key, now)
            if local is not None:
                new_id = self.router.route_hashed(hashes, epochs.new)
                return self._finish(
                    key, local, FetchPath.HIT_LOCAL, new_id, None
                )
        new_id = self.router.route_hashed(hashes, epochs.new)
        keys = (key,)
        events: List[str] = []
        forced_db = False
        (answer,) = yield (ProbeCacheMulti(new_id, keys),)
        value = _probed(answer, key)
        if value is SERVER_UNAVAILABLE:
            events.append("probe_new")
            forced_db = True
        elif value is not None:
            return self._finish(
                key, value, FetchPath.HIT_NEW, new_id, None, now=now
            )

        old_id: Optional[int] = None
        path = FetchPath.MISS_DB
        if epochs.in_transition:
            old_id = self.router.route_hashed(hashes, epochs.old)
            if old_id != new_id:
                (digest,) = yield (CheckDigestMulti(old_id, keys, (hashes,)),)
                if digest is SERVER_UNAVAILABLE:
                    # Digest unknown (broadcast failed): forced miss — the
                    # safe fallback is the database, never a stale guess.
                    events.append("digest")
                    forced_db = True
                elif digest[0]:
                    (answer,) = yield (ProbeCacheMulti(old_id, keys),)
                    value = _probed(answer, key)
                    if value is SERVER_UNAVAILABLE:
                        # Dead old owner: the hot copy is unreachable, fall
                        # through to the authoritative store.
                        events.append("probe_old")
                        forced_db = True
                    elif value is not None:
                        (ack,) = yield (WriteBackMulti(new_id, ((key, value),)),)
                        if ack is SERVER_UNAVAILABLE:
                            events.append("writeback")
                        return self._finish(
                            key, value, FetchPath.HIT_OLD, new_id, old_id,
                            events, now=now,
                        )
                    else:
                        path = FetchPath.FALSE_POSITIVE_DB

        if self.coalesce_misses:
            (waited,) = yield (WaitForLeader(key),)
            if waited:
                # The leader's write-back has installed the value at the
                # new owner: one more cache probe instead of a DB read.
                # No write-back of our own — rewriting would push the
                # item's creation time past later coalescing followers.
                (answer,) = yield (ProbeCacheMulti(new_id, keys),)
                value = _probed(answer, key)
                if value is SERVER_UNAVAILABLE:
                    events.append("probe_new")
                    forced_db = True
                elif value is not None:
                    return self._finish(
                        key, value, FetchPath.COALESCED, new_id, old_id,
                        events, now=now,
                    )

        if (
            self.admission is not None
            and now is not None
            and not self.admission.admit_db(now)
        ):
            # Overload: the sheddable tier.  No DB read, no write-back,
            # no leader announcement — the caller gets value ``None``.
            return self._finish(
                key, None, FetchPath.SHED, new_id, old_id, events, now=now
            )
        (value,) = yield (
            ReadDatabase(key, announce_leader=self.coalesce_misses),
        )
        (ack,) = yield (WriteBackMulti(new_id, ((key, value),)),)
        if ack is SERVER_UNAVAILABLE:
            events.append("writeback")
        if forced_db:
            path = FetchPath.DEGRADED_DB
        return self._finish(key, value, path, new_id, old_id, events, now=now)

    # ------------------------------------------------------------ batching

    def retrieve_many(
        self,
        keys: Iterable[str],
        epochs: RoutingEpochs,
        now: Optional[float] = None,
    ) -> Generator[CommandRound, Any, Dict[str, RetrievalOutcome]]:
        """The batch planner: Algorithm 2 over a whole key set at once.

        Yields *rounds* — tuples of commands with no mutual dependencies —
        and expects a tuple of answers aligned by index; a driver may
        execute each round's commands concurrently.  Probes and write-backs
        are grouped by owning server per routing epoch
        (:class:`ProbeCacheMulti` / :class:`WriteBackMulti`, split at
        ``config.max_multiget_keys``) and in-transition digest consults are
        grouped per ceding old owner (:class:`CheckDigestMulti`, never
        split), so the whole batch costs at most one multiget round trip
        per probed server per epoch and **at most one digest consult per
        old owner**; only :class:`ReadDatabase` stays per-key, exactly as
        Algorithm 2 demands.

        Returns a map from key to :class:`RetrievalOutcome`.  Duplicate
        keys collapse (the map has one entry per distinct key); for
        distinct keys the outcomes, values, and :class:`FetchStats` counts
        are identical to running :meth:`retrieve` once per key.  Hot-key
        armor applies per key as in :meth:`retrieve`: locally served keys
        never enter the probe rounds at all.
        """
        ordered = list(dict.fromkeys(keys))
        outcomes: Dict[str, RetrievalOutcome] = {}
        if not ordered:
            return outcomes
        new_owner = dict(zip(ordered, self.router.route_many(ordered, epochs.new)))
        if now is not None and self.config.hot_key_cache:
            armor = self.armor
            remaining = []
            for key in ordered:
                local = armor.lookup(key, now)
                if local is not None:
                    outcomes[key] = self._finish(
                        key, local, FetchPath.HIT_LOCAL, new_owner[key], None
                    )
                else:
                    remaining.append(key)
            ordered = remaining
            if not ordered:
                return outcomes
        #: key -> degraded event labels accumulated on the way (parity with
        #: the one-key planner's per-request ``events`` list)
        events: Dict[str, List[str]] = {}
        #: keys whose database read (if any) was *forced* by a fault
        forced: set = set()

        # Phase 1 — Alg. 2 line 3, batched: probe every new owner once.
        hits, down = yield from self._probe_many(ordered, new_owner)
        for key in down:
            events.setdefault(key, []).append("probe_new")
            forced.add(key)
        pending: List[str] = []
        for key in ordered:
            value = hits.get(key)
            if value is not None:
                outcomes[key] = self._finish(
                    key, value, FetchPath.HIT_NEW, new_owner[key], None,
                    now=now,
                )
            else:
                pending.append(key)

        old_owner: Dict[str, Optional[int]] = {key: None for key in pending}
        fallback = {key: FetchPath.MISS_DB for key in pending}
        write_backs: List[Tuple[int, str, Any]] = []

        # Phase 2 — digest checks (local, no round trip) for keys whose
        # owner moved, then one batched probe per old owner for digest hits.
        if epochs.in_transition and pending:
            moved = []
            for key, old_id in zip(
                pending, self.router.route_many(pending, epochs.old)
            ):
                old_owner[key] = old_id
                if old_id != new_owner[key]:
                    moved.append(key)
            digest_hits = set()
            if moved:
                # One vectorized double-hash pass covers every digest check
                # in the round; the per-key KeyHashes carries the pair so
                # the old-owner probe (and any driver-side re-check) reuses
                # it instead of rehashing.
                h1s, h2s = digest_bases_many(moved)
                hashes_of = {
                    key: KeyHashes(key, digest_bases=(int(h1), int(h2)))
                    for key, h1, h2 in zip(moved, h1s, h2s)
                }
                grouped_digest: Dict[int, List[str]] = {}
                for key in moved:
                    grouped_digest.setdefault(old_owner[key], []).append(key)
                # Deliberately never chunked: a digest consult is a bit
                # test against an already-broadcast snapshot, not a
                # bounded multiget — the whole batch costs exactly one
                # CheckDigestMulti per ceding old owner.
                commands = tuple(
                    CheckDigestMulti(
                        server_id,
                        tuple(group),
                        tuple(hashes_of[key] for key in group),
                    )
                    for server_id, group in sorted(grouped_digest.items())
                )
                answers = yield commands
                for command, answer in zip(commands, answers):
                    if answer is SERVER_UNAVAILABLE:
                        # Digest unknown: forced miss, straight to the DB
                        # for the whole group.
                        for key in command.keys:
                            events.setdefault(key, []).append("digest")
                            forced.add(key)
                        continue
                    for key, hit in zip(command.keys, answer):
                        if hit:
                            digest_hits.add(key)
            if digest_hits:
                old_values, old_down = yield from self._probe_many(
                    [key for key in pending if key in digest_hits], old_owner
                )
                remaining = []
                for key in pending:
                    value = old_values.get(key)
                    if value is not None:
                        write_backs.append((new_owner[key], key, value))
                        outcomes[key] = self._finish(
                            key, value, FetchPath.HIT_OLD,
                            new_owner[key], old_owner[key],
                            events.get(key, ()), now=now,
                        )
                    else:
                        if key in old_down:
                            # Dead old owner: degraded DB fallback, not a
                            # false positive — no probe ever happened.
                            events.setdefault(key, []).append("probe_old")
                            forced.add(key)
                        elif key in digest_hits:
                            fallback[key] = FetchPath.FALSE_POSITIVE_DB
                        remaining.append(key)
                pending = remaining

        # Phase 3 — coalescing: wait behind in-flight leaders, then re-probe
        # the new owners of the keys whose leader completed (batched).
        if self.config.coalesce_misses and pending:
            answers = yield tuple(WaitForLeader(key) for key in pending)
            waited = [key for key, ok in zip(pending, answers) if ok]
            if waited:
                installed, wait_down = yield from self._probe_many(
                    waited, new_owner
                )
                for key in wait_down:
                    events.setdefault(key, []).append("probe_new")
                    forced.add(key)
                remaining = []
                for key in pending:
                    value = installed.get(key)
                    if value is not None:
                        outcomes[key] = self._finish(
                            key, value, FetchPath.COALESCED,
                            new_owner[key], old_owner[key],
                            events.get(key, ()), now=now,
                        )
                    else:
                        remaining.append(key)
                pending = remaining

        # Phase 4 — per-key database reads (the DB never batches misses
        # away; each distinct key costs one authoritative read).  Each
        # read is individually admission-checked: a batch straddling the
        # overload threshold sheds only its excess keys.
        if pending and self.admission is not None and now is not None:
            admitted: List[str] = []
            for key in pending:
                if self.admission.admit_db(now):
                    admitted.append(key)
                else:
                    outcomes[key] = self._finish(
                        key, None, FetchPath.SHED,
                        new_owner[key], old_owner[key],
                        events.get(key, ()), now=now,
                    )
            pending = admitted
        if pending:
            values = yield tuple(
                ReadDatabase(key, announce_leader=self.config.coalesce_misses)
                for key in pending
            )
            for key, value in zip(pending, values):
                write_backs.append((new_owner[key], key, value))
                path = (
                    FetchPath.DEGRADED_DB if key in forced else fallback[key]
                )
                outcomes[key] = self._finish(
                    key, value, path, new_owner[key], old_owner[key],
                    events.get(key, ()), now=now,
                )

        # Phase 5 — write-backs, grouped into one pipelined command per
        # new owner (Alg. 2 line 12, amortized).
        if write_backs:
            grouped: Dict[int, List[Tuple[str, Any]]] = {}
            for server_id, key, value in write_backs:
                grouped.setdefault(server_id, []).append((key, value))
            commands = tuple(
                WriteBackMulti(server_id, chunk)
                for server_id, items in sorted(grouped.items())
                for chunk in _chunked(items, self.config.max_multiget_keys)
            )
            answers = yield commands
            for command, answer in zip(commands, answers):
                if answer is SERVER_UNAVAILABLE:
                    # Recorded, never fatal: the values were served already;
                    # the next fetch of these keys just misses again.
                    for key, _ in command.items:
                        self.stats.record_degraded("writeback")
                        outcome = outcomes.get(key)
                        if outcome is not None:
                            outcome.degraded = True
        return outcomes

    def _probe_many(
        self, keys: Sequence[str], owner_of: Dict[str, Any]
    ) -> Generator[CommandRound, Any, Tuple[Dict[str, Any], set]]:
        """One round of per-server multiget probes.

        Returns ``(hits, unavailable_keys)``: the values that hit, plus
        every key whose probe was answered :data:`SERVER_UNAVAILABLE` (no
        probe happened; the caller degrades those keys)."""
        grouped: Dict[int, List[str]] = {}
        for key in keys:
            grouped.setdefault(owner_of[key], []).append(key)
        commands = tuple(
            ProbeCacheMulti(server_id, chunk)
            for server_id, group in sorted(grouped.items())
            for chunk in _chunked(group, self.config.max_multiget_keys)
        )
        answers = yield commands
        hits: Dict[str, Any] = {}
        unavailable: set = set()
        for command, answer in zip(commands, answers):
            if answer is SERVER_UNAVAILABLE:
                unavailable.update(command.keys)
            elif answer is not SKIPPED and answer:
                hits.update(answer)
        return hits, unavailable

    def _finish(
        self,
        key: str,
        value: Any,
        path: FetchPath,
        new_server: int,
        old_server: Optional[int],
        events: Sequence[str] = (),
        now: Optional[float] = None,
    ) -> RetrievalOutcome:
        self.stats.record(path)
        for event in events:
            self.stats.record_degraded(event)
        if (
            now is not None
            and path is not FetchPath.HIT_LOCAL
            and path is not FetchPath.SHED
            and self.config.hot_key_cache
        ):
            # Admit hot keys at the same moment Alg. 2 writes back to the
            # new owner: the local copy is never older than the cache copy.
            self.armor.admit(key, value, now)
        return RetrievalOutcome(
            key=key, value=value, path=path,
            new_server=new_server, old_server=old_server,
            degraded=bool(events),
        )


class ReplicatedRetrievalEngine:
    """Section III-E replica reads with failover, as engine commands.

    Reads try the replica owners in ring order, skipping servers the
    cluster marked failed (excluded from routing) and servers the driver
    reports as not serving (answered :data:`SKIPPED`); only if every live
    replica misses does the request reach the database, after which every
    live replica owner is repopulated.

    The old-owner digest path of Algorithm 2 applies per ring; for clarity
    and because replication already covers the miss, this engine falls back
    to the database for keys whose *every* replica moved — strictly more
    conservative than the unreplicated fast path.
    """

    def __init__(
        self, router, config: Optional[RetrievalConfig] = None
    ) -> None:
        self.router = router
        #: engine options; replicated reads use ``max_multiget_keys`` plus
        #: the hot-key knobs (``hot_key_cache``/``d_choices``) — coalescing
        #: stays the unreplicated engine's concern — and the shared object
        #: keeps the drivers' config surface uniform.
        self.config = config if config is not None else RetrievalConfig()
        #: reads answered by a non-primary replica (failover events)
        self.failovers = 0
        #: reads that reached the database
        self.database_reads = 0
        #: reads refused by admission control (overload, not served)
        self.shed_reads = 0
        #: DB-path admission controller (same contract as
        #: :attr:`RetrievalEngine.admission`); ``None`` admits everything.
        self.admission = None
        self._armor: Optional[HotKeyArmor] = None

    @property
    def armor(self) -> HotKeyArmor:
        """The hot-key armor bundle (built lazily from the config knobs)."""
        if self._armor is None:
            self._armor = _armor_from_config(self.config)
        return self._armor

    def _plan(self, key: str, epochs, failed, hot: bool, now):
        """The read plan for *key* — load-aware only for elected hot keys.

        Cold keys keep strict replica-ring order (locality untouched); a
        sketch-elected hot key samples ``d_choices`` replica owners and
        reads from the least loaded (power-of-two choices at the default
        ``d_choices=2``), per the armor's driver-fed load EWMAs.
        """
        if hot and now is not None and self.config.d_choices > 1:
            return self.router.read_plan(
                key, epochs.new, exclude=failed,
                loads=self.armor.loads, d_choices=self.config.d_choices,
                now=now,
            )
        return self.router.read_plan(key, epochs.new, exclude=failed)

    def retrieve(
        self,
        key: str,
        epochs: RoutingEpochs,
        failed: FrozenSet[int] = frozenset(),
        now: Optional[float] = None,
    ) -> Generator[CommandRound, Any, ReplicatedOutcome]:
        """Yield the one-command rounds that read *key* from the first live
        replica; write-backs stay one round per target.

        With hot-key armor enabled (``config.hot_key_cache`` and the
        driver's clock passed as *now*), a sketch-elected key with a fresh
        local copy is served without yielding any command, and hot keys'
        probe order is the load-aware pick of
        :meth:`~repro.core.replication.ReplicatedProteusRouter.read_plan`.
        """
        armored = now is not None and self.config.hot_key_cache
        hot = False
        if armored:
            local = self.armor.lookup(key, now)
            hot = self.armor.is_hot(key)
            if local is not None:
                return ReplicatedOutcome(
                    key=key, value=local, served_by=None, probes=0,
                    touched_database=False, failover=False, local=True,
                )
        # One pass over the replica rings yields both the surviving probe
        # order and the ring-0 primary (an empty target list replaces the
        # read_targets RoutingError: every replica crashed, DB only).
        plan = self._plan(key, epochs, failed, hot, now)
        targets, primary = plan.targets, plan.primary
        keys = (key,)
        value: Any = None
        served_by: Optional[int] = None
        probes = 0
        for target in targets:
            if armored:
                # Every arrival charges the load EWMA the d-choices pick
                # reads — cold-key traffic loads servers too.
                self.armor.loads.record_request(target, now)
            (answer,) = yield (ProbeCacheMulti(target, keys),)
            result = _probed(answer, key)
            if result is SKIPPED or result is SERVER_UNAVAILABLE:
                # Not serving / unreachable: no probe happened; the next
                # replica ring covers, exactly as for a routed-out server.
                continue
            probes += 1
            if result is not None:
                value = result
                served_by = target
                if target != primary:
                    # The ring-0 owner did not answer (crashed or missed):
                    # a replica covered for it.
                    self.failovers += 1
                break
        touched_db = value is None
        if touched_db:
            if (
                self.admission is not None
                and now is not None
                and not self.admission.admit_db(now)
            ):
                # Overload: shed instead of queueing on the database.
                # No write-backs either — there is no value to install.
                self.shed_reads += 1
                return ReplicatedOutcome(
                    key=key, value=None, served_by=None, probes=probes,
                    touched_database=False, failover=False, shed=True,
                )
            (value,) = yield (ReadDatabase(key),)
            self.database_reads += 1
        # Repopulate every live replica owner that missed (write-through).
        for target in targets:
            if target != served_by:
                yield (WriteBackMulti(target, ((key, value),)),)
        if armored:
            self.armor.admit(key, value, now)
        return ReplicatedOutcome(
            key=key, value=value, served_by=served_by, probes=probes,
            touched_database=touched_db,
            failover=served_by is not None and served_by != primary,
        )

    def retrieve_many(
        self,
        keys: Iterable[str],
        epochs: RoutingEpochs,
        failed: FrozenSet[int] = frozenset(),
        now: Optional[float] = None,
    ) -> Generator[CommandRound, Any, Dict[str, ReplicatedOutcome]]:
        """Batched replica reads: ring round *r* probes every round-*r*
        owner with one :class:`ProbeCacheMulti` per server.

        Same round protocol as :meth:`RetrievalEngine.retrieve_many`; the
        outcome map and the ``failovers`` / ``database_reads`` counters
        match running :meth:`retrieve` once per distinct key — including
        the hot-key armor behavior when *now* is passed.
        """
        ordered = list(dict.fromkeys(keys))
        if not ordered:
            return {}
        armored = now is not None and self.config.hot_key_cache
        local_hits: Dict[str, Any] = {}
        hot_keys: set = set()
        if armored:
            armor = self.armor
            remaining = []
            for key in ordered:
                local = armor.lookup(key, now)
                if armor.is_hot(key):
                    hot_keys.add(key)
                if local is not None:
                    local_hits[key] = local
                else:
                    remaining.append(key)
            ordered = remaining
        locals_only = {
            key: ReplicatedOutcome(
                key=key, value=value, served_by=None, probes=0,
                touched_database=False, failover=False, local=True,
            )
            for key, value in local_hits.items()
        }
        if not ordered:
            return locals_only
        targets_of: Dict[str, Tuple[int, ...]] = {}
        primary_of: Dict[str, int] = {}
        for key in ordered:
            plan = self._plan(key, epochs, failed, key in hot_keys, now)
            targets_of[key] = plan.targets
            primary_of[key] = plan.primary
        value_of: Dict[str, Any] = {}
        served_by: Dict[str, Optional[int]] = {key: None for key in ordered}
        probes = {key: 0 for key in ordered}

        ring_round = 0
        unresolved = list(ordered)
        while unresolved:
            grouped: Dict[int, List[str]] = {}
            for key in unresolved:
                targets = targets_of[key]
                if ring_round < len(targets):
                    grouped.setdefault(targets[ring_round], []).append(key)
                    if armored:
                        self.armor.loads.record_request(
                            targets[ring_round], now
                        )
            if not grouped:
                break
            commands = tuple(
                ProbeCacheMulti(server_id, chunk)
                for server_id, group in sorted(grouped.items())
                for chunk in _chunked(group, self.config.max_multiget_keys)
            )
            answers = yield commands
            for command, answer in zip(commands, answers):
                if answer is SKIPPED or answer is SERVER_UNAVAILABLE:
                    continue  # not serving / unreachable: no probe happened
                hits = answer or {}
                for key in command.keys:
                    probes[key] += 1
                    value = hits.get(key)
                    if value is not None:
                        value_of[key] = value
                        served_by[key] = command.server_id
                        if command.server_id != primary_of[key]:
                            self.failovers += 1
            unresolved = [key for key in unresolved if key not in value_of]
            ring_round += 1

        db_keys = [key for key in ordered if key not in value_of]
        shed_keys: set = set()
        if db_keys and self.admission is not None and now is not None:
            # Per-key admission, as in the unreplicated batch path: only
            # the excess over the overload threshold is shed.
            admitted = []
            for key in db_keys:
                if self.admission.admit_db(now):
                    admitted.append(key)
                else:
                    self.shed_reads += 1
                    shed_keys.add(key)
                    value_of[key] = None
            db_keys = admitted
        db_set = frozenset(db_keys)
        if db_keys:
            values = yield tuple(ReadDatabase(key) for key in db_keys)
            for key, value in zip(db_keys, values):
                value_of[key] = value
                self.database_reads += 1

        # Repopulate every live replica owner that missed (write-through),
        # one pipelined command per server.  Shed keys have no value to
        # install and are skipped.
        grouped_wb: Dict[int, List[Tuple[str, Any]]] = {}
        for key in ordered:
            if key in shed_keys:
                continue
            for target in targets_of[key]:
                if target != served_by[key]:
                    grouped_wb.setdefault(target, []).append(
                        (key, value_of[key])
                    )
        if grouped_wb:
            yield tuple(
                WriteBackMulti(server_id, chunk)
                for server_id, items in sorted(grouped_wb.items())
                for chunk in _chunked(items, self.config.max_multiget_keys)
            )
        if armored:
            for key in ordered:
                if key not in shed_keys:
                    self.armor.admit(key, value_of[key], now)
        outcomes = {
            key: ReplicatedOutcome(
                key=key,
                value=value_of[key],
                served_by=served_by[key],
                probes=probes[key],
                touched_database=key in db_set,
                failover=(
                    served_by[key] is not None
                    and served_by[key] != primary_of[key]
                ),
                shed=key in shed_keys,
            )
            for key in ordered
        }
        outcomes.update(locals_only)
        return outcomes


# ------------------------------------------------------- coalescing windows


class LeaderWindowRegistry:
    """Simulated-time bookkeeping for :class:`WaitForLeader`.

    Maps key -> completion time of the in-flight leader's DB fetch plus its
    write-back.  A follower whose clock is still inside the window jumps to
    its end; anything later is a plain miss.  (The asyncio driver uses
    futures instead — this registry is for drivers that measure time with a
    virtual clock.)
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self.max_entries = max_entries
        self._windows: Dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._windows)

    def leader_done(self, key: str, now: float) -> Optional[float]:
        """The open window's end for *key*, or ``None`` if closed/absent."""
        done = self._windows.get(key)
        if done is None or now >= done:
            return None
        return done

    def announce(self, key: str, done_at: float, now: float) -> None:
        """Publish a leader window for *key* closing at *done_at*.

        Prunes against the *current* clock ``now`` — not the request's
        start time — so a window that closed while this request was in
        flight does not survive an extra pass.
        """
        self._windows[key] = done_at
        if len(self._windows) > self.max_entries:
            # The map stays bounded by the concurrent-miss key count.
            self._windows = {
                k: t for k, t in self._windows.items() if t > now
            }
