"""Tests for the sans-IO Algorithm-2 retrieval engine.

Drives the command generator by hand with scripted answers — no cache, no
database, no clock — which is exactly the point of the sans-IO core: the
branch logic is testable without any substrate at all.
"""

from repro.core.retrieval import (
    CheckDigestMulti,
    FetchPath,
    FetchStats,
    LeaderWindowRegistry,
    ProbeCacheMulti,
    ReadDatabase,
    ReplicatedRetrievalEngine,
    RetrievalConfig,
    RetrievalEngine,
    SKIPPED,
    WaitForLeader,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs, Transition


class ScriptedDriver:
    """Answers the one-key planner's one-command rounds from a scripted
    table, recording the trace."""

    def __init__(self, answers):
        #: list of (command_type, answer); consumed in order
        self.answers = list(answers)
        self.trace = []

    def run(self, generator):
        answers = None
        try:
            while True:
                (command,) = generator.send(answers)
                self.trace.append(command)
                expected_type, answer = self.answers.pop(0)
                assert isinstance(command, expected_type), (
                    f"expected {expected_type.__name__}, engine yielded {command!r}"
                )
                answers = (answer,)
        except StopIteration as stop:
            return stop.value


ROUTER = ProteusRouter(4, ring_size=2 ** 20)
KEY = "page:parity"
NEW_ID = ROUTER.route(KEY, 3)
OLD_ID = ROUTER.route(KEY, 4)

STEADY = RoutingEpochs(new=3, old=None, transition=None)
DRAINING = RoutingEpochs(
    new=3, old=4, transition=Transition(n_old=4, n_new=3, started_at=0.0, ttl=60.0)
)


def remapped_key():
    """A key whose owner differs between the 4-server and 3-server epochs."""
    for i in range(10_000):
        key = f"page:{i}"
        if ROUTER.route(key, 4) != ROUTER.route(key, 3):
            return key
    raise AssertionError("no remapped key found")


class TestUnreplicatedPaths:
    def test_hit_new_is_one_probe_no_writeback(self):
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver([(ProbeCacheMulti, {KEY: "value"})])
        outcome = driver.run(engine.retrieve(KEY, STEADY))
        assert outcome.path is FetchPath.HIT_NEW
        assert outcome.value == "value"
        assert outcome.new_server == NEW_ID
        assert outcome.old_server is None
        assert not outcome.touched_database
        assert driver.trace == [ProbeCacheMulti(NEW_ID, (KEY,))]

    def test_miss_outside_transition_goes_to_db(self):
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, {}), (ReadDatabase, "db"), (WriteBackMulti, None)]
        )
        outcome = driver.run(engine.retrieve(KEY, STEADY))
        assert outcome.path is FetchPath.MISS_DB
        assert outcome.touched_database
        assert driver.trace[-1] == WriteBackMulti(NEW_ID, ((KEY, "db"),))

    def test_hit_old_pulls_from_old_owner_and_writes_back(self):
        key = remapped_key()
        new_id, old_id = ROUTER.route(key, 3), ROUTER.route(key, 4)
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, {}),
                (CheckDigestMulti, [True]),
                (ProbeCacheMulti, {key: "hot"}),
                (WriteBackMulti, None),
            ]
        )
        outcome = driver.run(engine.retrieve(key, DRAINING))
        assert outcome.path is FetchPath.HIT_OLD
        assert outcome.old_server == old_id
        assert driver.trace == [
            ProbeCacheMulti(new_id, (key,)),
            CheckDigestMulti(old_id, (key,)),
            ProbeCacheMulti(old_id, (key,)),
            WriteBackMulti(new_id, ((key, "hot"),)),
        ]

    def test_digest_false_positive_classified(self):
        key = remapped_key()
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, {}),
                (CheckDigestMulti, [True]),
                (ProbeCacheMulti, {}),  # old owner misses: digest lied
                (ReadDatabase, "db"),
                (WriteBackMulti, None),
            ]
        )
        outcome = driver.run(engine.retrieve(key, DRAINING))
        assert outcome.path is FetchPath.FALSE_POSITIVE_DB
        assert outcome.touched_database

    def test_digest_miss_skips_old_owner(self):
        key = remapped_key()
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, {}),
                (CheckDigestMulti, [False]),
                (ReadDatabase, "db"),
                (WriteBackMulti, None),
            ]
        )
        outcome = driver.run(engine.retrieve(key, DRAINING))
        assert outcome.path is FetchPath.MISS_DB

    def test_same_owner_in_both_epochs_skips_digest(self):
        for i in range(10_000):
            key = f"page:{i}"
            if ROUTER.route(key, 4) == ROUTER.route(key, 3):
                break
        engine = RetrievalEngine(ROUTER)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, {}), (ReadDatabase, "db"), (WriteBackMulti, None)]
        )
        outcome = driver.run(engine.retrieve(key, DRAINING))
        assert outcome.path is FetchPath.MISS_DB
        assert not any(isinstance(c, CheckDigestMulti) for c in driver.trace)

    def test_coalesced_follower_skips_db_and_writeback(self):
        engine = RetrievalEngine(ROUTER, coalesce_misses=True)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, {}),
                (WaitForLeader, True),
                (ProbeCacheMulti, {KEY: "installed"}),
            ]
        )
        outcome = driver.run(engine.retrieve(KEY, STEADY))
        assert outcome.path is FetchPath.COALESCED
        assert not any(isinstance(c, ReadDatabase) for c in driver.trace)
        assert not any(isinstance(c, WriteBackMulti) for c in driver.trace)

    def test_no_leader_becomes_leader_and_announces(self):
        engine = RetrievalEngine(ROUTER, coalesce_misses=True)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, {}),
                (WaitForLeader, False),
                (ReadDatabase, "db"),
                (WriteBackMulti, None),
            ]
        )
        outcome = driver.run(engine.retrieve(KEY, STEADY))
        assert outcome.path is FetchPath.MISS_DB
        read = next(c for c in driver.trace if isinstance(c, ReadDatabase))
        assert read.announce_leader

    def test_waited_but_still_missing_falls_to_db(self):
        # The leader's write-back was evicted before the follower's probe.
        engine = RetrievalEngine(ROUTER, coalesce_misses=True)
        driver = ScriptedDriver(
            [
                (ProbeCacheMulti, {}),
                (WaitForLeader, True),
                (ProbeCacheMulti, {}),
                (ReadDatabase, "db"),
                (WriteBackMulti, None),
            ]
        )
        outcome = driver.run(engine.retrieve(KEY, STEADY))
        assert outcome.path is FetchPath.MISS_DB

    def test_no_wait_command_when_coalescing_disabled(self):
        engine = RetrievalEngine(ROUTER, coalesce_misses=False)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, {}), (ReadDatabase, "db"), (WriteBackMulti, None)]
        )
        driver.run(engine.retrieve(KEY, STEADY))
        read = next(c for c in driver.trace if isinstance(c, ReadDatabase))
        assert not read.announce_leader

    def test_stats_accumulate_across_retrievals(self):
        engine = RetrievalEngine(ROUTER)
        ScriptedDriver([(ProbeCacheMulti, {KEY: "v"})]).run(
            engine.retrieve(KEY, STEADY)
        )
        ScriptedDriver(
            [(ProbeCacheMulti, {}), (ReadDatabase, "db"), (WriteBackMulti, None)]
        ).run(engine.retrieve(KEY, STEADY))
        assert engine.stats.counts[FetchPath.HIT_NEW] == 1
        assert engine.stats.counts[FetchPath.MISS_DB] == 1
        assert engine.stats.total == 2
        assert engine.stats.database_fraction == 0.5

    def test_stats_labels_match_wire_names(self):
        stats = FetchStats()
        stats.record(FetchPath.HIT_NEW)
        assert stats.as_labels()["hit_new"] == 1
        # str mix-in: members compare and hash like their labels.
        assert FetchPath.HIT_NEW == "hit_new"
        assert stats.counts["hit_new"] == 1


class StoreDriver:
    """Executes engine rounds against dict-backed stores.

    Both planners speak the same round protocol, so one :meth:`run_batch`
    drives ``retrieve`` and ``retrieve_many`` from the same cluster state
    for equivalence checks.
    """

    def __init__(self, stores, db, digests=None, leaders=()):
        #: server_id -> {key: value}
        self.stores = {sid: dict(store) for sid, store in stores.items()}
        self.db = db
        #: server_id -> set of keys the broadcast digest claims
        self.digests = digests or {}
        #: keys with an in-flight leader (WaitForLeader answers True)
        self.leaders = set(leaders)
        self.rounds = []

    def _answer(self, command):
        if isinstance(command, ProbeCacheMulti):
            store = self.stores.get(command.server_id, {})
            return {k: store[k] for k in command.keys if k in store}
        if isinstance(command, CheckDigestMulti):
            digest = self.digests.get(command.server_id, ())
            return [key in digest for key in command.keys]
        if isinstance(command, WaitForLeader):
            return command.key in self.leaders
        if isinstance(command, ReadDatabase):
            return self.db[command.key]
        if isinstance(command, WriteBackMulti):
            store = self.stores.setdefault(command.server_id, {})
            for key, value in command.items:
                store[key] = value
            return None
        raise AssertionError(f"unexpected batched command {command!r}")

    def run_batch(self, generator):
        answers = None
        try:
            while True:
                round_ = generator.send(answers)
                self.rounds.append(round_)
                answers = tuple(self._answer(c) for c in round_)
        except StopIteration as stop:
            return stop.value


class TestBatchPlanner:
    def _keys_by_owner(self, epochs, count_per_kind=3):
        """Keys partitioned by transition behaviour under 4 -> 3."""
        moved, stayed = [], []
        for i in range(100_000):
            key = f"page:{i}"
            if ROUTER.route(key, 4) != ROUTER.route(key, 3):
                if len(moved) < count_per_kind:
                    moved.append(key)
            elif len(stayed) < count_per_kind:
                stayed.append(key)
            if len(moved) == count_per_kind and len(stayed) == count_per_kind:
                return moved, stayed
        raise AssertionError("key search exhausted")

    def test_all_hits_is_one_probe_round_grouped_by_server(self):
        keys = [f"page:{i}" for i in range(12)]
        stores = {}
        for key in keys:
            stores.setdefault(ROUTER.route(key, 3), {})[key] = f"v-{key}"
        engine = RetrievalEngine(ROUTER)
        driver = StoreDriver(stores, db={})
        outcomes = driver.run_batch(engine.retrieve_many(keys, STEADY))
        assert len(driver.rounds) == 1
        probed = [c.server_id for c in driver.rounds[0]]
        assert all(isinstance(c, ProbeCacheMulti) for c in driver.rounds[0])
        # One multiget per distinct owner, no server probed twice.
        assert len(probed) == len(set(probed))
        assert set(probed) == set(stores)
        assert all(
            outcomes[key].path is FetchPath.HIT_NEW for key in keys
        )
        assert all(outcomes[key].value == f"v-{key}" for key in keys)

    def test_batch_equals_sequential_mid_transition(self):
        # Mixed batch: hits at the new owner, hot keys at the old owner,
        # digest false positives, and plain misses — in one retrieve_many.
        moved, stayed = self._keys_by_owner(DRAINING)
        hot, false_positive, cold = moved
        warm, miss, _ = stayed
        stores = {}
        stores.setdefault(ROUTER.route(warm, 3), {})[warm] = "warm"
        stores.setdefault(ROUTER.route(hot, 4), {})[hot] = "hot"
        digests = {}
        digests.setdefault(ROUTER.route(hot, 4), set()).add(hot)
        digests.setdefault(
            ROUTER.route(false_positive, 4), set()
        ).add(false_positive)
        db = {false_positive: "fp-db", cold: "cold-db", miss: "miss-db"}
        keys = [warm, hot, false_positive, cold, miss]

        batch_engine = RetrievalEngine(ROUTER)
        batch_driver = StoreDriver(stores, db, digests)
        batched = batch_driver.run_batch(
            batch_engine.retrieve_many(keys, DRAINING)
        )

        seq_engine = RetrievalEngine(ROUTER)
        seq_driver = StoreDriver(stores, db, digests)
        sequential = {
            key: seq_driver.run_batch(seq_engine.retrieve(key, DRAINING))
            for key in keys
        }

        assert set(batched) == set(sequential)
        for key in keys:
            assert batched[key].path is sequential[key].path
            assert batched[key].value == sequential[key].value
            assert batched[key].new_server == sequential[key].new_server
            assert batched[key].old_server == sequential[key].old_server
        assert batch_engine.stats.counts == seq_engine.stats.counts
        assert batched[warm].path is FetchPath.HIT_NEW
        assert batched[hot].path is FetchPath.HIT_OLD
        assert batched[false_positive].path is FetchPath.FALSE_POSITIVE_DB
        assert batched[cold].path is FetchPath.MISS_DB
        # Both drivers leave identical cluster state behind.
        assert batch_driver.stores == seq_driver.stores

    def test_duplicate_keys_collapse_to_one_outcome(self):
        engine = RetrievalEngine(ROUTER)
        driver = StoreDriver({}, db={KEY: "v"})
        outcomes = driver.run_batch(
            engine.retrieve_many([KEY, KEY, KEY], STEADY)
        )
        assert list(outcomes) == [KEY]
        assert engine.stats.total == 1
        # Exactly one DB read despite three requests for the key.
        reads = [
            c for round_ in driver.rounds for c in round_
            if isinstance(c, ReadDatabase)
        ]
        assert len(reads) == 1

    def test_max_multiget_keys_chunks_oversized_groups(self):
        engine = RetrievalEngine(
            ROUTER, config=RetrievalConfig(max_multiget_keys=2)
        )
        keys = [f"page:{i}" for i in range(100_000)]
        same_owner = [k for k in keys if ROUTER.route(k, 3) == 0][:5]
        driver = StoreDriver(
            {0: {k: "v" for k in same_owner}}, db={}
        )
        driver.run_batch(engine.retrieve_many(same_owner, STEADY))
        probe_round = driver.rounds[0]
        assert [len(c.keys) for c in probe_round] == [2, 2, 1]
        assert all(c.server_id == 0 for c in probe_round)

    def test_empty_batch_yields_nothing(self):
        engine = RetrievalEngine(ROUTER)
        driver = StoreDriver({}, db={})
        assert driver.run_batch(engine.retrieve_many([], STEADY)) == {}
        assert driver.rounds == []
        assert engine.stats.total == 0

    def test_coalesced_batch_reprobes_instead_of_reading_db(self):
        engine = RetrievalEngine(ROUTER, coalesce_misses=True)
        new_id = ROUTER.route(KEY, 3)

        # The leader's write-back lands while this batch waits: emulate by
        # installing the value at the new owner when WaitForLeader fires.
        class LeaderDriver(StoreDriver):
            def _answer(self, command):
                if isinstance(command, WaitForLeader):
                    self.stores.setdefault(new_id, {})[KEY] = "installed"
                    return True
                return super()._answer(command)

        leader_driver = LeaderDriver({}, db={}, leaders=[KEY])
        outcomes = leader_driver.run_batch(
            engine.retrieve_many([KEY], STEADY)
        )
        assert outcomes[KEY].path is FetchPath.COALESCED
        assert outcomes[KEY].value == "installed"
        reads = [
            c for round_ in leader_driver.rounds for c in round_
            if isinstance(c, ReadDatabase)
        ]
        assert reads == []

    def test_replicated_batch_equals_sequential(self):
        from repro.core.replication import ReplicatedProteusRouter

        router = ReplicatedProteusRouter(4, replicas=2, ring_size=2 ** 20)
        epochs = RoutingEpochs(4, None, None)
        keys = [f"page:{i}" for i in range(8)]
        # Prime half the keys at their primary, leave half to the DB.
        stores = {}
        for key in keys[:4]:
            stores.setdefault(router.route(key, 4), {})[key] = f"v-{key}"
        db = {key: f"db-{key}" for key in keys}

        batch_engine = ReplicatedRetrievalEngine(router)
        batch_driver = StoreDriver(stores, db)
        batched = batch_driver.run_batch(
            batch_engine.retrieve_many(keys, epochs)
        )

        seq_engine = ReplicatedRetrievalEngine(router)
        seq_driver = StoreDriver(stores, db)
        sequential = {
            key: seq_driver.run_batch(seq_engine.retrieve(key, epochs))
            for key in keys
        }

        for key in keys:
            assert batched[key].value == sequential[key].value
            assert batched[key].served_by == sequential[key].served_by
            assert batched[key].probes == sequential[key].probes
            assert (
                batched[key].touched_database
                == sequential[key].touched_database
            )
            assert batched[key].failover == sequential[key].failover
        assert batch_engine.failovers == seq_engine.failovers
        assert batch_engine.database_reads == seq_engine.database_reads
        assert batch_driver.stores == seq_driver.stores


class TestReplicatedEngine:
    def _engine(self):
        from repro.core.replication import ReplicatedProteusRouter

        return ReplicatedRetrievalEngine(
            ReplicatedProteusRouter(4, replicas=2, ring_size=2 ** 20)
        )

    def test_primary_hit_no_failover(self):
        engine = self._engine()
        targets = engine.router.read_targets(KEY, 4)
        answers = [(ProbeCacheMulti, {KEY: "v"})] + [
            (WriteBackMulti, None) for _ in targets[1:]
        ]
        driver = ScriptedDriver(answers)
        outcome = driver.run(engine.retrieve(KEY, RoutingEpochs(4, None, None)))
        assert outcome.served_by == targets[0]
        assert not outcome.failover
        assert outcome.probes == 1
        assert engine.failovers == 0

    def test_replica_covers_for_missing_primary(self):
        engine = self._engine()
        targets = engine.router.read_targets(KEY, 4)
        assert len(targets) >= 2
        driver = ScriptedDriver(
            [(ProbeCacheMulti, {}), (ProbeCacheMulti, {KEY: "v"})]
            + [(WriteBackMulti, None)] * (len(targets) - 1)
        )
        outcome = driver.run(engine.retrieve(KEY, RoutingEpochs(4, None, None)))
        assert outcome.served_by == targets[1]
        assert outcome.failover
        assert engine.failovers == 1

    def test_skipped_probe_not_counted(self):
        engine = self._engine()
        targets = engine.router.read_targets(KEY, 4)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, SKIPPED), (ProbeCacheMulti, {KEY: "v"})]
            + [(WriteBackMulti, None)] * (len(targets) - 1)
        )
        outcome = driver.run(engine.retrieve(KEY, RoutingEpochs(4, None, None)))
        assert outcome.probes == 1

    def test_all_miss_reads_db_and_repopulates_every_target(self):
        engine = self._engine()
        targets = engine.router.read_targets(KEY, 4)
        driver = ScriptedDriver(
            [(ProbeCacheMulti, {})] * len(targets)
            + [(ReadDatabase, "db")]
            + [(WriteBackMulti, None)] * len(targets)
        )
        outcome = driver.run(engine.retrieve(KEY, RoutingEpochs(4, None, None)))
        assert outcome.touched_database
        assert outcome.served_by is None
        assert engine.database_reads == 1
        written = [
            c.server_id for c in driver.trace if isinstance(c, WriteBackMulti)
        ]
        assert written == targets


class TestLeaderWindowRegistry:
    def test_open_window_returned_closed_window_none(self):
        reg = LeaderWindowRegistry()
        reg.announce("k", done_at=5.0, now=1.0)
        assert reg.leader_done("k", now=4.0) == 5.0
        assert reg.leader_done("k", now=5.0) is None
        assert reg.leader_done("missing", now=0.0) is None

    def test_prune_uses_current_clock_not_request_start(self):
        # Regression: the pre-refactor prune compared against the request's
        # *start* time, letting windows that closed mid-request survive an
        # extra pass.  The registry prunes against the clock it is given.
        reg = LeaderWindowRegistry(max_entries=2)
        reg.announce("a", done_at=1.0, now=0.0)
        reg.announce("b", done_at=2.0, now=0.0)
        # This announce overflows max_entries; now=1.5 means "a" (closed at
        # 1.0) must be dropped even though the request started earlier.
        reg.announce("c", done_at=9.0, now=1.5)
        assert len(reg) == 2
        assert reg.leader_done("a", now=0.5) is None
        assert reg.leader_done("b", now=1.6) == 2.0
        assert reg.leader_done("c", now=1.6) == 9.0

    def test_bounded_by_concurrent_misses(self):
        reg = LeaderWindowRegistry(max_entries=8)
        for i in range(100):
            # Every window closes almost immediately; the map never grows
            # past max_entries + 1 before a prune.
            reg.announce(f"k{i}", done_at=i + 0.1, now=float(i))
        assert len(reg) <= 9
