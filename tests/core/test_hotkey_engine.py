"""Hot-key armor wired through the retrieval engines.

Covers the tentpole contracts: sketch-elected keys served from the
frontend-local cache (``FetchPath.HIT_LOCAL``) with TTL-bounded staleness,
grouped digest probes (at most one :class:`CheckDigestMulti` per ceding
old owner per batch, bit-identical to per-key consults), and
power-of-two-choices read routing for hot keys on the replicated path.
"""

import pytest

from repro.bloom import BloomFilter, KeyHashes
from repro.core.replication import ReplicatedProteusRouter
from repro.core.retrieval import (
    CheckDigestMulti,
    FetchPath,
    ProbeCacheMulti,
    ReadDatabase,
    ReplicatedRetrievalEngine,
    RetrievalConfig,
    RetrievalEngine,
    WaitForLeader,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs, Transition

ROUTER = ProteusRouter(4, ring_size=2 ** 20)
STEADY = RoutingEpochs(new=3, old=None, transition=None)
DRAINING = RoutingEpochs(
    new=3, old=4, transition=Transition(n_old=4, n_new=3, started_at=0.0, ttl=60.0)
)

ARMORED = dict(hot_key_cache=True, hot_key_ttl=1.0)


class DictDriver:
    """Answers engine rounds from plain dict state."""

    def __init__(self, stores=None, db=None, digests=None):
        self.stores = stores or {}
        self.db = db or {}
        self.digests = digests or {}
        self.trace = []

    def scalar(self, generator, key):
        """Drive the one-key planner: same rounds, one command each."""
        return self.batch(generator)

    def batch(self, generator):
        answers = None
        try:
            while True:
                round_ = generator.send(answers)
                self.trace.extend(round_)
                answers = tuple(self._answer(c) for c in round_)
        except StopIteration as stop:
            return stop.value

    def _answer(self, command):
        if isinstance(command, ProbeCacheMulti):
            store = self.stores.get(command.server_id, {})
            return {k: store[k] for k in command.keys if k in store}
        if isinstance(command, CheckDigestMulti):
            digest = self.digests.get(command.server_id, ())
            return [k in digest for k in command.keys]
        if isinstance(command, WaitForLeader):
            return False
        if isinstance(command, ReadDatabase):
            return self.db[command.key]
        if isinstance(command, WriteBackMulti):
            store = self.stores.setdefault(command.server_id, {})
            for k, value in command.items:
                store[k] = value
            return None
        raise AssertionError(f"unexpected command {command!r}")


def moved_keys(count):
    """Keys whose owner differs between the 4- and 3-server epochs."""
    found = []
    for i in range(50_000):
        key = f"page:{i}"
        if ROUTER.route(key, 4) != ROUTER.route(key, 3):
            found.append(key)
            if len(found) == count:
                return found
    raise AssertionError("not enough remapped keys")


class TestScalarArmor:
    def test_second_read_is_served_locally(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(db={"k": "db-value"})
        first = driver.scalar(engine.retrieve("k", STEADY, now=0.0), "k")
        assert first.path is FetchPath.MISS_DB
        trace_len = len(driver.trace)

        second = driver.scalar(engine.retrieve("k", STEADY, now=0.5), "k")
        assert second.path is FetchPath.HIT_LOCAL
        assert second.value == "db-value"
        assert len(driver.trace) == trace_len  # zero commands issued
        assert engine.stats.counts["hit_local"] == 1

    def test_ttl_bounds_local_staleness(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(db={"k": "v"})
        driver.scalar(engine.retrieve("k", STEADY, now=0.0), "k")
        # At now=1.0 the entry is exactly ttl old: never served.
        stale = driver.scalar(engine.retrieve("k", STEADY, now=1.0), "k")
        assert stale.path is not FetchPath.HIT_LOCAL

    def test_armor_inert_without_clock(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(db={"k": "v"})
        driver.scalar(engine.retrieve("k", STEADY), "k")
        repeat = driver.scalar(engine.retrieve("k", STEADY), "k")
        assert repeat.path is not FetchPath.HIT_LOCAL

    def test_armor_off_by_default(self):
        engine = RetrievalEngine(ROUTER)
        driver = DictDriver(db={"k": "v"})
        driver.scalar(engine.retrieve("k", STEADY, now=0.0), "k")
        repeat = driver.scalar(engine.retrieve("k", STEADY, now=0.1), "k")
        assert repeat.path is not FetchPath.HIT_LOCAL

    def test_invalidation_forces_authoritative_path(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        driver = DictDriver(db={"k": "v1"})
        driver.scalar(engine.retrieve("k", STEADY, now=0.0), "k")
        engine.armor.invalidate("k")
        driver.db["k"] = "v2"
        fresh = driver.scalar(engine.retrieve("k", STEADY, now=0.1), "k")
        assert fresh.path is not FetchPath.HIT_LOCAL


class TestBatchArmor:
    def test_warm_batch_issues_no_commands(self):
        engine = RetrievalEngine(ROUTER, config=RetrievalConfig(**ARMORED))
        keys = ["a", "b", "c"]
        driver = DictDriver(db={k: f"db-{k}" for k in keys})
        driver.batch(engine.retrieve_many(keys, STEADY, now=0.0))
        trace_len = len(driver.trace)

        outcomes = driver.batch(engine.retrieve_many(keys, STEADY, now=0.5))
        assert len(driver.trace) == trace_len
        for key in keys:
            assert outcomes[key].path is FetchPath.HIT_LOCAL
            assert outcomes[key].value == f"db-{key}"

    def test_batch_and_scalar_agree_on_local_hits(self):
        batch_engine = RetrievalEngine(
            ROUTER, config=RetrievalConfig(**ARMORED)
        )
        scalar_engine = RetrievalEngine(
            ROUTER, config=RetrievalConfig(**ARMORED)
        )
        keys = ["a", "b"]
        db = {k: f"db-{k}" for k in keys}
        batch_driver = DictDriver(db=dict(db))
        scalar_driver = DictDriver(db=dict(db))
        batch_driver.batch(batch_engine.retrieve_many(keys, STEADY, now=0.0))
        for key in keys:
            scalar_driver.scalar(scalar_engine.retrieve(key, STEADY, now=0.0), key)
        batched = batch_driver.batch(
            batch_engine.retrieve_many(keys, STEADY, now=0.5)
        )
        for key in keys:
            single = scalar_driver.scalar(
                scalar_engine.retrieve(key, STEADY, now=0.5), key
            )
            assert batched[key].path is single.path is FetchPath.HIT_LOCAL
            assert batched[key].value == single.value
        assert batch_engine.stats.counts == scalar_engine.stats.counts


class TestGroupedDigestProbes:
    def test_at_most_one_digest_probe_per_old_owner(self):
        keys = moved_keys(24)
        old_owners = {ROUTER.route(k, 4) for k in keys}
        digests = {owner: set() for owner in old_owners}
        engine = RetrievalEngine(ROUTER)
        driver = DictDriver(db={k: f"db-{k}" for k in keys}, digests=digests)
        driver.batch(engine.retrieve_many(keys, DRAINING))

        digest_probes = [
            c for c in driver.trace if isinstance(c, CheckDigestMulti)
        ]
        probed_owners = [c.server_id for c in digest_probes]
        # Exactly one grouped consult per ceding old owner, never chunked.
        assert len(probed_owners) == len(set(probed_owners))
        assert set(probed_owners) == old_owners
        grouped = {c.server_id: set(c.keys) for c in digest_probes}
        for key in keys:
            assert key in grouped[ROUTER.route(key, 4)]

    def test_digest_multi_bit_identical_to_scalar(self):
        digest = BloomFilter(256, 4)
        members = [f"member:{i}" for i in range(40)]
        for key in members:
            digest.add(key)
        probes = members[:10] + [f"absent:{i}" for i in range(30)]
        transition = Transition(
            n_old=4, n_new=3, started_at=0.0, ttl=60.0, digests={2: digest}
        )
        scalar = [transition.digest_hit(2, key) for key in probes]
        batched = transition.digest_hit_many(2, probes)
        assert list(batched) == scalar
        hashed = transition.digest_hit_many(
            2, probes, hashes=[KeyHashes(k) for k in probes]
        )
        assert list(hashed) == scalar
        # No digest broadcast for a server: all-False, same as the scalar.
        assert transition.digest_hit_many(0, probes) == [False] * len(probes)
        assert not transition.digest_hit(0, probes[0])


class TestPowerOfTwoChoices:
    @staticmethod
    def _replicated_key(router):
        for i in range(10_000):
            key = f"page:{i}"
            plan = router.read_plan(key, 4)
            if len(plan.targets) >= 2:
                return key
        raise AssertionError("no key with two distinct replica owners")

    def test_read_plan_prefers_less_loaded_replica(self):
        router = ReplicatedProteusRouter(4, replicas=2, ring_size=2 ** 20)
        key = self._replicated_key(router)
        base = router.read_plan(key, 4)
        primary, secondary = base.targets[0], base.targets[1]

        from repro.core.hotkey import ServerLoadEWMA

        loads = ServerLoadEWMA(halflife=1000.0)
        for _ in range(10):
            loads.record_request(primary, now=0.0)
        plan = router.read_plan(key, 4, loads=loads, d_choices=2, now=0.0)
        assert plan.chosen == secondary
        assert plan.targets[0] == secondary
        # The target set and the primary are load-independent.
        assert set(plan.targets) == set(base.targets)
        assert plan.primary == base.primary == primary

    def test_cold_keys_keep_ring_order(self):
        router = ReplicatedProteusRouter(4, replicas=2, ring_size=2 ** 20)
        key = self._replicated_key(router)
        config = RetrievalConfig(
            hot_key_cache=True, d_choices=2, hot_key_track=1
        )
        engine = ReplicatedRetrievalEngine(router, config=config)
        base = router.read_plan(key, 4)
        # Saturate the single tracked slot so the test key stays cold
        # (estimate 1 < threshold 3), and load the primary heavily.
        for _ in range(3):
            engine.armor.observe("occupant")
        for _ in range(10):
            engine.armor.loads.record_request(base.targets[0], now=0.0)

        probed = []

        def drive(generator):
            answers = None
            try:
                while True:
                    (command,) = generator.send(answers)
                    if isinstance(command, ProbeCacheMulti):
                        probed.append(command.server_id)
                        answers = ({key: "value"},)
                    elif isinstance(command, WriteBackMulti):
                        answers = (None,)  # replica repopulation
                    else:
                        raise AssertionError(f"unexpected {command!r}")
            except StopIteration as stop:
                return stop.value

        # The key is not sketch-elected, so strict ring order applies
        # even though the primary reads as heavily loaded.
        outcome = drive(engine.retrieve(key, STEADY_REPLICATED, now=0.0))
        assert probed == [base.targets[0]]
        assert outcome.served_by == base.targets[0]

    def test_hot_key_reads_from_less_loaded_replica(self):
        router = ReplicatedProteusRouter(4, replicas=2, ring_size=2 ** 20)
        key = self._replicated_key(router)
        config = RetrievalConfig(hot_key_cache=True, d_choices=2)
        engine = ReplicatedRetrievalEngine(router, config=config)
        base = router.read_plan(key, 4)
        primary, secondary = base.targets[0], base.targets[1]
        engine.armor.observe(key)  # sketch-elected: d-choices applies
        for _ in range(10):
            engine.armor.loads.record_request(primary, now=0.0)

        probed = []

        def drive(generator):
            answers = None
            try:
                while True:
                    (command,) = generator.send(answers)
                    if isinstance(command, WriteBackMulti):
                        answers = (None,)  # replica repopulation
                        continue
                    assert isinstance(command, ProbeCacheMulti)
                    probed.append(command.server_id)
                    answers = ({key: "value"},)
            except StopIteration as stop:
                return stop.value

        outcome = drive(engine.retrieve(key, STEADY_REPLICATED, now=0.0))
        assert probed[0] == secondary
        assert outcome.served_by == secondary
        assert not outcome.touched_database

    def test_replicated_local_hit_skips_all_probes(self):
        router = ReplicatedProteusRouter(4, replicas=2, ring_size=2 ** 20)
        key = self._replicated_key(router)
        config = RetrievalConfig(hot_key_cache=True, hot_key_ttl=1.0)
        engine = ReplicatedRetrievalEngine(router, config=config)
        engine.armor.observe(key)
        engine.armor.admit(key, "local-copy", now=0.0)

        def drive(generator):
            try:
                generator.send(None)
            except StopIteration as stop:
                return stop.value
            raise AssertionError("expected zero commands")

        outcome = drive(engine.retrieve(key, STEADY_REPLICATED, now=0.5))
        assert outcome.local
        assert outcome.value == "local-copy"
        assert outcome.served_by is None
        assert outcome.probes == 0


STEADY_REPLICATED = RoutingEpochs(new=4, old=None, transition=None)
