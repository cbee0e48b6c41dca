"""Degraded-mode engine paths: the engine serves *around* cache faults.

A driver may answer any probe, digest consult, or write-back with
``SERVER_UNAVAILABLE``; these tests pin the contract from the scalar and
batch planners alike: the value is always served (from the old owner or
the database), the path is ``DEGRADED_DB`` exactly when a fault *forced*
the database read, a failed write-back degrades the outcome without
changing its path, and the per-event counters in ``FetchStats`` agree
between ``retrieve`` and ``retrieve_many``.
"""

import dataclasses

from repro.core.retrieval import (
    CheckDigestMulti,
    FetchPath,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalEngine,
    SERVER_UNAVAILABLE,
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
#: scale-up drain: old owners of moved keys are spread over several
#: servers, so killing one still leaves other keys' HIT_OLD path alive
GROWING = RoutingEpochs(
    new=4, old=3, transition=Transition(n_old=3, n_new=4, started_at=0.0, ttl=60.0)
)


def remapped_key():
    for i in range(10_000):
        key = f"page:{i}"
        if ROUTER.route(key, 4) != ROUTER.route(key, 3):
            return key
    raise AssertionError("no remapped key found")


KEY = remapped_key()
NEW_ID = ROUTER.route(KEY, 3)
OLD_ID = ROUTER.route(KEY, 4)


class FaultySubstrate:
    """A pure in-memory substrate with a per-server health map.

    Drives both the scalar and the batch generator from the *same* state
    and the same round executor, which is what makes the scalar-vs-batch
    parity assertions meaningful.
    """

    def __init__(self, down=(), digest_down=(), digest_yes=(), stores=None):
        self.down = set(down)
        self.digest_down = set(digest_down)
        self.digest_yes = set(digest_yes)
        self.stores = stores or {}
        self.db_reads = []
        self.written = []

    def _value(self, server_id, key):
        return self.stores.get(server_id, {}).get(key)

    def scalar(self, engine, key, epochs):
        return self._drive(engine.retrieve(key, epochs))

    def batch(self, engine, keys, epochs):
        return self._drive(engine.retrieve_many(keys, epochs))

    def _drive(self, gen):
        answers = None
        try:
            while True:
                round_ = gen.send(answers)
                answers = tuple(
                    self._answer_batched(command) for command in round_
                )
        except StopIteration as stop:
            return stop.value

    def _answer_batched(self, command):
        if isinstance(command, ProbeCacheMulti):
            if command.server_id in self.down:
                return SERVER_UNAVAILABLE
            hits = {}
            for key in command.keys:
                value = self._value(command.server_id, key)
                if value is not None:
                    hits[key] = value
            return hits
        if isinstance(command, WriteBackMulti):
            if command.server_id in self.down:
                return SERVER_UNAVAILABLE
            for key, _ in command.items:
                self.written.append((command.server_id, key))
            return None
        if isinstance(command, CheckDigestMulti):
            if command.server_id in self.digest_down:
                return SERVER_UNAVAILABLE
            return [key in self.digest_yes for key in command.keys]
        if isinstance(command, WaitForLeader):
            return False
        if isinstance(command, ReadDatabase):
            self.db_reads.append(command.key)
            return f"db:{command.key}"
        raise AssertionError(f"unexpected command {command!r}")


class TestScalarDegradedPaths:
    def test_dead_new_owner_forces_degraded_db(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate(down={NEW_ID})
        outcome = substrate.scalar(engine, KEY, STEADY)
        assert outcome.path is FetchPath.DEGRADED_DB
        assert outcome.value == f"db:{KEY}"
        assert outcome.degraded
        assert outcome.touched_database
        # probe skipped AND the write-back onto the dead server skipped
        assert engine.stats.degraded["probe_new"] == 1
        assert engine.stats.degraded["writeback"] == 1
        assert engine.stats.database_fraction == 1.0

    def test_unknown_digest_forces_degraded_db(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate(digest_down={OLD_ID})
        outcome = substrate.scalar(engine, KEY, DRAINING)
        assert outcome.path is FetchPath.DEGRADED_DB
        assert outcome.degraded
        assert engine.stats.degraded["digest"] == 1
        assert engine.stats.degraded["probe_old"] == 0

    def test_dead_old_owner_on_digest_hit_degrades(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate(down={OLD_ID}, digest_yes={KEY})
        outcome = substrate.scalar(engine, KEY, DRAINING)
        assert outcome.path is FetchPath.DEGRADED_DB
        assert engine.stats.degraded["probe_old"] == 1
        # the value was still installed at the (healthy) new owner
        assert (NEW_ID, KEY) in substrate.written

    def test_failed_writeback_never_fails_a_hit_old(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate(
            down={NEW_ID},
            digest_yes={KEY},
            stores={OLD_ID: {KEY: "hot"}},
        )
        outcome = substrate.scalar(engine, KEY, DRAINING)
        # The old owner still has the hot copy: served, not degraded to DB.
        assert outcome.path is FetchPath.HIT_OLD
        assert outcome.value == "hot"
        assert outcome.degraded
        assert not outcome.touched_database
        assert engine.stats.degraded["probe_new"] == 1
        assert engine.stats.degraded["writeback"] == 1
        assert substrate.db_reads == []

    def test_failed_writeback_after_plain_miss_keeps_miss_path(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate()
        # healthy probe (miss), healthy DB, then the write-back fails
        substrate.down = set()  # probes healthy...

        class WritebackDown(FaultySubstrate):
            def _answer_batched(self, command):
                if isinstance(command, WriteBackMulti):
                    return SERVER_UNAVAILABLE
                return super()._answer_batched(command)

        substrate = WritebackDown()
        outcome = substrate.scalar(engine, KEY, STEADY)
        # no fault forced the DB read — an ordinary miss stays MISS_DB
        assert outcome.path is FetchPath.MISS_DB
        assert outcome.degraded
        assert engine.stats.degraded["writeback"] == 1
        assert engine.stats.counts[FetchPath.DEGRADED_DB] == 0

    def test_healthy_paths_record_nothing_degraded(self):
        engine = RetrievalEngine(ROUTER)
        substrate = FaultySubstrate(digest_yes={KEY})
        outcome = substrate.scalar(engine, KEY, DRAINING)
        assert outcome.path is FetchPath.FALSE_POSITIVE_DB
        assert not outcome.degraded
        assert engine.stats.degraded_events == 0


class TestBatchScalarParity:
    def run_both(
        self, down=(), digest_down=(), digest_yes=(), stores=None, keys=None,
        epochs=DRAINING,
    ):
        keys = keys or [f"page:{i}" for i in range(24)]
        scalar_engine = RetrievalEngine(ROUTER)
        batch_engine = RetrievalEngine(ROUTER)

        def fresh(engine_, method):
            substrate = FaultySubstrate(
                down=down, digest_down=digest_down, digest_yes=digest_yes,
                stores={
                    sid: dict(items) for sid, items in (stores or {}).items()
                },
            )
            if method == "scalar":
                return {
                    key: substrate.scalar(engine_, key, epochs)
                    for key in keys
                }
            return substrate.batch(engine_, keys, epochs)

        scalar_outcomes = fresh(scalar_engine, "scalar")
        batch_outcomes = fresh(batch_engine, "batch")
        assert set(scalar_outcomes) == set(batch_outcomes)
        for key in keys:
            a, b = scalar_outcomes[key], batch_outcomes[key]
            assert a.path == b.path, key
            assert a.value == b.value, key
            assert a.degraded == b.degraded, key
        assert scalar_engine.stats.counts == batch_engine.stats.counts
        assert scalar_engine.stats.degraded == batch_engine.stats.degraded
        return scalar_engine.stats

    def test_parity_with_one_dead_server(self):
        stats = self.run_both(down={0})
        assert stats.degraded_events > 0
        assert stats.counts[FetchPath.DEGRADED_DB] > 0

    def test_parity_with_dead_old_owner_and_hot_copies(self):
        # Scale-up drain: moved keys come from several old owners, so
        # killing one exercises the dead-old-owner branch while the other
        # keys' hot copies still serve HIT_OLD.
        keys = [f"page:{i}" for i in range(24)]
        moved = [k for k in keys if ROUTER.route(k, 3) != ROUTER.route(k, 4)]
        dead = ROUTER.route(moved[0], 3)
        assert any(ROUTER.route(k, 3) != dead for k in moved)
        stores = {}
        for key in keys:
            stores.setdefault(ROUTER.route(key, 3), {})[key] = f"hot:{key}"
        stats = self.run_both(
            down={dead}, digest_yes=set(keys), stores=stores, keys=keys,
            epochs=GROWING,
        )
        assert stats.counts[FetchPath.HIT_OLD] > 0
        assert stats.degraded["probe_old"] > 0

    def test_parity_with_unknown_digest(self):
        stats = self.run_both(digest_down={0, 1, 2, 3, 4})
        assert stats.degraded["digest"] > 0
        assert stats.counts[FetchPath.DEGRADED_DB] > 0

    def test_parity_healthy_baseline(self):
        stats = self.run_both()
        assert stats.degraded_events == 0
