"""Property: batched retrieval is outcome-equivalent to sequential.

For any key set, any per-key cache placement, and any transition state,
:meth:`RetrievalEngine.retrieve_many` must return the same values, the same
:class:`FetchPath` per key, the same :class:`FetchStats` counts, and leave
the same cluster state behind as running :meth:`RetrievalEngine.retrieve`
once per distinct key — the contract every driver's ``fetch_many`` rests on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.retrieval import (
    CheckDigestMulti,
    ProbeCacheMulti,
    ReadDatabase,
    RetrievalConfig,
    RetrievalEngine,
    WaitForLeader,
    WriteBackMulti,
)
from repro.core.router import ProteusRouter
from repro.core.transition import RoutingEpochs, Transition

ROUTER = ProteusRouter(5, ring_size=2 ** 20)
STEADY = RoutingEpochs(new=4, old=None, transition=None)
DRAINING = RoutingEpochs(
    new=3, old=5,
    transition=Transition(n_old=5, n_new=3, started_at=0.0, ttl=60.0),
)


class StoreDriver:
    """Dict-backed executor for the round protocol both planners speak."""

    def __init__(self, stores, db, digests):
        self.stores = {sid: dict(store) for sid, store in stores.items()}
        self.db = db
        self.digests = digests

    def run_batch(self, generator):
        answers = None
        try:
            while True:
                round_ = generator.send(answers)
                results = []
                for command in round_:
                    if isinstance(command, ProbeCacheMulti):
                        store = self.stores.get(command.server_id, {})
                        results.append(
                            {k: store[k] for k in command.keys if k in store}
                        )
                    elif isinstance(command, CheckDigestMulti):
                        digest = self.digests.get(command.server_id, ())
                        results.append([k in digest for k in command.keys])
                    elif isinstance(command, WaitForLeader):
                        results.append(False)
                    elif isinstance(command, ReadDatabase):
                        results.append(self.db[command.key])
                    elif isinstance(command, WriteBackMulti):
                        store = self.stores.setdefault(command.server_id, {})
                        for key, value in command.items:
                            store[key] = value
                        results.append(None)
                answers = tuple(results)
        except StopIteration as stop:
            return stop.value


#: per-key placement: nowhere, at the new owner, or at the old owner with
#: the old owner's digest advertising it (the "hot data" state).
PLACEMENTS = st.sampled_from(["absent", "cached_new", "hot_old", "lying_digest"])


@st.composite
def cluster_states(draw):
    indexes = draw(
        st.lists(
            st.integers(min_value=0, max_value=400),
            min_size=1, max_size=25, unique=True,
        )
    )
    epochs = draw(st.sampled_from([STEADY, DRAINING]))
    stores, digests, db = {}, {}, {}
    keys = []
    for i in indexes:
        key = f"page:{i}"
        keys.append(key)
        placement = draw(PLACEMENTS)
        db[key] = f"db-{key}"
        new_id = ROUTER.route(key, epochs.new)
        if placement == "cached_new":
            stores.setdefault(new_id, {})[key] = f"cached-{key}"
        elif epochs.in_transition and placement in ("hot_old", "lying_digest"):
            old_id = ROUTER.route(key, epochs.old)
            digests.setdefault(old_id, set()).add(key)
            if placement == "hot_old":
                stores.setdefault(old_id, {})[key] = f"hot-{key}"
    return keys, epochs, stores, digests, db


@given(state=cluster_states(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_batch_outcomes_equal_sequential_outcomes(state, data):
    keys, epochs, stores, digests, db = state
    chunk = data.draw(st.sampled_from([0, 1, 2, 64]))
    config = RetrievalConfig(max_multiget_keys=chunk)

    batch_engine = RetrievalEngine(ROUTER, config=config)
    batch_driver = StoreDriver(stores, db, digests)
    batched = batch_driver.run_batch(batch_engine.retrieve_many(keys, epochs))

    seq_engine = RetrievalEngine(ROUTER)
    seq_driver = StoreDriver(stores, db, digests)
    sequential = {
        key: seq_driver.run_batch(seq_engine.retrieve(key, epochs))
        for key in keys
    }

    assert set(batched) == set(sequential)
    for key in keys:
        assert batched[key].value == sequential[key].value, key
        assert batched[key].path is sequential[key].path, key
        assert batched[key].new_server == sequential[key].new_server, key
        assert batched[key].old_server == sequential[key].old_server, key
    assert batch_engine.stats.counts == seq_engine.stats.counts
    # Same final cluster state: every write-back landed identically.
    assert batch_driver.stores == seq_driver.stores


@given(state=cluster_states())
@settings(max_examples=60, deadline=None)
def test_batch_probes_each_server_at_most_once_per_epoch(state):
    keys, epochs, stores, digests, db = state
    engine = RetrievalEngine(ROUTER)  # default chunking (64) never splits here

    probed = []

    class CountingDriver(StoreDriver):
        def run_batch(self, generator):
            answers = None
            try:
                while True:
                    round_ = generator.send(answers)
                    results = []
                    for command in round_:
                        if isinstance(command, ProbeCacheMulti):
                            probed.append(command.server_id)
                            store = self.stores.get(command.server_id, {})
                            results.append(
                                {
                                    k: store[k]
                                    for k in command.keys if k in store
                                }
                            )
                        elif isinstance(command, CheckDigestMulti):
                            digest = self.digests.get(command.server_id, ())
                            results.append(
                                [k in digest for k in command.keys]
                            )
                        elif isinstance(command, ReadDatabase):
                            results.append(self.db[command.key])
                        elif isinstance(command, WriteBackMulti):
                            store = self.stores.setdefault(
                                command.server_id, {}
                            )
                            for key, value in command.items:
                                store[key] = value
                            results.append(None)
                    answers = tuple(results)
            except StopIteration as stop:
                return stop.value

    CountingDriver(stores, db, digests).run_batch(
        engine.retrieve_many(keys, epochs)
    )
    # New-epoch probes + old-epoch probes: each server at most once each.
    epoch_count = 2 if epochs.in_transition else 1
    from collections import Counter

    for server_id, count in Counter(probed).items():
        assert count <= epoch_count, (server_id, probed)
