"""The answer checker: correct, stale and corrupt values.

Run with ``python3 -m pytest perfbench/tests``.
"""

import asyncio
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from answers import (  # noqa: E402
    FAILED,
    OK,
    STALE,
    Checker,
    VersionedDatabase,
    decode,
    encode,
)

KEYS = ["obj:000001", "obj:000002", "obj:000003"]


def make_checker(size=64):
    db = VersionedDatabase(KEYS, size)
    return db, Checker(db)


def answer(value):
    return SimpleNamespace(value=value)


def test_encode_decode_round_trip():
    value = encode("obj:000001", 12, 64)
    assert len(value) == 64
    assert decode("obj:000001", value, 64) == 12
    assert decode("obj:000002", value, 64) is None


def test_database_reads_are_counted_and_bumps_version():
    db, _ = make_checker()
    assert asyncio.run(db.read("obj:000001")) == encode("obj:000001", 0, 64)
    db.bump("obj:000001")
    assert asyncio.run(db.read("obj:000001")) == encode("obj:000001", 1, 64)
    assert db.reads == 2


def test_checker_catches_a_deliberately_corrupted_value():
    db, checker = make_checker()
    good = db.values["obj:000001"]
    flipped = good[:-1] + bytes([good[-1] ^ 0x01])
    assert checker.classify("obj:000001", good) == OK
    assert checker.classify("obj:000001", flipped) == FAILED
    assert checker.classify("obj:000001", good[:-1]) == FAILED
    # Another key's intact value is corrupt for this key.
    assert checker.classify("obj:000001", db.values["obj:000002"]) == FAILED
    # A version the database never had is corrupt too.
    assert checker.classify("obj:000001", encode("obj:000001", 5, 64)) == FAILED


def test_older_version_is_stale_only_below_the_acknowledged_floor():
    db, checker = make_checker()
    old = db.values["obj:000001"]
    db.bump("obj:000001")
    # Not yet acknowledged: the old version is still an allowed answer.
    assert checker.classify("obj:000001", old, floor=0) == OK
    checker.put_done("obj:000001", 1, ok=True)
    floors = checker.snapshot(KEYS)
    assert floors == {"obj:000001": 1}
    assert checker.classify("obj:000001", old, floors["obj:000001"]) == STALE


def test_check_page_tallies_ok_stale_missing_and_corrupt():
    db, checker = make_checker()
    old = db.values["obj:000002"]
    db.bump("obj:000002")
    checker.put_done("obj:000002", 1, ok=True)
    floors = checker.snapshot(KEYS)
    results = {
        "obj:000001": answer(db.values["obj:000001"]),
        "obj:000002": answer(old),
        "obj:000003": answer(None),  # e.g. a shed fetch
    }
    correct = checker.check_page(KEYS, results, floors)
    assert correct == 1
    assert checker.stale == 1
    assert checker.failed == 1
    assert checker.attempted == 3 + 1  # three keys and the put


def test_failed_put_and_raised_fetch_count_as_failures():
    _, checker = make_checker()
    checker.put_done("obj:000001", 1, ok=False)
    checker.check_error(KEYS)
    assert checker.attempted == 1 + len(KEYS)
    assert checker.failed == 1 + len(KEYS)
    assert checker.acked == {}
