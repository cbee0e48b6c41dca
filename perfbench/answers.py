"""The versioned database behind the live tier, and the answer checker.

Every value encodes the key it belongs to and a version number, padded
to a fixed size with a filler derived from both, so the checker can tell
a correct answer from a stale one (an older version than the latest
acknowledged ``put``) and from a corrupt one (wrong key, unknown version,
damaged bytes).
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

#: answer classes the checker assigns
OK, STALE, FAILED = "ok", "stale", "failed"


def encode(key: str, version: int, size: int) -> bytes:
    """The value of *key* at *version*, exactly *size* bytes long."""
    head = f"{key}|{version}|".encode("ascii")
    if len(head) > size:
        raise ValueError(f"value size {size} too small for {head!r}")
    filler = bytes([97 + (len(key) * 7 + version) % 26])
    return head + filler * (size - len(head))


def decode(key: str, value: bytes, size: int) -> Optional[int]:
    """The version *value* carries for *key*, or ``None`` when the value
    is not one :func:`encode` would produce for *key*."""
    if not isinstance(value, (bytes, bytearray)) or len(value) != size:
        return None
    parts = bytes(value).split(b"|", 2)
    if len(parts) != 3 or parts[0] != key.encode("ascii"):
        return None
    try:
        version = int(parts[1])
    except ValueError:
        return None
    if version < 0 or value != encode(key, version, size):
        return None
    return version


class VersionedDatabase:
    """The authoritative store: key -> current version.

    Its reads are counted; it answers immediately (its own time is not
    what the benchmark measures).
    """

    def __init__(self, keys: Iterable[str], value_size: int) -> None:
        self.value_size = value_size
        self.versions: Dict[str, int] = {key: 0 for key in keys}
        #: key -> encoded current value
        self.values: Dict[str, bytes] = {
            key: encode(key, 0, value_size) for key in self.versions
        }
        self.reads = 0

    async def read(self, key: str) -> bytes:
        self.reads += 1
        return self.values[key]

    def bump(self, key: str) -> bytes:
        """Advance *key* to its next version; returns the new value."""
        self.versions[key] += 1
        value = self.values[key] = encode(
            key, self.versions[key], self.value_size
        )
        return value


class Checker:
    """Classifies every answer and keeps the tallies.

    ``acked`` maps a key to the latest version whose ``put`` was
    acknowledged; a fetch must answer at least the version acknowledged
    before it began.
    """

    def __init__(self, db: VersionedDatabase) -> None:
        self.db = db
        self.acked: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.stale = 0

    def snapshot(self, keys: Iterable[str]) -> Dict[str, int]:
        """The acknowledged versions a fetch of *keys* must not undercut."""
        acked = self.acked
        return {key: acked[key] for key in keys if key in acked}

    def classify(self, key: str, value, floor: int = 0) -> str:
        """One answer: ``OK``, ``STALE`` or ``FAILED``."""
        if value == self.db.values[key]:
            return OK
        version = decode(key, value, self.db.value_size)
        if version is None or version > self.db.versions[key]:
            return FAILED
        return STALE if version < floor else OK

    def check_page(
        self, keys, results: Mapping, floors: Mapping[str, int]
    ) -> int:
        """Tally a ``fetch_many`` answer; returns the keys answered
        correctly (stale answers are not counted as correct)."""
        correct = 0
        self.attempted += len(keys)
        for key in keys:
            result = results.get(key)
            if result is None or result.value is None:
                self.failed += 1
                continue
            verdict = self.classify(key, result.value, floors.get(key, 0))
            if verdict == OK:
                correct += 1
            elif verdict == STALE:
                self.stale += 1
            else:
                self.failed += 1
        return correct

    def check_error(self, keys) -> None:
        """A ``fetch_many`` that raised: every key failed."""
        self.attempted += len(keys)
        self.failed += len(keys)

    def put_done(self, key: str, version: int, ok: bool) -> None:
        """A ``put`` of *version* returned (``ok``) or raised."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        elif version > self.acked.get(key, -1):
            self.acked[key] = version
