"""Smooth provisioning transition (paper Section IV, Algorithm 2).

When the provisioning policy changes the active count ``n(t) -> n(t+1)``:

1. every cache server snapshots its counting-Bloom-filter digest and the
   snapshots are broadcast to all web servers (a few KB each);
2. requests immediately route with the *new* mapping ``H_{t+1}``; on a miss
   at the new server, the web server consults the *old* owner's digest and,
   on a digest hit, fetches from the old server ("hot" data), else from the
   database; either way it writes the value into the new server;
3. after ``TTL`` seconds the servers being drained are powered off: every
   key touched within the window has already migrated, anything untouched is
   no longer "hot" and may be discarded (Section IV-A properties).

:class:`TransitionManager` is the state machine for this protocol.  It is
deliberately storage-agnostic: it tracks *which* mapping epochs are live and
*which* digests are in force; the actual fetch path (Algorithm 2 proper)
lives in :class:`repro.web.frontend.WebServer`, which consults this manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bloom.bloom import BloomFilter
from repro.errors import TransitionError

#: Default drain window.  The paper defines "hot" as touched within the last
#: TTL seconds; 60 simulated seconds keeps benchmark runs short while leaving
#: the ratio TTL >> inter-arrival time realistic.
DEFAULT_TTL = 60.0


@dataclass
class Transition:
    """One in-flight provisioning transition ``n_old -> n_new``.

    Attributes:
        n_old: active count under the outgoing mapping ``H_t``.
        n_new: active count under the incoming mapping ``H_{t+1}``.
        started_at: simulation time the digests were broadcast.
        ttl: drain-window length; old owners stay queryable until
            ``started_at + ttl``.
        digests: per-server digest snapshots broadcast at the start.
        ceding: old-mapping owners that may lose keys in this transition,
            as reported by the router's backend remap metadata
            (:meth:`~repro.core.ring.RingBackend.ceding_servers`), or
            ``None`` when the initiator did not supply the hint.
    """

    n_old: int
    n_new: int
    started_at: float
    ttl: float
    digests: Dict[int, BloomFilter] = field(default_factory=dict)
    ceding: Optional[List[int]] = None

    @property
    def deadline(self) -> float:
        """Time at which drained servers may power off."""
        return self.started_at + self.ttl

    @property
    def is_scale_down(self) -> bool:
        return self.n_new < self.n_old

    @property
    def is_scale_up(self) -> bool:
        return self.n_new > self.n_old

    def draining_servers(self) -> List[int]:
        """Servers that power off when the window closes (scale-down only)."""
        return list(range(self.n_new, self.n_old)) if self.is_scale_down else []

    def ceding_servers(self) -> List[int]:
        """Old owners whose keys may have moved — the digest-consult set.

        Backend remap metadata when the initiator supplied it (see
        :meth:`TransitionManager.begin`); otherwise the conservative
        every-old-owner set, which is correct for any routing scheme.
        Distinct from :meth:`draining_servers`, the *physical* power-off
        set: on scale-up nothing drains but low-numbered servers still
        cede ranges to the newcomers.
        """
        if self.ceding is not None:
            return list(self.ceding)
        return list(range(self.n_old))

    def expired(self, now: float) -> bool:
        """True once the drain window has closed."""
        return now >= self.deadline

    def digest_hit(self, server: int, key, hashes=None) -> bool:
        """Check *key* against *server*'s broadcast digest.

        Returns False when no digest was broadcast for *server* — routing
        then skips the old server entirely and goes straight to the DB,
        which is the safe (if slower) fallback.  Pass *hashes* (a
        :class:`~repro.bloom.hashing.KeyHashes`) to reuse the double-hash
        pair the retrieval engine already computed for this key.
        """
        digest = self.digests.get(server)
        return digest is not None and digest.contains(key, hashes)

    def digest_hit_many(self, server: int, keys, hashes=()) -> List[bool]:
        """Batched :meth:`digest_hit`: one vectorized membership pass.

        Element ``i`` equals ``digest_hit(server, keys[i])`` exactly — the
        answer a grouped :class:`~repro.core.retrieval.CheckDigestMulti`
        probe carries is bit-identical to per-key consults.  No digest for
        *server* means all-False (same safe fallback as the scalar path).
        Pass *hashes* (per-key :class:`~repro.bloom.hashing.KeyHashes`
        aligned with *keys*) to reuse already-computed double-hash pairs.
        """
        keys = list(keys)
        digest = self.digests.get(server)
        if digest is None or not keys:
            return [False] * len(keys)
        if len(keys) == 1:
            # The one-key planner's consult: a scalar probe beats a
            # one-element vectorized pass.
            return [digest.contains(keys[0], hashes[0] if hashes else None)]
        bases = None
        if hashes:
            import numpy as np

            pairs = [h.digest_bases() for h in hashes]
            bases = (
                np.array([h1 for h1, _ in pairs], dtype=np.uint64),
                np.array([h2 for _, h2 in pairs], dtype=np.uint64),
            )
        return digest.contains_many(keys, bases)


class TransitionManager:
    """Tracks the current transition epoch for one cache cluster.

    A new transition may begin only after the previous drain window has
    closed — the paper's provisioning loop runs every 30 minutes with a TTL
    of seconds, so overlap indicates a driver bug and raises
    :class:`TransitionError`.
    """

    def __init__(self, initial_active: int, ttl: float = DEFAULT_TTL) -> None:
        if initial_active < 1:
            raise TransitionError(
                f"initial_active must be >= 1, got {initial_active}"
            )
        if ttl <= 0:
            raise TransitionError(f"ttl must be positive, got {ttl}")
        self.ttl = ttl
        self._active = initial_active
        self._current: Optional[Transition] = None
        #: transitions that completed, oldest first (for accounting/tests)
        self.history: List[Transition] = []
        #: callbacks fired with the list of powered-off servers when a
        #: scale-down drain window closes
        self.on_power_off: List[Callable[[List[int], float], None]] = []

    # --------------------------------------------------------------- state

    @property
    def active_count(self) -> int:
        """The committed active count (the *new* count once a transition starts)."""
        return self._active

    def current(self, now: float) -> Optional[Transition]:
        """The in-flight transition, auto-completing it if the window closed."""
        self._expire(now)
        return self._current

    def in_transition(self, now: float) -> bool:
        """True while a drain window is open."""
        return self.current(now) is not None

    # ---------------------------------------------------------------- ops

    def begin(
        self,
        n_new: int,
        now: float,
        digests: Optional[Dict[int, BloomFilter]] = None,
        ceding: Optional[List[int]] = None,
        ttl: Optional[float] = None,
    ) -> Optional[Transition]:
        """Start a transition to *n_new* at time *now*.

        Args:
            n_new: target active count.
            now: current simulation time.
            digests: digest snapshots for the servers web servers may need to
                consult — the *old owners* of remapped keys.  For scale-down
                that is (at least) the draining servers; for scale-up, the
                servers ceding ranges to the newcomers.
            ceding: the old owners that may lose keys, per the router
                backend's remap metadata
                (:meth:`~repro.core.router.Router.ceding_servers`); stored
                on the transition so migrators and digest consumers agree
                on the consult set.  ``None`` keeps the conservative
                every-old-owner default.
            ttl: drain-window length for *this* transition only — set by an
                adaptive TTL policy sizing the window from observed
                remap-miss decay.  ``None`` keeps the manager's configured
                constant.

        Returns:
            The new :class:`Transition`, or ``None`` when ``n_new`` equals
            the current count (no-op).

        Raises:
            TransitionError: a previous drain window is still open, or
                ``n_new`` / ``ttl`` is out of range.
        """
        self._expire(now)
        if self._current is not None:
            raise TransitionError(
                f"transition {self._current.n_old}->{self._current.n_new} "
                f"still draining until {self._current.deadline}"
            )
        if n_new < 1:
            raise TransitionError(f"n_new must be >= 1, got {n_new}")
        if ttl is not None and ttl <= 0:
            raise TransitionError(f"ttl must be positive, got {ttl}")
        if n_new == self._active:
            return None
        transition = Transition(
            n_old=self._active,
            n_new=n_new,
            started_at=now,
            ttl=self.ttl if ttl is None else ttl,
            digests=dict(digests or {}),
            ceding=list(ceding) if ceding is not None else None,
        )
        self._current = transition
        self._active = n_new
        return transition

    def routing_counts(self, now: float) -> "RoutingEpochs":
        """The (new, old) active counts web servers should route with."""
        transition = self.current(now)
        if transition is None:
            return RoutingEpochs(new=self._active, old=None, transition=None)
        return RoutingEpochs(
            new=transition.n_new, old=transition.n_old, transition=transition
        )

    def force_complete(self, now: float) -> None:
        """Close the drain window early (tests / emergency power-down)."""
        if self._current is None:
            raise TransitionError("no transition in flight")
        self._finish(self._current, now)

    # ------------------------------------------------------------ internal

    def _expire(self, now: float) -> None:
        if self._current is not None and self._current.expired(now):
            self._finish(self._current, self._current.deadline)

    def _finish(self, transition: Transition, when: float) -> None:
        self._current = None
        self.history.append(transition)
        powered_off = transition.draining_servers()
        if powered_off:
            for callback in self.on_power_off:
                callback(powered_off, when)


@dataclass(frozen=True)
class RoutingEpochs:
    """What a web server needs to route one request.

    Attributes:
        new: active count of the authoritative mapping ``H_{t+1}``.
        old: active count of the outgoing mapping ``H_t`` while a drain
            window is open, else ``None``.
        transition: the in-flight transition (digest access), or ``None``.
    """

    new: int
    old: Optional[int]
    transition: Optional[Transition]

    @property
    def in_transition(self) -> bool:
        return self.old is not None
