"""Process model for the synchronous message-passing simulator.

The simulator follows the model of Section 2 of the paper: execution
proceeds in lock-step rounds; in each round every operational process may
send messages (multi-port: to any set of recipients), and every message
sent in a round is delivered within that round.

A protocol is implemented by subclassing :class:`Process` and overriding

* :meth:`Process.on_start` -- one-time initialisation before round 0,
* :meth:`Process.send` -- return the messages to transmit this round,
* :meth:`Process.receive` -- consume the messages delivered this round.

Processes are *round-schedule state machines*: all timing decisions must
be made against the absolute round number passed to ``send``/``receive``
so that the engine's fast-forward (not executing rounds in which no
process is active, not calling a process in rounds it declared idle --
see :meth:`Process.next_activity`) never changes observable behaviour.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Iterable, NamedTuple, Optional

__all__ = [
    "PEER_TABLE_SLOTS",
    "Multicast",
    "Process",
    "ProtocolError",
    "canonical",
    "payload_bits",
    "payload_bits_cached",
    "payload_digest",
    "proves_everyone_else",
    "shared_peers",
]


class ProtocolError(RuntimeError):
    """Raised when a protocol violates the simulator's contract."""


class Multicast(NamedTuple):
    """A message sent to many destinations in one send action.

    The engine expands a multicast into one point-to-point message per
    destination for accounting purposes (the paper's multi-port model
    charges per point-to-point message), but avoids materialising one
    envelope object per recipient.
    """

    dsts: tuple[int, ...]
    payload: Any


# Per-element overhead charged for structured payloads, in bits.  This
# models the encoding of field separators / lengths; the paper's message
# sizes are asymptotic so any small constant works.
_CONTAINER_ELEMENT_OVERHEAD = 1


def payload_bits(payload: Any) -> int:
    """Number of bits charged for transmitting ``payload``.

    The accounting is deliberately simple and deterministic:

    * ``None`` and ``bool`` cost one bit (the paper's algorithms exchange
      one-bit rumors; ``None`` models an empty/flag message),
    * ``int`` costs its binary length (so an ``n``-instance bitmask used
      by the vectorised checkpointing consensus costs ``n`` bits),
    * strings and bytes cost eight bits per character/byte,
    * containers cost the sum of their elements plus one bit per element,
    * objects exposing ``bits_size()`` (e.g. signatures, extant sets)
      report their own size.
    """
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length())
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return 8 * max(1, len(payload))
    if isinstance(payload, bytes):
        return 8 * max(1, len(payload))
    size_fn = getattr(payload, "bits_size", None)
    if size_fn is not None:
        return max(1, int(size_fn()))
    if isinstance(payload, dict):
        total = 0
        for key, value in payload.items():
            total += payload_bits(key) + payload_bits(value)
            total += _CONTAINER_ELEMENT_OVERHEAD
        return max(1, total)
    if isinstance(payload, (tuple, list, set, frozenset)):
        total = 0
        for item in payload:
            total += payload_bits(item) + _CONTAINER_ELEMENT_OVERHEAD
        return max(1, total)
    raise TypeError(f"cannot account bits for payload type {type(payload)!r}")


def payload_bits_cached(
    payload: Any, cache: dict[int, tuple[Any, int]]
) -> int:
    """:func:`payload_bits` memoised by payload identity.

    ``cache`` maps ``id(payload)`` to ``(payload, bits)``; storing the
    payload itself pins the object so its id cannot be recycled while
    the entry lives.  A shard keeps one cache per round: the paper's
    protocols broadcast the same candidate/extant object to every
    neighbour, so within a round the size computation (which walks
    containers recursively) runs once per distinct payload instead of
    once per send group.  Callers must not mutate a payload between
    sends within one round — the same contract the reference engine's
    per-group accounting already implies for deterministic metrics.
    """
    entry = cache.get(id(payload))
    if entry is not None:
        return entry[1]
    bits = payload_bits(payload)
    cache[id(payload)] = (payload, bits)
    return bits


def canonical(value: Any) -> Any:
    """A hashable, process-stable structural form of a payload.

    Rules: primitives pass through; dicts/lists/tuples recurse
    (NamedTuples keep their class name); sets are *sorted* by the repr
    of their canonical elements (so hash randomization cannot reorder
    them); dataclasses, ``__dict__``- and ``__slots__``-objects flatten
    to ``(classname, ((field, value), ...))``.  The result contains only
    primitives, strings and tuples, so its ``repr`` — and therefore
    :func:`payload_digest` — is identical across interpreter processes.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                sorted(
                    ((canonical(k), canonical(v)) for k, v in value.items()),
                    key=repr,
                )
            ),
        )
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):  # NamedTuple
            return (type(value).__name__, tuple(canonical(v) for v in value))
        return ("tuple", tuple(canonical(v) for v in value))
    if isinstance(value, list):
        return ("list", tuple(canonical(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((canonical(v) for v in value), key=repr)))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (field.name, canonical(getattr(value, field.name)))
                for field in dataclasses.fields(value)
            ),
        )
    if hasattr(value, "__dict__"):
        return (
            type(value).__name__,
            tuple(
                sorted((key, canonical(val)) for key, val in vars(value).items())
            ),
        )
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        if isinstance(slots, str):
            slots = (slots,)
        return (
            type(value).__name__,
            tuple((name, canonical(getattr(value, name))) for name in slots),
        )
    raise TypeError(f"cannot canonicalise payload type {type(value)!r}")


def payload_digest(payload: Any) -> str:
    """A 64-bit hex digest of :func:`canonical` form, the trace's notion
    of message identity."""
    text = repr(canonical(payload)).encode("utf-8", "backslashreplace")
    return hashlib.sha256(text).hexdigest()[:16]


#: Bound of the shared peer tables: at most this many destination slots
#: (``n * (n - 1)`` per process count ``n`` kept), the least recently
#: used count dropped first and the newest always kept.  2²² slots
#: (32 MiB of tuple pointers at most) hold one complete table up to
#: ``n = 2048``, or several smaller ones.
PEER_TABLE_SLOTS = 1 << 22

# n -> (tuple(range(n)), [pid -> every pid but pid, or None until asked])
_peer_tables: dict[int, tuple[tuple[int, ...], list]] = {}


def shared_peers(n: int, pid: int) -> Optional[tuple[int, ...]]:
    """The peer tuple :meth:`Process.everyone_else` handed to ``(n,
    pid)``, or ``None`` if none is held now.  Builds and evicts nothing:
    the first half of :func:`proves_everyone_else`."""
    table = _peer_tables.get(n)
    return None if table is None else table[1][pid]


def proves_everyone_else(
    dsts: tuple[int, ...], pid: int, universe: frozenset[int]
) -> bool:
    """Whether ``dsts`` is every pid of ``universe`` (``frozenset(range(n))``)
    but ``pid``: by identity with the peer tuple
    :meth:`Process.everyone_else` handed ``(n, pid)``, else by a set
    difference.  The one statement of the broadcast column's proof, run
    by :meth:`repro.sim.shard.Shard.send` (the engine's and every
    :mod:`repro.net` host's), which pins a proved tuple per pid so that
    it runs once per tuple object; a pin needs an immutable ``dsts``, so
    it only asks about a ``tuple``."""
    n = len(universe)
    return len(dsts) == n - 1 > 0 and (
        dsts is shared_peers(n, pid) or universe.difference(dsts) == {pid}
    )


def _peer_table(n: int) -> tuple[tuple[int, ...], list]:
    """The table for ``n``, made the most recently used one."""
    table = _peer_tables.pop(n, None)
    if table is None:
        while _peer_tables and (
            n * (n - 1) + sum(k * (k - 1) for k in _peer_tables)
            > PEER_TABLE_SLOTS
        ):
            del _peer_tables[next(iter(_peer_tables))]
        table = (tuple(range(n)), [None] * n)
    _peer_tables[n] = table
    return table


class Process:
    """Base class for protocol participants.

    Attributes
    ----------
    pid:
        The process name, an integer in ``[0, n)``.  The paper names
        nodes ``1..n``; we use zero-based names throughout.
    n:
        Total number of processes in the system.
    halted:
        Set by the protocol (via :meth:`halt`) once the process has
        finished; a halted process neither sends nor receives.  Halting
        is voluntary and distinct from crashing.
    decision:
        The decided value, or ``None`` while undecided.  Assigning a
        decision is irrevocable (enforced by :meth:`decide`).
    """

    def __init__(self, pid: int, n: int):
        self.pid = pid
        self.n = n
        self.halted = False
        self.decision: Any = None
        self._decided = False
        # filled by everyone_else(); the ``_cache`` prefix keeps it out
        # of state_digest
        self._cache_peers: Optional[tuple[int, ...]] = None

    # -- protocol hooks ------------------------------------------------

    def on_start(self) -> None:
        """One-time initialisation invoked before round 0."""

    def send(self, rnd: int) -> Iterable[Any]:
        """Return messages to transmit in round ``rnd``.

        Each item is either a ``(dst, payload)`` tuple or a
        :class:`Multicast`.  The default sends nothing.
        """
        return ()

    def receive(self, rnd: int, inbox: list[tuple[int, Any]]) -> None:
        """Consume messages delivered in round ``rnd``.

        ``inbox`` holds ``(src, payload)`` pairs for every message sent
        to this process in this round, in ascending sender pid and, for
        one sender, in the order it sent them -- the same list on every
        backend.  The list is the receiver's own: it may be kept or
        mutated.

        Called in every executed round in which something was delivered
        to this process, and with an empty inbox in every executed round
        in which the process is *awake* -- so protocols such as local
        probing can count per-round receptions.  A process sleeps only
        through rounds it declared idle itself (:meth:`next_activity`);
        one that keeps the default is called every executed round.
        """

    def next_activity(self, rnd: int) -> int:
        """Earliest round after ``rnd`` at which this process may act
        spontaneously (send without having received anything).

        The answer ``w`` is a promise about every round ``r`` with
        ``rnd < r < w``, for as long as nothing is delivered to the
        process: ``send(r)`` would return no message and
        ``receive(r, [])`` would leave the process as it is (same
        ``state_digest``, not halted), so an engine may skip both calls.
        The first delivery ends the promise: the process gets that
        round's ``receive`` (its ``send`` for that round was already
        skipped) and is called normally from the next round on.

        It is asked only after a round ``rnd`` in which the process
        received nothing and none of its messages was delivered: by the
        optimized engine of each process that was called, sent nothing
        and received nothing (it then sleeps until ``w``; a round no
        process is awake in is not executed at all), by the reference
        loop of every process after a round that delivered nothing.  An
        answer ``<= rnd`` is a :class:`ProtocolError`.  The default,
        ``rnd + 1``, means "always called"; override it only where the
        idle stretch is a fact of the round schedule, never a guess
        (``tests/test_wake_contract.py`` holds every family to it).
        """
        return rnd + 1

    # -- helpers --------------------------------------------------------

    def everyone_else(self) -> tuple[int, ...]:
        """Every pid but this one, ascending: the destination tuple of
        an all-to-all broadcast.

        Fetched by the first call, not by ``__init__``, so neither a
        process that never sends nor a ``backend="vec"`` kernel asks for
        one.  The tuple comes from a table shared by every process of
        the same ``n`` (bounded by :data:`PEER_TABLE_SLOTS`), sliced out
        of one ``tuple(range(n))``: a run holds ``n`` int objects, not
        ``n²``, a second run of the same ``n`` allocates no tuple, and
        the engine proves an all-to-all send by identity.

        >>> a, b = Process(2, 5), Process(2, 5)
        >>> a.everyone_else()
        (0, 1, 3, 4)
        >>> a.everyone_else() is b.everyone_else()
        True
        """
        everyone = self._cache_peers
        if everyone is None:
            ids, slots = _peer_table(self.n)
            pid = self.pid
            everyone = slots[pid]
            if everyone is None:
                everyone = slots[pid] = ids[:pid] + ids[pid + 1:]
            self._cache_peers = everyone
        return everyone

    def decide(self, value: Any) -> None:
        """Irrevocably decide on ``value``.

        Deciding twice with a different value raises
        :class:`ProtocolError`; deciding twice with the same value is a
        no-op (several of the paper's algorithms re-announce decisions).
        """
        if self._decided:
            if self.decision != value:
                raise ProtocolError(
                    f"process {self.pid} attempted to change its decision "
                    f"from {self.decision!r} to {value!r}"
                )
            return
        self.decision = value
        self._decided = True

    @property
    def decided(self) -> bool:
        """Whether this process has decided."""
        return self._decided

    def halt(self) -> None:
        """Voluntarily halt; the process takes no further actions."""
        self.halted = True

    def state_digest(self) -> tuple:
        """A hashable digest of the process state.

        Used by the lower-bound machinery (Theorem 13) to compare the
        states of one process across two executions.  The default digest
        covers the full instance dictionary; protocols with caches or
        other execution-irrelevant state should override this.
        """
        items = []
        for key in sorted(self.__dict__):
            if key.startswith("_cache"):
                continue
            value = self.__dict__[key]
            items.append((key, _freeze(value)))
        return tuple(items)


def _freeze(value: Any) -> Any:
    """Recursively convert ``value`` into a hashable representation."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    return value
