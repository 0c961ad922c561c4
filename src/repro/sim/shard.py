"""A process's life on a data plane: the round's send and receive, start,
churn snapshot, wake table, sleep and prune.

A :class:`Shard` holds the processes one data plane calls -- all ``n``
in :class:`~repro.sim.engine.Engine`, a host's own pids in
:mod:`repro.net` -- and is the one statement of what a round does to
them; who rejoins and who crashes is
:class:`~repro.sim.rounds.RoundControl`'s to decide, and so is the
accounting of what they sent.  A round is two calls:

:meth:`Shard.send`
    Walks the running pids in pid order and asks each awake one for its
    round output.  A pid with a fault this round -- it crashes now, or
    the round's link mask names it -- is normalised first:
    :func:`collect_sends` truncates a crasher to its ``keep`` budget and
    :func:`apply_link_filter` removes the blocked destinations; what
    survives is handled like anyone's output.  Each send group becomes
    one ``(src, seq, dsts, payload)`` entry, ``seq`` the group's index
    in the sender's send order.  A sender whose whole output is one
    multicast to every pid but itself makes one entry with ``dsts``
    None -- the round's **broadcast column** -- instead of ``n - 1``
    destinations; the tuple is proved, never assumed
    (:func:`~repro.sim.process.proves_everyone_else`, pinned per tuple
    object), and any other multicast is range-checked once per tuple
    object per sender (an overlay neighbourhood is one tuple for the
    run).  ``payload_bits`` is computed once per payload object in a
    round.  Each pid with news -- it sent or dropped something, or it
    stops running (it crashes now or halted in ``send``) -- gets a
    ``(pid, msgs, bits, dropped, records)`` row, ``records`` the
    ``(dsts, bits, digest)`` of each group when the run is recorded
    (:mod:`repro.trace`), else None.
:meth:`Shard.deliver`
    Takes the round's entries in ``(src, seq)`` order and hands every
    awake pid, and every sleeper with mail, its inbox in ``(sender,
    send order)`` -- a copy of the column minus the receiver's own
    entry, merged by sender with whatever else reached it.

Between the two the entries may cross a wire: an engine round is a
one-host round whose entries go straight to :meth:`Shard.deliver`; a
net host splits them by destination host and ships them, and a column
entry then means every pid behind the receiving host but ``src``.  If
a hook raises, :attr:`Shard.at` names its pid.

Churn snapshot
    A pid with a scheduled rejoin (the adversary's ``rejoin_pids()``)
    has its ``__dict__`` deep-copied when the shard is built, before
    ``on_start``.  A rejoin restores a fresh deep copy of it and runs
    ``on_start`` again, so a node can crash and rejoin more than once.

Wake table
    A round costs what it delivers, not ``n``.  ``wake[pid]`` is the
    first round at which ``pid`` must be called although nothing was
    delivered to it (at or below the current round means awake), and
    ``silent[pid]`` the last round in which it was called and its
    ``send`` returned no message.  The send phase skips a process whose
    entry lies ahead; the receive phase skips it unless its inbox is
    non-empty.  Then:

    * a process that sent or received stays awake without being asked,
      and so does a sender whose whole output a link mask dropped;
    * one that was called and did neither is asked ``next_activity``
      and sleeps until the round it declares (:meth:`Shard.idle`);
    * a delivery wakes a sleeper in that round's receive phase (its
      ``send`` for the round is skipped, which is what it promised);
    * a start or a rejoin wakes a pid at that round (:meth:`Shard.start`);
    * a sleeper the adversary crashes just crashes, without a call;
    * crashed and halted pids hold the ``horizon``
      (:meth:`Shard.prune`), so ``min(wake)`` is the earliest wake of
      the live processes -- where a quiescent round jumps to;
    * with ``fast_forward`` off nobody is asked, so nobody sleeps.

    ``tests/test_wake_contract.py`` holds each family to what it
    promises through ``next_activity``.

>>> from repro.sim.process import Multicast, Process
>>> class Hello(Process):
...     def send(self, rnd):  # pid 0 broadcasts in round 0, pid 2 replies
...         if rnd == 0 and self.pid == 0:
...             return [Multicast(self.everyone_else(), "hi")]
...         return [(0, self.pid)] if rnd == 0 and self.pid == 2 else []
...     def receive(self, rnd, inbox):
...         self.inbox = inbox
...     def next_activity(self, rnd):
...         return 5
>>> shard = Shard([Hello(pid, 3) for pid in range(3)], 3, horizon=9, churn_pids=[2])
>>> shard.start(range(3), 0)
>>> entries, rows = shard.send(0, {}, {}, False)
>>> entries  # pid 0's broadcast is one column entry
[(0, 0, None, 'hi'), (2, 0, (0,), 2)]
>>> rows  # (pid, messages, bits, dropped, records): pid 1 has no news
[(0, 2, 32, 0, None), (2, 1, 2, 0, None)]
>>> [proc.pid for proc in shard.deliver(0, entries)]
[0, 1, 2]
>>> [shard.procs[pid].inbox for pid in range(3)]
[[(2, 2)], [(0, 'hi')], [(0, 'hi')]]
>>> shard.wake  # pid 1 was silent and got mail: nobody sleeps
[0, 0, 0]
>>> entries, rows = shard.send(1, {2: None}, {}, False)  # pid 2 crashes
>>> [proc.pid for proc in shard.running], entries, rows
([0, 1], [], [(2, 0, 0, 0, None)])
>>> _ = shard.deliver(1, entries)
>>> shard.wake  # silent and nothing delivered: asleep until round 5
[5, 5, 9]
>>> shard.procs[2].seen = "round 0"
>>> shard.start([2], 3)  # pid 2 rejoins at round 3, reset to its snapshot
>>> [proc.pid for proc in shard.running], shard.wake, hasattr(shard.procs[2], "seen")
([0, 1, 2], [5, 5, 3], False)
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from operator import attrgetter, itemgetter
from typing import Any, Container, Iterable, Mapping, Optional

from repro.sim.process import (
    Multicast,
    Process,
    ProtocolError,
    payload_bits_cached,
    payload_digest,
    proves_everyone_else,
)

__all__ = ["Shard", "apply_link_filter", "collect_sends"]

_pid_of = attrgetter("pid")
_by_sender = itemgetter(0)


def collect_sends(
    proc: Process, rnd: int, keep: Optional[int], n: int
) -> list[tuple[tuple[int, ...], Any]]:
    """Normalise a process's round-``rnd`` sends, applying a partial-send
    budget.

    Returns a list of ``(destinations, payload)`` groups.  ``keep`` (when
    not ``None``) limits the total number of point-to-point messages
    delivered, truncating in the node's own send order -- this realises
    the crash-round partial send.  Shared by :meth:`Shard.send` and the
    reference loop so every substrate truncates identically.
    """
    groups: list[tuple[tuple[int, ...], Any]] = []
    remaining = keep
    for item in proc.send(rnd):
        if remaining is not None and remaining <= 0:
            break
        if isinstance(item, Multicast):
            dsts, payload = item.dsts, item.payload
        else:
            dst, payload = item
            dsts = (dst,)
        for dst in dsts:
            if not (0 <= dst < n):
                raise ProtocolError(
                    f"process {proc.pid} sent to invalid pid {dst}"
                )
        if remaining is not None and len(dsts) > remaining:
            dsts = tuple(dsts[:remaining])
        if dsts:
            groups.append((dsts, payload))
            if remaining is not None:
                remaining -= len(dsts)
    return groups


def apply_link_filter(
    groups: list[tuple[tuple[int, ...], Any]], blocked: frozenset[int]
) -> tuple[list[tuple[tuple[int, ...], Any]], int]:
    """Remove ``blocked`` destinations from normalised send groups.

    Returns ``(surviving_groups, dropped_count)``.  Applied *after* the
    crash-round ``keep`` truncation of :func:`collect_sends` -- the
    partial-send budget is spent on the messages the node attempted, and
    the link fault then removes some of the attempted messages in
    transit.  Shared by :meth:`Shard.send` and the reference loop, so
    every substrate drops exactly the same point-to-point messages for a
    given :meth:`~repro.sim.adversary.CrashAdversary.blocked_links` mask.
    """
    kept: list[tuple[tuple[int, ...], Any]] = []
    dropped = 0
    for dsts, payload in groups:
        surviving = tuple(dst for dst in dsts if dst not in blocked)
        dropped += len(dsts) - len(surviving)
        if surviving:
            kept.append((surviving, payload))
    return kept, dropped


class Shard:
    """``n`` sizes the pid-indexed ``wake`` / ``silent`` lists;
    ``horizon`` is an int above every round (the engine's
    ``max_rounds``).  The ``churn_pids`` held here are snapshotted now,
    so build the shard before ``on_start``."""

    def __init__(
        self,
        processes: Iterable[Process],
        n: int,
        horizon: int,
        churn_pids: Iterable[int] = (),
    ):
        #: pid -> process
        self.procs = {proc.pid: proc for proc in processes}
        self.n = n
        self.horizon = horizon
        #: whether an idle process may sleep (set by the data plane)
        self.fast_forward = True
        #: pid -> deep copy of the process ``__dict__`` before ``on_start``
        self.snapshots = {
            pid: copy.deepcopy(self.procs[pid].__dict__)
            for pid in churn_pids
            if pid in self.procs
        }
        self.wake = [horizon] * n
        self.silent = [-1] * n
        #: the processes neither crashed nor halted, in pid order
        self.running: list[Process] = []
        #: the pid whose hook raised, once one has
        self.at: Optional[int] = None
        #: ``id(payload) -> (payload, bits)`` of the last send phase
        self.bits_cache: dict[int, tuple[Any, int]] = {}
        self._universe = frozenset(range(n))
        # pid -> its last destination tuple proved every pid but it, and
        # its last multicast destination tuple found in range
        self._peers: list[Optional[tuple[int, ...]]] = [None] * n
        self._checked: list[Optional[tuple[int, ...]]] = [None] * n
        # pid -> its inbox of the round (None: none yet), its index in
        # the round's broadcast column (-1: not in it)
        self._boxes: list[Optional[list]] = [None] * n
        self._column_at = [-1] * n

    def start(self, pids: Iterable[int], rnd: int) -> None:
        """Run ``on_start`` for ``pids`` and wake each at ``rnd`` unless
        it halted.  Nobody crashes before round 0, so a later start is a
        rejoin: the process is first reset to its snapshot."""
        running = self.running
        for pid in pids:
            proc = self.procs[pid]
            if rnd:
                snapshot = self.snapshots.get(pid)
                if snapshot is None:
                    raise ProtocolError(
                        f"rejoin of pid {pid} at round {rnd} was not announced "
                        "via rejoin_pids(), so no snapshot was taken"
                    )
                proc.__dict__.clear()
                proc.__dict__.update(copy.deepcopy(snapshot))
            try:
                proc.on_start()
            except BaseException:
                self.at = pid
                raise
            if proc.halted:
                continue
            self.wake[pid] = rnd
            at = bisect_left(running, pid, key=_pid_of)
            if at == len(running) or running[at] is not proc:
                running.insert(at, proc)

    def send(
        self,
        rnd: int,
        crashing: Mapping[int, Optional[int]],
        masks: Mapping[int, frozenset[int]],
        record: bool,
    ) -> tuple[list[tuple], list[tuple]]:
        """Round ``rnd``'s send phase (module docstring): ``crashing``
        maps a pid crashing now to its ``keep`` budget, ``masks`` a pid
        to its blocked destinations.  Returns ``(entries, rows)``.  A
        pid that crashes now -- awake or asleep -- or halted in ``send``
        leaves :attr:`running`; its entries are delivered all the
        same."""
        n = self.n
        wake, silent = self.wake, self.silent
        peers, checked, universe = self._peers, self._checked, self._universe
        bits_cache = self.bits_cache
        bits_cache.clear()
        faulty = bool(crashing) or bool(masks)
        entries: list[tuple] = []
        rows: list[tuple] = []
        stopped = list(crashing)  # a sleeper among them just crashes
        pid = None
        try:
            for proc in self.running:
                pid = proc.pid
                if wake[pid] > rnd:
                    continue
                if proc.halted:
                    stopped.append(pid)
                    continue
                dropped = 0
                if faulty and (pid in crashing or masks.get(pid)):
                    groups = collect_sends(proc, rnd, crashing.get(pid), n)
                    mask = masks.get(pid)
                    if mask and groups:
                        groups, dropped = apply_link_filter(groups, mask)
                    sent = [Multicast(*group) for group in groups]
                else:
                    sent = proc.send(rnd)
                records: Optional[list] = [] if record else None
                if (
                    type(sent) in (list, tuple)
                    and len(sent) == 1
                    and isinstance(sent[0], Multicast)
                ):
                    dsts, payload = sent[0]
                    if type(dsts) is tuple and (
                        dsts is peers[pid]
                        or proves_everyone_else(dsts, pid, universe)
                    ):
                        peers[pid] = dsts
                        bits_each = payload_bits_cached(payload, bits_cache)
                        if record:
                            records.append((dsts, bits_each, payload_digest(payload)))
                        entries.append((pid, 0, None, payload))
                        rows.append((pid, n - 1, bits_each * (n - 1), dropped, records))
                        if proc.halted:
                            stopped.append(pid)
                        continue
                msgs = bits = 0
                seq = -1
                for item in sent:
                    seq += 1
                    if isinstance(item, Multicast):
                        dsts, payload = item
                        width = len(dsts)
                        if not width:
                            continue
                        if dsts is not checked[pid]:
                            if min(dsts) < 0 or max(dsts) >= n:
                                bad = next(d for d in dsts if not 0 <= d < n)
                                raise ProtocolError(
                                    f"process {pid} sent to invalid pid {bad}"
                                )
                            if type(dsts) is tuple:
                                checked[pid] = dsts
                    else:
                        dst, payload = item
                        if dst < 0 or dst >= n:
                            raise ProtocolError(
                                f"process {pid} sent to invalid pid {dst}"
                            )
                        width = 1
                        dsts = (dst,)
                    bits_each = payload_bits_cached(payload, bits_cache)
                    msgs += width
                    bits += bits_each * width
                    if record:
                        records.append(
                            (tuple(dsts), bits_each, payload_digest(payload))
                        )
                    entries.append((pid, seq, dsts, payload))
                if msgs or dropped:
                    rows.append((pid, msgs, bits, dropped, records))
                else:
                    # A sender whose whole output was dropped still sent,
                    # so it stays awake without being asked.
                    silent[pid] = rnd
                if proc.halted:
                    stopped.append(pid)
        except BaseException:
            self.at = pid
            raise
        if stopped:
            # A silent pid that stops running has news all the same.
            rows += [(pid, 0, 0, 0, None) for pid in set(stopped) if silent[pid] == rnd]
            self.prune(stopped)
        return entries, rows

    def deliver(self, rnd: int, entries: Iterable[tuple]) -> list[Process]:
        """Round ``rnd``'s receive phase over ``entries`` in ``(src,
        seq)`` order (module docstring); returns the processes whose
        ``receive`` ran.  Mail for a pid that is not running is
        dropped, as the model has it."""
        boxes = self._boxes
        touched: list[int] = []
        column: list[tuple[int, Any]] = []
        column_at = self._column_at
        for src, _seq, dsts, payload in entries:
            if dsts is None:
                column_at[src] = len(column)
                column.append((src, payload))
                continue
            envelope = (src, payload)
            for dst in dsts:
                box = boxes[dst]
                if box is None:
                    boxes[dst] = [envelope]
                    touched.append(dst)
                else:
                    box.append(envelope)
        wake = self.wake
        idle = self.idle
        called: list[Process] = []
        was_called = called.append
        halted = False
        pid = None
        try:
            for proc in self.running:
                pid = proc.pid
                box = boxes[pid]
                asleep = wake[pid] > rnd
                if asleep and not box and not column:
                    continue
                if column:
                    # A private copy minus the receiver's own entry; a
                    # column sender sends nothing else, so a stable sort
                    # by sender restores the (sender, send order) order.
                    merged = column.copy()
                    at = column_at[pid]
                    if at >= 0:
                        del merged[at]
                    if box:
                        merged += box
                        merged.sort(key=_by_sender)
                    box = merged
                was_called(proc)
                if box:
                    proc.receive(rnd, box)
                    if asleep:
                        # Woken by a delivery: its send for this round
                        # was skipped, the next one is not.
                        wake[pid] = rnd
                else:
                    proc.receive(rnd, [])
                    idle(proc, rnd)
                if proc.halted:
                    halted = True
        except BaseException:
            self.at = pid
            raise
        finally:
            for dst in touched:
                boxes[dst] = None
            for src, _ in column:
                column_at[src] = -1
        if halted:
            self.prune(())
        return called

    def idle(self, proc: Process, rnd: int) -> None:
        """The sleep rule, for ``proc`` just handed an empty round-``rnd``
        inbox: if it also sent nothing, it sleeps."""
        pid = proc.pid
        if self.fast_forward and self.silent[pid] == rnd and not proc.halted:
            nxt = proc.next_activity(rnd)
            if nxt <= rnd:
                raise ProtocolError(
                    f"process {pid} declared next_activity {nxt} <= {rnd}"
                )
            self.wake[pid] = nxt

    def prune(self, crashed: Container[int]) -> None:
        """Drop the halted processes and those in ``crashed`` from
        :attr:`running`; their wake entries hold the horizon."""
        live = []
        for proc in self.running:
            if proc.halted or proc.pid in crashed:
                self.wake[proc.pid] = self.horizon
            else:
                live.append(proc)
        self.running[:] = live
