"""Unit tests for the single-port discipline (Section 8 model): a
:class:`SinglePortProcess` vector on the ordinary :class:`Engine`."""

import pytest

from repro.scenarios import ChurnSpec, OmissionSpec, Scenario
from repro.sim.adversary import CrashSpec, ScheduledCrashes
from repro.sim.engine import Engine
from repro.sim.process import Process, ProtocolError
from repro.sim.singleport import SinglePortProcess


class Sender(SinglePortProcess):
    """Sends ``payloads[rnd]`` to a fixed destination each round."""

    def __init__(self, pid, n, dst, payloads):
        super().__init__(pid, n)
        self.dst = dst
        self.payloads = payloads

    def emit(self, rnd):
        if rnd < len(self.payloads):
            return (self.dst, self.payloads[rnd])
        return None

    def absorb(self, rnd, message):
        if rnd >= len(self.payloads):
            self.halt()

    def next_activity(self, rnd):
        return rnd + 1


class Poller(SinglePortProcess):
    """Polls a fixed port each round from round ``first`` on and logs
    what arrives."""

    def __init__(self, pid, n, port, rounds, first=0):
        super().__init__(pid, n)
        self.port = port
        self.rounds = rounds
        self.first = first
        self.log = []

    def poll(self, rnd):
        return self.port if rnd >= self.first else None

    def absorb(self, rnd, message):
        if message is not None:
            self.log.append(message)
        if rnd >= self.rounds - 1:
            self.halt()

    def next_activity(self, rnd):
        return rnd + 1


class TestPortDiscipline:
    def test_one_message_per_poll(self):
        # Sender pushes two messages before the poller drains them:
        # FIFO, one per round.
        sender = Sender(0, 2, dst=1, payloads=["a", "b"])
        poller = Poller(1, 2, port=0, rounds=4)
        result = Engine([sender, poller]).run()
        assert result.completed
        assert poller.log == [(0, "a"), (0, "b")]

    def test_same_round_availability(self):
        sender = Sender(0, 2, dst=1, payloads=["x"])
        poller = Poller(1, 2, port=0, rounds=1)
        Engine([sender, poller]).run()
        assert poller.log == [(0, "x")]

    def test_unpolled_port_retains_messages(self):
        sender = Sender(0, 3, dst=1, payloads=["x"])
        wrong = Poller(1, 3, port=2, rounds=2)  # polls the wrong port
        idle = Poller(2, 3, port=0, rounds=2)
        Engine([sender, wrong, idle]).run()
        assert wrong.log == []

    def test_message_metrics(self):
        sender = Sender(0, 2, dst=1, payloads=[1, 1, 1])
        poller = Poller(1, 2, port=0, rounds=4)
        result = Engine([sender, poller]).run()
        assert result.messages == 3
        assert result.bits == 3

    def test_invalid_destination_rejected(self):
        sender = Sender(0, 2, dst=7, payloads=[1])
        poller = Poller(1, 2, port=0, rounds=2)
        with pytest.raises(ProtocolError, match="process 0 sent to invalid pid 7"):
            Engine([sender, poller]).run()

    def test_invalid_port_rejected(self):
        sender = Sender(0, 2, dst=1, payloads=[1])
        poller = Poller(1, 2, port=9, rounds=2)
        with pytest.raises(ProtocolError, match="process 1 polled invalid port 9"):
            Engine([sender, poller]).run()

    def test_a_single_port_node_is_a_process(self):
        assert Process in SinglePortProcess.__mro__
        # at most one send by construction: the hook returns one message
        sender = Sender(0, 2, dst=1, payloads=["x"])
        assert sender.send(0) == ((1, "x"),) and sender.send(1) == ()


class TestCrashes:
    def test_crash_with_keep_zero_drops_send(self):
        adversary = ScheduledCrashes({0: CrashSpec(round=0, keep=0)})
        sender = Sender(0, 2, dst=1, payloads=["x", "y"])
        poller = Poller(1, 2, port=0, rounds=3)
        result = Engine([sender, poller], adversary).run()
        assert 0 in result.crashed
        assert poller.log == []

    def test_crash_with_keep_none_delivers_last_send(self):
        adversary = ScheduledCrashes({0: CrashSpec(round=0, keep=None)})
        sender = Sender(0, 2, dst=1, payloads=["x", "y"])
        poller = Poller(1, 2, port=0, rounds=3)
        Engine([sender, poller], adversary).run()
        assert poller.log == [(0, "x")]

    def test_crashed_node_stops_polling(self):
        adversary = ScheduledCrashes({1: CrashSpec(round=1, keep=0)})
        sender = Sender(0, 2, dst=1, payloads=["a", "b", "c"])
        poller = Poller(1, 2, port=0, rounds=5)
        result = Engine([sender, poller], adversary).run()
        assert poller.log == [(0, "a")]
        assert result.completed  # all-operational-halted or crashed

    def test_rejoined_node_has_empty_ports(self):
        # Node 1 files "a" unread (it polls from round 3 on), is down
        # for rounds 1-2 and rejoins at 3 with reset state: its ports
        # are empty, and "b" / "c", sent while it was down, are not
        # replayed to it.
        adversary = Scenario(n=2, churn=[ChurnSpec(1, 1, 3, 0)]).adversary()
        sender = Sender(0, 2, dst=1, payloads=["a", "b", "c", "d", "e"])
        poller = Poller(1, 2, port=0, rounds=6, first=3)
        result = Engine([sender, poller], adversary).run()
        assert result.completed and result.crashed == set()
        assert poller.log == [(0, "d"), (0, "e")]
        assert result.messages == 5


class TestLinkFaults:
    def test_omitted_message_never_reaches_the_port(self):
        adversary = Scenario(n=2, omissions=[OmissionSpec(0, 1, (0,))]).adversary()
        sender = Sender(0, 2, dst=1, payloads=["x", "y"])
        poller = Poller(1, 2, port=0, rounds=3)
        result = Engine([sender, poller], adversary).run()
        assert poller.log == [(0, "y")]  # nothing for round 0
        assert result.metrics.dropped_messages == 1


class TestStateDigest:
    def test_digest_reflects_dynamic_state(self):
        first = Poller(0, 2, port=1, rounds=3)
        second = Poller(0, 2, port=1, rounds=3)
        assert first.state_digest() == second.state_digest()
        first.log.append((1, "x"))
        assert first.state_digest() != second.state_digest()

    def test_unpolled_message_is_not_node_state(self):
        # The Theorem 13 condition: two runs that differ only in a
        # message left unpolled at node 1 leave it in equal states.
        def run(payloads):
            sender = Sender(0, 3, dst=1, payloads=payloads)
            node = Poller(1, 3, port=2, rounds=2)  # never polls port 0
            Engine([sender, node, Poller(2, 3, port=0, rounds=2)]).run()
            return node

        waiting, clean = run(["x"]), run([])
        assert waiting._cache_ports[0] and not clean._cache_ports
        assert waiting.state_digest() == clean.state_digest()
