"""Unit tests for the single-port engine (Section 8 model)."""

import pytest

from repro.sim.adversary import CrashSpec, ScheduledCrashes
from repro.sim.process import ProtocolError
from repro.sim.singleport import SinglePortEngine, SinglePortProcess


class Sender(SinglePortProcess):
    """Sends ``payloads[rnd]`` to a fixed destination each round."""

    def __init__(self, pid, n, dst, payloads):
        super().__init__(pid, n)
        self.dst = dst
        self.payloads = payloads

    def send(self, rnd):
        if rnd < len(self.payloads):
            return (self.dst, self.payloads[rnd])
        return None

    def receive(self, rnd, message):
        if rnd >= len(self.payloads):
            self.halt()

    def next_activity(self, rnd):
        return rnd + 1


class Poller(SinglePortProcess):
    """Polls a fixed port each round and logs what arrives."""

    def __init__(self, pid, n, port, rounds):
        super().__init__(pid, n)
        self.port = port
        self.rounds = rounds
        self.log = []

    def poll(self, rnd):
        return self.port

    def receive(self, rnd, message):
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
        result = SinglePortEngine([sender, poller]).run()
        assert result.completed
        assert poller.log == [(0, "a"), (0, "b")]

    def test_same_round_availability(self):
        sender = Sender(0, 2, dst=1, payloads=["x"])
        poller = Poller(1, 2, port=0, rounds=1)
        SinglePortEngine([sender, poller]).run()
        assert poller.log == [(0, "x")]

    def test_unpolled_port_retains_messages(self):
        sender = Sender(0, 3, dst=1, payloads=["x"])
        wrong = Poller(1, 3, port=2, rounds=2)  # polls the wrong port
        idle = Poller(2, 3, port=0, rounds=2)
        SinglePortEngine([sender, wrong, idle]).run()
        assert wrong.log == []

    def test_message_metrics(self):
        sender = Sender(0, 2, dst=1, payloads=[1, 1, 1])
        poller = Poller(1, 2, port=0, rounds=4)
        result = SinglePortEngine([sender, poller]).run()
        assert result.messages == 3
        assert result.bits == 3

    def test_invalid_destination_rejected(self):
        sender = Sender(0, 2, dst=7, payloads=[1])
        poller = Poller(1, 2, port=0, rounds=2)
        with pytest.raises(ProtocolError):
            SinglePortEngine([sender, poller]).run()

    def test_invalid_port_rejected(self):
        sender = Sender(0, 2, dst=1, payloads=[1])
        poller = Poller(1, 2, port=9, rounds=2)
        with pytest.raises(ProtocolError):
            SinglePortEngine([sender, poller]).run()


class TestCrashes:
    def test_crash_with_keep_zero_drops_send(self):
        adversary = ScheduledCrashes({0: CrashSpec(round=0, keep=0)})
        sender = Sender(0, 2, dst=1, payloads=["x", "y"])
        poller = Poller(1, 2, port=0, rounds=3)
        result = SinglePortEngine([sender, poller], adversary).run()
        assert 0 in result.crashed
        assert poller.log == []

    def test_crash_with_keep_none_delivers_last_send(self):
        adversary = ScheduledCrashes({0: CrashSpec(round=0, keep=None)})
        sender = Sender(0, 2, dst=1, payloads=["x", "y"])
        poller = Poller(1, 2, port=0, rounds=3)
        SinglePortEngine([sender, poller], adversary).run()
        assert poller.log == [(0, "x")]

    def test_crashed_node_stops_polling(self):
        adversary = ScheduledCrashes({1: CrashSpec(round=1, keep=0)})
        sender = Sender(0, 2, dst=1, payloads=["a", "b", "c"])
        poller = Poller(1, 2, port=0, rounds=5)
        result = SinglePortEngine([sender, poller], adversary).run()
        assert poller.log == [(0, "a")]
        assert result.completed  # all-operational-halted or crashed

    def test_churn_schedule_is_refused(self):
        # No reset path in this model: a churn schedule used to run as
        # plain crashes, without a word.
        from repro.scenarios import ChurnSpec, Scenario

        adversary = Scenario(n=2, churn=[ChurnSpec(0, 0, 2, 0)]).adversary()
        procs = [Sender(0, 2, dst=1, payloads=["x"]), Poller(1, 2, 0, rounds=3)]
        with pytest.raises(ProtocolError, match="single-port model has no churn"):
            SinglePortEngine(procs, adversary)


class TestStateDigest:
    def test_digest_reflects_dynamic_state(self):
        first = Poller(0, 2, port=1, rounds=3)
        second = Poller(0, 2, port=1, rounds=3)
        assert first.state_digest() == second.state_digest()
        first.log.append((1, "x"))
        assert first.state_digest() != second.state_digest()
