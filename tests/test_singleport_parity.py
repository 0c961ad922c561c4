"""The wall single-port never had.

A single-port vector is a :class:`~repro.sim.process.Process` vector, so
it gets what every family gets: hypothesis parity across sim-ref /
sim-opt / net under random ``scenario_schedule`` scenarios (crashes with
partial sends, omission links, partition windows, churn rejoins), trace
record -> replay on every substrate, one tcp run, and telemetry.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.baselines.ring_gossip import RingGossipProcess
from repro.check.oracles import check_parity
from repro.net import run_protocol_net
from repro.obs import TelemetryRecorder
from repro.scenarios import PartitionSpec, Scenario, scenario_schedule
from repro.sim.engine import Engine
from repro.trace import TraceRecorder, replay_trace
from tests.conftest import (
    drawn_scenario,
    linear_vector,
    random_bits,
    scenario_draws,
)

WALL = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def ring_vector(n):
    return lambda: [RingGossipProcess(pid, n, f"r{pid}") for pid in range(n)]


def triple(factory, scenario, max_rounds):
    """sim-ref = sim-opt = net on fresh vectors under one scenario."""
    ref = Engine(
        factory(), scenario.adversary(), optimized=False, max_rounds=max_rounds
    ).run()
    opt = Engine(factory(), scenario.adversary(), max_rounds=max_rounds).run()
    net = run_protocol_net(
        factory(), scenario.adversary(), max_rounds=max_rounds
    )
    check_parity(ref, opt, "sim-ref", "sim-opt")
    check_parity(ref, net, "sim-ref", "net")
    return ref


class TestParityWall:
    @WALL
    @given(
        draw=scenario_draws(max_round=(8, 500), omission_links=10, churn_nodes=2),
        n=st.integers(20, 48),
        seed=st.integers(0, 10_000),
    )
    def test_linear_consensus(self, draw, n, seed):
        t = seed % ((n - 1) // 5 + 1)  # t < n/5
        factory, horizon = linear_vector(n, t, random_bits(n, seed))
        ref = triple(factory, drawn_scenario(draw, n, t), horizon)
        # every node halts on the schedule's last slot, whatever happened
        assert ref.completed and ref.rounds == horizon

    @WALL
    @given(
        draw=scenario_draws(max_round=(4, 30), omission_links=10, churn_nodes=2),
        n=st.integers(2, 30),
    )
    def test_ring_gossip(self, draw, n):
        triple(ring_vector(n), drawn_scenario(draw, n, n // 4), 1000)


class TestEverywhereElse:
    SCENARIO = dict(seed=7, crashes=3, omission_links=8, partition_windows=2,
                    churn_nodes=2, max_round=300)

    def test_partition_drops_are_counted(self):
        # At the parent this ran as if there were no link fault.
        factory, horizon = linear_vector(40, 5, random_bits(40, 0))
        scenario = Scenario(
            n=40, partitions=[PartitionSpec(0, 400, (tuple(range(20)),))]
        )
        ref = triple(factory, scenario, horizon)
        assert ref.metrics.dropped_messages > 0

    @pytest.mark.parametrize("vector", ["linear", "ring"])
    def test_record_then_replay_on_every_substrate(self, vector):
        n = 24
        if vector == "linear":
            factory, horizon = linear_vector(n, 4, random_bits(n, 5))
        else:
            factory, horizon = ring_vector(n), 1000
        scenario = scenario_schedule(n, **{**self.SCENARIO, "max_round": 20})
        recorder = TraceRecorder(n, max_rounds=horizon)
        result = Engine(
            factory(), scenario.adversary(), max_rounds=horizon, recorder=recorder
        ).run()
        trace = recorder.finish(result, "sim")
        assert trace.total_sends() == result.messages
        for backend, optimized in (("sim", True), ("sim", False), ("net", True)):
            replay = replay_trace(
                trace, processes=factory(), backend=backend, optimized=optimized
            )  # raises TraceDivergence on the first difference
            check_parity(result, replay, "recorded", f"{backend}-replay")

    def test_tcp_matches_the_spec(self):
        n = 20
        factory, horizon = linear_vector(n, 3, random_bits(n, 1))
        scenario = scenario_schedule(n, **self.SCENARIO)
        ref = Engine(
            factory(), scenario.adversary(), optimized=False, max_rounds=horizon
        ).run()
        tcp = run_protocol_net(
            factory(), scenario.adversary(), max_rounds=horizon, transport="tcp"
        )
        check_parity(ref, tcp, "sim-ref", "tcp")

    @pytest.mark.parametrize("optimized", [True, False])
    def test_telemetry_spans_every_executed_round(self, optimized):
        factory, horizon = linear_vector(20, 3, random_bits(20, 0))
        result = Engine(
            factory(), max_rounds=horizon, optimized=optimized,
            telemetry=TelemetryRecorder(),
        ).run()
        phases = result.telemetry.phases
        executed = phases["round"]["count"]
        assert 0 < executed <= result.rounds
        assert phases["send"]["count"] == phases["deliver"]["count"] == executed
