"""Record/replay traces: deterministic execution artifacts.

Acceptance bar: a trace recorded on *any* backend re-executes with
identical Metrics (rounds, messages, bits, decisions, crash sets) on
all three backends — sim-optimized, sim-reference, net — including
under random omission/partition/churn scenarios (hypothesis property),
and any tampering with the artifact is detected as
:class:`repro.trace.TraceDivergence`.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Scenario,
    Trace,
    api,
    replay_trace,
    run_ab_consensus,
    run_consensus,
    run_gossip,
    scenario_schedule,
)
from repro.bench.workloads import byzantine_sample, input_vector, rumor_vector
from repro.scenarios import ChurnSpec, CrashEvent, OmissionSpec, PartitionSpec
from repro.sim.adaptive import StaggeredCommitteeAdversary
from repro.sim.process import Multicast
from repro.trace import (
    TraceAdversary,
    TraceChecker,
    TraceDivergence,
    TraceRecorder,
    canonical,
    payload_digest,
)
from tests.conftest import ScriptedProcess

SEED = 11


def assert_same_outcome(a, b):
    assert a.metrics.summary() == b.metrics.summary()
    assert a.metrics.per_node_messages == b.metrics.per_node_messages
    assert a.metrics.per_round_messages == b.metrics.per_round_messages
    assert a.decisions == b.decisions
    assert a.crashed == b.crashed
    assert a.completed == b.completed


BACKENDS = [("sim", True), ("sim", False), ("net", True)]


class TestDigests:
    def test_canonical_sorts_sets(self):
        assert canonical({"b", "a", "c"}) == canonical({"c", "a", "b"})
        assert payload_digest(frozenset({1, 2})) == payload_digest({2, 1})

    def test_canonical_handles_protocol_payloads(self):
        from repro.auth.signatures import SignatureService
        from repro.core.gossip import SetDelta

        service = SignatureService(4)
        sig = service.key_for(1).sign("msg")
        assert payload_digest(sig) == payload_digest(copy.deepcopy(sig))
        delta = SetDelta(((0, "x"),), 3)
        assert payload_digest(delta) == payload_digest(copy.deepcopy(delta))

    def test_digest_distinguishes(self):
        assert payload_digest((1, 2)) != payload_digest([1, 2])
        assert payload_digest("a") != payload_digest(b"a")
        assert payload_digest(0) != payload_digest(1)


class TestRecordReplay:
    def test_consensus_record_on_each_backend_replays_on_all(self):
        inputs = input_vector(40, "random", SEED)
        for rec_backend, rec_opt in BACKENDS:
            recorded = run_consensus(
                inputs, 6, seed=SEED, backend=rec_backend,
                optimized=rec_opt, record_trace=True,
            )
            trace = recorded.trace
            assert trace is not None and trace.events
            for backend, optimized in BACKENDS:
                replayed = run_consensus(
                    inputs, 6, replay=trace, backend=backend,
                    optimized=optimized,
                )
                assert_same_outcome(replayed, recorded)

    def test_trace_json_round_trip(self, tmp_path):
        inputs = input_vector(30, "random", SEED)
        scenario = scenario_schedule(
            30, seed=3, crashes=2, omission_links=20, churn_nodes=1,
            max_round=10,
        )
        recorded = run_consensus(
            inputs, 4, scenario=scenario,
            record_trace=str(tmp_path / "run.trace.json"),
        )
        loaded = Trace.load(tmp_path / "run.trace.json")
        assert loaded.to_dict() == recorded.trace.to_dict()
        assert loaded.scenario == scenario.to_dict()
        # Coercion accepts path, JSON text and dict alike.
        for form in (
            str(tmp_path / "run.trace.json"),
            loaded.to_json(),
            loaded.to_dict(),
        ):
            assert Trace.coerce(form).to_dict() == loaded.to_dict()

    def test_standalone_replay_rebuilds_processes(self, tmp_path):
        rumors = rumor_vector(25, SEED)
        recorded = run_gossip(rumors, 3, seed=SEED, record_trace=True)
        path = tmp_path / "gossip.trace.json"
        recorded.trace.save(path)
        for backend, optimized in BACKENDS:
            replayed = replay_trace(path, backend=backend, optimized=optimized)
            assert_same_outcome(replayed, recorded)

    def test_adaptive_adversary_becomes_oblivious(self):
        # The recorded trace replays an adaptive adversary's choices as
        # a fixed schedule, on a backend that never runs the adversary.
        inputs = input_vector(30, "random", SEED)
        recorded = run_consensus(
            inputs,
            4,
            crashes=StaggeredCommitteeAdversary(committee_size=10, budget=4),
            record_trace=True,
        )
        assert recorded.crashed
        adversary = TraceAdversary(recorded.trace)
        assert adversary.total_budget() == len(recorded.crashed)
        replayed = replay_trace(recorded.trace, backend="net")
        assert_same_outcome(replayed, recorded)

    def test_byzantine_record_replay(self):
        inputs = input_vector(30, "random", SEED)
        byz = byzantine_sample(30, 3, SEED)
        recorded = run_ab_consensus(
            inputs, 3, byzantine=byz, behaviour="equivocate", record_trace=True
        )
        assert tuple(sorted(byz)) == recorded.trace.byzantine
        for backend, optimized in BACKENDS:
            replayed = replay_trace(
                recorded.trace, backend=backend, optimized=optimized
            )
            assert_same_outcome(replayed, recorded)

    def test_scenario_trace_replays_everywhere(self):
        scenario = Scenario(
            n=30,
            crashes=[CrashEvent(1, 2, 1)],
            omissions=[OmissionSpec(0, 9, (1, 2, 3))],
            partitions=[PartitionSpec(0, 8, (tuple(range(15)),))],
            churn=[ChurnSpec(7, 1, 5, 0)],
        )
        inputs = input_vector(30, "random", SEED)
        recorded = run_consensus(
            inputs, 4, scenario=scenario, backend="net", record_trace=True
        )
        assert recorded.metrics.dropped_messages > 0
        for backend, optimized in BACKENDS:
            replayed = run_consensus(
                inputs, 4, replay=recorded.trace, backend=backend,
                optimized=optimized,
            )
            assert_same_outcome(replayed, recorded)

    @pytest.mark.parametrize("keep", [0, 1, 3, 5])
    def test_every_send_shape_records_one_trace_on_every_backend(self, keep):
        # n = 6, so keep covers {0, 1, n // 2, n - 1}.  Every way a
        # sender's output reaches the recorder, in one run: pid 0 a pure
        # broadcaster, 1 a broadcaster the link mask names (rounds 1-2),
        # 2 a broadcaster crashing mid-send, 3 unicasts around a
        # multicast, 4 Byzantine, 5 silent.
        n, rounds, byzantine = 6, 4, frozenset({4})

        def plan(proc, rnd):
            pid = proc.pid
            everyone = [Multicast(proc.everyone_else(), ("b", rnd, pid))]
            if pid in (0, 1, 2):
                return everyone
            if pid == 3:
                return [
                    (5, ("p", rnd)),
                    Multicast((0, 4), ("sub", rnd)),
                    (1, ("q", rnd)),
                ]
            return everyone + [(0, ("lie", rnd))] if pid == 4 else []

        scenario = Scenario(
            n=n,
            crashes=[CrashEvent(2, 1, keep)],
            omissions=[OmissionSpec(1, 4, (1, 2)), OmissionSpec(1, 0, (2,))],
        )
        vector = lambda: [
            ScriptedProcess(pid, n, plan, {}, rounds) for pid in range(n)
        ]
        traces = []
        for backend, optimized in BACKENDS:
            trace = api._execute(
                vector(), scenario.adversary(), backend=backend,
                optimized=optimized, byzantine=byzantine, max_rounds=50,
                record_trace=True,
            ).trace
            trace.backend = ""  # the one field that names the substrate
            traces.append(trace)
        first = traces[0]
        assert all(trace.to_json() == first.to_json() for trace in traces)
        crash_round = {e["round"]: e for e in first.events}[1]
        assert sum(len(g[0]) for g in crash_round["sends"].get(2, [])) == keep
        assert crash_round["drops"] == {1: 1}
        for backend, optimized in BACKENDS:
            replay_trace(
                first, backend=backend, optimized=optimized, processes=vector()
            )

    def test_replay_without_check(self):
        inputs = input_vector(20, "random", SEED)
        recorded = run_consensus(inputs, 3, seed=SEED, record_trace=True)
        replayed = replay_trace(recorded.trace, check=False)
        assert_same_outcome(replayed, recorded)

    def test_result_trace_absent_by_default(self):
        inputs = input_vector(20, "random", SEED)
        assert run_consensus(inputs, 3, seed=SEED).trace is None


class TestDivergenceDetection:
    def _recorded(self):
        inputs = input_vector(20, "random", SEED)
        return (
            inputs,
            run_consensus(inputs, 3, seed=SEED, record_trace=True),
        )

    def _replay(self, inputs, trace_dict):
        return run_consensus(inputs, 3, replay=trace_dict)

    def test_tampered_digest_detected(self):
        inputs, recorded = self._recorded()
        data = recorded.trace.to_dict()
        tampered = copy.deepcopy(data)
        for event in tampered["events"]:
            if event["sends"]:
                src = next(iter(event["sends"]))
                event["sends"][src][0][2] = "0" * 16
                break
        with pytest.raises(TraceDivergence, match="diverged"):
            self._replay(inputs, tampered)

    def test_missing_send_detected(self):
        inputs, recorded = self._recorded()
        tampered = copy.deepcopy(recorded.trace.to_dict())
        for event in tampered["events"]:
            if event["sends"]:
                src = next(iter(event["sends"]))
                event["sends"][src].append([[0], 1, "f" * 16])
                break
        with pytest.raises(TraceDivergence, match="never happened"):
            self._replay(inputs, tampered)

    def test_extra_crash_detected(self):
        # Crash a pid that provably sends (the first recorded sender):
        # its recorded traffic can then never happen in the replay.
        inputs, recorded = self._recorded()
        tampered = copy.deepcopy(recorded.trace.to_dict())
        first_sender = None
        for event in tampered["events"]:
            if event["sends"]:
                first_sender = next(iter(event["sends"]))
                break
        assert first_sender is not None
        tampered["events"][0].setdefault("crashes", {})[first_sender] = 0
        with pytest.raises(TraceDivergence):
            self._replay(inputs, tampered)

    def test_wrong_inputs_diverge(self):
        inputs, recorded = self._recorded()
        flipped = [1 - v for v in inputs]
        with pytest.raises(TraceDivergence):
            run_consensus(flipped, 3, replay=recorded.trace)

    def test_footer_metrics_mismatch_detected(self):
        inputs, recorded = self._recorded()
        tampered = copy.deepcopy(recorded.trace.to_dict())
        tampered["result"]["metrics"]["messages"] += 1
        with pytest.raises(TraceDivergence, match="metrics"):
            self._replay(inputs, tampered)

    def test_n_mismatch_rejected(self):
        inputs, recorded = self._recorded()
        with pytest.raises(ValueError):
            run_consensus(
                input_vector(10, "random", SEED), 1, replay=recorded.trace
            )

    def test_record_during_replay_rejected(self):
        # A replay is verified against its trace, never re-recorded;
        # silently dropping the record_trace request would lose data.
        inputs, recorded = self._recorded()
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_consensus(
                inputs, 3, replay=recorded.trace, record_trace=True
            )


class TestRecorderUnit:
    def test_rounds_sorted_by_sender_and_flushed_once(self):
        recorder = TraceRecorder(4)
        recorder.round_events(0, {}, [], None)
        recorder.record_send_digest(0, 2, (0, 1), 5, "aa")
        recorder.record_send_digest(0, 0, (3,), 1, "bb")
        recorder.round_events(3, {1: None}, [], None)

        class _Result:
            class metrics:
                @staticmethod
                def summary():
                    return {}

            decisions = {}
            crashed = set()
            completed = True

        trace = recorder.finish(_Result, backend="sim-opt")
        assert [event["round"] for event in trace.events] == [0, 3]
        assert list(trace.events[0]["sends"]) == [0, 2]
        assert trace.events[1]["crashes"] == {1: None}
        assert trace.backend == "sim-opt"

    def test_checker_flags_unexpected_sender(self):
        recorder = TraceRecorder(2)
        recorder.round_events(0, {}, [], None)
        recorder.record_send_digest(0, 0, (1,), 1, "aa")

        class _Result:
            class metrics:
                @staticmethod
                def summary():
                    return {}

            decisions = {}
            crashed = set()
            completed = True

        trace = recorder.finish(_Result)
        checker = TraceChecker(trace)
        checker.round_events(0, {}, [], None)
        with pytest.raises(TraceDivergence, match="unexpected send"):
            checker.record_send_digest(0, 1, (0,), 1, "bb")

    def test_unserialisable_protocol_recipe_dropped(self):
        recorder = TraceRecorder(2, protocol={"name": "x", "obj": object()})
        assert recorder.protocol is None


@st.composite
def scenarios(draw):
    n = draw(st.integers(12, 24))
    return scenario_schedule(
        n,
        seed=draw(st.integers(0, 10_000)),
        crashes=draw(st.integers(0, 2)),
        omission_links=draw(st.integers(0, 12)),
        partition_windows=draw(st.integers(0, 2)),
        churn_nodes=draw(st.integers(0, 2)),
        max_round=draw(st.integers(4, 14)),
    )


class TestRecordReplayProperty:
    """Satellite: hypothesis property — record → replay yields identical
    Metrics (rounds, messages, bits, decisions, crash sets) across
    sim-optimized, sim-reference and net for random scenarios."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios(), data=st.data())
    def test_random_scenario_record_replay(self, scenario, data):
        n = scenario.n
        inputs = input_vector(n, "random", 1)
        t = max(1, n // 6)
        rec_backend, rec_opt = data.draw(st.sampled_from(BACKENDS))
        recorded = run_consensus(
            inputs, t, scenario=scenario, backend=rec_backend,
            optimized=rec_opt, record_trace=True,
        )
        # The artifact survives a JSON round trip.
        trace = Trace.from_json(recorded.trace.to_json())
        for backend, optimized in BACKENDS:
            replayed = run_consensus(
                inputs, t, replay=trace, backend=backend, optimized=optimized
            )
            assert_same_outcome(replayed, recorded)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(scenario=scenarios())
    def test_scenario_alone_is_three_way_deterministic(self, scenario):
        # Even without traces, a scenario is a pure function of its
        # data on every backend (the tentpole's parity criterion).
        n = scenario.n
        inputs = input_vector(n, "random", 2)
        t = max(1, n // 6)
        opt = run_consensus(inputs, t, scenario=scenario)
        ref = run_consensus(inputs, t, scenario=scenario, optimized=False)
        net = run_consensus(inputs, t, scenario=scenario, backend="net")
        assert_same_outcome(opt, ref)
        assert_same_outcome(opt, net)
