"""The round's control plane, driven without an engine.

``RoundControl`` (``repro/sim/rounds.py``) is the one statement of the
round's control flow outside the reference loop; these tests script an
adversary and a few status records, make the three calls a backend
makes, and pin what the control decides.  The last section pins that it
stays the only one: the drift the per-backend copies had (what a bad
churn pid does) is one behaviour now, and a new call site of an
adversary hook outside the spec and the control fails here.
"""

import ast
import copy
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import run_recipe
from repro.net import run_protocol_net
from repro.obs import TelemetryRecorder
from repro.scenarios import ChurnSpec, Scenario
from repro.sim import Engine, ProtocolError
from repro.sim.adversary import CrashAdversary
from repro.sim.metrics import Metrics
from repro.sim.process import Process
from repro.sim.rounds import RoundControl

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
HOOKS = {
    "rejoins_for_round",
    "crashes_for_round",
    "blocked_links",
    "next_event_round",
    "next_rejoin",
}


class Script(CrashAdversary):
    """A scripted adversary that logs every hook consultation."""

    def __init__(self, crashes=None, rejoins=None, blocked=None):
        self.crashes = crashes or {}  # rnd -> {pid: keep}
        self.rejoins = rejoins or {}  # rnd -> [pid, ...]
        self.blocked = blocked or {}  # rnd -> {src: frozenset(dsts)}
        self.calls = []

    def rejoins_for_round(self, rnd):
        self.calls.append(("rejoins", rnd))
        return self.rejoins.get(rnd, ())

    def crashes_for_round(self, rnd, view):
        self.calls.append(("crashes", rnd, view.round))
        return self.crashes.get(rnd, {})

    def blocked_links(self, rnd):
        self.calls.append(("blocked", rnd))
        return self.blocked.get(rnd)

    def rejoin_pids(self):
        return frozenset(pid for pids in self.rejoins.values() for pid in pids)

    def next_rejoin(self, pid, rnd):
        later = [r for r, pids in self.rejoins.items() if pid in pids and r > rnd]
        return min(later, default=None)

    def next_event_round(self, rnd):
        later = [r for r in (*self.crashes, *self.rejoins) if r > rnd]
        return min(later, default=None)


def never():
    raise AssertionError("next_wake asked on a round that is not quiescent")


class Plane:
    """The least a data plane is: status records and a crash set."""

    def __init__(self, n, adversary, **kw):
        self.nodes = [
            SimpleNamespace(pid=pid, halted=False, decided=False, decision=None)
            for pid in range(n)
        ]
        self.crashed = set()
        view = SimpleNamespace(n=n, crashed=self.crashed, round=-1)
        self.ctl = RoundControl(view, adversary, **kw)

    def round(self, rnd, delivered=False, wake=never):
        """One round: reinstate, crash whoever is nominated, close."""
        rejoining = self.ctl.rejoining(rnd)
        self.crashed.difference_update(rejoining)
        for pid in rejoining:
            self.nodes[pid].halted = False
        crashing, blocked = self.ctl.open(rnd, rejoining)
        self.crashed.update(crashing)
        all_halted = all(
            node.halted for node in self.nodes if node.pid not in self.crashed
        )
        return rejoining, blocked, self.ctl.close(rnd, delivered, all_halted, wake)

    def halt(self, *pids):
        for pid in pids:
            self.nodes[pid].halted = True

    def seal(self):
        return self.ctl.seal(self.nodes, Metrics())


class TestHookOrder:
    def test_rejoins_then_crashes_then_links_once_a_round(self):
        mask = {0: frozenset({1})}
        adversary = Script(crashes={0: {1: 0}}, rejoins={1: [1]}, blocked={1: mask})
        plane = Plane(2, adversary)
        rejoining, blocked, nxt = plane.round(0, delivered=True)
        assert (rejoining, blocked, nxt) == ([], None, 1)
        rejoining, blocked, nxt = plane.round(1, delivered=True)
        assert (rejoining, blocked, nxt) == ([1], mask, 2)
        # The view's round is current when the nomination reads it.
        assert adversary.calls == [
            ("rejoins", 0), ("crashes", 0, 0), ("blocked", 0),
            ("rejoins", 1), ("crashes", 1, 1), ("blocked", 1),
        ]

    def test_only_crashed_pids_rejoin_sorted(self):
        plane = Plane(4, Script(rejoins={2: [3, 0, 1]}))
        plane.crashed.update({3, 1})
        assert plane.ctl.rejoining(2) == [1, 3]

    def test_nominating_a_byzantine_pid_raises(self):
        plane = Plane(3, Script(crashes={0: {2: None}}), byzantine=frozenset({2}))
        with pytest.raises(ProtocolError, match="crash Byzantine node 2"):
            plane.round(0)

    def test_recorder_sees_the_round_events(self):
        seen = []
        recorder = SimpleNamespace(round_events=lambda *args: seen.append(args))
        plane = Plane(2, Script(crashes={0: {1: 2}}), recorder=recorder)
        plane.round(0, delivered=True)
        assert seen == [(0, {1: 2}, [], None)]


class TestTermination:
    def test_deferred_while_a_rejoin_is_ahead(self):
        plane = Plane(2, Script(crashes={0: {1: None}}, rejoins={4: [1]}))
        plane.halt(0)
        # Everyone operational has halted, but pid 1 comes back at 4:
        # the quiescent run jumps there instead of ending.
        assert plane.round(0, wake=lambda: None)[2] == 4
        rejoining, _, nxt = plane.round(4, wake=lambda: 5)
        assert rejoining == [1] and nxt == 5
        # Reinstated and halted: now it ends, that round.
        plane.halt(1)
        assert plane.round(5)[2] is None
        result = plane.seal()
        assert (result.completed, result.rounds, result.crashed) == (True, 6, set())

    def test_rejoin_beyond_the_horizon_exhausts_it(self):
        plane = Plane(
            2, Script(crashes={0: {1: None}}, rejoins={10: [1]}), max_rounds=10
        )
        plane.halt(0)
        assert plane.round(0, wake=lambda: None)[2] is None
        result = plane.seal()
        assert (result.completed, result.rounds, result.crashed) == (False, 10, {1})

    def test_everyone_crashed_reads_the_last_round_with_traffic(self):
        adversary = Script(crashes={3: {0: None, 1: None}}, rejoins={50: [0]})
        plane = Plane(2, adversary, max_rounds=20, fast_forward=False)
        for rnd in range(19):
            assert plane.round(rnd, delivered=rnd in (0, 2))[2] == rnd + 1
        assert plane.round(19)[2] is None
        result = plane.seal()
        assert (result.completed, result.rounds, result.crashed) == (True, 3, {0, 1})

    def test_max_rounds_zero_executes_no_round(self):
        adversary = Script()
        plane = Plane(2, adversary, max_rounds=0)
        assert plane.ctl.begin() is None
        result = plane.seal()
        assert (result.completed, result.rounds) == (False, 0)
        assert adversary.calls == []

    def test_decisions_are_read_at_seal(self):
        plane = Plane(3, Script())
        plane.halt(0, 1, 2)
        plane.nodes[1].decided, plane.nodes[1].decision = True, "v"
        assert plane.round(0)[2] is None
        assert plane.seal().decisions == {1: "v"}


class TestFastForward:
    @pytest.mark.parametrize(
        "wake,event,expected",
        [
            (7, None, 7),  # the earliest declared wake
            (7, 4, 4),  # ... or the adversary's next event, if earlier
            (4, 7, 4),
            (None, None, None),  # nothing ahead: clamp to the horizon
            (30, None, None),
            (None, 3, 3),  # an event at r + 1 is r + 1
        ],
    )
    def test_quiescent_round_jumps(self, wake, event, expected):
        crashes = {event: {1: None}} if event is not None else {}
        plane = Plane(2, Script(crashes=crashes), max_rounds=20)
        assert plane.round(2, wake=lambda: wake)[2] == expected
        if expected is None:
            assert plane.seal().rounds == 20

    def test_next_wake_is_not_asked_when_something_was_delivered(self):
        plane = Plane(2, Script())
        assert plane.round(0, delivered=True, wake=never)[2] == 1

    def test_next_wake_is_not_asked_without_fast_forward(self):
        plane = Plane(2, Script(), fast_forward=False)
        assert plane.round(0, delivered=False, wake=never)[2] == 1

    def test_next_wake_is_not_asked_once_the_run_is_over(self):
        plane = Plane(2, Script())
        plane.halt(0, 1)
        assert plane.round(0, wake=never)[2] is None


class TestTelemetry:
    def test_without_telemetry_no_clock_is_read(self, monkeypatch):
        import time

        def boom():
            raise AssertionError("clock read with telemetry=None")

        monkeypatch.setattr(time, "perf_counter", boom)
        monkeypatch.setattr(time, "monotonic", boom)
        plane = Plane(2, Script(crashes={0: {1: None}}, rejoins={2: [1]}))
        plane.halt(0)
        assert plane.round(0, wake=lambda: None)[2] == 2
        plane.halt(1)
        plane.round(2, wake=lambda: None)
        assert plane.seal().telemetry is None

    def test_spans_and_points(self):
        tel = TelemetryRecorder()
        tel.run_begin(backend="test", n=2)
        plane = Plane(
            2, Script(crashes={0: {1: 0}}, rejoins={1: [1]}), telemetry=tel
        )
        plane.round(0, delivered=True)
        plane.ctl.rejoining(1)
        plane.crashed.discard(1)
        plane.ctl.open(1, [1])
        plane.ctl.phase("send", 1)
        plane.halt(0, 1)
        plane.nodes[0].decided = True
        plane.ctl.phase("deliver", 1, plane.nodes)
        assert plane.ctl.close(1, False, True, never) is None
        plane.nodes[1].decided = True  # seen by no phase: stamped at seal
        telemetry = plane.seal().telemetry
        assert telemetry.phases["round"]["count"] == 2
        assert telemetry.phases["crash"]["count"] == 2
        assert telemetry.phases["rejoin"]["count"] == 1
        assert telemetry.phases["send"]["count"] == 1
        assert telemetry.phases["deliver"]["count"] == 1
        assert telemetry.counts == {"crash": 1, "decide": 2, "rejoin": 1}
        decide_rounds = [
            event["round"] for event in telemetry.events if event["name"] == "decide"
        ]
        assert decide_rounds == [1, 1]


# -- one behaviour where the copies had drifted ------------------------------


class RejoinsUnknownPid(CrashAdversary):
    def __init__(self, pid):
        self.pid = pid

    def rejoin_pids(self):
        return frozenset({self.pid})


class HaltsAtOnce(Process):
    def receive(self, rnd, inbox):
        self.halt()


def _procs(n=3):
    return [HaltsAtOnce(pid, n) for pid in range(n)]


@pytest.mark.parametrize("backend", ["sim-opt", "sim-ref", "net"])
def test_rejoin_pid_out_of_range_is_refused_before_round_zero(backend):
    adversary = RejoinsUnknownPid(3)
    with pytest.raises(ProtocolError, match="rejoin scheduled for invalid pid 3"):
        if backend == "net":
            run_protocol_net(_procs(), adversary)
        else:
            Engine(_procs(), adversary, optimized=backend == "sim-opt").run()


@pytest.mark.parametrize("backend", ["sim-opt", "sim-ref", "net"])
def test_churn_on_a_byzantine_pid_is_refused(backend):
    adversary = RejoinsUnknownPid(1)
    with pytest.raises(ProtocolError, match="churn on Byzantine node 1"):
        if backend == "net":
            run_protocol_net(_procs(), adversary, byzantine=frozenset({1}))
        else:
            Engine(
                _procs(),
                adversary,
                byzantine=frozenset({1}),
                optimized=backend == "sim-opt",
            ).run()


@pytest.mark.parametrize("backend", ["sim", "net"])
def test_replayed_trace_with_an_unknown_rejoin_pid_is_refused(backend):
    n = 6
    recipe = {"name": "flooding", "inputs": list(range(n)), "t": 2}
    scenario = Scenario(n=n, churn=[ChurnSpec(1, 0, 2, 0)])
    recorded = run_recipe(recipe, crashes=scenario, record_trace=True)
    tampered = copy.deepcopy(recorded.trace.to_dict())
    event = next(event for event in tampered["events"] if event["rejoins"])
    event["rejoins"].append(n)
    with pytest.raises(ProtocolError, match=f"rejoin scheduled for invalid pid {n}"):
        run_recipe(recipe, replay=tampered, backend=backend)


class Unannounced(Script):
    """Crashes pid 1 in round 0 and rejoins it in round 2, but leaves it
    out of ``rejoin_pids()``, so nobody snapshots it."""

    def __init__(self):
        super().__init__(crashes={0: {1: None}}, rejoins={2: [1]})

    def rejoin_pids(self):
        return frozenset()


@pytest.mark.parametrize("backend", ["sim-opt", "sim-ref"])
def test_a_rejoin_without_a_snapshot_is_refused(backend):
    engine = Engine(_procs(), Unannounced(), optimized=backend == "sim-opt")
    with pytest.raises(
        ProtocolError, match="rejoin of pid 1 at round 2 was not announced"
    ):
        engine.run()


class HaltsAtFour(Process):
    def receive(self, rnd, inbox):
        if rnd >= 4:
            self.halt()


@pytest.mark.parametrize("backend", ["sim-opt", "sim-ref"])
def test_a_rejoin_enters_the_running_list_once(backend):
    # The reference loop never prunes, so the rejoining pid is still
    # listed; starting it again must not list it twice.
    adversary = Script(crashes={0: {1: None}}, rejoins={2: [1]})
    engine = Engine(
        [HaltsAtFour(pid, 3) for pid in range(3)],
        adversary,
        optimized=backend == "sim-opt",
    )
    result = engine.run()
    assert result.completed and not result.crashed
    assert ("rejoins", 2) in adversary.calls
    pids = [proc.pid for proc in engine.shard.running]
    assert pids == sorted(set(pids))
    if backend == "sim-ref":
        assert pids == [0, 1, 2]


# -- and it stays one ----------------------------------------------------------


def _method_calls(tree, names):
    """Every call ``<expr>.<name>(...)`` in ``tree`` with ``name`` in ``names``."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    ]


def _hook_call_sites():
    """``(file, hook)`` for every call ``<expr>.<hook>(...)`` under src/repro."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for node in _method_calls(ast.parse(path.read_text()), HOOKS):
            sites.append((path.relative_to(SRC).as_posix(), node.func.attr))
    return sites


def test_the_adversary_is_consulted_in_the_spec_and_the_control_only():
    sites = _hook_call_sites()
    spec = sorted(hook for path, hook in sites if path == "sim/engine.py")
    control = sorted(hook for path, hook in sites if path == "sim/rounds.py")
    elsewhere = [site for site in sites if site[0] not in ("sim/engine.py", "sim/rounds.py")]
    # Each hook once in the reference loop and its helpers, once in the
    # control; START's will_rejoin bit is the one lookup a data plane
    # makes itself.  A backend that needs more asks the control.
    assert spec == sorted(HOOKS)
    assert control == sorted(HOOKS)
    assert elsewhere == [("net/runtime.py", "next_rejoin")]


def test_a_process_life_is_stated_in_the_shard_and_the_spec_only():
    asks, delegations, snapshots = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        # A protocol's own next_activity may ask a component's.
        delegating = {
            id(call)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "next_activity"
            for call in _method_calls(fn, {"next_activity"})
        }
        for call in _method_calls(tree, {"next_activity"}):
            (delegations if id(call) in delegating else asks).append(where)
        snapshots += [
            where
            for call in _method_calls(tree, {"deepcopy"})
            if any(
                isinstance(arg, ast.Attribute) and arg.attr == "__dict__"
                for arg in call.args
            )
        ]
    # The sleep rule asks in the shard, the reference's quiescent jump
    # in _advance; churn snapshots are taken in the shard alone.
    assert sorted(asks) == ["sim/engine.py", "sim/shard.py"]
    assert delegations and all(
        where.startswith(("core/", "baselines/")) for where in delegations
    )
    assert snapshots == ["sim/shard.py"]


def _owners(tree):
    """``id(node) ->`` the innermost function definition around it."""
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, inner ones overwrite
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner[id(node)] = fn
    return owner


def test_a_round_is_sent_and_delivered_in_the_shard_and_the_spec_only():
    # A process's hooks: ``<expr>.send(rnd)`` and ``<expr>.receive(rnd,
    # inbox)`` (an endpoint's send takes two arguments, a shard's four).
    arity = {"send": 1, "receive": 2}
    sites, delegations = set(), []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        for call in _method_calls(tree, set(arity)):
            hook, fn = call.func.attr, owner.get(id(call))
            if len(call.args) != arity[hook] or call.keywords:
                continue
            if fn.name == hook and len(fn.args.args) == 1 + arity[hook]:
                # A protocol's own hook may call a component's.
                delegations.append(where)
            else:
                sites.add((where, fn.name, hook))
    # The round's data plane is Shard.send / Shard.deliver (with the
    # collect_sends a faulted sender goes through); the reference loop
    # delivers by itself and sends through that same collect_sends.
    assert sites == {
        ("sim/shard.py", "collect_sends", "send"),
        ("sim/shard.py", "send", "send"),
        ("sim/shard.py", "deliver", "receive"),
        ("sim/engine.py", "_loop_reference", "receive"),
    }
    assert delegations and all(where.startswith("core/") for where in delegations)
