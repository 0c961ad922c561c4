"""Tests for the observability layer (:mod:`repro.obs`).

Two contracts matter most and get the heaviest coverage:

* **Parity is telemetry-invariant** -- attaching a recorder to any
  backend must not change a single observable field of the run
  (``check_parity`` over the full surface, instrumented vs. bare).
* **Disabled costs nothing** -- ``telemetry=None``/``False``
  normalises to no recorder at all before the round loop starts: no
  calls, no clock reads, and no allocations attributable to the obs
  package anywhere on the hot path.

Plus the artifact layer: recorder sealing, JSONL / Chrome trace-event
exporters, ``RunTelemetry.load`` and the validators, the sweep adapter,
progress heartbeats, the ``python -m repro.obs`` CLI, and the
coordinator's laggard diagnostics.
"""

import io
import json
import tracemalloc

import pytest

from repro import api
from repro.bench.sweep import SweepSpec, describe_unit, run_sweep
from repro.check.driver import describe_fuzz_outcome
from repro.check.oracles import check_parity
from repro.net.runtime import Session
from repro.obs import (
    ProgressReporter,
    RunTelemetry,
    TelemetryRecorder,
    coerce_recorder,
    format_summary,
    sweep_telemetry,
    validate_chrome_trace,
    validate_telemetry_dict,
)
from repro.obs.cli import main as obs_main
from repro.obs.export import chrome_trace, jsonl_lines, summary_rows
from repro.scenarios import Scenario
from repro.sim.vec import HAVE_NUMPY


def _flooding(telemetry=False, backend="sim", **kw):
    inputs = [(3 * i) % 7 - 3 for i in range(10)]
    return api.run_flooding(
        inputs, t=2, seed=3, backend=backend, telemetry=telemetry, **kw
    )


# -- coercion: the single normalisation point --------------------------------


def test_coerce_recorder_contract():
    assert coerce_recorder(None) is None
    assert coerce_recorder(False) is None
    assert isinstance(coerce_recorder(True), TelemetryRecorder)
    assert isinstance(coerce_recorder("events.jsonl"), TelemetryRecorder)
    live = TelemetryRecorder()
    assert coerce_recorder(live) is live


@pytest.mark.parametrize("value", [1, 0.5, object()], ids=["int", "float", "object"])
def test_a_non_recorder_is_refused_by_type(value):
    """Only None, False, True, a path or a TelemetryRecorder is a
    ``telemetry=`` value; anything else fails before the run starts."""
    with pytest.raises(TypeError, match=type(value).__name__):
        coerce_recorder(value)
    with pytest.raises(TypeError, match=type(value).__name__):
        _flooding(telemetry=value)


def test_disabled_path_allocates_nothing_from_obs():
    """With telemetry off, no allocation on the whole run traces back to
    the obs package -- the zero-overhead claim, structurally."""
    _flooding(telemetry=False)  # warm caches / lazy imports
    tracemalloc.start()
    try:
        result = _flooding(telemetry=False)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert result.telemetry is None
    obs_allocs = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/obs/*")]
    ).statistics("filename")
    assert obs_allocs == []


def test_enabled_path_does_allocate_from_obs():
    """The counterpart: the tracemalloc filter above actually bites."""
    _flooding(telemetry=True)  # warm
    tracemalloc.start()
    try:
        result = _flooding(telemetry=True)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert result.telemetry is not None
    obs_allocs = snapshot.filter_traces(
        [tracemalloc.Filter(True, "*/repro/obs/*")]
    ).statistics("filename")
    assert obs_allocs != []


# -- parity is telemetry-invariant, on every backend -------------------------


@pytest.mark.parametrize(
    "backend,kw",
    [
        ("sim", {"optimized": True}),
        ("sim", {"optimized": False}),
        pytest.param(
            "vec", {}, marks=pytest.mark.skipif(not HAVE_NUMPY, reason="no numpy")
        ),
        ("net", {}),
    ],
)
def test_parity_unchanged_with_recorder_attached(backend, kw):
    bare = _flooding(telemetry=False, backend=backend, **kw)
    instrumented = _flooding(telemetry=True, backend=backend, **kw)
    check_parity(bare, instrumented, "bare", "instrumented")
    telemetry = instrumented.telemetry
    assert isinstance(telemetry, RunTelemetry)
    assert telemetry.wall_seconds > 0
    assert "round" in telemetry.phases
    assert telemetry.meta["rounds"] == instrumented.rounds
    validate_telemetry_dict(telemetry.to_dict())


def test_engine_span_taxonomy():
    result = _flooding(telemetry=True)
    telemetry = result.telemetry
    assert {"round", "send", "deliver", "crash"} <= set(telemetry.phases)
    assert telemetry.counts.get("decide", 0) == len(result.decisions)
    assert telemetry.counts.get("crash", 0) == len(result.crashed)
    assert telemetry.meta["backend"] == "sim-opt"


@pytest.mark.skipif(not HAVE_NUMPY, reason="no numpy")
def test_vec_span_taxonomy():
    result = _flooding(telemetry=True, backend="vec")
    telemetry = result.telemetry
    assert telemetry.meta["backend"] == "vec"
    assert {"round", "kernel.step"} <= set(telemetry.phases)
    assert telemetry.counts.get("decide", 0) == len(result.decisions)


def test_net_span_taxonomy_and_node_tracks():
    telemetry = _flooding(telemetry=True, backend="net").telemetry
    assert telemetry.meta["backend"] == "net"
    assert {"round", "send", "deliver"} <= set(telemetry.phases)
    # the codec probe feeds aggregate-only stats
    assert {"codec.encode", "codec.decode"} <= set(telemetry.phases)
    tracks = {event["track"] for event in telemetry.events}
    assert any(track.startswith("host-") for track in tracks)


@pytest.mark.parametrize("backend", ["sim", "net"])
def test_a_round_without_live_pids_has_both_phase_spans(backend):
    # Every pid is down in rounds 1 and 2 (fast-forward off, pid 2
    # rejoins at 3): the net barrier opens on no host there, yet each
    # round still closes a send and a deliver span, as on the engine.
    scenario = Scenario(
        n=4, crashes=[(0, 0, 0), (1, 0, 0), (3, 0, 0)], churn=[(2, 0, 3, None)]
    )
    result = api.run_recipe(
        {"name": "flooding", "inputs": [0, 1, 0, 1], "t": 3},
        backend=backend,
        scenario=scenario,
        fast_forward=False,
        telemetry=True,
    )
    phases = result.telemetry.phases
    assert result.rounds == phases["round"]["count"] == 4
    assert phases["send"]["count"] == phases["deliver"]["count"] == 4


# -- the collecting recorder -------------------------------------------------


def _fake_clock(times):
    values = iter(times)
    return lambda: next(values)


def test_recorder_seals_relative_timestamps():
    recorder = TelemetryRecorder()
    recorder.clock = _fake_clock([100.0, 103.5])
    recorder.run_begin(backend="sim-opt", n=4)
    recorder.span("round", 0, 100.5, 101.5, answer=42)
    recorder.point("crash", 0, 101.0, pid=2)
    recorder.sample("codec.encode", 0.25)
    recorder.run_end(completed=True)
    telemetry = recorder.finish()
    assert telemetry.wall_seconds == pytest.approx(3.5)
    span, point = telemetry.events
    assert span["ts"] == pytest.approx(0.5) and span["dur"] == pytest.approx(1.0)
    assert span["args"] == {"answer": 42}
    assert point["ts"] == pytest.approx(1.0)
    assert telemetry.phases["codec.encode"]["count"] == 1
    assert telemetry.meta == {"backend": "sim-opt", "n": 4, "completed": True}


def test_recorder_run_begin_is_idempotent_on_t0():
    recorder = TelemetryRecorder()
    recorder.clock = _fake_clock([10.0, 20.0])
    recorder.run_begin(backend="net")
    recorder.run_begin(n=8)  # substrate re-begin must not move t0
    recorder.run_end()
    telemetry = recorder.finish()
    assert telemetry.wall_seconds == pytest.approx(10.0)
    assert telemetry.meta == {"backend": "net", "n": 8}


def test_recorder_event_cap_keeps_aggregates_exact():
    recorder = TelemetryRecorder(max_events=5)
    recorder.run_begin()
    for i in range(8):
        recorder.span("round", i, float(i), float(i) + 0.5)
    recorder.run_end()
    telemetry = recorder.finish()
    assert len(telemetry.events) == 5
    assert telemetry.dropped_events == 3
    assert telemetry.phases["round"]["count"] == 8  # aggregates never drop


# -- exporters + validators --------------------------------------------------


def _sample_telemetry() -> RunTelemetry:
    recorder = TelemetryRecorder()
    recorder.run_begin(backend="sim-opt", n=4)
    t = recorder.clock()
    recorder.span("round", 0, t, t + 0.001)
    recorder.span("send", 0, t, t + 0.0005, track="node-1")
    recorder.point("decide", 0, t + 0.001, pid=1)
    recorder.run_end(completed=True)
    return recorder.finish()


def test_jsonl_round_trip_and_validation():
    telemetry = _sample_telemetry()
    lines = jsonl_lines(telemetry)
    assert len(lines) == 4 and json.loads(lines[0])["type"] == "meta"
    validate_telemetry_dict(telemetry.to_dict())
    rows = summary_rows(telemetry)
    phases = {row["phase"] for row in rows}
    assert {"round", "send", "[decide]"} <= phases
    assert "round" in format_summary(rows)


def test_chrome_trace_shape():
    telemetry = _sample_telemetry()
    trace = chrome_trace(telemetry)
    validate_chrome_trace(trace)
    phases = {event["ph"] for event in trace["traceEvents"]}
    assert phases == {"M", "X", "i"}
    names = {
        event["args"]["name"]
        for event in trace["traceEvents"]
        if event["ph"] == "M"
    }
    assert {"run", "node-1"} <= names
    assert trace["otherData"]["backend"] == "sim-opt"


def test_write_dispatches_on_suffix(tmp_path):
    telemetry = _sample_telemetry()
    events = tmp_path / "run.events.jsonl"
    trace = tmp_path / "run.trace.json"
    plain = tmp_path / "run.json"
    for path in (events, trace, plain):
        telemetry.write(path)
    validate_chrome_trace(json.loads(trace.read_text()))
    validate_telemetry_dict(json.loads(plain.read_text()))
    for path in (events, plain):
        assert RunTelemetry.load(path).to_dict() == telemetry.to_dict()


def test_api_telemetry_path_writes_artifact(tmp_path):
    path = tmp_path / "flood.trace.json"
    result = _flooding(telemetry=str(path))
    assert result.telemetry is not None
    validate_chrome_trace(json.loads(path.read_text()))


# -- sweep adapter + progress ------------------------------------------------


def test_sweep_telemetry_places_units_on_worker_tracks():
    spec = SweepSpec(
        name="demo", runner=describe_unit, grid={"n": [2, 4, 6], "seed": [7]}
    )
    report = run_sweep(spec)
    telemetry = sweep_telemetry(report)
    validate_telemetry_dict(telemetry.to_dict())
    validate_chrome_trace(chrome_trace(telemetry))
    assert telemetry.meta["experiment"] == "demo"
    assert telemetry.meta["units"] == 3
    assert telemetry.phases["demo"]["count"] == 3
    tracks = {event["track"] for event in telemetry.events}
    assert all(track.startswith("worker-") for track in tracks)
    assert [event["args"]["n"] for event in telemetry.events] == [2, 4, 6]


def test_sweep_progress_hook_sees_every_unit():
    spec = SweepSpec(
        name="demo", runner=describe_unit, grid={"n": [1, 2, 3, 4], "seed": [7]}
    )
    seen = []
    report = run_sweep(spec, progress=seen.append)
    assert [outcome.unit.index for outcome in seen] == [0, 1, 2, 3]
    assert [outcome.row["n"] for outcome in report.outcomes] == [1, 2, 3, 4]
    stats = report.worker_stats()
    assert sum(info["units"] for info in stats.values()) == 4


def test_progress_reporter_throttles_and_closes():
    stream = io.StringIO()
    clock = _fake_clock([0.0, 0.5, 1.0, 2.5, 3.0, 3.1, 3.2])

    class Outcome:
        def __init__(self, elapsed):
            self.elapsed = elapsed
            self.worker = 1234

    reporter = ProgressReporter(
        total=3,
        label="check",
        stream=stream,
        jobs=2,
        enabled=True,
        clock=clock,
    )
    reporter.unit_done(Outcome(0.4))  # t=0.5: inside interval, no line
    reporter.unit_done(Outcome(0.4))  # t=1.0: still throttled
    reporter.unit_done(Outcome(0.4))  # t=2.5: due AND final -> prints
    summary = reporter.close()
    lines = [line for line in stream.getvalue().splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("check: 3/3 units")
    assert "workers" in lines[0]
    assert summary["units"] == 3
    assert summary["jobs"] == 2
    assert summary["utilization"] == pytest.approx(1.2 / (3.0 * 2), abs=0.01)


def test_progress_reporter_disabled_prints_nothing():
    stream = io.StringIO()
    reporter = ProgressReporter(total=1, stream=stream, enabled=None)
    reporter.unit_done(type("O", (), {"elapsed": 0.1, "worker": 1})())
    reporter.close()
    assert stream.getvalue() == ""  # StringIO is not a TTY -> auto-off


def test_describe_fuzz_outcome():
    class Unit:
        params = {"index": 7}

    class Outcome:
        unit = Unit()
        row = {"index": 7, "family": "gossip", "kind": "churn", "violations": 0}

    assert describe_fuzz_outcome(Outcome()) == "#7 gossip/churn"
    Outcome.row = dict(Outcome.row, violations=2)
    assert describe_fuzz_outcome(Outcome()).endswith("VIOLATIONS=2")


# -- CLI ---------------------------------------------------------------------


def test_obs_cli_summarize_chrome_validate(tmp_path, capsys):
    telemetry = _sample_telemetry()
    events = tmp_path / "run.events.jsonl"
    plain = tmp_path / "run.json"
    telemetry.write(events)
    telemetry.write(plain)

    assert obs_main(["summarize", str(events)]) == 0
    out = capsys.readouterr().out
    assert "backend=sim-opt" in out and "round" in out

    assert obs_main(["chrome", str(events)]) == 0
    capsys.readouterr()
    trace = tmp_path / "run.events.trace.json"
    validate_chrome_trace(json.loads(trace.read_text()))

    assert obs_main(["validate", str(events), str(plain), str(trace)]) == 0
    out = capsys.readouterr().out
    assert out.count("ok") == 3


def test_obs_cli_validate_flags_corrupt_artifact(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope", "events": []}))
    assert obs_main(["validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().err
    headless = tmp_path / "headless.events.jsonl"
    headless.write_text(json.dumps({"type": "span", "name": "round", "ts": 0.0}) + "\n")
    assert obs_main(["validate", str(headless)]) == 1
    assert "no meta header line" in capsys.readouterr().err
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[]")
    assert obs_main(["summarize", str(not_an_object)]) == 1
    assert capsys.readouterr().err == "error: telemetry artifact is a list, not an object\n"


@pytest.mark.parametrize(
    "fields, error",
    [
        ({"phases": []}, "phases is a list, not an object"),
        ({"meta": [1]}, "meta is a list, not an object"),
        ({"wall_seconds": "1.0"}, "wall_seconds is a str, not a number"),
        ({"counts": {"decide": "2"}}, "count 'decide' is a str, not an integer"),
        ({"phases": {"round": [1, 2]}}, "phase 'round' is a list, not an object"),
        (
            {"phases": {"round": dict.fromkeys(("count", "total_sec", "mean_sec"), "x")}},
            "phase 'round' count is a str, not a number",
        ),
        ({"events": {}}, "events is a dict, not a list"),
        (
            {"events": [{"type": "span", "name": "round", "ts": 0.0, "dur": None}]},
            "dur of span 'round' is a NoneType, not a number",
        ),
        (
            {"events": [{"type": "point", "name": "decide", "ts": 0.0, "args": [1]}]},
            "args of point 'decide' is a list, not an object",
        ),
    ],
)
def test_obs_cli_names_the_malformed_field(tmp_path, capsys, fields, error):
    """A file of the right shape at the top but the wrong one inside
    fails validation with the field named: one ``error:`` line, exit 1."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_sample_telemetry().to_dict(), **fields}))
    assert obs_main(["summarize", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert obs_main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"FAIL {bad}: {error}\n"


@pytest.mark.parametrize(
    "content, error",
    [
        ([], "chrome trace is a list, not an object"),
        ({"traceEvents": [[]]}, "trace event is a list, not an object"),
        (
            {"traceEvents": [{"ph": "X", "name": "round", "ts": "0", "pid": 1, "tid": 0}]},
            "ts of trace event 'round' is a str, not a number",
        ),
        (
            {"traceEvents": [{"ph": "i", "name": "decide", "ts": 0, "pid": 1, "tid": [0]}]},
            "tid of trace event 'decide' is a list, not an integer",
        ),
    ],
)
def test_obs_cli_validate_names_the_malformed_trace_field(tmp_path, capsys, content, error):
    bad = tmp_path / "x.trace.json"
    bad.write_text(json.dumps(content))
    assert obs_main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"FAIL {bad}: {error}\n"


def _summarize(path, capsys) -> str:
    assert obs_main(["summarize", str(path)]) == 0
    return capsys.readouterr().out


def test_both_serialisations_load_and_summarise_alike(tmp_path, capsys):
    """A net run's telemetry JSON and JSONL event log are one artifact:
    the codec phases (aggregates with no events) survive both."""
    telemetry = _flooding(telemetry=True, backend="net").telemetry
    plain = tmp_path / "flood-net.json"
    events = tmp_path / "flood-net.events.jsonl"
    telemetry.write(plain)
    telemetry.write(events)
    loaded = RunTelemetry.load(plain)
    assert RunTelemetry.load(events).to_dict() == loaded.to_dict()
    assert {"codec.encode", "codec.decode"} <= set(loaded.phases)
    table = _summarize(plain, capsys)
    assert "codec.encode" in table and "codec.decode" in table
    assert _summarize(events, capsys) == table


def test_a_capped_event_log_summarises_exactly(tmp_path, capsys):
    """Dropped timeline events cost the summary nothing: the phase
    aggregates and point counts are the recorder's, not a recount."""
    recorder = TelemetryRecorder(max_events=5)
    result = api.run_flooding([0, 1] * 10, t=4, crashes=None, telemetry=recorder)
    events = tmp_path / "capped.events.jsonl"
    result.telemetry.write(events)
    loaded = RunTelemetry.load(events)
    assert len(loaded.events) == 5 and loaded.dropped_events > 0
    counts = {row["phase"]: row["count"] for row in summary_rows(loaded)}
    assert counts["round"] == result.rounds == 5
    assert counts["[decide]"] == 20
    plain = tmp_path / "capped.json"
    result.telemetry.write(plain)
    assert _summarize(events, capsys) == _summarize(plain, capsys)


def test_a_chrome_trace_is_refused_by_name(tmp_path, capsys):
    trace = tmp_path / "run.trace.json"
    _flooding(telemetry=str(trace))
    with pytest.raises(ValueError, match="write-only") as refused:
        RunTelemetry.load(trace)
    assert str(trace) in str(refused.value)
    for command in ("summarize", "chrome"):
        assert obs_main([command, str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(trace) in captured.err and "write-only" in captured.err


# -- coordinator laggard diagnostics -----------------------------------------


def test_laggard_detail_names_last_completed_span():
    import time as _time

    sync = Session(4)
    now = _time.monotonic()
    # Pids 1 and 2 behind two hosts, pid 3 behind none yet.
    sync.host_of.update({1: 1, 2: 2})
    sync.last_progress[1] = ("send", 5, now - 30.0)
    sync.last_progress[2] = ("ready", -1, now - 2.0)
    detail = sync._laggard_detail({1, 2, 3})
    assert "pid 1: last completed send of round 5" in detail
    assert "30." in detail  # age in seconds
    assert "pid 2: last completed ready" in detail
    assert "pid 3: no reports received yet" in detail
    assert sync._laggard_detail(None) == ""
    assert sync._laggard_detail(set()) == ""


def test_laggard_detail_truncates_long_pending_sets():
    sync = Session(20)
    detail = sync._laggard_detail(set(range(12)))
    assert "... and 4 more" in detail
