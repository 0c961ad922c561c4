"""The traced run: per-layer metrics, one Chrome trace per workload.

``--trace 1`` repeats the workload with the benchmark's own spans around the
public calls into each layer (:mod:`tracing`), protocol-logic timers on every
``Process``, and the program's public ``telemetry=`` recorder for the phase
tables.  Layer = module name.  A layer that does no work in a workload reads
0 there (``net.codec.frames`` on ``dense-flood``); that is a measurement, not
a gap.  Ratios give their base in README.md.

End-to-end metrics are never taken from this run: tracing costs time, and
``bench.trace_overhead.<rung>`` says how much.
"""

from __future__ import annotations

import asyncio
import statistics
import struct

from repro.api import build_recipe_processes, prepare_recipe, run_recipe
from repro.check.driver import run_config, sample_config
from repro.check.oracles import run_oracles
from repro.graphs import Graph, clear_graph_cache
from repro.net import MemoryHub, TCPHub, connect_tcp, run_protocol_net
from repro.net.codec import decode, decode_batch, encode, encode_batch
from repro.obs import TelemetryRecorder
from repro.serve import run_many
from repro.serve.wire import read_msg, send_msg
from repro.sim.engine import Engine
from repro.sim.process import payload_bits
from repro.sim.vec import vec_run
from repro.sim.vec.engine import build_kernel
from repro.trace import replay_trace

from harness import DirectRung, ServeRung, clock, model_totals, percentile, timed_passes
from tracing import LogicTimer, SpanLog, send_groups

#: phase spans kept per instance in the Chrome trace (totals are exact)
PHASE_SPANS = 200

#: untraced passes per rung that the overhead ratios take as their base
BASE_PASSES = 3

#: fuzz configurations the ``check`` probe runs
CHECK_CONFIGS = 40

_RUN_LAYER = {"sim": "sim.engine", "vec": "sim.vec", "net": "net.runtime", "tcp": "net.runtime"}


# -- running a prepared instance on a substrate -------------------------------


def run_substrate(rung: str, prepared, *, telemetry=None, batching: bool = True):
    """The substrate call ``run_recipe`` makes, on already-built processes."""
    common = dict(
        byzantine=prepared.byzantine,
        max_rounds=prepared.max_rounds,
        fast_forward=prepared.fast_forward,
        telemetry=telemetry,
    )
    if rung == "sim":
        return Engine(prepared.processes, prepared.adversary, **common).run()
    if rung == "vec":
        return vec_run(prepared.processes, prepared.adversary, **common)
    return run_protocol_net(
        prepared.processes,
        prepared.adversary,
        transport="memory" if rung == "net" else "tcp",
        batching=batching,
        **common,
    )


def decompose(rung, instances, reference, gate, *, whole: bool = False, batching: bool = True) -> dict:
    """One untraced pass split at the api boundary, instance by instance:
    ``build_recipe_processes`` alone, ``prepare_recipe`` (build + fault
    resolution), the substrate on the prepared processes and, with
    ``whole``, the ``run_recipe`` call the three are parts of."""
    out = {"build_s": 0.0, "prepare_s": 0.0, "run_s": 0.0, "total_s": 0.0, "kernel_hits": 0}
    results = []
    for inst in instances:
        t0 = clock()
        build_recipe_processes(inst.recipe)
        t1 = clock()
        prepared = prepare_recipe(inst.recipe, **inst.execution())
        t2 = clock()
        if rung == "vec" and build_kernel(prepared.processes) is not None:
            out["kernel_hits"] += 1
        t3 = clock()
        results.append(run_substrate(rung, prepared, batching=batching))
        t4 = clock()
        if whole:
            run_recipe(inst.recipe, backend=rung, **inst.execution())
            out["total_s"] += clock() - t4
        out["run_s"] += t4 - t3
        out["build_s"] += t1 - t0
        out["prepare_s"] += t2 - t1
    gate.check_pass(rung, instances, results, reference)
    return out


def traced_pass(rung, instances, reference, gate, spans: SpanLog) -> dict:
    """One pass with everything on: spans, logic timers, phase recorder."""
    out = {
        "run_s": 0.0,
        "core": {},  # label -> seconds inside protocol logic
        "timer": LogicTimer(),  # totals and captured sends over the pass
        "phases": {},  # recorder phase name -> seconds
    }
    results = []
    start = clock()
    for index, inst in enumerate(instances):
        chain = f"{rung}/{index:03d}-{inst.label}"
        with spans.span("instance", "bench", chain=chain, label=inst.label) as root:
            with spans.span("prepare_recipe", "api", chain=chain, parent=root["id"]):
                prepared = prepare_recipe(inst.recipe, **inst.execution())
            timer = LogicTimer()
            timer.install(prepared.processes)
            recorder = TelemetryRecorder(max_events=50_000)
            with spans.span("run", _RUN_LAYER[rung], chain=chain, parent=root["id"]) as run:
                t0 = clock()
                result = run_substrate(rung, prepared, telemetry=recorder)
                out["run_s"] += clock() - t0
            kept = 0
            for event in recorder.events:
                if event[0] == "span" and event[2] == "run" and event[1] != "round":
                    _kind, name, _track, rnd, t_start, t_end, _args = event
                    spans.add(name, "obs.phase", t_start, t_end, chain=chain, parent=run["id"], round=rnd)
                    kept += 1
                    if kept == PHASE_SPANS:
                        break
        results.append(result)
        out["core"][inst.label] = out["core"].get(inst.label, 0.0) + timer.total_s
        out["timer"].absorb(timer)
        for name, stats in recorder.stats.items():
            out["phases"][name] = out["phases"].get(name, 0.0) + stats.total
    out["wall"] = clock() - start
    gate.check_pass(rung, instances, results, reference)
    return out


# -- probes of single layers --------------------------------------------------


def _graphs_of(obj, depth: int = 2) -> list:
    """The ``Graph`` objects a built process holds, sub-protocols included."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, Graph):
            found.append(value)
        elif depth and hasattr(value, "__dict__") and not isinstance(value, type):
            found.extend(_graphs_of(value, depth - 1))
    return found


def probe_graphs(instances, values) -> None:
    """``build_recipe_processes`` on a cleared graph cache, then again warm.
    Which graphs a build made is read off the processes it returned: one
    that an earlier instance already held was served by the cache, and where
    a new one appears, cold minus warm is what constructing it cost."""
    clear_graph_cache()
    built: dict = {}  # id -> graph, which also keeps the ids alive
    build_s = 0.0
    hits = 0
    for inst in instances:
        t0 = clock()
        processes = build_recipe_processes(inst.recipe)[0]
        t1 = clock()
        build_recipe_processes(inst.recipe)
        t2 = clock()
        graphs = {id(g): g for g in _graphs_of(processes[0])}
        hits += len(graphs.keys() & built.keys())
        if graphs.keys() - built.keys():
            build_s += max(0.0, (t1 - t0) - (t2 - t1))
            built.update(graphs)
    values["graphs.build_s"] = build_s
    values["graphs.built"] = len(built)
    values["graphs.edges"] = sum(graph.edge_count for graph in built.values())
    values["graphs.cache_hits"] = hits


def probe_scenarios(instances, reference, values) -> None:
    compile_s = 0.0
    events = 0
    for inst in instances:
        if inst.scenario is None:
            continue
        t0 = clock()
        inst.scenario.adversary()
        compile_s += clock() - t0
        sc = inst.scenario
        events += len(sc.crashes) + len(sc.omissions) + len(sc.partitions) + len(sc.churn)
    values["scenarios.compile_s"] = compile_s
    values["scenarios.events"] = events
    values["scenarios.dropped_msgs"] = sum(
        r.metrics.dropped_messages for r in reference if not isinstance(r, Exception)
    )


def probe_payload_bits(sends, values) -> None:
    payloads = [payload for payload, _fanout in send_groups(sends)]
    t0 = clock()
    for payload in payloads:
        payload_bits(payload)
    values["sim.metrics.payload_bits_s"] = clock() - t0
    values["sim.metrics.payload_bits_calls"] = len(payloads)


def probe_trace(instances, per_instance_s, reference, gate, values) -> None:
    """Record, serialise and replay; overhead is against the same
    instances' untraced ``sim`` medians."""
    wall, results, _lat = DirectRung("sim").sweep(instances, record_trace=True)
    gate.check_pass("sim+record_trace", instances, results, reference)
    values["trace.record_overhead"] = wall / sum(per_instance_s)
    traces = [r.trace for r in results if not isinstance(r, Exception)]
    values["trace.events"] = sum(len(trace.events) for trace in traces)
    values["trace.bytes"] = sum(len(trace.to_json()) for trace in traces)
    t0 = clock()
    for trace in traces:
        replay_trace(trace)  # raises TraceDivergence on any difference
    values["trace.replay_s"] = clock() - t0


def probe_check(seed: int, count: int, values) -> None:
    """The fuzzer's rate on ``count`` configurations of series ``seed``."""
    sample_s = oracle_s = 0.0
    violations = 0
    start = clock()
    for index in range(count):
        t0 = clock()
        config = sample_config(seed, index)
        sample_s += clock() - t0
        violations += run_config(config)["violations"]
    values["check.configs_per_s"] = count / (clock() - start)
    values["check.sample_s"] = sample_s
    values["check.violations"] = violations
    # run_config does not expose its oracle time; take it on fresh primary
    # runs of the same configurations.
    for index in range(count):
        config = sample_config(seed, index)
        kwargs = {"max_rounds": config.max_rounds, "record_trace": True}
        if config.recipe["name"] != "ab_consensus":
            kwargs["crashes"] = None  # failure-free unless the scenario says so
        if config.scenario is not None:
            kwargs["scenario"] = config.scenario
        primary = run_recipe(config.recipe, backend="sim", **kwargs)
        t0 = clock()
        run_oracles(
            config.family, config.recipe, primary,
            scenario=config.scenario, trace=primary.trace, max_rounds=config.max_rounds,
        )
        oracle_s += clock() - t0
    values["check.oracle_s"] = oracle_s


def probe_codec(sends, values) -> list:
    """``encode`` once per send action, ``decode`` once per frame,
    ``encode_batch`` over each action's fan-out; returns the bodies for the
    transport probe."""
    groups = send_groups(sends)
    bodies = []
    t0 = clock()
    for payload, _fanout in groups:
        bodies.append(encode(payload))
    values["net.codec.encode_s"] = clock() - t0
    frames = sum(fanout for _payload, fanout in groups)
    t0 = clock()
    for body, (_payload, fanout) in zip(bodies, groups):
        for _ in range(fanout):
            decode(body)
    values["net.codec.decode_s"] = clock() - t0
    # Batches of up to 256 send actions, as a connection's write loop
    # coalesces whatever is queued; blobs shipped are read from the
    # documented batch layout ([u32 nblobs] first).
    shipped = wire_bytes = 0
    step = 256
    for lo in range(0, len(groups), step):
        batch = [
            (0, dst, 0, body)
            for body, (_payload, fanout) in zip(bodies[lo:lo + step], groups[lo:lo + step])
            for dst in range(fanout)
        ]
        blob = encode_batch(batch)
        wire_bytes += len(blob)
        shipped += struct.unpack_from(">I", blob)[0]
        decode_batch(blob, peer="bench", phase="codec probe")
    values["net.codec.frames"] = frames
    values["net.codec.bytes"] = wire_bytes
    values["net.codec.bytes_per_msg"] = wire_bytes / frames if frames else 0.0
    values["net.codec.intern_ratio"] = shipped / frames if frames else 0.0
    return bodies


def probe_transport(bodies, values) -> None:
    """Hub echo: the captured frame bodies from endpoint 0 to endpoint 1."""
    bodies = bodies[:20_000]

    async def echo(sender, receiver) -> float:
        async def drain():
            for _ in bodies:
                await receiver.recv()

        t0 = clock()
        task = asyncio.ensure_future(drain())
        for body in bodies:
            await sender.send_encoded(1, body)
        await task
        return clock() - t0

    async def memory() -> float:
        hub = MemoryHub()
        return await echo(hub.endpoint(0), hub.endpoint(1))

    async def tcp() -> float:
        hub = TCPHub()
        await hub.start()
        sender = await connect_tcp("127.0.0.1", hub.port, 0)
        receiver = await connect_tcp("127.0.0.1", hub.port, 1)
        try:
            elapsed = await echo(sender, receiver)
            stats = hub.connection_stats()
            values["net.transport.queue_high_water"] = max(
                (row["queue_hwm"] for row in stats), default=0
            )
            values["net.transport.backpressure_drops"] = hub.backpressure_drops
            return elapsed
        finally:
            await sender.close()
            await receiver.close()
            await hub.close()

    if bodies:
        values["net.transport.mem_frames_per_s"] = len(bodies) / asyncio.run(memory())
        values["net.transport.tcp_frames_per_s"] = len(bodies) / asyncio.run(tcp())


# -- direct rungs: dense-flood, family-suite, wire-ladder ---------------------


def _direct_layers(workload, rungs, reference, gate, args, values, spans) -> None:
    instances = workload.instances
    rung1, rung2 = (rung.name for rung in rungs)
    base, per_instance = {}, {}
    runs = timed_passes(rungs, instances, reference, gate, 0.0, BASE_PASSES)
    for name, run in runs.items():
        base[name] = statistics.median(run["passes"])
        per_instance[name] = [statistics.median(s) for s in run["per_instance"]]
    rounds, msgs, _bits = model_totals(reference)

    split = {
        rung.name: decompose(rung.name, instances, reference, gate, whole=rung.name == rung1)
        for rung in rungs
    }
    traced = {
        rung.name: traced_pass(rung.name, instances, reference, gate, spans) for rung in rungs
    }
    for rung in rungs:
        values[f"bench.trace_overhead.{rung.name}"] = traced[rung.name]["wall"] / base[rung.name]
        wall, results, _lat = rung.sweep(instances, telemetry=True)
        gate.check_pass(f"{rung.name}+telemetry", instances, results, reference)
        values[f"obs.overhead.{rung.name}"] = wall / base[rung.name]
        if rung.name == rung1:
            values["obs.events"] = sum(
                len(r.telemetry.events) for r in results if not isinstance(r, Exception)
            )

    first = split[rung1]
    values["api.build_s"] = first["build_s"]
    values["api.prepare_s"] = first["prepare_s"]
    values["api.build_share"] = first["build_s"] / first["total_s"]
    values["api.dispatch_s"] = first["total_s"] - first["build_s"] - first["run_s"]
    timer = traced[rung1]["timer"]
    values["core.send_s"] = timer.send_s
    values["core.receive_s"] = timer.receive_s
    values["core.calls"] = timer.calls
    phases = traced[rung1]["phases"]
    values["obs.phase.send_s"] = phases.get("send", 0.0)
    values["obs.phase.deliver_s"] = phases.get("deliver", 0.0)
    values["obs.phase.codec_encode_s"] = phases.get("codec.encode", 0.0)
    values["obs.phase.codec_decode_s"] = phases.get("codec.decode", 0.0)
    values["obs.phase.node_s"] = phases.get("node.send", 0.0) + phases.get("node.deliver", 0.0)
    if "vec" in traced:
        values["obs.phase.kernel_step_s"] = traced["vec"]["phases"].get("kernel.step", 0.0)
    probe_graphs(instances, values)
    probe_scenarios(instances, reference, values)

    if rung1 == "sim":
        for rung in ("sim", "vec"):
            for family, seconds in traced[rung]["core"].items():
                values[f"core.{family}.{rung}_s"] = seconds
        values["sim.engine.run_s"] = split["sim"]["run_s"]
        values["sim.engine.self_s"] = traced["sim"]["run_s"] - timer.total_s
        values["sim.engine.msgs_per_s"] = msgs / split["sim"]["run_s"]
        values["sim.engine.rounds_per_s"] = rounds / split["sim"]["run_s"]
        wall, results, _lat = rungs[0].sweep(instances, optimized=False)
        gate.check_pass("sim-ref", instances, results, reference)
        values["sim.engine.ref_pass_s"] = wall
        values["sim.engine.opt_over_ref"] = wall / base["sim"]
        values["sim.vec.run_s"] = split["vec"]["run_s"]
        values["sim.vec.kernel_hit_ratio"] = split["vec"]["kernel_hits"] / len(instances)
        values["sim.vec.speedup_over_sim"] = base["sim"] / base["vec"]
        probe_payload_bits(traced["sim"]["timer"].sends, values)
        # Recording a dense instance holds every delivered message, so the
        # trace probe takes one instance per family label.
        seen, subset = set(), []
        for index, inst in enumerate(instances):
            if inst.label not in seen:
                seen.add(inst.label)
                subset.append(index)
        probe_trace(
            [instances[i] for i in subset],
            [per_instance["sim"][i] for i in subset],
            [reference[i] for i in subset],
            gate,
            values,
        )
        if workload.name == "family-suite":
            probe_check(args.seed, 2 if args.quick else CHECK_CONFIGS, values)
    else:
        values["net.runtime.run_s"] = split["net"]["run_s"]
        values["net.runtime.round_s"] = split["net"]["run_s"] / rounds
        for rung in ("net", "tcp"):
            for inst, seconds in zip(instances, per_instance[rung]):
                values[f"net.runtime.{inst.label}.{rung}_s"] = seconds
        unbatched = decompose("tcp", instances, reference, gate, batching=False)
        values["net.runtime.batching_gain"] = unbatched["run_s"] / split["tcp"]["run_s"]
        bodies = probe_codec(traced["net"]["timer"].sends, values)
        probe_transport(bodies, values)


# -- serve-mixed --------------------------------------------------------------


async def _staged_loop(rung: ServeRung, instances, spans: SpanLog) -> dict:
    """The closed loop with each submission timed in stages and watched:
    submit -> accepted -> first round update -> result."""
    stages = {"submit": [], "first_round": [], "result": []}
    results = [None] * len(instances)
    todo = iter(enumerate(instances))
    client = rung.client

    async def caller() -> None:
        for index, inst in todo:
            chain = f"serve/{index:03d}-{inst.label}"
            with spans.span("instance", "bench", chain=chain, label=inst.label) as root:
                t0 = clock()
                with spans.span("submit", "serve", chain=chain, parent=root["id"]):
                    run_id = await client.submit(inst.recipe, inst.wire_execution())
                t1 = clock()
                updates = client.watch(run_id)
                with spans.span("run", "serve", chain=chain, parent=root["id"]) as run:
                    pending = asyncio.ensure_future(client.result(run_id))
                    kind, _info = await updates.get()
                    t2 = clock()
                    spans.add("first_round", "net.runtime", t1, t2, chain=chain, parent=run["id"], kind=kind)
                    results[index] = await pending
                t3 = clock()
            stages["submit"].append(t1 - t0)
            stages["first_round"].append(t2 - t0)
            stages["result"].append(t3 - t1)

    start = clock()
    await asyncio.gather(*(caller() for _ in range(rung.window)))
    stages["wall"] = clock() - start
    stages["results"] = results
    return stages


class _Sink:
    """Collects what ``send_msg`` writes (it only calls ``write``)."""

    def __init__(self) -> None:
        self.chunks: list = []

    def write(self, data: bytes) -> None:
        self.chunks.append(data)


def probe_serve_wire(results, values) -> None:
    """``repro.serve.wire`` framing of the captured results, both ways."""

    async def roundtrip() -> float:
        t0 = clock()
        sink = _Sink()
        for index, result in enumerate(results):
            send_msg(sink, ("result", f"run-{index:06d}", result))
        reader = asyncio.StreamReader()
        reader.feed_data(b"".join(sink.chunks))
        reader.feed_eof()
        for _ in results:
            await read_msg(reader, peer="bench")
        return clock() - t0

    values["serve.wire_s"] = asyncio.run(roundtrip())


def _serve_layers(workload, rungs, reference, gate, args, values, spans) -> None:
    instances = workload.instances
    many, serve = rungs
    runs = timed_passes(rungs, instances, reference, gate, 0.0, BASE_PASSES)
    base_many = statistics.median(runs[many.name]["passes"])
    values["serve.run_many_inst_per_s"] = len(instances) / base_many
    run = runs[serve.name]
    base_serve = statistics.median(run["passes"])
    by_label: dict = {}
    for samples, inst in zip(run["per_instance"], instances):
        by_label.setdefault(inst.label, []).extend(samples)
    for label, samples in by_label.items():
        values[f"serve.lat_p50_ms.{label}"] = 1000.0 * percentile(samples, 0.50)
    values["serve.lat_p99_ms"] = 1000.0 * percentile(
        [value for samples in run["per_instance"] for value in samples], 0.99
    )

    staged = serve.loop.run_until_complete(_staged_loop(serve, instances, spans))
    gate.check_pass("serve+watch", instances, staged["results"], reference)
    values["bench.trace_overhead.serve"] = staged["wall"] / base_serve
    values["serve.submit_ms"] = 1000.0 * statistics.median(staged["submit"])
    values["serve.first_round_ms"] = 1000.0 * statistics.median(staged["first_round"])
    values["serve.result_ms"] = 1000.0 * statistics.median(staged["result"])
    probe_serve_wire(staged["results"], values)

    for window in (4, 32):
        serve.window = window
        wall, results, _lat = serve.sweep(instances)
        gate.check_pass(f"serve-w{window}", instances, results, reference)
        values[f"serve.inst_per_s.w{window}"] = len(instances) / wall
    values["serve.peak_concurrent"] = serve.loop.run_until_complete(serve.client.status())[
        "peak_concurrent"
    ]

    # run_many with the benchmark's spans around the facade call.
    with spans.span("run_many", "serve", chain="run_many/batch", instances=len(instances)):
        t0 = clock()
        results = run_many([(inst.recipe, inst.wire_execution()) for inst in instances])
        traced_many = clock() - t0
    gate.check_pass("run_many+span", instances, results, reference)
    values["bench.trace_overhead.run_many"] = traced_many / base_many

    t0 = clock()
    for inst in instances:
        prepare_recipe(inst.recipe, **inst.execution())
    values["api.prepare_s"] = clock() - t0
    t0 = clock()
    for inst in instances:
        build_recipe_processes(inst.recipe)
    values["api.build_s"] = clock() - t0
    values["api.build_share"] = values["api.build_s"] / base_serve
    probe_scenarios(instances, reference, values)


# -- entry --------------------------------------------------------------------


def traced_run(workload, rungs, reference, gate, args, names, out_dir) -> tuple:
    """All per-layer metrics of one workload, and its Chrome trace.
    ``names`` are the metrics ``BENCHMARK.json`` declares; the ones whose
    layer does no work in this workload stay 0."""
    values = dict.fromkeys(names, 0.0)
    spans = SpanLog()
    if workload.name == "serve-mixed":
        _serve_layers(workload, rungs, reference, gate, args, values, spans)
    else:
        _direct_layers(workload, rungs, reference, gate, args, values, spans)
    out_dir.mkdir(exist_ok=True)
    spans.write(
        out_dir / f"trace-{workload.name}.json",
        workload=workload.name,
        seed=args.seed,
        layer_self_seconds=spans.self_seconds(),
    )
    detail = {"spans": {"n": len(spans.spans)}}
    return values, detail

