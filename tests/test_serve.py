"""The run-server: session multiplexing, parity, and backpressure.

Three walls around :mod:`repro.serve` and the session-multiplexed
transport underneath it:

* **Concurrent-session parity** (hypothesis property): any mix of
  recipes -- families, seeds, crash modes, churn scenarios -- executed
  *concurrently* over one shared hub must be ``check_parity``-identical,
  run for run, to serial ``backend="sim"`` executions of the same
  recipes.  Multiplexing N sessions onto one event loop and one wire
  must be observably invisible.
* **Service surface**: submit/watch/result/status over the TCP client
  API, worker-process sharding, and the wire contract that client-facing
  results strip live process objects (which may be unpicklable) while
  keeping everything parity compares.
* **Backpressure**: a consumer that stops reading -- a hub connection or
  a serve client stream -- must be dropped at its queue bound with an
  actionable error naming the laggard, while every other session keeps
  advancing.
"""

import asyncio
import gc
import random
import socket
import time
import weakref
from asyncio.base_events import BaseEventLoop

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import run_recipe
from repro.check import check_parity
from repro.check.driver import FAMILIES, sample_instance
from repro.net import runtime as runtime_mod
from repro.net.codec import CONTROL, HEADER, MAX_FRAME_BYTES, encode
from repro.net.runtime import NetRuntimeError
from repro.net.transport import TCPHub, open_mux
from repro.scenarios import Scenario
from repro.serve import RunServer, ServeClient, run_many
from repro.serve import server as server_mod
from repro.serve.wire import send_msg
from repro.sim.adversary import crash_schedule

RECIPE_KINDS = ["flood-none", "flood-random", "flood-early", "gossip", "churn"]


def make_recipe(kind: str, seed: int):
    """A deterministic (protocol, execution) pair per kind+seed, in the
    JSON-safe shape a serve client submits (scenario as dict)."""
    if kind == "gossip":
        rumors = [f"r{seed}-{j}" for j in range(6)]
        return {"name": "gossip", "rumors": rumors, "t": 1}, {
            "crashes": None,
            "seed": seed,
        }
    if kind == "churn":
        # Crash + down-then-rejoin legs; the rejoin lands before the
        # flooding halt round so the run terminates.
        n = 8
        scenario = Scenario(n=n, crashes=[(1, 1, None)], churn=[(2, 1, 3, None)])
        protocol = {
            "name": "flooding",
            "inputs": [(seed + j) % 2 for j in range(n)],
            "t": 3,
        }
        return protocol, {"scenario": scenario.to_dict(), "seed": seed}
    mode = {
        "flood-none": None,
        "flood-random": "random",
        "flood-early": "early",
    }[kind]
    n = 6
    protocol = {
        "name": "flooding",
        "inputs": [(seed + j) % 2 for j in range(n)],
        "t": 2,
    }
    return protocol, {"crashes": mode, "seed": seed}


def sim_reference(protocol: dict, execution: dict):
    """The serial simulator run the served result must match."""
    execution = dict(execution)
    if isinstance(execution.get("scenario"), dict):
        execution["scenario"] = Scenario.from_dict(execution["scenario"])
    return run_recipe(protocol, backend="sim", **execution)


recipe_specs = st.lists(
    st.tuples(st.sampled_from(RECIPE_KINDS), st.integers(0, 50)),
    min_size=1,
    max_size=5,
)


class TestConcurrentSessionParity:
    """N concurrent sessions over one hub == N serial simulator runs."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(specs=recipe_specs)
    def test_memory_hub_matches_serial_sim(self, specs):
        recipes = [make_recipe(kind, seed) for kind, seed in specs]
        results = run_many(recipes)
        for (protocol, execution), served in zip(recipes, results):
            check_parity(
                served, sim_reference(protocol, execution), "served", "sim"
            )

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(specs=recipe_specs)
    def test_tcp_hub_matches_serial_sim(self, specs):
        # One worker process: every coordinator<->host frame crosses the
        # hub socket, all sessions multiplexed on the one connection.
        recipes = [make_recipe(kind, seed) for kind, seed in specs]
        results = run_many(recipes, workers=1)
        for (protocol, execution), served in zip(recipes, results):
            check_parity(
                served, sim_reference(protocol, execution), "served", "sim"
            )

    def test_churn_sessions_interleave_with_healthy_ones(self):
        # The REJOIN barrier leg of one session must not perturb its
        # neighbours on the shared hub.
        recipes = [
            make_recipe("churn", 1),
            make_recipe("flood-none", 2),
            make_recipe("churn", 3),
            make_recipe("gossip", 4),
        ]
        results = run_many(recipes, workers=1)
        for (protocol, execution), served in zip(recipes, results):
            check_parity(
                served, sim_reference(protocol, execution), "served", "sim"
            )

    def test_thousand_sessions_at_once_on_one_hub(self):
        # The concurrency floor: 1000 instances submitted before any of
        # them has advanced a round, all multiplexed on one hub.
        recipes = [make_recipe("flood-early", seed) for seed in range(1000)]

        async def burst():
            server = RunServer()
            await server.start()
            try:
                run_ids = [await server.submit(*recipe) for recipe in recipes]
                in_flight = server.status()
                results = [await server.result(run_id) for run_id in run_ids]
                return in_flight, results, server.status()
            finally:
                await server.close()

        in_flight, results, status = asyncio.run(burst())
        assert in_flight["active"] == 1000
        assert all(result.completed for result in results)
        assert (status["completed"], status["failed"]) == (1000, 0)
        assert status["peak_concurrent"] == 1000
        assert (status["active"], status["retained"]) == (0, 0)
        for (protocol, execution), served in list(zip(recipes, results))[::125]:
            check_parity(
                served, sim_reference(protocol, execution), "served", "sim"
            )


class TestHubPlacement:
    """A frame crosses a socket only where a process boundary is: the
    server binds everything it runs itself on its own hub, and the hub
    has a socket only when there are workers to dial it."""

    def test_no_workers_opens_no_socket_before_listen(self, monkeypatch):
        opened = []
        for name in ("create_server", "create_connection"):
            real = getattr(BaseEventLoop, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                opened.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(BaseEventLoop, name, counting)
        protocol, execution = make_recipe("gossip", 2)

        async def scenario():
            server = RunServer()  # workers=0
            await server.start()
            try:
                served = await server.result(await server.submit(protocol, execution))
                before_listen = list(opened)
                await server.listen("127.0.0.1", 0)
                return served, before_listen, server.status()
            finally:
                await server.close()

        served, before_listen, status = asyncio.run(scenario())
        check_parity(served, sim_reference(protocol, execution), "served", "sim")
        assert before_listen == []
        assert opened == ["create_server"]  # the client API, nothing else
        assert status["transport"] == "memory"

    def test_served_session_stays_within_the_turn_budget(self, monkeypatch):
        # ``tests/test_net_runtime.py::TestTurnBudget``'s bound, through
        # the server: the self-dialled hub socket this replaced took
        # ~24 turns per round (writer, hub reader, pump, mux reader).
        protocol, execution = make_recipe("gossip", 5)
        turns = [0]
        run_once = BaseEventLoop._run_once

        def counting_run_once(loop):
            turns[0] += 1
            return run_once(loop)

        monkeypatch.setattr(BaseEventLoop, "_run_once", counting_run_once)

        async def scenario():
            server = await RunServer().start()
            try:
                before = turns[0]
                served = await server.result(await server.submit(protocol, execution))
                return served, turns[0] - before
            finally:
                await server.close()

        served, spent = asyncio.run(scenario())
        monkeypatch.undo()
        check_parity(served, sim_reference(protocol, execution), "served", "sim")
        assert spent <= 6 * served.rounds + 40

    def test_all_families_match_sim_through_workers(self):
        recipes = [
            (sample_instance(family, random.Random(seed), seed), {"crashes": "random", "seed": seed})
            for seed, family in enumerate(FAMILIES)
        ]
        assert len(recipes) == 10
        results = run_many(recipes, workers=2)
        for (protocol, execution), served in zip(recipes, results):
            check_parity(
                served, sim_reference(protocol, execution), "served", "sim"
            )

    def test_close_with_sessions_in_flight_stops_every_worker(self):
        protocol = {"name": "gossip", "rumors": list(range(48)), "t": 5}

        async def scenario():
            server = RunServer(workers=2)
            await server.start()
            run_ids = [
                await server.submit(protocol, {"crashes": None, "seed": seed})
                for seed in range(8)
            ]
            # Let the sessions get under way on both workers, not finish.
            while not all(server._runs[rid].rounds_seen for rid in run_ids):
                await asyncio.sleep(0)
            in_flight = server.status()["active"]
            started = time.monotonic()
            await server.close()
            return in_flight, time.monotonic() - started, server

        in_flight, elapsed, server = asyncio.run(scenario())
        assert in_flight == 8
        assert [proc.is_alive() for proc in server._worker_procs] == [False, False]
        # Both got their shutdown frame and left by themselves (a worker
        # that lost it would be terminated after the 10 s join).
        assert [proc.exitcode for proc in server._worker_procs] == [0, 0]
        assert elapsed < 5.0
        assert server.status()["transport"] == "tcp"


class TestSessionTimeout:
    """``session_timeout`` end to end: a wedged run fails by itself,
    with an error that says which run and which pids -- a silent host
    lists every pid it was to report."""

    @pytest.mark.parametrize("workers", [0, 1], ids=["memory", "tcp"])
    def test_wedged_run_fails_alone_naming_run_and_pid(self, workers, monkeypatch):
        real_run_nodes = runtime_mod.run_nodes

        async def wedged_run_nodes(processes, endpoint, coordinator, **kwargs):
            if endpoint.instance == 1:
                await asyncio.Event().wait()  # hosted, never reports READY
            await real_run_nodes(processes, endpoint, coordinator, **kwargs)

        monkeypatch.setattr(runtime_mod, "run_nodes", wedged_run_nodes)
        monkeypatch.setattr(RunServer, "session_timeout", 0.5)
        wedged, healthy = make_recipe("flood-none", 1), make_recipe("churn", 2)

        async def main():
            server = RunServer(workers=workers)
            await server.start()
            if workers:
                # Hosting is the worker's: wedge run 1 by losing its
                # "host" command, so no host ever binds or reports.
                real_send = server._ctrl.send

                async def lossy_send(dst, msg):
                    if msg[:2] != ("host", 1):
                        await real_send(dst, msg)

                server._ctrl.send = lossy_send
            try:
                wedged_id = await server.submit(*wedged)
                healthy_id = await server.submit(*healthy)
                assert wedged_id == "run-000001"
                started = time.monotonic()
                with pytest.raises(NetRuntimeError) as excinfo:
                    await server.result(wedged_id)
                elapsed = time.monotonic() - started
                return (
                    str(excinfo.value),
                    elapsed,
                    await server.result(healthy_id),
                    server.status(),
                )
            finally:
                await server.close()

        message, elapsed, served, status = asyncio.run(main())
        assert 0.5 <= elapsed <= 0.75
        assert "session 1: coordinator timed out after 0.5s" in message
        assert "ready phase, missing pids [0, 1, 2, 3, 4, 5]" in message
        assert "pid 5: no reports received yet" in message
        check_parity(served, sim_reference(*healthy), "served", "sim")
        assert (status["completed"], status["failed"]) == (1, 1)


class TestServeClientAPI:
    def test_submit_watch_result_status(self):
        protocol, execution = make_recipe("flood-early", 3)

        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            run_id = await client.submit(protocol, execution)
            queue = client.watch(run_id)
            events = []
            while True:
                kind, info = await asyncio.wait_for(queue.get(), 30)
                events.append((kind, info))
                if kind == "done":
                    break
            result = await client.result(run_id)
            status = await client.status()
            await client.close()
            await server.close()
            return run_id, events, result, status

        run_id, events, result, status = asyncio.run(scenario())
        assert run_id == "run-000001"
        # Per-round progress, then a terminal done event.
        assert [kind for kind, _ in events[:-1]] == ["update"] * (
            len(events) - 1
        )
        rounds = [info["round"] for _, info in events[:-1]]
        assert rounds == sorted(rounds)
        done = events[-1][1]
        assert done["ok"] and done["completed"]
        assert done["rounds"] == result.rounds
        check_parity(result, sim_reference(protocol, execution), "served", "sim")
        assert status["submitted"] == 1 and status["completed"] == 1
        assert status["failed"] == 0 and status["active"] == 0

    def test_worker_sharded_sessions_match_sim(self):
        recipes = [make_recipe(kind, i) for i, kind in enumerate(RECIPE_KINDS)]

        async def scenario():
            server = RunServer(workers=2)
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            run_ids = [
                await client.submit(protocol, execution)
                for protocol, execution in recipes
            ]
            results = [
                await asyncio.wait_for(client.result(rid), 60)
                for rid in run_ids
            ]
            status = await client.status()
            await client.close()
            await server.close()
            return results, status

        results, status = asyncio.run(scenario())
        assert status["workers"] == 2
        for (protocol, execution), served in zip(recipes, results):
            check_parity(
                served, sim_reference(protocol, execution), "served", "sim"
            )

    def test_wire_results_strip_live_processes(self):
        # A RunResult carries the live process objects, which need not
        # pickle (a running gossip node's probe closes over a lambda);
        # the client-facing copy must still arrive -- with process
        # objects left server-side and every field parity compares
        # intact.
        protocol, execution = make_recipe("gossip", 7)
        reference = sim_reference(protocol, execution)
        assert len(reference.processes) == 6

        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            run_id = await client.submit(protocol, execution)
            result = await asyncio.wait_for(client.result(run_id), 60)
            await client.close()
            await server.close()
            return result

        result = asyncio.run(scenario())
        assert result.completed
        assert len(result.processes) == 0
        check_parity(result, reference, "served", "sim")

    def test_bad_recipe_reports_error(self):
        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(RuntimeError, match="run-server error"):
                    await client.submit({"name": "no-such-family"}, {})
                with pytest.raises(RuntimeError, match="unknown execution"):
                    await client.submit(
                        make_recipe("flood-none", 0)[0], {"bogus_key": 1}
                    )
                # A misspelt or missing recipe key is rejected at submit
                # with the family's accepted keys, not built silently or
                # surfaced as a bare KeyError.
                flood = {"name": "flooding", "inputs": [0, 1, 1, 0], "t": 1}
                with pytest.raises(
                    RuntimeError, match=r"ValueError.*unknown keys \['overlay_sed'\]"
                ):
                    await client.submit({**flood, "overlay_sed": 5}, {})
                del flood["t"]
                with pytest.raises(
                    RuntimeError, match=r"ValueError.*missing keys \['t'\].*required"
                ):
                    await client.submit(flood, {})
                assert server.status()["submitted"] == 0
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())

    def test_watch_of_a_never_submitted_id_yields_the_error(self):
        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                queue = client.watch("run-999999")
                return await asyncio.wait_for(queue.get(), 5)
            finally:
                await client.close()
                await server.close()

        # The server's KeyError text, not its repr: no doubled quotes.
        assert asyncio.run(scenario()) == ("error", "unknown run_id 'run-999999'")

    def test_requests_after_the_server_went_away_fail_fast(self):
        protocol, execution = make_recipe("flood-none", 2)

        async def scenario():
            unretrieved = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: unretrieved.append(context["message"])
            )
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            await client.status()
            await server.close()
            requests = (
                client.status(),
                client.submit(protocol, execution),
                client.result("run-000001"),
            )
            for request in requests:
                with pytest.raises(ConnectionError):
                    await asyncio.wait_for(request, 1)
            late = client.watch("run-000002")
            assert await asyncio.wait_for(late.get(), 1) == ("closed", None)
            await client.close()
            gc.collect()  # an unretrieved task exception is reported here
            await asyncio.sleep(0)
            return unretrieved

        assert asyncio.run(scenario()) == []


class TestServeFrameGuard:
    """A client socket is a hub-style connection: a stream that fails
    the frame-size guard or does not decode ends that client alone,
    with an error naming it and the cause, never in asyncio's logger."""

    @pytest.mark.parametrize("poison", ["oversize", "undecodable"])
    def test_poisoned_client_is_dropped_others_are_served(self, poison):
        protocol, execution = make_recipe("flood-none", 3)

        async def scenario():
            logged = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: logged.append(context["message"])
            )
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                if poison == "oversize":  # not one body byte follows
                    writer.write(HEADER.pack(MAX_FRAME_BYTES + 1, 0, 0, 0))
                else:
                    writer.write(HEADER.pack(12, 0, 0, 0) + b"not a pickle")
                await writer.drain()
                assert await asyncio.wait_for(reader.read(1), 5) == b""
                error = server.last_client_error
                peer = writer.get_extra_info("sockname")
                writer.close()
                await writer.wait_closed()
                run_id = await client.submit(protocol, execution)
                served = await asyncio.wait_for(client.result(run_id), 30)
                return error, peer, served, logged
            finally:
                await client.close()
                await server.close()

        error, peer, served, logged = asyncio.run(scenario())
        assert error.startswith(f"client {peer}: ")
        if poison == "oversize":
            assert f"over the {MAX_FRAME_BYTES}-byte limit (serve request)" in error
        else:
            assert "undecodable frame body" in error and "UnpicklingError" in error
        check_parity(served, sim_reference(protocol, execution), "served", "sim")
        assert logged == []

    def test_an_undecodable_reply_fails_what_is_pending(self):
        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                queue = client.watch("run-000001")
                pending = asyncio.ensure_future(client.status())
                await asyncio.sleep(0)
                client.data_received(HEADER.pack(12, 0, 0, 0) + b"not a pickle")
                with pytest.raises(ValueError) as excinfo:
                    await pending
                assert queue.get_nowait() == ("closed", None)
                with pytest.raises(ConnectionError, match="undecodable"):
                    await client.status()
                return str(excinfo.value)
            finally:
                await client.close()
                await server.close()

        error = asyncio.run(scenario())
        assert "undecodable frame body from run-server 127.0.0.1:" in error
        assert "(serve reply): UnpicklingError" in error


class TestRetention:
    """The server's memory follows its in-flight runs, not its history:
    a run is forgotten once its outcome reached whoever asked for it."""

    def test_delivered_runs_are_forgotten(self):
        protocol = {"name": "flooding", "inputs": [0, 1, 1], "t": 1}

        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            todo = iter(range(2000))
            rounds = set()

            async def caller():
                for i in todo:
                    run_id = await client.submit(protocol, {"crashes": None, "seed": i})
                    rounds.add((await client.result(run_id)).rounds)

            try:
                await asyncio.wait_for(
                    asyncio.gather(*(caller() for _ in range(16))), 120
                )
                return rounds, await client.status(), len(server._tasks)
            finally:
                await client.close()
                await server.close()

        rounds, status, session_tasks = asyncio.run(scenario())
        assert rounds == {2}
        assert (status["submitted"], status["completed"]) == (2000, 2000)
        assert status["retained"] == 0
        assert session_tasks == 0

    def test_forgotten_id_is_unknown_and_the_connection_survives(self):
        protocol, execution = make_recipe("flood-none", 1)

        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                kept = await client.submit(protocol, execution)
                run_id = await client.submit(protocol, execution)
                assert (await client.result(run_id)).completed
                with pytest.raises(RuntimeError, match="unknown run_id"):
                    await client.result(run_id)
                queue = client.watch(run_id)  # answered with the same error
                kind, text = await asyncio.wait_for(queue.get(), 5)
                assert kind == "error" and f"unknown run_id '{run_id}'" in text
                # An uncollected run stays, finished or not, until asked for.
                await server._runs[kept].done.wait()
                assert (await client.status())["retained"] == 1
                assert (await client.result(kept)).completed
                assert (await client.status())["retained"] == 0
                with pytest.raises(KeyError, match="unknown run_id"):
                    await server.result(kept)
            finally:
                await client.close()
                await server.close()

        asyncio.run(scenario())

    def test_a_retained_run_releases_what_it_ran_with(self):
        # A finished run keeps its outcome until collected, not its
        # inputs: the submitted adversary object is garbage by then.
        protocol, _ = make_recipe("flood-none", 1)

        async def scenario():
            server = RunServer()
            await server.start()
            try:
                adversary = crash_schedule(6, 2, seed=1, max_round=3)
                held = weakref.ref(adversary)
                run_id = await server.submit(protocol, {"crashes": adversary})
                del adversary
                await server._runs[run_id].done.wait()
                gc.collect()
                return held() is None, server.status()["retained"]
            finally:
                await server.close()

        released, retained = asyncio.run(scenario())
        assert retained == 1
        assert released

    def test_runs_nobody_can_ask_for_are_forgotten(self):
        # A submitter that went away without asking for its results
        # leaves nothing behind -- finished runs go at the disconnect,
        # unfinished ones when their session ends -- unless another live
        # connection watches the run.
        protocol = {"name": "flooding", "inputs": [0, 1, 1], "t": 1}

        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)
            leaver = await ServeClient.connect("127.0.0.1", port)
            watcher = await ServeClient.connect("127.0.0.1", port)
            try:
                run_ids = [
                    await leaver.submit(protocol, {"crashes": None, "seed": i})
                    for i in range(200)
                ]
                local = await server.submit(protocol, {"crashes": None})
                events = watcher.watch(run_ids[-1])
                await watcher.status()  # the watch request has been served
                submitted = (await leaver.status())["retained"]
                await leaver.close()
                status = await watcher.status()
                while status["active"] or status["retained"] > 2:
                    await asyncio.sleep(0.01)
                    status = await watcher.status()
                kept = sorted(server._runs)
                # The watched run outlives its submitter: the watcher
                # sees it finish and can still collect it.
                while (await asyncio.wait_for(events.get(), 30))[0] != "done":
                    pass
                watched = await watcher.result(run_ids[-1])
                await watcher.close()
                while server._clients:  # both disconnects served
                    await asyncio.sleep(0.01)
                return submitted, kept, watched, server.status(), local
            finally:
                await leaver.close()
                await watcher.close()
                await server.close()

        submitted, kept, watched, status, local = asyncio.run(scenario())
        assert submitted == 201
        assert kept == sorted([local, "run-000200"])
        assert watched.completed and watched.rounds == 2
        # In-process submissions are only forgotten by ``result()``.
        assert status["retained"] == 1 and status["completed"] == 201


class TestHubBackpressure:
    def test_slow_consumer_dropped_other_sessions_advance(self, monkeypatch):
        monkeypatch.setattr(TCPHub, "max_queue_frames", 16)

        async def scenario():
            hub = TCPHub("127.0.0.1", 0)
            await hub.start()
            # Laggard: a raw connection that binds (instance 7, addr 1)
            # and then never reads its socket.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", hub.port
            )
            bind = encode(("bind", 1))
            writer.write(HEADER.pack(len(bind), 1, CONTROL, 7) + bind)
            await writer.drain()
            # Healthy pair on another instance of the same hub.
            amux = await open_mux("127.0.0.1", hub.port)
            a = amux.endpoint(0, instance=3)
            bmux = await open_mux("127.0.0.1", hub.port)
            b = bmux.endpoint(1, instance=3)
            # Flood the stalled consumer until its bounded sink queue
            # overflows: socket buffers absorb the first frames, then
            # the hub-side queue grows past its bound.
            smux = await open_mux("127.0.0.1", hub.port)
            sender = smux.endpoint(0, instance=7)
            payload = b"x" * 65536
            for _ in range(40):
                for _ in range(20):
                    await sender.send(1, payload)
                await smux.flush()
                await asyncio.sleep(0.02)
                if hub.backpressure_drops:
                    break
            assert hub.backpressure_drops >= 1
            error = hub.last_backpressure_error
            # The healthy instance still roundtrips after the drop.
            await a.send(1, "ping")
            src, body = await asyncio.wait_for(b.recv(), 10)
            for mux in (amux, bmux, smux):
                await mux.close()
            writer.close()
            await hub.close()
            return error, (src, body)

        error, roundtrip = asyncio.run(scenario())
        assert roundtrip == (0, "ping")
        # The diagnostic names the laggard's binding and the bound.
        assert "instance 7" in error
        assert "16-frame bound" in error
        assert "dropping the laggard" in error


class _FullTransport(asyncio.Transport):
    """A transport whose buffer never empties: the connection is told
    to pause writing and never to resume."""

    def __init__(self):
        super().__init__({"peername": ("test", 0)})
        self.aborted = False

    def write(self, data):
        pass

    def is_closing(self):
        return self.aborted

    def abort(self):
        self.aborted = True

    def close(self):
        pass


class TestServeBackpressure:
    def test_client_queue_overflow_names_laggard_run(self, monkeypatch):
        # Unit wall on the bound itself: push past the stream queue and
        # the connection is killed with an error naming the run whose
        # stream the client stopped consuming.
        monkeypatch.setattr(RunServer, "stream_queue", 4)

        async def scenario():
            server = RunServer()
            transport = _FullTransport()
            conn = server_mod._ServedClient(server)
            conn.connection_made(transport)
            conn.pause_writing()
            for _ in range(4):
                conn.push(("update", "run-000042", {}), run="run-000042")
            assert server.last_client_error is None
            conn.push(("update", "run-000042", {}), run="run-000042")
            assert server.last_client_error is not None
            assert transport.aborted
            conn.connection_lost(None)
            assert not server._clients
            return server.last_client_error

        error = asyncio.run(scenario())
        assert "run-000042" in error
        assert "undelivered" in error

    def test_stalled_watcher_does_not_stall_other_sessions(self, monkeypatch):
        # Integration wall: a client that stops reading entirely (tiny
        # receive buffer, no reads) is eventually dropped, and healthy
        # clients' sessions run to completion throughout.
        protocol, execution = make_recipe("flood-none", 5)
        monkeypatch.setattr(RunServer, "stream_queue", 8)

        async def scenario():
            server = RunServer()
            await server.start()
            port = await server.listen("127.0.0.1", 0)

            # Laggard: raw socket with a tiny receive buffer; submits a
            # run, then requests its (multi-KB) result in a tight loop
            # without ever reading a byte of the responses.
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            loop = asyncio.get_running_loop()
            await loop.sock_connect(sock, ("127.0.0.1", port))
            _, lag_writer = await asyncio.open_connection(sock=sock)
            big_n = 48
            send_msg(
                lag_writer,
                (
                    "submit",
                    0,
                    {
                        "name": "flooding",
                        "inputs": [j % 2 for j in range(big_n)],
                        "t": 3,
                    },
                    {"crashes": None},
                ),
            )
            await lag_writer.drain()
            for _ in range(1500):
                send_msg(lag_writer, ("result", "run-000001"))
            await lag_writer.drain()

            # Healthy client: sessions must keep completing while the
            # laggard's responses pile up server-side.
            client = await ServeClient.connect("127.0.0.1", port)
            results = []
            for i in range(4):
                rid = await client.submit(protocol, execution)
                results.append(await asyncio.wait_for(client.result(rid), 30))
            for _ in range(1500):
                if server.last_client_error:
                    break
                await asyncio.sleep(0.01)
            error = server.last_client_error
            await client.close()
            lag_writer.close()
            await server.close()
            return results, error

        results, error = asyncio.run(scenario())
        assert all(r.completed for r in results)
        assert error is not None, "laggard was never dropped"
        assert "undelivered" in error
