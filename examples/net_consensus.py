#!/usr/bin/env python
"""Distributed consensus over real TCP sockets, across OS processes.

The same Few-Crashes-Consensus processes the simulator runs are hosted
here as asyncio tasks sharded over multiple **worker OS processes**,
exchanging framed messages through a loopback `repro.net.TCPHub` while
the coordinator injects a seeded crash schedule and enforces the
synchronous barrier per round.  The run is then repeated on the
lock-step simulator with the identical schedule to show the two
substrates agree bit-for-bit on the paper's metrics.

Usage::

    python examples/net_consensus.py
"""

import asyncio
import multiprocessing

from repro import check_consensus, run_consensus
from repro.api import build_consensus_processes
from repro.bench.workloads import input_vector
from repro.net import Session, TCPHub, drive_session, host_nodes_tcp
from repro.sim.adversary import crash_schedule

N = 20  # network size (acceptance floor for the TCP demo is n >= 16)
T = 3  # crash-fault bound, t < n/5
SEED = 11  # seeds the crash schedule (victims, rounds, partial sends)
WORKERS = 4  # OS processes hosting n // WORKERS nodes each
HOST = "127.0.0.1"


def worker_main(host: str, port: int, pids: list[int]) -> None:
    """One worker OS process: rebuild the (deterministic) process
    vector from the shared parameters and host its shard of pids."""
    inputs = input_vector(N, "random", SEED)
    processes, _horizon = build_consensus_processes(inputs, T, algorithm="few")
    shard = [processes[pid] for pid in pids]
    asyncio.run(host_nodes_tcp(shard, host, port))


async def coordinate(adversary):
    """Bind the hub first (race-free ephemeral port), then spawn the
    workers against the bound port, then run the coordinator."""
    hub = TCPHub(HOST, 0)
    await hub.start()
    shards = [list(range(N))[w::WORKERS] for w in range(WORKERS)]
    ctx = multiprocessing.get_context("spawn")
    workers = [
        ctx.Process(target=worker_main, args=(HOST, hub.port, shard))
        for shard in shards
    ]
    for proc in workers:
        proc.start()
    try:
        # timeout: fail fast with the coordinator's phase/pid diagnostics
        # instead of hanging CI if a worker dies.
        session = Session(N, adversary, max_rounds=200_000, timeout=60.0)
        result = await drive_session(session, hub, ())
    finally:
        await hub.close()
        for proc in workers:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)
    if any(proc.exitcode != 0 for proc in workers):
        raise RuntimeError(
            f"worker exit codes {[proc.exitcode for proc in workers]}"
        )
    return result


def main() -> None:
    inputs = input_vector(N, "random", SEED)
    _, horizon = build_consensus_processes(inputs, T, algorithm="few")
    adversary = crash_schedule(N, T, seed=SEED, max_round=max(1, horizon))

    result = asyncio.run(coordinate(adversary))

    check_consensus(result, inputs)
    decisions = result.correct_decisions()
    decision = next(iter(decisions.values()))

    # The same schedule on the lock-step simulator: metrics must match.
    sim = run_consensus(inputs, T, crashes=adversary, seed=SEED)
    assert sim.metrics.summary() == result.metrics.summary(), "sim/net divergence"
    assert sim.decisions == result.decisions and sim.crashed == result.crashed

    print(f"topology              : {N} nodes in {WORKERS} worker processes + coordinator, TCP via {HOST}")
    print(f"fault bound           : t = {T}, crashed = {sorted(result.crashed)}")
    print(f"decision              : {decision} (held by {len(decisions)} correct nodes)")
    print(f"rounds                : {result.rounds}")
    print(f"one-bit messages      : {result.messages}")
    print(f"payload bits          : {result.bits}")
    print("sim parity            : identical rounds/messages/bits, decisions and crash set")


if __name__ == "__main__":
    main()
