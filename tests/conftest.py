"""Shared fixtures and helpers for the test suite.

Overlay graphs are memoised inside :mod:`repro.graphs`, so repeated
parameterised tests with the same ``(n, t, seed)`` are cheap.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.check.oracles import check_parity
from repro.core.params import ProtocolParams
from repro.net import run_protocol_net
from repro.scenarios import scenario_schedule
from repro.sim import Engine
from repro.sim.adversary import ScheduledCrashes
from repro.sim.process import Process
from repro.singleport.linear_consensus import (
    LinearConsensusProcess,
    linear_consensus_schedule,
)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def make_params(n: int, t: int, seed: int = 3) -> ProtocolParams:
    return ProtocolParams(n=n, t=t, seed=seed)


def random_bits(n: int, seed: int) -> list[int]:
    gen = random.Random(seed)
    return [gen.randint(0, 1) for _ in range(n)]


def scenario_draws(max_round, omission_links, churn_nodes):
    """Strategy for one scenario draw of a parity wall: the seed for
    ``scenario_schedule`` plus fault budgets (everything downstream is a
    pure function of these).  ``max_round`` is a ``(lo, hi)`` range, the
    other two are upper bounds; the walls differ in nothing else."""
    return st.fixed_dictionaries(
        {
            "seed": st.integers(0, 10_000),
            "crashes": st.integers(0, 4),
            "omission_links": st.integers(0, omission_links),
            "partition_windows": st.integers(0, 2),
            "churn_nodes": st.integers(0, churn_nodes),
            "max_round": st.integers(*max_round),
        }
    )


def drawn_scenario(draw, n, t, victims=None):
    """The scenario of one :func:`scenario_draws` draw for ``n`` nodes
    and fault bound ``t``; ``victims`` is the pool crash and churn
    victims come from (default: every pid)."""
    return scenario_schedule(
        n,
        seed=draw["seed"],
        crashes=min(draw["crashes"], t),
        omission_links=draw["omission_links"],
        partition_windows=draw["partition_windows"],
        churn_nodes=min(draw["churn_nodes"], max(1, n // 8)),
        max_round=draw["max_round"],
        victims=victims,
    )


def linear_vector(n, t, inputs, overlay_seed=3):
    """``(factory, horizon)`` for single-port Linear-Consensus: fresh
    process vectors on one shared schedule, and the schedule's length
    (the run's exact round count, passed as ``max_rounds``)."""
    params = ProtocolParams(n=n, t=t, seed=overlay_seed)
    schedule, shared = linear_consensus_schedule(params)

    def factory():
        return [
            LinearConsensusProcess(
                pid, params, inputs[pid], schedule=schedule, shared=shared
            )
            for pid in range(n)
        ]

    return factory, schedule.end


class ScriptedProcess(Process):
    """Sends what ``plan(proc, rnd)`` returns and logs every inbox it is
    handed under ``log[(rnd, pid)]``; halts after round ``last[pid]``
    (default ``rounds - 1``); declares ``wake(proc, rnd)`` as its
    ``next_activity`` (default: always active).  The engine-parity,
    inbox-order and property tests compare these logs across round
    loops and backends.
    """

    def __init__(self, pid, n, plan, log, rounds, last=None, wake=None):
        super().__init__(pid, n)
        self.plan = plan
        self.log = log
        self.last = (last or {}).get(pid, rounds - 1)
        self.wake = wake

    def send(self, rnd):
        return self.plan(self, rnd)

    def receive(self, rnd, inbox):
        self.log[(rnd, self.pid)] = list(inbox)
        if rnd >= self.last:
            self.halt()

    def next_activity(self, rnd):
        return rnd + 1 if self.wake is None else self.wake(self, rnd)


def run_scripted(
    n, plan, rounds, *, backend="sim-opt", adversary=None,
    byzantine=frozenset(), last=None, wake=None, observer=None, **engine,
):
    """Run ``n`` :class:`ScriptedProcess` on ``sim-opt`` / ``sim-ref`` /
    ``net``; returns ``(result, inbox log)``.  ``observer`` and
    ``engine`` (``Engine`` keywords) are for the two simulator loops;
    net has no observer, so there either one of them turns fast-forward
    off, as an observer does on the engine."""
    log = {}
    procs = [
        ScriptedProcess(pid, n, plan, log, rounds, last, wake)
        for pid in range(n)
    ]
    if backend == "net":
        result = run_protocol_net(
            procs,
            adversary,
            byzantine=byzantine,
            fast_forward=engine.get("fast_forward", True) and observer is None,
        )
    else:
        result = Engine(
            procs,
            adversary,
            byzantine=byzantine,
            optimized=backend == "sim-opt",
            **engine,
        ).run(observer)
    return result, log


def scripted_pair(n, plan, rounds, crashes=dict, **kwargs):
    """Run one send plan on both round loops and on a net host; require
    full parity *and* element-for-element equal inbox logs; returns the
    optimized ``(result, log)``.  ``crashes`` is a ``{pid: CrashSpec}``
    factory (one schedule instance per run)."""
    optimized, log = run_scripted(
        n, plan, rounds, adversary=ScheduledCrashes(crashes()), **kwargs
    )
    for backend in ("sim-ref", "net"):
        other, other_log = run_scripted(
            n, plan, rounds, backend=backend,
            adversary=ScheduledCrashes(crashes()), **kwargs
        )
        check_parity(optimized, other, "optimized", backend)
        assert log == other_log, backend
    return optimized, log
