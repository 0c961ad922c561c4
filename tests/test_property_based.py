"""Property-based tests (hypothesis) on core invariants.

Strategy sizes are kept modest so the suite stays fast; the overlays are
memoised across examples.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    check_aea,
    check_checkpointing,
    check_consensus,
    check_gossip,
    run_aea,
    run_checkpointing,
    run_consensus,
    run_gossip,
)
from repro.core.checkpointing import mask_to_set, set_to_mask
from repro.graphs.compactness import is_survival_subset, survival_subset
from repro.graphs.expander import second_eigenvalue
from repro.graphs.ramanujan import certified_ramanujan_graph
from repro.sim.adversary import CrashSpec
from repro.sim.process import Multicast, payload_bits
from tests.conftest import scripted_pair

FAST = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestConsensusInvariants:
    @FAST
    @given(
        inputs=st.lists(st.integers(0, 1), min_size=60, max_size=60),
        crash_seed=st.integers(0, 10_000),
        kind=st.sampled_from(["random", "early", "late", "staggered"]),
    )
    def test_few_crashes_consensus(self, inputs, crash_seed, kind):
        result = run_consensus(
            inputs, 9, algorithm="few", crashes=kind, seed=crash_seed
        )
        check_consensus(result, inputs)

    @FAST
    @given(
        inputs=st.lists(st.integers(0, 1), min_size=48, max_size=48),
        t=st.integers(1, 40),
        crash_seed=st.integers(0, 10_000),
    )
    def test_many_crashes_consensus(self, inputs, t, crash_seed):
        result = run_consensus(inputs, t, algorithm="many", seed=crash_seed)
        check_consensus(result, inputs)

    @FAST
    @given(
        inputs=st.lists(st.integers(0, 1), min_size=60, max_size=60),
        crash_seed=st.integers(0, 10_000),
    )
    def test_aea(self, inputs, crash_seed):
        result = run_aea(inputs, 9, crashes="random", seed=crash_seed)
        check_aea(result, inputs)


class TestGossipInvariants:
    @FAST
    @given(crash_seed=st.integers(0, 10_000), kind=st.sampled_from(["random", "early"]))
    def test_gossip_conditions(self, crash_seed, kind):
        n = 60
        rumors = [f"r{i}" for i in range(n)]
        result = run_gossip(rumors, 9, crashes=kind, seed=crash_seed)
        check_gossip(result, rumors)

    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(crash_seed=st.integers(0, 10_000))
    def test_checkpointing_conditions(self, crash_seed):
        result = run_checkpointing(60, 9, crashes="random", seed=crash_seed)
        check_checkpointing(result)


@st.composite
def send_plans(draw):
    """``(n, rounds, plan, crashes)``: per round and pid a short list of
    send actions -- ``None`` broadcasts to everyone else, a tuple is a
    subset multicast (duplicates and self allowed), an int a
    point-to-point destination -- and a crash schedule with ``keep``."""
    n = draw(st.integers(1, 7))
    rounds = draw(st.integers(1, 4))
    pids = st.integers(0, n - 1)
    action = st.one_of(
        st.none(), st.lists(pids, max_size=n).map(tuple), pids
    )
    plan = draw(
        st.lists(
            st.lists(
                st.lists(action, max_size=2), min_size=n, max_size=n
            ),
            min_size=rounds,
            max_size=rounds,
        )
    )
    crashes = draw(
        st.dictionaries(
            pids,
            st.tuples(
                st.integers(0, rounds - 1),
                st.one_of(st.none(), st.integers(0, n)),
            ),
            max_size=n,
        )
    )
    return n, rounds, plan, crashes


class TestRoundLoopParity:
    @settings(max_examples=150, deadline=None)
    @given(drawn=send_plans())
    def test_any_send_plan_gives_identical_inboxes_and_metrics(self, drawn):
        n, rounds, plan, crashes = drawn

        def item(proc, action, payload):
            if action is None:
                return Multicast(proc.everyone_else(), payload)
            if isinstance(action, tuple):
                return Multicast(action, payload)
            return (action, payload)

        def sends(proc, rnd):
            return [
                item(proc, action, (rnd, proc.pid, seq))
                for seq, action in enumerate(plan[rnd][proc.pid])
            ]

        scripted_pair(
            n,
            sends,
            rounds,
            lambda: {pid: CrashSpec(*spec) for pid, spec in crashes.items()},
        )


class TestGraphInvariants:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(24, 120),
        d=st.sampled_from([4, 6, 8, 12]),
        seed=st.integers(0, 50),
    )
    def test_certified_graphs_regular_with_gap(self, n, d, seed):
        if n > 100:  # above the stdlib solver's cutoff
            pytest.importorskip("numpy")
        graph = certified_ramanujan_graph(n, d, seed=seed)
        degree = graph.max_degree
        assert graph.is_regular()
        if graph.n > degree + 1:
            lam = second_eigenvalue(graph)
            assert lam <= 2 * math.sqrt(degree - 1) * 1.12 + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        delta=st.integers(1, 6),
        removed=st.integers(0, 30),
    )
    def test_survival_subset_is_fixed_point(self, seed, delta, removed):
        import random as stdlib_random

        graph = certified_ramanujan_graph(80, 8, seed=1)
        rng = stdlib_random.Random(seed)
        base = set(range(80)) - set(rng.sample(range(80), removed))
        survivors = survival_subset(graph, base, delta)
        assert is_survival_subset(graph, base, survivors, delta)
        # Idempotence: pruning again changes nothing.
        assert survival_subset(graph, survivors, delta) == survivors


class TestCodecs:
    @FAST
    @given(members=st.sets(st.integers(0, 300)))
    def test_mask_roundtrip(self, members):
        assert mask_to_set(set_to_mask(members)) == frozenset(members)

    @FAST
    @given(value=st.integers(0, 2**128))
    def test_int_bits_positive_and_tight(self, value):
        bits = payload_bits(value)
        assert bits >= 1
        assert bits == max(1, value.bit_length())

    @FAST
    @given(
        payload=st.recursive(
            st.one_of(st.integers(0, 255), st.booleans(), st.text(max_size=4)),
            lambda children: st.tuples(children, children),
            max_leaves=8,
        )
    )
    def test_container_bits_superadditive(self, payload):
        # A container always costs at least its parts.
        if isinstance(payload, tuple):
            assert payload_bits(payload) >= sum(payload_bits(p) for p in payload)
