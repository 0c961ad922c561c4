"""The vec-aware parity/fuzz test wall for ``backend="vec"``.

Certification layers, from broad to pointed:

* **hypothesis properties** -- random ``scenario_schedule`` scenarios
  (crashes with partial sends, omission links, partition windows, churn
  rejoins) x kernel families, each executed on the reference engine,
  the optimized engine and the vectorized backend, compared via the
  repository's single parity definition
  (:func:`repro.check.oracles.check_parity`);
* **kernel engagement** -- the vec runs above must actually execute the
  structure-of-arrays kernel, not the engine fallback (a silent
  fallback would make the wall vacuous);
* **fallback surface** -- non-kernel families, Byzantine runs and
  record/replay route through the engine and stay observably correct;
* **fuzz-driver rotation** -- ``repro.check`` draws ``vec`` for kernel
  families in a pinned seed window, and a deliberately broken kernel is
  caught as a cross-backend divergence naming the first differing
  field.

Everything here requires numpy (the ``[vec]`` extra); on a bare
install the module skips, keeping tier-1 green.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    prepare_recipe,
    run_ab_consensus,
    run_checkpointing,
    run_consensus,
    run_flooding,
    run_gossip,
    run_recipe,
)
from repro.baselines.approximate import ApproximateConsensusProcess
from repro.check.driver import (
    DEFAULT_BACKENDS,
    FAMILIES,
    run_config,
    sample_config,
)
from repro.check.oracles import check_parity
from repro.scenarios import scenario_schedule
from repro.sim.engine import Engine
from repro.sim.vec import KERNEL_FAMILIES, vec_run
from repro.sim.vec.approximate import ApproximateKernel
from repro.sim.vec.engine import VecEngine
from repro.sim.vec.flooding import FloodingKernel
from repro.sim.vec.lv_consensus import LVConsensusKernel
from tests.conftest import drawn_scenario, scenario_draws

WALL = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SCENARIOS = scenario_draws(max_round=(8, 80), omission_links=12, churn_nodes=3)


def _triple(runner, *args, scenario, **kwargs):
    """Run sim-ref / sim-opt / vec on identical inputs and compare."""
    ref = runner(*args, crashes=scenario, backend="sim", optimized=False,
                 max_rounds=3000, **kwargs)
    opt = runner(*args, crashes=scenario, backend="sim", optimized=True,
                 max_rounds=3000, **kwargs)
    vec = runner(*args, crashes=scenario, backend="vec",
                 max_rounds=3000, **kwargs)
    check_parity(ref, opt, "sim-ref", "sim-opt")
    check_parity(ref, vec, "sim-ref", "vec")
    return vec


def _kernel_triple(kernel_type, recipe, scenario):
    """:func:`_triple` for a kernel no registry record names yet:
    the vec leg hands ``kernel_type`` to :class:`VecEngine` directly
    (``backend="vec"`` would fall back to the engine and compare it
    with itself)."""
    ref = run_recipe(recipe, crashes=scenario, backend="sim",
                     optimized=False, max_rounds=3000)
    opt = run_recipe(recipe, crashes=scenario, backend="sim",
                     optimized=True, max_rounds=3000)
    prepared = prepare_recipe(recipe, crashes=scenario, max_rounds=3000)
    kernel = kernel_type.build(prepared.processes)
    assert kernel is not None, "kernel declined a regular instance"
    vec = VecEngine(prepared.processes, prepared.adversary, kernel,
                    max_rounds=prepared.max_rounds).run()
    check_parity(ref, opt, "sim-ref", "sim-opt")
    check_parity(ref, vec, "sim-ref", "vec")
    for a, b in zip(ref.processes, vec.processes):
        assert (a.value, a.halted) == (b.value, b.halted), a.pid


class TestKernelFamilyParity:
    """vec == sim-ref == sim-opt on the full parity surface, under
    random extended-fault scenarios."""

    @WALL
    @given(
        draw=SCENARIOS,
        n=st.integers(2, 40),
        inputs_seed=st.integers(0, 10_000),
    )
    def test_flooding(self, draw, n, inputs_seed):
        rng = random.Random(inputs_seed)
        t = rng.randrange(0, n)
        inputs = [rng.randrange(-(2**40), 2**40) for _ in range(n)]
        _triple(run_flooding, inputs, t, scenario=drawn_scenario(draw, n, t))

    @WALL
    @given(draw=SCENARIOS, n=st.integers(20, 44))
    def test_gossip(self, draw, n):
        t = max(1, (n - 1) // 5)
        rumors = [f"rumor-{i}" for i in range(n)]
        _triple(run_gossip, rumors, t, scenario=drawn_scenario(draw, n, t))

    @WALL
    @given(draw=SCENARIOS, n=st.integers(20, 40))
    def test_checkpointing(self, draw, n):
        t = max(1, (n - 1) // 5)
        _triple(run_checkpointing, n, t, scenario=drawn_scenario(draw, n, t))

    @WALL
    @given(
        draw=SCENARIOS,
        n=st.integers(2, 40),
        inputs_seed=st.integers(0, 10_000),
        mode=st.sampled_from(("midpoint", "mean")),
        integral=st.booleans(),
    )
    def test_approximate(self, draw, n, inputs_seed, mode, integral):
        rng = random.Random(inputs_seed)
        t = rng.randrange(0, n)
        if integral:
            inputs = [float(rng.randrange(-1000, 1000)) for _ in range(n)]
        else:
            inputs = [rng.uniform(-1e6, 1e6) for _ in range(n)]
        recipe = {"name": "approximate", "inputs": inputs, "t": t,
                  "eps": rng.choice((1e-3, 0.5, 1.0, 4.0)), "mode": mode}
        _kernel_triple(ApproximateKernel, recipe, drawn_scenario(draw, n, t))

    @WALL
    @given(
        draw=SCENARIOS,
        n=st.integers(2, 40),
        inputs_seed=st.integers(0, 10_000),
        width=st.sampled_from((1, 64, 256)),
    )
    def test_lv_consensus(self, draw, n, inputs_seed, width):
        # width 64 and 256 draw values past int64: the kernel moves
        # indices, never the values
        rng = random.Random(inputs_seed)
        t = rng.randrange(0, n)
        inputs = [rng.randrange(0, 2**width) for _ in range(n)]
        recipe = {"name": "lv_consensus", "inputs": inputs, "t": t,
                  "width": width}
        _kernel_triple(LVConsensusKernel, recipe, drawn_scenario(draw, n, t))


class TestKernelEngagement:
    def test_kernel_families_run_the_kernel(self, monkeypatch):
        """The parity wall tests the kernel, not the fallback: kernel
        families must dispatch to :class:`VecEngine`."""
        runs = []
        orig = VecEngine.run
        monkeypatch.setattr(
            VecEngine, "run", lambda self: runs.append(1) or orig(self)
        )
        sc = scenario_schedule(24, seed=3, crashes=2, omission_links=4,
                               churn_nodes=1, max_round=30)
        run_flooding([7, -1, 5] * 8, 4, crashes=sc, backend="vec")
        run_gossip([f"r{i}" for i in range(24)], 3, crashes=sc, backend="vec")
        run_checkpointing(24, 3, crashes=sc, backend="vec")
        assert len(runs) == 3

    def test_non_kernel_family_falls_back(self, monkeypatch):
        monkeypatch.setattr(
            VecEngine, "run",
            lambda self: pytest.fail("kernel engaged for consensus-few"),
        )
        inputs = [i % 2 for i in range(30)]
        vec = run_consensus(inputs, 4, crashes=None, backend="vec")
        ref = run_consensus(inputs, 4, crashes=None, backend="sim",
                            optimized=False)
        check_parity(ref, vec, "sim-ref", "vec")

    def test_byzantine_falls_back(self):
        inputs = [i % 2 for i in range(24)]
        vec = run_ab_consensus(inputs, 3, byzantine={1}, backend="vec")
        ref = run_ab_consensus(inputs, 3, byzantine={1}, backend="sim",
                               optimized=False)
        check_parity(ref, vec, "sim-ref", "vec")

    def test_irregular_flooding_inputs_fall_back(self):
        # Values past the int64 headroom decline the kernel but must
        # still produce identical results through the fallback.
        inputs = [2**70, 5, -(2**80), 11]
        vec = run_flooding(inputs, 2, crashes=None, backend="vec")
        ref = run_flooding(inputs, 2, crashes=None, backend="sim",
                           optimized=False)
        check_parity(ref, vec, "sim-ref", "vec")
        assert vec.decisions[0] == -(2**80)

    def test_non_finite_approximate_input_declines_the_kernel(self):
        # ``run_approximate`` cannot even schedule an infinite spread,
        # so the processes are built directly.
        def processes(values):
            return [
                ApproximateConsensusProcess(pid, len(values), 1, value, 1.0, 2)
                for pid, value in enumerate(values)
            ]

        assert ApproximateKernel.build(processes([3.0, -1.5, 7.0])) is not None
        irregular = [3.0, float("inf"), -1.5, 7.0]
        assert ApproximateKernel.build(processes(irregular)) is None
        vec = vec_run(processes(irregular), None)
        ref = Engine(processes(irregular), optimized=False).run()
        check_parity(ref, vec, "sim-ref", "vec")
        assert vec.decisions[0] == float("inf")


class TestTraceRoundTrips:
    def test_record_on_vec_replay_on_ref_and_back(self):
        sc = scenario_schedule(20, seed=5, crashes=2, omission_links=3,
                               partition_windows=1, churn_nodes=1,
                               max_round=40)
        for runner, args in [
            (run_flooding, ([3, 9, -4, 8] * 5, 3)),
            (run_gossip, ([f"r{i}" for i in range(20)], 3)),
            (run_checkpointing, (20, 3)),
        ]:
            rec = runner(*args, crashes=sc, backend="vec",
                         record_trace=True, max_rounds=3000)
            rep = runner(*args, backend="sim", optimized=False,
                         replay=rec.trace, max_rounds=3000)
            check_parity(rec, rep, "vec-record", "ref-replay")

            rec = runner(*args, crashes=sc, backend="sim", optimized=False,
                         record_trace=True, max_rounds=3000)
            rep = runner(*args, backend="vec", replay=rec.trace,
                         max_rounds=3000)
            check_parity(rec, rep, "ref-record", "vec-replay")


class TestFuzzRotation:
    def test_vec_drawn_for_kernel_families_in_fixed_window(self):
        """Pin the seed window: one full family cycle of seed 0 draws
        ``vec`` for exactly the kernel families."""
        for index in range(len(FAMILIES)):
            config = sample_config(0, index)
            expect = config.family in KERNEL_FAMILIES
            assert ("vec" in config.backends) == expect, config.family
            if expect:
                assert config.backends == DEFAULT_BACKENDS + ("vec",)

    def test_broken_kernel_caught_as_cross_backend_divergence(
        self, monkeypatch
    ):
        """A kernel bug surfaces as a parity:vec violation naming the
        first differing field."""
        orig = FloodingKernel.finalize

        def corrupted(self, processes):
            orig(self, processes)
            processes[0].decision += 1  # the bug

        monkeypatch.setattr(FloodingKernel, "finalize", corrupted)
        index = FAMILIES.index("flooding")
        config = sample_config(0, index)
        assert "vec" in config.backends
        row = run_config(config)
        details = {
            v["oracle"]: v["detail"]
            for v in row.get("violation_details", [])
        }
        assert "parity:vec" in details
        assert "parity violated on decisions" in details["parity:vec"]

    def test_clean_kernel_runs_clean(self):
        index = FAMILIES.index("flooding")
        row = run_config(sample_config(0, index))
        assert row["violations"] == 0


class TestVecRunSurface:
    def test_requires_numpy_error_is_actionable(self, monkeypatch):
        import repro.sim.vec as vec_mod

        monkeypatch.setattr(vec_mod, "HAVE_NUMPY", False)
        with pytest.raises(RuntimeError, match=r"pip install -e \.\[vec\]"):
            vec_mod.vec_run([], None)

    def test_everyone_crashed_matches_reference(self):
        # Crash every node mid-protocol: completion/rounds bookkeeping
        # must match the reference engine exactly.
        sc = scenario_schedule(6, seed=2, crashes=6, max_round=2,
                               partial=False)
        inputs = [4, 1, 7, 3, 9, 2]
        ref = run_flooding(inputs, 4, crashes=sc, backend="sim",
                           optimized=False)
        vec = run_flooding(inputs, 4, crashes=sc, backend="vec")
        check_parity(ref, vec, "sim-ref", "vec")

    def test_single_node(self):
        ref = run_flooding([42], 0, crashes=None, backend="sim",
                           optimized=False)
        vec = run_flooding([42], 0, crashes=None, backend="vec")
        check_parity(ref, vec, "sim-ref", "vec")
        assert vec.decisions == {0: 42}
        _kernel_triple(
            ApproximateKernel,
            {"name": "approximate", "inputs": [4.5], "t": 0, "eps": 1.0,
             "mode": "mean"},
            None,
        )
        _kernel_triple(
            LVConsensusKernel,
            {"name": "lv_consensus", "inputs": [42], "t": 0, "width": 6},
            None,
        )
