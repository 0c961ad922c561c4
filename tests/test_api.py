"""Tests for the top-level run_* API."""

import os
import subprocess
import sys

import pytest

import repro
from repro import (
    check_checkpointing,
    check_consensus,
    check_gossip,
    run_ab_consensus,
    run_checkpointing,
    run_consensus,
    run_gossip,
)
from repro.api import BACKENDS, build_recipe_processes, run_recipe
from repro.check.oracles import check_parity
from repro.scenarios import scenario_schedule
from repro.sim.adversary import CrashSpec, ScheduledCrashes
from tests.conftest import random_bits


class TestRunConsensus:
    def test_auto_picks_few_below_fifth(self):
        from repro.core.consensus import FewCrashesConsensusProcess

        inputs = random_bits(100, 1)
        result = run_consensus(inputs, 15, algorithm="auto", seed=1)
        check_consensus(result, inputs)
        assert isinstance(result.processes[0], FewCrashesConsensusProcess)

    def test_auto_picks_many_above_fifth(self):
        from repro.core.consensus import ManyCrashesConsensusProcess

        inputs = random_bits(60, 1)
        result = run_consensus(inputs, 30, algorithm="auto", seed=1)
        check_consensus(result, inputs)
        assert isinstance(result.processes[0], ManyCrashesConsensusProcess)

    def test_explicit_adversary_instance(self):
        inputs = random_bits(60, 2)
        adversary = ScheduledCrashes({3: CrashSpec(round=2, keep=1)})
        result = run_consensus(inputs, 9, crashes=adversary, seed=2)
        check_consensus(result, inputs)
        assert result.crashed == {3}

    def test_no_crashes(self):
        inputs = random_bits(60, 3)
        result = run_consensus(inputs, 9, crashes=None)
        check_consensus(result, inputs)
        assert result.crashed == set()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_consensus([0, 1], 0, algorithm="quantum")

    def test_deterministic_given_seeds(self):
        inputs = random_bits(80, 4)
        first = run_consensus(inputs, 12, seed=4, overlay_seed=1)
        second = run_consensus(inputs, 12, seed=4, overlay_seed=1)
        assert first.correct_decisions() == second.correct_decisions()
        assert first.messages == second.messages
        assert first.rounds == second.rounds


class TestRunResultSurface:
    def test_metrics_shortcuts(self):
        inputs = random_bits(60, 5)
        result = run_consensus(inputs, 9, seed=5)
        assert result.rounds == result.metrics.rounds
        assert result.messages == result.metrics.messages
        assert result.bits == result.metrics.bits
        summary = result.metrics.summary()
        assert summary["messages"] == result.messages

    def test_correct_pids_excludes_crashed(self):
        inputs = random_bits(60, 6)
        result = run_consensus(inputs, 9, seed=6)
        assert set(result.correct_pids()).isdisjoint(result.crashed)
        assert len(result.correct_pids()) == 60 - len(result.crashed)


class TestOtherEntryPoints:
    def test_run_gossip_and_checkpointing(self):
        rumors = [f"r{i}" for i in range(60)]
        gossip = run_gossip(rumors, 9, seed=1)
        check_gossip(gossip, rumors)
        ckpt = run_checkpointing(60, 9, seed=1)
        check_checkpointing(ckpt)

    def test_run_ab_consensus_behaviour_names(self):
        inputs = random_bits(60, 7)
        for behaviour in ("silent", "equivocate", "spam"):
            result = run_ab_consensus(
                inputs, 5, byzantine=[0, 9, 33], behaviour=behaviour
            )
            decisions = result.correct_decisions()
            assert len(set(decisions.values())) == 1

    def test_ab_consensus_unknown_behaviour(self):
        with pytest.raises(KeyError):
            run_ab_consensus([0] * 20, 2, byzantine=[1], behaviour="mystery")


class TestRunRecipe:
    def test_recipe_keys_are_validated(self):
        good = {"name": "flooding", "inputs": [3, 1, 2, 0], "t": 1}
        build_recipe_processes(good)
        with pytest.raises(ValueError, match=r"'flooding'.*unknown keys \['overlay_sed'\]"):
            build_recipe_processes({**good, "overlay_sed": 5})
        with pytest.raises(ValueError, match=r"'flooding'.*missing keys \['t'\]"):
            run_recipe({"name": "flooding", "inputs": [3, 1, 2, 0]})

    def test_scenario_dict_and_default_round_bound(self):
        """``run_recipe`` resolves faults and the round bound exactly as
        ``prepare_recipe`` does: the JSON form of a scenario and
        ``max_rounds=None`` are accepted and change nothing."""
        recipe = {"name": "gossip", "rumors": list(range(30)), "t": 4}
        scenario = scenario_schedule(
            30, seed=5, crashes=2, omission_links=20, churn_nodes=1, max_round=8
        )
        direct = run_recipe(recipe, scenario=scenario)
        as_dict = run_recipe(recipe, scenario=scenario.to_dict(), max_rounds=None)
        check_parity(direct, as_dict, "Scenario", "to_dict()")

    @pytest.mark.parametrize("name", list(BACKENDS))
    def test_backend_table_names_the_run_a_trace_records(self, name):
        """``BACKENDS`` is the one statement of what a backend name
        means: a run through its keywords records a trace labelled with
        that name (``sim-ref`` is the reference loop, not sim-opt)."""
        if name == "vec":
            pytest.importorskip("numpy")
        recipe = {"name": "flooding", "inputs": [0, 1] * 4, "t": 2}
        result = run_recipe(recipe, crashes=None, record_trace=True, **BACKENDS[name])
        assert result.trace.backend == name


def _python(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on this ``repro``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


#: What only the spectral check above 100 vertices (numpy, and scipy
#: above 600) and the vec backend (numpy) import; networkx is imported by
#: nothing.
OPTIONAL = ("numpy", "scipy", "networkx")


class TestImportCost:
    def test_heavy_graph_dependencies_load_on_first_use_only(self):
        """Importing the run, serve, net and check surfaces and running a
        small recipe imports none of :data:`OPTIONAL`: a serve client, a
        server child or a worker that runs small recipes never needs
        them (half of ``import repro.serve``), and ``repro.check`` only
        asks whether numpy is there.  That holds for a recipe with a
        certified overlay too: the perf ladder's consensus instance
        (n = 80, t = 6) checks its G(80, 16) on the stdlib."""
        code = (
            "import sys; import repro.api, repro.serve, repro.net, repro.check; "
            "from repro.api import run_recipe; "
            "from repro.graphs.ramanujan import _CACHE; "
            "assert run_recipe({'name': 'flooding', 'inputs': [0, 1, 1, 0], 't': 1}).completed; "
            "consensus = {'name': 'consensus', 'inputs': [i % 2 for i in range(80)], 't': 6}; "
            "assert run_recipe(consensus).completed; "
            "assert ('ramanujan', 80, 16, 0, True) in _CACHE; "
            f"print(sorted(set({OPTIONAL!r}) & set(sys.modules)))"
        )
        assert _python(code) == "[]"

    def test_a_blocked_numpy_reads_as_missing(self):
        """``HAVE_NUMPY`` looks numpy up without importing it, and a
        blocked module is as good as none."""
        code = (
            "import sys; sys.modules['numpy'] = None; "
            "from repro.sim.vec import HAVE_NUMPY, has_kernel; "
            "print(HAVE_NUMPY, has_kernel('gossip'))"
        )
        assert _python(code) == "False False"

    def test_bare_interpreter_runs_every_family(self):
        """With every one of :data:`OPTIONAL` blocked, each family's run
        and the overlays it built give the digest they give with them
        installed: every overlay here has at most 100 vertices, so the
        spectral check runs on the stdlib either way, and nothing
        changes."""
        code = (
            "import hashlib, random, sys\n"
            "for name in BLOCKED: sys.modules[name] = None\n"
            "from repro.api import run_recipe\n"
            "from repro.check.driver import sample_instance\n"
            "from repro.families import REGISTRY\n"
            "from repro.graphs.ramanujan import _CACHE\n"
            "h = hashlib.sha256()\n"
            "for record in REGISTRY:\n"
            "    recipe = sample_instance(record.family, random.Random(0), 0)\n"
            "    result = run_recipe(recipe, seed=1)\n"
            "    h.update(repr((record.family, result.rounds, result.messages, result.bits,\n"
            "                   sorted(result.decisions.items()))).encode())\n"
            "overlays = sorted((key[:4], g.adj) for key, g in _CACHE.items() if key[0] == 'ramanujan')\n"
            "h.update(repr(overlays).encode())\n"
            "print(len(overlays), h.hexdigest())\n"
        )
        blocked = _python(code.replace("BLOCKED", repr(OPTIONAL)))
        assert int(blocked.split()[0]) > 0  # some family built a checked overlay
        assert blocked == _python(code.replace("BLOCKED", "()"))
