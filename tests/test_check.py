"""The repro.check subsystem: differential fuzzing, oracles, shrinking.

Acceptance bar (ISSUE 4): a bounded fuzz budget runs clean on every
protocol family across sim-opt/sim-ref/net; a deliberately injected
fault (a wrong decision under a crafted split-vote scenario) is caught
by the safety oracle, shrunk to a minimal scenario, and reproduced via
``replay_trace`` from the emitted self-contained artifact.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro import PropertyViolation, check_consensus, replay_trace
from repro.check.cli import main as check_main
from repro.check.driver import (
    DEFAULT_BACKENDS,
    FAMILIES,
    FuzzConfig,
    fuzz_unit,
    run_config,
    sample_config,
)
from repro.check.oracles import (
    OracleViolation,
    bound_certificate,
    check_parity,
    in_crash_model,
    run_oracles,
)
from repro.check.shrink import emit_artifact, oracle_categories, shrink_scenario
from repro.scenarios import (
    ChurnSpec,
    CrashEvent,
    OmissionSpec,
    PartitionSpec,
    Scenario,
)
from repro.trace import Trace


class TestSampling:
    def test_deterministic_and_index_sensitive(self):
        a = sample_config(3, 5)
        b = sample_config(3, 5)
        assert a == b
        assert a != sample_config(3, 6)
        assert a != sample_config(4, 5)

    def test_families_cycle(self):
        seen = {sample_config(0, i).family for i in range(len(FAMILIES))}
        assert seen == set(FAMILIES)

    def test_configs_are_valid(self):
        from repro.sim.vec import HAVE_NUMPY, KERNEL_FAMILIES

        for index in range(len(FAMILIES)):
            config = sample_config(1, index)
            if config.scenario is not None:
                config.scenario.validate()
            assert config.max_rounds > 0
            if config.family in KERNEL_FAMILIES and HAVE_NUMPY:
                assert config.backends == DEFAULT_BACKENDS + ("vec",)
            else:
                assert config.backends == DEFAULT_BACKENDS

    def test_global_random_untouched(self):
        import random

        random.seed(99)
        state = random.getstate()
        sample_config(0, 11)
        assert random.getstate() == state


class TestDifferentialClean:
    """One configuration per family runs clean across all backends."""

    @pytest.mark.parametrize("index", range(len(FAMILIES)))
    def test_family_clean(self, index):
        row = fuzz_unit(
            {"index": index, "fuzz_seed": 0, "families": "", "backends": ""}
        )
        assert row["violations"] == 0, row.get("violation_details")
        assert row["family"] == FAMILIES[index % len(FAMILIES)]

    def test_rows_deterministic(self):
        params = {"index": 1, "fuzz_seed": 5, "families": "", "backends": ""}
        assert fuzz_unit(dict(params)) == fuzz_unit(dict(params))


class TestRunsPerConfig:
    """A recorded run executes what an un-recorded run executes plus the
    recorder's hook calls, so the recorded primary is the only sim-opt
    run of the faulted instance a config needs."""

    def test_no_unrecorded_sim_run_and_rows_unmoved(self, monkeypatch):
        from repro import api

        calls, run_recipe = [], api.run_recipe

        def logged(recipe, **kwargs):
            calls.append(kwargs)
            return run_recipe(recipe, **kwargs)

        monkeypatch.setattr(api, "run_recipe", logged)
        configs = [sample_config(0, index) for index in range(10)]
        rows = [run_config(config) for config in configs]
        sim = [kw for kw in calls if kw["backend"] == "sim"]
        assert all(kw.get("optimized", True) for kw in sim)
        assert sum(bool(kw.get("record_trace")) for kw in sim) == len(configs)
        # the only un-recorded sim run is the failure-free ``clean``
        # baseline of the rounds certificate
        unrecorded = [kw for kw in sim if not kw.get("record_trace")]
        assert all(
            kw["crashes"] is None and "scenario" not in kw for kw in unrecorded
        )
        assert len(unrecorded) < len(configs)
        # the rows of these ten configs as the six-run driver wrote them
        blob = json.dumps(rows, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == "48aff4b084d04d78"


class TestParityOracle:
    def _result(self):
        from repro import run_consensus

        return run_consensus([0, 1] * 10, 3, seed=2)

    def test_identical_results_pass(self):
        a, b = self._result(), self._result()
        check_parity(a, b)

    def test_divergence_names_field(self):
        a, b = self._result(), self._result()
        b.metrics.messages += 1
        with pytest.raises(OracleViolation, match="metrics summary"):
            check_parity(a, b, "left", "right")
        b.metrics.messages -= 1
        b.decisions[0] = 42
        with pytest.raises(OracleViolation, match="decisions"):
            check_parity(a, b)


class TestOracleBattery:
    def test_in_crash_model_gating(self):
        recipe = {"name": "consensus", "inputs": [0, 1] * 10, "t": 3}
        assert in_crash_model(recipe, None)
        crash_only = Scenario(n=20, crashes=[CrashEvent(1, 0)])
        assert in_crash_model(recipe, crash_only)
        over_budget = Scenario(
            n=20, crashes=[CrashEvent(pid, 0) for pid in range(4)]
        )
        assert not in_crash_model(recipe, over_budget)
        assert not in_crash_model(
            recipe, Scenario(n=20, omissions=[OmissionSpec(0, 1, (0,))])
        )
        assert not in_crash_model(
            recipe, Scenario(n=20, churn=[ChurnSpec(0, 1, 3)])
        )

    def test_bound_certificate_records_constants(self):
        from repro import run_consensus

        inputs = [0, 1] * 15
        result = run_consensus(inputs, 4, algorithm="few", seed=1)
        recipe = {
            "name": "consensus", "inputs": inputs, "t": 4, "algorithm": "few",
        }
        cert = bound_certificate("consensus-few", recipe, result)
        assert cert["ok"] and cert["rounds_ok"] and cert["comm_ok"]
        assert cert["comm_measure"] == "bits"
        assert cert["constant"] > 0 and cert["envelope"] > 0
        assert cert["comm"] == result.bits
        assert 0 < cert["comm_ratio"] < 1

    def test_metrics_inconsistency_detected(self):
        from repro import run_consensus

        result = run_consensus([0, 1] * 10, 3, seed=2)
        result.metrics.messages += 5  # corrupt the headline tally
        recipe = {"name": "consensus", "inputs": [0, 1] * 10, "t": 3}
        violations, _ = run_oracles(
            "consensus-few", recipe, result, include_safety=False,
            include_bounds=False,
        )
        assert any(v["oracle"] == "invariant:metrics" for v in violations)

    def test_post_crash_silence_detected_on_doctored_trace(self):
        from repro import run_consensus

        result = run_consensus(
            [0, 1] * 10, 3, crashes="random", seed=3, record_trace=True
        )
        trace = result.trace
        # Doctor the trace: give a crashed node a send two rounds after
        # its crash (the engine can never produce this).
        victim = sorted(result.crashed)[0]
        crash_round = min(
            event["round"]
            for event in trace.events
            if victim in event["crashes"]
        )
        doctored = Trace.from_dict(trace.to_dict())
        doctored.events.append(
            {
                "round": crash_round + 2,
                "crashes": {},
                "rejoins": [],
                "blocked": None,
                "sends": {victim: [[[0], 1, "deadbeef"]]},
                "drops": {},
            }
        )
        doctored.events.sort(key=lambda event: event["round"])
        recipe = {"name": "consensus", "inputs": [0, 1] * 10, "t": 3}
        violations, _ = run_oracles(
            "consensus-few", recipe, result, trace=doctored,
            include_safety=False, include_bounds=False,
        )
        assert any(
            v["oracle"] == "invariant:post-crash-silence" for v in violations
        )

    def test_churn_consistency_detected(self):
        from repro import run_consensus

        scenario = Scenario(n=20, churn=[ChurnSpec(2, 1, 4, 0)])
        result = run_consensus([0, 1] * 10, 3, scenario=scenario, crashes=None)
        recipe = {"name": "consensus", "inputs": [0, 1] * 10, "t": 3}
        violations, _ = run_oracles(
            "consensus-few", recipe, result, scenario=scenario,
            include_safety=False, include_bounds=False,
        )
        assert violations == []  # the real engine applies the rejoin
        result.crashed.add(2)  # fake a skipped rejoin
        violations, _ = run_oracles(
            "consensus-few", recipe, result, scenario=scenario,
            include_safety=False, include_bounds=False,
        )
        assert any(v["oracle"] == "invariant:churn-rejoin" for v in violations)


def _crafted_split_vote_config() -> FuzzConfig:
    """A wrong decision by construction: a permanent split-vote
    partition (the classical impossibility) plus two noise events the
    shrinker should strip away."""
    n, t = 60, 9
    inputs = [0] * (n // 2) + [1] * (n // 2)
    recipe = {"name": "consensus", "inputs": inputs, "t": t, "algorithm": "few"}
    scenario = Scenario(
        n=n,
        name="crafted-split-vote",
        partitions=[PartitionSpec(0, 4096, (tuple(range(n // 2)),))],
        crashes=[CrashEvent(55, 2, 1)],          # noise
        omissions=[OmissionSpec(3, 40, (1, 2))],  # noise
    )
    return FuzzConfig(
        index=0,
        seed=0,
        family="consensus-few",
        recipe=recipe,
        scenario=scenario,
        kind="crafted",
        max_rounds=4096,
        backends=(),             # sim-only: the fault is a safety fault
        include_safety=True,     # arm the oracle outside the crash model
    )


class TestInjectedFaultEndToEnd:
    """The acceptance pipeline: catch -> shrink -> artifact -> replay."""

    def test_caught_shrunk_and_replayed(self, tmp_path):
        config = _crafted_split_vote_config()
        row = run_config(config)
        assert row["violations"] >= 1
        details = row["violation_details"]
        assert "safety" in oracle_categories(details)

        shrunk = shrink_scenario(config, details, max_runs=120)
        minimal = shrunk.minimal
        # The noise events are gone; only the split survives.
        assert minimal.crashes == ()
        assert minimal.omissions == ()
        assert len(minimal.partitions) == 1
        assert minimal.shrink_size() < config.scenario.shrink_size()
        assert shrunk.steps >= 2
        # The minimal scenario still trips the same oracle class.
        assert "safety" in oracle_categories(shrunk.violations)

        path = emit_artifact(config, shrunk, tmp_path)
        replayed = replay_trace(path)  # bit-for-bit verified replay
        with pytest.raises(PropertyViolation):
            check_consensus(replayed, config.recipe["inputs"])
        # Both partition sides decided -- the wrong decision is real
        # and reproduced, not a liveness artifact.
        assert set(replayed.correct_decisions().values()) == {0, 1}

        # The artifact is self-contained: meta names the oracle, the
        # original scenario and the reproduction commands.
        trace = Trace.load(path)
        meta = trace.meta["repro.check"]
        assert "safety" in oracle_categories(meta["violations"])
        assert meta["original_scenario"]["name"] == "crafted-split-vote"
        assert "python -m repro.check" in meta["reproduce"]["cli"]

    def test_artifact_replays_on_net_backend(self, tmp_path):
        config = _crafted_split_vote_config()
        row = run_config(config)
        shrunk = shrink_scenario(config, row["violation_details"], max_runs=40)
        path = emit_artifact(config, shrunk, tmp_path, label="net-replay")
        replayed = replay_trace(path, backend="net")
        assert set(replayed.correct_decisions().values()) == {0, 1}


def _split_vote_artifact_args():
    config = _crafted_split_vote_config()
    row = run_config(config)
    return config, shrink_scenario(config, row["violation_details"], max_runs=40)


class TestArtifactBytes:
    """What a shrink artifact is made of: its bytes are pinned, and the
    CI mirror (``$REPRO_CHECK_ARTIFACT_DIR``) receives an identical copy
    of every artifact either writer saves."""

    def test_emit_artifact_bytes_pinned(self, tmp_path):
        config, shrunk = _split_vote_artifact_args()
        path = emit_artifact(config, shrunk, tmp_path, label="pin")
        blob = Path(path).read_bytes()
        assert hashlib.sha256(blob).hexdigest()[:16] == "8890ef90aa5b272e"

    def test_both_writers_mirror_once(self, tmp_path, monkeypatch):
        from repro.check.search import (
            make_search_config,
            record_search_trace,
            run_search,
        )

        saves = []
        save = Trace.save
        monkeypatch.setattr(
            Trace, "save", lambda self, path: (saves.append(path), save(self, path))
        )
        config, shrunk = _split_vote_artifact_args()
        search = run_search(
            make_search_config("flooding", seed=0, budget=3, n=12, t=2)
        ).to_row()
        writers = (
            lambda out: emit_artifact(config, shrunk, out, label="mirrored"),
            lambda out: record_search_trace(search, search["top"][0], out),
        )
        mirror = tmp_path / "mirror"
        monkeypatch.setenv("REPRO_CHECK_ARTIFACT_DIR", str(mirror))
        for write in writers:
            del saves[:]
            path = write(tmp_path / "out")
            copy = mirror / os.path.basename(path)
            assert copy.read_bytes() == Path(path).read_bytes()
            assert len(saves) == 2
            del saves[:]
            assert write(mirror) == str(copy)
            assert saves == [str(copy)]  # out_dir is the mirror: one write


def _crafted_misconverging_approximate_config() -> FuzzConfig:
    """An approximate-consensus instance with two noise events; the
    injected bug (a node that refuses to converge) violates
    ε-agreement regardless of the scenario, so the shrinker should
    strip the events away entirely."""
    n, t = 20, 3
    inputs = [float(5 * (i % 7)) for i in range(n)]
    recipe = {
        "name": "approximate", "inputs": inputs, "t": t,
        "eps": 0.5, "mode": "midpoint",
    }
    scenario = Scenario(
        n=n,
        name="crafted-misconverging-approx",
        crashes=[CrashEvent(7, 2, 1)],            # noise
        omissions=[OmissionSpec(3, 11, (1, 2))],  # noise
    )
    return FuzzConfig(
        index=0,
        seed=0,
        family="approximate",
        recipe=recipe,
        scenario=scenario,
        kind="crafted",
        max_rounds=4096,
        backends=(),
        include_safety=True,  # the omission noise leaves the model
    )


def _crafted_overspending_lv_config() -> FuzzConfig:
    """An lv-consensus instance with crash-only noise (so the run stays
    in-model and the payload-bits certificate arms); the injected bug
    multiplies the bit spend by ``n``, breaching the envelope under any
    scenario."""
    n, t = 20, 3
    # Genuinely 64-bit-wide values: payload_bits is value-dependent, so
    # narrow inputs would leave the n-fold spam under the width-based
    # envelope.
    inputs = [2**63 + 37 * i for i in range(n)]
    recipe = {"name": "lv_consensus", "inputs": inputs, "t": t, "width": 64}
    scenario = Scenario(
        n=n,
        name="crafted-overspending-lv",
        crashes=[CrashEvent(9, 1, 1), CrashEvent(11, 2, None)],  # noise
    )
    return FuzzConfig(
        index=0,
        seed=0,
        family="lv-consensus",
        recipe=recipe,
        scenario=scenario,
        kind="crafted",
        max_rounds=4096,
        backends=(),
    )


class TestBrokenImplementationCanaries:
    """Deliberately broken family implementations must be caught by the
    family-specific oracles -- ε-agreement for approximate, the
    payload-bits envelope certificate for lv-consensus -- and shrink to
    replayable artifacts, end to end."""

    def test_misconverging_approximate_node_caught(self, tmp_path, monkeypatch):
        from repro import check_approximate
        from repro.baselines.approximate import ApproximateConsensusProcess

        orig = ApproximateConsensusProcess.receive

        def skewed(self, rnd, inbox):
            if self.pid == 0:
                self.value += 100.0  # refuses to converge (the bug)
            orig(self, rnd, inbox)

        monkeypatch.setattr(ApproximateConsensusProcess, "receive", skewed)
        config = _crafted_misconverging_approximate_config()
        row = run_config(config)
        details = row.get("violation_details", [])
        assert "safety" in oracle_categories(details)
        assert any(
            "eps-agreement" in v["detail"] or "validity" in v["detail"]
            for v in details
            if v["oracle"] == "safety"
        )

        shrunk = shrink_scenario(config, details, max_runs=120)
        # The bug needs no faults at all: both noise events are stripped.
        assert shrunk.minimal.crashes == ()
        assert shrunk.minimal.omissions == ()
        assert "safety" in oracle_categories(shrunk.violations)

        path = emit_artifact(config, shrunk, tmp_path, label="approx-canary")
        replayed = replay_trace(path)
        with pytest.raises(PropertyViolation):
            check_approximate(
                replayed, config.recipe["inputs"], config.recipe["eps"]
            )

    def test_overspending_lv_node_caught(self, tmp_path, monkeypatch):
        from repro.baselines.lv_consensus import LVConsensusProcess
        from repro.sim.process import Multicast

        orig_receive = LVConsensusProcess.receive

        def spammy_send(self, rnd):
            # The bug: every node re-broadcasts every round, inflating
            # the bit spend by a factor n over the coordinator schedule.
            if rnd >= self.rounds or self.n < 2:
                return ()
            return [Multicast(self.everyone_else(), self.value)]

        def coordinator_only_receive(self, rnd, inbox):
            # Keep the decision logic correct (only coordinator messages
            # are honored) so the breach is purely a bits overspend.
            orig_receive(self, rnd, [(s, p) for s, p in inbox if s == rnd])

        monkeypatch.setattr(LVConsensusProcess, "send", spammy_send)
        monkeypatch.setattr(
            LVConsensusProcess, "receive", coordinator_only_receive
        )
        config = _crafted_overspending_lv_config()
        row = run_config(config)
        details = row.get("violation_details", [])
        assert "bounds" in oracle_categories(details)
        bounds = next(v for v in details if v["oracle"] == "bounds")
        assert "'comm_measure': 'bits'" in bounds["detail"]
        assert "'comm_ok': False" in bounds["detail"]

        shrunk = shrink_scenario(config, details, max_runs=120)
        assert shrunk.minimal.crashes == ()  # noise stripped
        assert "bounds" in oracle_categories(shrunk.violations)

        path = emit_artifact(config, shrunk, tmp_path, label="lv-canary")
        replayed = replay_trace(path)
        cert = bound_certificate("lv-consensus", config.recipe, replayed)
        assert not cert["comm_ok"]
        assert cert["comm_measure"] == "bits"

    def test_unbroken_families_run_canary_configs_clean(self):
        for config in (
            _crafted_misconverging_approximate_config(),
            _crafted_overspending_lv_config(),
        ):
            row = run_config(config)
            assert row["violations"] == 0, row.get("violation_details")


class TestShrinkCandidates:
    def test_candidates_are_valid_and_strictly_smaller(self):
        scenario = Scenario(
            n=12,
            crashes=[CrashEvent(1, 2, 1), CrashEvent(2, 3, None)],
            omissions=[OmissionSpec(0, 5, (1, 2, 3, 4))],
            partitions=[PartitionSpec(1, 5, ((0, 1), (2, 3)))],
            churn=[ChurnSpec(7, 1, 6, 2)],
        )
        size = scenario.shrink_size()
        candidates = list(scenario.shrink_candidates())
        assert candidates
        for candidate in candidates:
            candidate.validate()
            assert candidate.shrink_size() < size

    def test_no_candidates_for_empty_scenario(self):
        assert list(Scenario(n=4).shrink_candidates()) == []


class TestCLI:
    def test_clean_run_exits_zero(self, capsys):
        assert check_main(["--seed", "0", "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 configurations" in out
        assert "0 violating" in out

    def test_budget_50_runs_clean_across_all_families(self, capsys):
        # The acceptance bar: a 50-config budget rotates through every
        # family (10 families x 5 configs) without a single violation.
        assert check_main(["--seed", "0", "--budget", "50"]) == 0
        out = capsys.readouterr().out
        assert "0 violating" in out
        for family in FAMILIES:
            assert f"{family}=5" in out

    def test_only_selects_indices(self, capsys):
        assert check_main(["--seed", "0", "--only", "3", "--budget", "9"]) == 0
        assert "1 configurations" in capsys.readouterr().out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            check_main(["--families", "nope"])

    def test_unknown_backend_rejected_at_parse_time(self):
        with pytest.raises(SystemExit, match="simref"):
            check_main(["--backends", "simref"])


class TestBenchSeries:
    def test_fuzz_rows_jobs_independent(self):
        from repro.bench import series
        from repro.bench.sweep import run_sweep

        serial = run_sweep(series.fuzz_spec(budget=4), jobs=1).rows()
        parallel = run_sweep(series.fuzz_spec(budget=4), jobs=2).rows()
        assert serial == parallel
        assert all(row["violations"] == 0 for row in serial)

    def test_fuzz_registered_in_runner(self):
        from repro.bench.runner import EXPERIMENTS

        assert "fuzz" in EXPERIMENTS
