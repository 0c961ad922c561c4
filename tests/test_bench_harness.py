"""Tests for the experiment harness (workloads, series, runner)."""

import pytest

from repro import PropertyViolation, check_consensus
from repro.bench import series
from repro.bench.runner import EXPERIMENTS, format_table
from repro.bench.sweep import run_sweep
from repro.bench.workloads import (
    byzantine_sample,
    input_vector,
    rumor_vector,
    table1_fault_bound,
)
from repro.check.oracles import bound_certificate
from repro.families import by_family
from repro.sim import Engine, crash_schedule
from tests.conftest import linear_vector


class TestWorkloads:
    def test_input_kinds(self):
        bits = input_vector(100, "random", 5)
        assert set(bits) <= {0, 1}
        assert input_vector(100, "random", 5) == bits  # seeded

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            input_vector(10, "gaussian")

    def test_rumors_distinct(self):
        rumors = rumor_vector(50, 1)
        assert len(set(rumors)) == 50

    def test_byzantine_sample_size_and_range(self):
        chosen = byzantine_sample(100, 10, seed=2)
        assert len(chosen) == 10
        assert all(0 <= pid < 100 for pid in chosen)

    def test_byzantine_sample_biases_committee(self):
        chosen = byzantine_sample(200, 10, seed=3)
        committee = max(5 * 10, 8)
        assert sum(pid < committee for pid in chosen) >= 10 // 2

    def test_table1_bounds_monotone_in_n(self):
        for problem in ("consensus", "gossip", "checkpointing", "byzantine"):
            small = table1_fault_bound(problem, 128)
            large = table1_fault_bound(problem, 1024)
            assert 1 <= small <= large

    def test_table1_bound_orders(self):
        # Consensus tolerates the widest linear range; the √n Byzantine
        # range is the narrowest asymptotically.
        n = 4096
        assert table1_fault_bound("gossip", n) < table1_fault_bound("consensus", n)
        assert table1_fault_bound("byzantine", n) < table1_fault_bound("consensus", n)
        huge = 2**24
        assert table1_fault_bound("byzantine", huge) < table1_fault_bound("gossip", huge)

    def test_table1_unknown_problem(self):
        with pytest.raises(ValueError):
            table1_fault_bound("leader-election", 100)


class TestFormatTable:
    def test_alignment_and_header(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "bb" in lines[0]
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_empty(self):
        assert format_table([]) == "(no rows)"


#: The theorem series -- and the families / net / scenarios / adversary
#: series that run one instance on several backends -- at small sizes:
#: id -> (run, pinned columns, one tuple per row).  Model costs are
#: exact, so these tuples are the proof that a change to how rows are
#: *built* moved no execution: only ratio columns may differ between
#: two commits that both pass this.
GOLDEN = {
    "table1": (
        lambda: run_sweep(series.table1_spec(ns=[40, 60])).rows(),
        ("n", "t", "rounds", "comm"),
        [(40, 3, 32, 1932), (60, 5, 44, 5545), (40, 1, 84, 3732), (60, 1, 84, 3789),
         (40, 1, 107, 4724), (60, 1, 107, 5121), (40, 3, 17, 1341), (60, 3, 17, 1738)],
    ),
    "e5": (
        lambda: run_sweep(series.aea_spec(ns=[40, 60])).rows(),
        ("n", "t", "rounds", "messages", "bits"),
        [(40, 6, 37, 6155, 6155), (60, 10, 58, 12615, 12615)],
    ),
    "e6": (
        lambda: run_sweep(series.scv_spec(n=100)).rows(),
        ("n", "t", "rounds", "messages"),
        [(100, 10, 15, 1571), (100, 19, 25, 1558), (100, 21, 25, 1571),
         (100, 40, 25, 1518), (100, 79, 27, 1468)],
    ),
    "e7": (
        lambda: run_sweep(series.consensus_few_spec(ns=[40, 60])).rows(),
        ("n", "t", "rounds", "messages", "bits"),
        [(40, 6, 50, 6699, 6699), (60, 10, 81, 13415, 13415)],
    ),
    "e8": (
        lambda: run_sweep(series.consensus_many_spec(n=48)).rows(),
        ("n", "t", "rounds", "messages", "bits"),
        [(48, 14, 68, 15043, 15043), (48, 28, 70, 10306, 10306),
         (48, 43, 70, 5042, 5042), (48, 47, 118, 6090, 12858)],
    ),
    "e9": (
        lambda: run_sweep(series.gossip_spec(ns=[40, 60])).rows(),
        ("n", "t", "rounds", "messages"),
        [(40, 4, 108, 29255), (60, 6, 108, 69975)],
    ),
    "e10": (
        lambda: run_sweep(series.checkpointing_spec(ns=[40, 60])).rows(),
        ("n", "t", "rounds", "messages", "naive_msgs(n²t)"),
        [(40, 4, 147, 32432, 8784), (60, 6, 158, 77363, 27503)],
    ),
    "e11": (
        lambda: run_sweep(series.byzantine_spec(n=100)).rows(),
        ("n", "t", "rounds", "messages"),
        [(100, 5, 21, 3698), (100, 10, 28, 10108), (100, 20, 36, 32960),
         (100, 40, 54, 24720)],
    ),
    "baselines": (
        lambda: run_sweep(series.baselines_spec(n=60)).rows(),
        ("paper_rounds", "paper_msgs", "baseline_rounds", "baseline_msgs"),
        [(50, 7446, 7, 23141), (84, 3789, 2, 6964), (158, 77363, 8, 27503)],
    ),
    "e12": (
        lambda: run_sweep(series.singleport_spec(ns=[40, 60])).rows(),
        ("n", "t", "sp_rounds", "messages", "bits"),
        [(40, 5, 2096, 5256, 5256), (60, 7, 3480, 10192, 10192)],
    ),
    "e13": (
        lambda: run_sweep(series.lowerbounds_spec()).rows(),
        ("experiment", "measured", "bound", "detail"),
        [("gossip isolation (t=8)", 7, 4, "crashes used 7, digests matched True"),
         ("gossip isolation (t=16)", 15, 8, "crashes used 15, digests matched True"),
         ("gossip isolation (t=24)", 23, 12, "crashes used 23, digests matched True"),
         ("consensus divergence (n=40)", 1143, 3.4,
          "pivot 14, |A_i|≤3^i holds: True")],
    ),
    "families": (
        lambda: run_sweep(series.families_spec(n=24, t=4)).rows(),
        ("family", "backend", "rounds", "messages", "bits"),
        [("consensus", "sim-opt", 38, 3428, 3428), ("consensus", "sim-ref", 38, 3428, 3428),
         ("flooding", "sim-opt", 5, 2760, 346265), ("flooding", "sim-ref", 5, 2760, 346265),
         ("approximate", "sim-opt", 13, 7176, 459264),
         ("approximate", "sim-ref", 13, 7176, 459264),
         ("lv-consensus", "sim-opt", 5, 115, 14720),
         ("lv-consensus", "sim-ref", 5, 115, 14720)],
    ),
    "net": (
        lambda: run_sweep(series.net_spec(ns=[30])).rows(),
        ("problem", "rounds", "messages", "bits", "parity"),
        [("consensus", 43, 4725, 4725, "exact"), ("gossip", 90, 38411, 53508422, "exact"),
         ("checkpointing", 133, 43039, 53619079, "exact")],
    ),
    "scenarios": (
        lambda: run_sweep(series.scenarios_spec(n=24)).rows(),
        ("faults", "rounds", "messages", "dropped", "safety"),
        [(0, 38, 3423, 5, "ok"), (0, 38, 3317, 111, "ok"), (2, 38, 3447, 0, "ok"),
         (2, 38, 3276, 3, "ok"), (0, 90, 27348, 125, "ok"), (0, 90, 26985, 347, "ok"),
         (2, 90, 27498, 0, "ok"), (2, 90, 25895, 215, "ok")],
    ),
    "adversary": (
        lambda: run_sweep(series.adversary_spec(n=12, ts=[1, 2], budget=8)).rows(),
        ("family", "t", "baseline_ratio", "worst_ratio", "measured_constant", "faults"),
        [("gossip", 1, 0.18109, 0.18109, 1.0865, 0),
         ("gossip", 2, 0.176625, 0.177121, 1.0627, 2),
         ("checkpointing", 1, 0.184506, 0.184506, 1.107, 0),
         ("checkpointing", 2, 0.178128, 0.178855, 1.0731, 1),
         ("flooding", 1, 0.458333, 0.458333, 0.9167, 0),
         ("flooding", 2, 0.458333, 0.458333, 0.9167, 0)],
    ),
}


#: Linear-Consensus (n = 40, t = 5, inputs and crashes seed 2) per
#: crash-schedule kind, measured on the single-port engine before it
#: was deleted: (rounds, messages, bits).
SINGLEPORT_KINDS = {
    "random": (2096, 5072, 5072),
    "early": (2096, 4404, 4404),
    "late": (2096, 5440, 5440),
    "staggered": (2096, 4412, 4412),
}


@pytest.mark.parametrize("kind", list(SINGLEPORT_KINDS))
def test_singleport_crash_kinds_hold_consensus_and_their_cost(kind):
    n, t = 40, 5
    inputs = input_vector(n, "random", 2)
    factory, horizon = linear_vector(n, t, inputs)
    adversary = crash_schedule(n, t, seed=2, kind=kind, max_round=horizon)
    result = Engine(factory(), adversary, max_rounds=horizon).run()
    check_consensus(result, inputs)
    assert sorted(result.crashed) == [3, 5, 10, 19, 23]
    assert (result.rounds, result.messages, result.bits) == SINGLEPORT_KINDS[kind]


class TestSeries:
    """Small-size runs of the series builders (the full sweeps are
    ``repro-bench <id>``; CI's examples-smoke job runs a few)."""

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_golden_rows(self, name):
        run, columns, expected = GOLDEN[name]
        assert [tuple(row[c] for c in columns) for row in run()] == expected

    @pytest.mark.parametrize("family", ["consensus-few", "ab-consensus"])
    def test_violating_run_raises_instead_of_reporting(self, family, monkeypatch):
        # A bench number is only reported for a correct run, in both
        # fault models: flip one correct node's decision under the unit.
        def tampered(recipe, **execution):
            result = run_recipe(recipe, **execution)
            pid = result.correct_pids()[0]
            result.decisions[pid] = 1 - result.decisions[pid]
            return result

        run_recipe = series.run_recipe
        params = {"family": family, "n": 40, "t": 4, "seed": 1}
        assert series.theorem_unit(params)["rounds"] > 0
        monkeypatch.setattr(series, "run_recipe", tampered)
        with pytest.raises(PropertyViolation, match="agreement"):
            series.theorem_unit(params)

    @pytest.mark.parametrize(
        "spec",
        [
            series.table1_spec([40, 60]),
            series.aea_spec([40, 60, 240]),
            series.scv_spec(100),
            series.consensus_few_spec([40, 60, 240]),
            series.consensus_many_spec(48),
            series.gossip_spec([40, 60]),
            series.checkpointing_spec([40, 60]),
            series.byzantine_spec(100),
        ],
        ids=lambda spec: spec.name,
    )
    def test_rows_restate_the_fuzzers_certificate(self, spec, monkeypatch):
        # One statement of each bound: the ratio a table prints is the
        # bound oracle's own comm / envelope, and it stays under the
        # record's constant at sizes the fuzzer's n_range never reaches.
        def recording(recipe, **execution):
            runs.append((recipe, run_recipe(recipe, **execution)))
            return runs[-1][1]

        run_recipe, runs = series.run_recipe, []
        monkeypatch.setattr(series, "run_recipe", recording)
        for unit in spec.expand():
            del runs[:]
            row = spec.runner(unit.params)
            family = unit.params.get("family")
            if family is None:  # a Table 1 cell names its problem
                family = series.TABLE1_ROWS[unit.params["problem"]][1]
            measure, constant = by_family(family).bound
            ratio = row["comm/envelope" if "row" in row else f"{measure}/envelope"]
            certificate = bound_certificate(family, *runs[0])
            assert certificate["comm_measure"] == measure
            assert ratio == pytest.approx(
                certificate["comm"] / certificate["envelope"], abs=1e-3
            )
            assert 0 < ratio <= constant == row["constant"]
            assert certificate["comm_ok"]

    def test_smoke_is_a_table1_slice(self):
        smoke, table1 = series.smoke_spec(), series.table1_spec([48])
        assert smoke.name == "smoke"
        assert [u.params for u in smoke.expand()] == [u.params for u in table1.expand()]
        assert smoke.runner is table1.runner

    def test_registry_complete(self):
        expected = {
            "table1",
            "e5",
            "e6",
            "e7",
            "e8",
            "e9",
            "e10",
            "e11",
            "e12",
            "e13",
            "baselines",
            "families",
            "net",
            "scenarios",
            "fuzz",
            "adversary",
            "smoke",
        }
        assert set(EXPERIMENTS) == expected

    def test_e6_rows_cover_both_branches(self):
        rows = run_sweep(series.scv_spec(n=100)).rows()
        branches = {row["branch"] for row in rows}
        assert len(branches) == 2

    def test_e8_rows_have_bound_ratio(self):
        rows = run_sweep(series.consensus_many_spec(n=48)).rows()
        assert all(0 < row["rounds/bound"] <= 1.2 for row in rows)

    def test_e13_rows_meet_bounds(self):
        rows = run_sweep(series.lowerbounds_spec()).rows()
        for row in rows:
            assert row["measured"] >= row["bound"] - 1
