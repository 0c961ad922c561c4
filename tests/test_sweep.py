"""Tests for the parallel sweep scheduler and its artifacts."""

import pytest

from repro.bench import series
from repro.bench.runner import EXPERIMENTS, format_table, main
from repro.bench.sweep import (
    SweepSpec,
    derive_seed,
    describe_unit,
    expand_grid,
    read_csv,
    read_json,
    run_sweep,
    union_columns,
    write_csv,
    write_json,
)


class TestExpandGrid:
    def test_row_major_order_last_axis_fastest(self):
        grid = {"a": [1, 2], "b": ["x", "y"]}
        assert expand_grid(grid) == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_scalar_axis_is_single_point(self):
        assert expand_grid({"n": [4, 8], "kind": "random"}) == [
            {"n": 4, "kind": "random"},
            {"n": 8, "kind": "random"},
        ]

    def test_range_axis(self):
        assert [p["i"] for p in expand_grid({"i": range(3)})] == [0, 1, 2]

    def test_empty_axis_yields_no_units(self):
        assert expand_grid({"n": []}) == []


class TestDeriveSeed:
    def test_deterministic_and_order_independent(self):
        assert derive_seed(1, {"n": 8, "t": 2}) == derive_seed(1, {"t": 2, "n": 8})

    def test_varies_with_base_seed_and_params(self):
        assert derive_seed(1, {"n": 8}) != derive_seed(2, {"n": 8})
        assert derive_seed(1, {"n": 8}) != derive_seed(1, {"n": 16})

    def test_fits_32_bits(self):
        seed = derive_seed(123, {"n": 10**9})
        assert 0 <= seed < 2**32


class TestSpecExpansion:
    def test_injects_derived_seed_when_absent(self):
        spec = SweepSpec(name="s", runner=describe_unit, grid={"n": [4, 8]})
        units = spec.expand()
        assert [u.params["n"] for u in units] == [4, 8]
        seeds = [u.params["seed"] for u in units]
        assert seeds == [derive_seed(1, {"n": 4}), derive_seed(1, {"n": 8})]

    def test_pinned_seed_is_kept(self):
        spec = SweepSpec(
            name="s", runner=describe_unit, grid={"n": [4], "seed": [7]}
        )
        assert spec.expand()[0].params["seed"] == 7

    def test_explicit_units_preserved_in_order(self):
        units = [{"kind": "a", "seed": 1}, {"kind": "b", "seed": 1}]
        spec = SweepSpec(name="s", runner=describe_unit, units=units)
        assert [u.params["kind"] for u in spec.expand()] == ["a", "b"]

    def test_neither_grid_nor_units_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(name="s", runner=describe_unit).expand()


class TestRunSweep:
    def test_serial_rows_in_unit_order(self):
        spec = SweepSpec(
            name="s", runner=describe_unit, grid={"n": [1, 2, 3], "seed": [0]}
        )
        report = run_sweep(spec)
        assert [row["n"] for row in report.rows()] == [1, 2, 3]
        assert report.jobs == 1

    def test_parallel_rows_identical_to_serial(self):
        # A real protocol sweep (not an echo): deterministic seeding must
        # make worker count invisible in both row content and order.
        spec = series.consensus_few_spec(ns=[30, 42])
        serial = run_sweep(spec, jobs=1).rows()
        parallel = run_sweep(spec, jobs=4).rows()
        assert serial == parallel
        assert [row["n"] for row in serial] == [30, 42]

    def test_parallel_heterogeneous_units(self):
        spec = series.baselines_spec(n=60)
        assert run_sweep(spec, jobs=2).rows() == run_sweep(spec, jobs=1).rows()

    def test_unit_exception_propagates(self):
        spec = SweepSpec(
            name="bad",
            runner=series.table1_unit,
            grid={"problem": ["no-such-problem"], "n": [16], "seed": [1]},
        )
        with pytest.raises(ValueError):
            run_sweep(spec)
        with pytest.raises(ValueError):
            run_sweep(
                SweepSpec(
                    name="bad2",
                    runner=series.table1_unit,
                    grid={"problem": ["no-such-problem"] * 2, "n": [16], "seed": [1]},
                ),
                jobs=2,
            )


class TestArtifacts:
    def _report(self):
        spec = SweepSpec(
            name="artifact-demo",
            runner=describe_unit,
            grid={"n": [4, 8], "kind": "demo", "seed": [5]},
        )
        return run_sweep(spec)

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        write_json(report, path)
        loaded = read_json(path)
        assert loaded["experiment"] == "artifact-demo"
        assert [unit["row"] for unit in loaded["units"]] == report.rows()
        assert [unit["params"] for unit in loaded["units"]] == [
            outcome.unit.params for outcome in report.outcomes
        ]

    def test_csv_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "rows.csv"
        write_csv(report.rows(), path)
        loaded = read_csv(path)
        assert len(loaded) == 2
        # CSV stringifies cells; compare against str-coerced originals.
        expected = [
            {key: str(value) for key, value in row.items()}
            for row in report.rows()
        ]
        assert loaded == expected

    def test_csv_union_header_for_heterogeneous_rows(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        path = tmp_path / "rows.csv"
        write_csv(rows, path)
        loaded = read_csv(path)
        assert list(loaded[0]) == ["a", "b"]
        assert loaded[0]["b"] == ""
        assert loaded[1]["b"] == "3"


class TestUnionColumns:
    def test_first_appearance_order(self):
        rows = [{"b": 1, "a": 2}, {"c": 3, "a": 4}]
        assert union_columns(rows) == ["b", "a", "c"]

    def test_format_table_unions_heterogeneous_rows(self):
        rows = [{"a": 1}, {"a": 2, "extra": "y"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert "extra" in lines[0]
        assert lines[-1].split()[-1] == "y"
        assert len(set(len(line) for line in lines)) == 1  # aligned


class TestRunnerCLI:
    def test_registry_entries_build_specs(self):
        for name, (spec_builder, title) in EXPERIMENTS.items():
            spec = spec_builder()
            assert isinstance(spec, SweepSpec)
            assert spec.name == name
            assert title

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_cli_runs_and_writes_artifacts(self, tmp_path, capsys, monkeypatch):
        # Patch in a fast spec so the CLI path (sweep -> table -> files)
        # is exercised without a full-size experiment.
        monkeypatch.setitem(
            EXPERIMENTS,
            "e13",
            (
                lambda: SweepSpec(
                    name="e13",
                    runner=describe_unit,
                    grid={"n": [1, 2], "seed": [0]},
                ),
                "patched title",
            ),
        )
        out = tmp_path / "artifacts"
        assert main(["e13", "--jobs", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "e13" in printed
        assert (out / "e13.json").exists()
        assert (out / "e13.csv").exists()
        assert [u["row"]["n"] for u in read_json(out / "e13.json")["units"]] == [1, 2]
