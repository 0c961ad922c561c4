"""Documentation cannot rot: handbook doctests, link integrity, and
README scenario-gallery completeness are part of the test suite."""

import doctest
import pathlib
import re
import sys
import textwrap
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_links  # noqa: E402  (tools/ is not a package)
import check_surface  # noqa: E402


def test_faults_handbook_doctests():
    """Every snippet in docs/faults.md executes and prints what it
    claims (the CI docs job runs the same file via --doctest-glob)."""
    results = doctest.testfile(
        str(ROOT / "docs" / "faults.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted > 10, "handbook lost its runnable examples"
    assert results.failed == 0


def test_observability_handbook_doctests():
    """Every snippet in docs/observability.md executes (the CI docs job
    runs the same file via --doctest-glob)."""
    results = doctest.testfile(
        str(ROOT / "docs" / "observability.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert results.attempted > 5, "handbook lost its runnable examples"
    assert results.failed == 0


def test_markdown_links_resolve():
    problems = []
    for path in check_links.collect_markdown():
        problems.extend(check_links.check_file(path))
    assert not problems, "\n".join(problems)


def test_link_checker_sees_root_level_files(tmp_path):
    """A code span naming a root-level file that is not there is a
    problem, the same as a missing path under a known directory."""
    page = tmp_path / "page.md"
    page.write_text(
        "Budgets live in `BENCHMARK.json`, history in `CHANGES.md`, "
        "a snapshot in `NO_SUCH_ARTIFACT.json`.\n",
        encoding="utf-8",
    )
    problems = check_links.check_file(page)
    assert len(problems) == 1 and "`NO_SUCH_ARTIFACT.json`" in problems[0]


def test_sources_point_at_markdown_files_that_exist(tmp_path):
    """A docstring or comment under src/ or examples/ that sends the
    reader to a ``*.md`` file names one that is there."""
    problems = []
    for path in check_links.collect_sources():
        problems.extend(check_links.check_source(path))
    assert not problems, "\n".join(problems)
    module = tmp_path / "module.py"
    module.write_text(
        '"""See ``docs/faults.md``, api.md and README.md; the tables are in\n'
        'EXPERIMENTS.md."""\n',
        encoding="utf-8",
    )
    problems = check_links.check_source(module)
    assert len(problems) == 1 and "`EXPERIMENTS.md`" in problems[0]


def test_readme_gallery_lists_every_example():
    """The README 'Scenario gallery' table must name every script in
    examples/ (and nothing that does not exist — covered by the link
    checker above)."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = sorted(p.name for p in (ROOT / "examples").glob("*.py"))
    assert examples, "examples/ directory is empty?"
    missing = [name for name in examples if name not in readme]
    assert not missing, f"README gallery is missing {missing}"


def test_readme_gallery_rows_are_complete():
    """Each gallery row carries a paper reference and a fault model."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Scenario gallery\n(.*?)(\n## |\Z)", readme, re.DOTALL)
    assert match, "README lost its '## Scenario gallery' section"
    section = match.group(1)
    for name in sorted(p.name for p in (ROOT / "examples").glob("*.py")):
        row = next(
            (line for line in section.splitlines() if name in line), None
        )
        assert row is not None, f"{name} missing from the gallery table"
        assert row.count("|") >= 4, f"gallery row for {name} lost its columns"


def test_architecture_family_table_matches_the_registry():
    """docs/architecture.md's "Protocol families" table is a hand-written
    view of ``repro.families.REGISTRY``: same families in the same
    order, each with its ``run_*`` entry point, bound measure, envelope
    constant and vec column."""
    from repro.families import REGISTRY

    text = (ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    match = re.search(r"## Protocol families\n(.*?)(\n## |\Z)", text, re.DOTALL)
    assert match, "architecture.md lost its '## Protocol families' section"
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in match.group(1).splitlines()
        if line.startswith("| `")
    ]
    assert [row[0] for row in rows] == [f"`{f.family}`" for f in REGISTRY]
    for family, (_, entry, _notion, bound, backends) in zip(REGISTRY, rows):
        assert entry.startswith(f"`run_{family.recipe}`"), (family.family, entry)
        measure, constant = family.bound
        measure = "payload bits" if measure == "bits" else "messages"
        assert bound.startswith(f"{measure} ≤ {constant:g} × "), (
            family.family, bound
        )
        assert ("**vec**" in backends) == (family.kernel is not None), (
            family.family, backends
        )


def test_api_search_flag_table_matches_the_parser():
    """docs/api.md's search-flag table lists exactly the options of
    ``python -m repro.check``'s "adversary search" argument group: a
    removed flag cannot stay documented, a new one cannot ship
    undocumented."""
    from repro.check.cli import _parser

    text = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    match = re.search(r"\| Flag \| Meaning \|\n\|---\|---\|\n((?:\|.*\n)+)", text)
    assert match, "api.md lost its search-flag table"
    documented = [
        flag
        for line in match.group(1).splitlines()
        for flag in re.findall(r"`(--[a-z-]+)", line.split("|")[1])
    ]
    (group,) = [
        g for g in _parser()._action_groups if g.title.startswith("adversary search")
    ]
    parsed = [flag for action in group._group_actions for flag in action.option_strings]
    assert documented == parsed


def test_changes_entries_are_capped():
    """A CHANGES.md entry is a summary for the next session, not a lab
    notebook: every entry after PR 23 is at most 2,000 characters (the
    pair table, the deletions, net lines under ``src/``)."""
    text = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    headers = list(re.finditer(r"^(?:- )?PR (\d+):", text, re.MULTILINE))
    assert headers, "CHANGES.md lost its 'PR N:' entry headers"
    for header, following in zip(headers, headers[1:] + [None]):
        end = following.start() if following else len(text)
        entry = text[header.start():end].strip()
        if int(header.group(1)) > 23:
            assert len(entry) <= 2000, (
                f"CHANGES.md entry for PR {header.group(1)} is "
                f"{len(entry)} characters; the cap is 2,000"
            )


# -- dead public surface (tools/check_surface.py) -----------------------------

#: A tree with one of each kind of dead surface, and one of each way a
#: name or a keyword stays live without a direct call.
_SURFACE_TREE = {
    "src/repro/__init__.py": "",
    "src/repro/pkg/__init__.py": """
        from repro.pkg.mod import exported

        __all__ = ["exported"]
    """,
    "src/repro/pkg/mod.py": """
        import argparse
        from dataclasses import dataclass

        KERNELS = {"k": "repro.pkg.mod:Kernel"}


        class Kernel:
            pass


        def planted_unused():
            return 1


        def exported():
            return 2


        def entry():
            return 3


        def run(inputs, *, seed=0, never=1, **execution):
            return inner(inputs, **execution)


        def inner(inputs, forwarded=False):
            return forwarded


        @dataclass
        class Config:
            size: int = 1
            planted_field: int = 2


        def main(argv=None):
            parser = argparse.ArgumentParser()
            parser.add_argument("--used", type=int)
            parser.add_argument("--planted-flag", action="store_true")
            return parser.parse_args(argv)
    """,
    "examples/demo.py": """
        from repro.pkg import exported
        from repro.pkg.mod import Config, main, run

        exported()
        run([1], seed=3)
        Config(size=4)
        main(["--used", "1"])
    """,
    "pyproject.toml": """
        [project.scripts]
        demo = "repro.pkg.mod:entry"
    """,
    "tests/test_demo.py": """
        from repro.pkg.mod import Config, planted_unused, run

        planted_unused()
        run([1], never=2)
        Config(planted_field=3)
    """,
}


def _surface_tree(root: pathlib.Path) -> pathlib.Path:
    for name, text in _SURFACE_TREE.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def test_surface_checker_flags_each_kind_of_dead_surface(tmp_path):
    """An unused function, a never-set keyword, a never-set dataclass
    field and an unused flag are found, though a test uses them, and
    nothing else: not a name reached only through a ``"module:Name"``
    string, a pyproject entry point or an ``__all__`` re-export, nor a
    keyword that a caller forwards through ``**execution``."""
    report = check_surface.scan(_surface_tree(tmp_path))
    assert set(report.findings) == {
        "repro.pkg.mod.planted_unused",
        "repro.pkg.mod.run(never=)",
        "repro.pkg.mod.Config(planted_field=)",
        "repro.pkg.mod --planted-flag",
    }
    # seed, never, forwarded, argv; size, planted_field
    assert report.settable == 6


def test_surface_checker_fails_on_unlisted_and_stale_entries(tmp_path):
    report = check_surface.scan(_surface_tree(tmp_path))
    listed = {key: "kept on purpose" for key in report.findings}
    assert check_surface.problems(report, listed) == []
    unlisted = check_surface.problems(report, {})
    assert len(unlisted) == 4 and any("planted_unused" in p for p in unlisted)
    stale = check_surface.problems(report, {**listed, "repro.pkg.mod.exported": "x"})
    assert stale == [
        "repro.pkg.mod.exported is allowlisted but no longer dead: drop it from ALLOWLIST"
    ]


def test_public_surface_has_a_live_caller_or_a_reason():
    """Every public name, keyword default and flag under src/repro/ is
    used by live code or allowlisted with a reason, and no allowlist
    entry has gained a caller; the whole scan stays cheap."""
    started = time.perf_counter()
    report = check_surface.scan()
    elapsed = time.perf_counter() - started
    assert check_surface.problems(report) == []
    assert all(reason for reason in check_surface.ALLOWLIST.values())
    assert elapsed < 2.0, f"surface scan took {elapsed:.2f} s"
