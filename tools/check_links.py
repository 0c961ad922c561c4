#!/usr/bin/env python
"""Offline link checker for README.md and docs/*.md.

Verifies that every relative markdown link (``[text](target)``,
``![alt](target)``) resolves to an existing file in the repository, and
that every ``examples/*.py``, ``src/repro/**.py``, ``tests/*.py``,
``docs/*.md`` path or root-level ``*.json`` / ``*.md`` / ``*.toml`` name
mentioned in inline code spans exists — so the README's scenario
gallery, the fault-model handbook and the names of committed artifacts
cannot silently rot when files move or go.  Python sources under
``src/`` and ``examples/`` get the one check that applies to them: a
``*.md`` file a docstring or comment sends the reader to must exist.
External ``http(s)``/``mailto`` targets are syntax-checked only (CI must
stay offline-deterministic).

Usage::

    python tools/check_links.py          # exit 1 and list problems
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``[text](target)`` and ``![alt](target)``; ignores reference-style
#: links (unused in this repo) and fenced code blocks (stripped first).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
#: repo-relative paths mentioned in `inline code`: anything under a
#: known top-level directory, or a bare root-level file name
_CODE_PATH = re.compile(
    r"`((?:examples|tests|docs|tools|benchmarks)/[A-Za-z0-9_./-]+"
    r"|src/repro/[A-Za-z0-9_./-]+"
    r"|[A-Za-z0-9_-]+\.(?:json|md|toml))`"
)
_FENCE = re.compile(r"```.*?```", re.DOTALL)
#: a markdown file named in a Python source, with or without a directory
_SOURCE_MD = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")


def _strip_fences(text: str) -> str:
    return _FENCE.sub("", text)


def check_file(path: pathlib.Path) -> list[str]:
    """Return human-readable problems found in one markdown file."""
    problems: list[str] = []
    text = _strip_fences(path.read_text(encoding="utf-8"))
    rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):
            continue  # same-file anchor; headings move too often to pin
        candidate = (path.parent / target.split("#", 1)[0]).resolve()
        if not candidate.exists():
            problems.append(f"{rel}: broken link -> {target}")
    for match in _CODE_PATH.finditer(text):
        target = match.group(1).rstrip("/")
        if not (ROOT / target).exists():
            problems.append(f"{rel}: references missing file `{target}`")
    return problems


def check_source(path: pathlib.Path) -> list[str]:
    """Problems in one Python file: every ``*.md`` it names must be a
    file, given repo-relative or as a bare name at the root or in docs/."""
    rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
    names = set(_SOURCE_MD.findall(path.read_text(encoding="utf-8")))
    return [
        f"{rel}: references missing file `{name}`"
        for name in sorted(names)
        if not any((base / name).is_file() for base in (ROOT, ROOT / "docs"))
    ]


def collect_sources() -> list[pathlib.Path]:
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "examples").glob("*.py")]
    return sorted(sources)


def collect_markdown() -> list[pathlib.Path]:
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def main() -> int:
    problems: list[str] = []
    for path in collect_markdown():
        problems.extend(check_file(path))
    for path in collect_sources():
        problems.extend(check_source(path))
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} broken reference(s)")
        return 1
    print(f"all links ok across {len(collect_markdown())} markdown file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
