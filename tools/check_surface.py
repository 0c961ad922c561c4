#!/usr/bin/env python
"""Dead-surface checker for ``src/repro/``.

Reports three kinds of public surface that nothing live uses:

* a public top-level function or class under ``src/repro/`` that no
  live code reaches;
* a parameter or dataclass field with a default that no live call sets
  to another value (a "knob");
* an ``argparse`` flag that nothing passes.

Live code is ``src/repro/``, ``examples/``, ``tools/``,
``benchmarks/perf/`` (its ``test_*.py`` aside), the ``pyproject.toml``
entry points, the Python of the ``.github/workflows/ci.yml`` commands
and the doctests of the docs and of the sources; a flag also counts as
passed when a command line in the docs or in CI passes it.  ``tests/``
never counts: a name only a test uses is dead.

A definition is reached when live code outside ``src/`` reads it, when
a ``src/`` module's top-level statements do (a registry, a
``__main__`` guard), or when the body of a reached definition does.  A
``"module:Name"`` string reads ``Name``; an import or an ``__all__``
entry reads nothing.  Calls are matched by name, not resolved, so the
check errs towards "live": a call that forwards ``*args`` or
``**kwargs`` sets every parameter of its callee, and so does handing a
function on as a value (``builder=f``), since its later caller is not
seen.

A finding is deleted, or listed in :data:`ALLOWLIST` with the reason it
stays.  The check fails on an unlisted finding and on a listed entry
that is no longer a finding, so the list can neither grow quietly nor
rot.  It also prints the number of settable values: parameters with a
default plus dataclass fields with a default.

Usage::

    python tools/check_surface.py          # exit 1 and list problems
"""

from __future__ import annotations

import ast
import doctest
import pathlib
import re
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Iterable

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: this checker reads nothing: its allowlist names what it checks
_SELF = pathlib.Path(__file__).name

_API = "a documented repro.api.run_* entry point or keyword (docs/api.md)"
_SIZED = "tests run the series at small sizes through it (test_golden_rows pins those rows)"
_ORACLE = "an oracle the tests check second_eigenvalue against"
_ITEM10 = "the paper's local-probing combinatorics; ROADMAP item 10's crash planner is its caller"
_SUBJECT = "an adaptive adversary tests/test_wake_contract.py and the parity walls run"
_ITEM2 = "a vec kernel with a parity wall that ROADMAP item 2 dispatches"
_BATCHING = "the batching switch ROADMAP item 6 measures and then keeps or deletes"
_PINNED = "tests/test_check.py pins the bytes of the artifacts made through it"
_FAKE = "tests/test_obs.py drives heartbeats on a fake clock into a buffer"

#: Finding -> why it stays.  Keys are as printed: ``module.name`` for a
#: name, ``module.callee(param=)`` for a knob, ``module --flag`` for a flag.
ALLOWLIST: dict[str, str] = {
    "repro.api.run_aea": _API,
    "repro.api.run_scv": _API,
    "repro.api.run_ab_consensus(overlay_seed=)": _API,
    "repro.api.run_aea(overlay_seed=)": _API,
    "repro.api.run_approximate(mode=)": _API,
    "repro.api.run_checkpointing(overlay_seed=)": _API,
    "repro.api.run_consensus(overlay_seed=)": _API,
    "repro.api.run_gossip(overlay_seed=)": _API,
    "repro.api.run_scv(common_value=)": _API,
    "repro.api.run_scv(overlay_seed=)": _API,
    "repro.baselines.ds_everywhere.DSEverywhereProcess": (
        "a subject of tests/test_wake_contract.py and of the Dolev-Strong parity tests"
    ),
    "repro.baselines.early_stopping.EarlyStoppingConsensusProcess": (
        "a subject of tests/test_wake_contract.py and of tests/test_early_stopping.py"
    ),
    "repro.bench.series.adversary_spec(budget=)": _SIZED,
    "repro.bench.series.adversary_spec(n=)": _SIZED,
    "repro.bench.series.adversary_spec(ts=)": _SIZED,
    "repro.bench.series.aea_spec(ns=)": _SIZED,
    "repro.bench.series.checkpointing_spec(ns=)": _SIZED,
    "repro.bench.series.consensus_many_spec(n=)": _SIZED,
    "repro.bench.series.families_spec(n=)": _SIZED,
    "repro.bench.series.families_spec(t=)": _SIZED,
    "repro.bench.series.fuzz_spec(budget=)": _SIZED,
    "repro.bench.series.net_spec(ns=)": _SIZED,
    "repro.bench.series.scenarios_spec(n=)": _SIZED,
    "repro.bench.series.scv_spec(n=)": _SIZED,
    "repro.bench.series.singleport_spec(ns=)": _SIZED,
    "repro.bench.sweep.read_csv": "the oracle of the write_csv round-trip tests",
    "repro.bench.sweep.read_json": "the oracle of the write_json round-trip tests",
    "repro.check.driver.FuzzConfig(include_safety=)": (
        "arms the safety oracle out of model for the catch-shrink-replay tests; " + _PINNED
    ),
    "repro.check.shrink.emit_artifact(label=)": _PINNED,
    "repro.check.shrink.shrink_scenario(max_runs=)": _PINNED,
    "repro.graphs.compactness.compactness_profile": _ITEM10,
    "repro.graphs.compactness.compactness_profile(seed=)": _ITEM10,
    "repro.graphs.compactness.compactness_profile(trials=)": _ITEM10,
    "repro.graphs.compactness.dense_neighborhood": (
        "the oracle tests/test_local_probe.py checks core/local_probe.py against"
    ),
    "repro.graphs.compactness.dense_neighborhood(within=)": (
        "the oracle tests/test_local_probe.py checks core/local_probe.py against"
    ),
    "repro.graphs.compactness.generalized_neighborhood": _ITEM10,
    "repro.graphs.compactness.is_survival_subset": (
        "the oracle the survival_subset property tests use"
    ),
    "repro.graphs.compactness.survival_subset": _ITEM10,
    "repro.graphs.expander.edges_between": _ORACLE,
    "repro.graphs.expander.mixing_lemma_gap": _ORACLE,
    "repro.net.runtime.host_nodes_tcp(churn_pids=)": (
        "workers of a churn scenario pass it (docs/faults.md); tests/test_net_hosts.py does"
    ),
    "repro.net.transport.connect_tcp(batching=)": _BATCHING,
    "repro.obs.progress.ProgressReporter(clock=)": _FAKE,
    "repro.obs.progress.ProgressReporter(stream=)": _FAKE,
    "repro.serve.__main__ --host": "a deployment setting: where a standalone server takes clients",
    "repro.serve.__main__ --no-batching": _BATCHING,
    "repro.serve.server.run_many(batching=)": _BATCHING,
    "repro.serve.server.run_many(workers=)": (
        "how tests reach the worker processes and the TCP hub"
    ),
    "repro.sim.adaptive.CrashDecidersAdversary": _SUBJECT,
    "repro.sim.adaptive.CrashDecidersAdversary(per_round=)": _SUBJECT,
    "repro.sim.adaptive.CrashDecidersAdversary(spare=)": _SUBJECT,
    "repro.sim.adaptive.NeighborhoodStarver": _SUBJECT,
    "repro.sim.adaptive.StaggeredCommitteeAdversary": _SUBJECT,
    "repro.sim.adversary.crash_schedule(victims=)": (
        "a crash set drawn from the committee, what ROADMAP item 10's planner builds"
    ),
    "repro.sim.vec.approximate.ApproximateKernel": _ITEM2,
    "repro.sim.vec.lv_consensus.LVConsensusKernel": _ITEM2,
}

#: ``"package.module:Name"``, the form of entry points and ``kernel=``
_MODULE_NAME = re.compile(r"^[A-Za-z_][\w.]*:([A-Za-z_]\w*)$")
#: a ``python - <<'EOF'`` heredoc inside a CI ``run:`` block
_HEREDOC = re.compile(r"<<-?\s*'?(\w+)'?\n(.*?)\n\s*\1\b", re.DOTALL)
#: a ``python -c "..."`` one-liner inside a CI ``run:`` block
_INLINE = re.compile(r"python3? -c \"(.*?)\"", re.DOTALL)
_FLAG = re.compile(r"--[A-Za-z][\w-]*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


@dataclass
class Source:
    """One unit of live code: where it came from, the ``src/`` module it
    is (``None`` for the rest), its syntax tree and every node of it
    (walked once)."""

    label: str
    module: str | None
    tree: ast.Module
    nodes: list[ast.AST] = field(init=False)

    def __post_init__(self) -> None:
        self.nodes = list(ast.walk(self.tree))


@dataclass
class Knob:
    """A parameter or dataclass field with a default."""

    key: str
    where: str
    default: str
    field: bool = False
    used: bool = False


@dataclass
class Signature:
    """What a call by one of ``names`` binds: ``params`` in positional
    order (``None`` for one without a default), the first ``skip`` of
    them filled by the receiver, then the keyword-only ones."""

    names: set[str]
    params: list[tuple[str, Knob | None]]
    keyword_only: dict[str, Knob] = field(default_factory=dict)
    skip: int = 0

    def knobs(self) -> list[Knob]:
        return [knob for _, knob in self.params if knob] + list(self.keyword_only.values())


@dataclass
class Report:
    #: finding -> ``path:line: why``
    findings: dict[str, str]
    settable: int


# -- live code ----------------------------------------------------------------


def _parse(text: str) -> ast.Module | None:
    try:
        return ast.parse(textwrap.dedent(text))
    except SyntaxError:
        return None


def _doctests(text: str, label: str) -> list[Source]:
    """The ``>>>`` examples of a text, as one tree."""
    try:
        examples = doctest.DocTestParser().get_examples(text)
    except ValueError:
        return []
    trees = [_parse(example.source) for example in examples]
    body = [node for tree in trees if tree for node in tree.body]
    return [Source(f"{label} (doctest)", None, ast.Module(body, []))] if body else []


def collect(root: pathlib.Path) -> tuple[list[Source], str]:
    """Live code under ``root`` as syntax trees, and the command-line
    text flags are read from (the docs and CI)."""
    src = root / "src"
    files = sorted((src / "repro").rglob("*.py"))
    for extra in ("examples", "tools", "benchmarks/perf"):
        files += [
            p for p in sorted((root / extra).glob("*.py"))
            if not p.name.startswith("test_") and p.name != _SELF
        ]
    sources: list[Source] = []
    texts: list[str] = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        label = path.relative_to(root).as_posix()
        module = None
        if path.is_relative_to(src):
            parts = path.relative_to(src).with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            sources += _doctests(text, label)
        sources.append(Source(label, module, ast.parse(text)))
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        if path.exists():
            texts.append(path.read_text(encoding="utf-8"))
            sources += _doctests(texts[-1], path.relative_to(root).as_posix())
    ci = root / ".github" / "workflows" / "ci.yml"
    if ci.exists():
        texts.append(ci.read_text(encoding="utf-8"))
        snippets = [m.group(2) for m in _HEREDOC.finditer(texts[-1])]
        snippets += [m.group(1) for m in _INLINE.finditer(texts[-1])]
        body = [node for tree in map(_parse, snippets) if tree for node in tree.body]
        sources.append(Source("ci.yml", None, ast.Module(body, [])))
    pyproject = root / "pyproject.toml"
    if pyproject.exists():
        text = pyproject.read_text(encoding="utf-8")
        targets = re.findall(r'^\s*[\w.-]+\s*=\s*"([\w.]+:\w+)"', text, re.M)
        body = [ast.Expr(ast.Constant(target)) for target in targets]
        sources.append(Source("pyproject.toml", None, ast.Module(body, [])))
    return sources, "\n".join(texts)


def _name(node: ast.AST) -> str | None:
    """The last name of a ``Name`` or ``Attribute``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


# -- names --------------------------------------------------------------------


def _references(nodes: Iterable[ast.AST]) -> set[str]:
    """Names some nodes read: loaded names, attributes and
    ``"module:Name"`` strings."""
    found: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = _MODULE_NAME.match(node.value)
            if match:
                found.add(match.group(1))
    return found


def dead_names(sources: list[Source]) -> dict[str, str]:
    """Public top-level functions and classes no live code reaches."""
    live: set[str] = set()
    bodies: dict[str, list[set[str]]] = {}  # name -> what each definition of it reads
    for source in sources:
        if source.module is None:
            live |= _references(source.nodes)
            continue
        for node in source.tree.body:
            if isinstance(node, _DEFS):
                reads = _references(ast.walk(node)) - {node.name}
                bodies.setdefault(node.name, []).append(reads)
            else:  # runs on import; an import or ``__all__`` reads no name
                live |= _references(ast.walk(node))
    frontier = list(live)
    while frontier:
        for body in bodies.get(frontier.pop(), []):
            frontier += body - live
            live |= body
    return {
        f"{source.module}.{node.name}": f"{source.label}:{node.lineno}: no live code reaches it"
        for source in sources
        if source.module is not None
        for node in source.tree.body
        if isinstance(node, _DEFS) and not node.name.startswith("_") and node.name not in live
    }


# -- knobs --------------------------------------------------------------------


def _decorators(node: ast.FunctionDef | ast.ClassDef) -> set[str]:
    return {_name(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return "dataclass" in _decorators(node) or any(_name(b) == "NamedTuple" for b in node.bases)


def _fields(node: ast.ClassDef) -> list[ast.AnnAssign]:
    """A dataclass's own fields, ``ClassVar`` annotations aside."""
    return [
        item for item in node.body
        if isinstance(item, ast.AnnAssign)
        and item.simple
        and "ClassVar" not in ast.dump(item.annotation)
    ]


def _field_default(value: ast.expr) -> ast.expr:
    """The default of a dataclass field, through ``field(default=...)``."""
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        keywords = {kw.arg: kw.value for kw in value.keywords}
        return keywords.get("default", keywords.get("default_factory", value))
    return value


def _function(
    node: ast.FunctionDef, names: set[str], key: str, where: str, skip: int
) -> Signature:
    args = node.args

    def knob(arg: ast.arg, default: ast.expr | None) -> Knob | None:
        return Knob(f"{key}({arg.arg}=)", where, ast.dump(default)) if default else None

    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    params = [(arg.arg, knob(arg, default)) for arg, default in zip(positional, defaults)]
    keyword_only = {
        arg.arg: knob(arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    }
    return Signature(names, params, keyword_only, skip)


def signatures(sources: list[Source]) -> tuple[list[Signature], int]:
    """Every callable's signature under ``src/``, and the settable-value
    count.  A dataclass's constructor binds its own fields."""
    sigs: list[Signature] = []
    settable = 0
    for source in (s for s in sources if s.module is not None):
        for node in source.nodes:
            if isinstance(node, _FUNCTIONS):
                args = node.args
                settable += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                settable += sum(item.value is not None for item in _fields(node))
        for node in source.tree.body:
            key = f"{source.module}.{node.name}" if isinstance(node, _DEFS) else ""
            if isinstance(node, _FUNCTIONS):
                sigs.append(_function(node, {node.name}, key, f"{source.label}:{node.lineno}", 0))
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                fields: list[tuple[str, Knob | None]] = []
                for item in _fields(node):
                    knob = None
                    if item.value is not None:
                        where = f"{source.label}:{item.lineno}"
                        default = ast.dump(_field_default(item.value))
                        knob = Knob(f"{key}({item.target.id}=)", where, default, field=True)
                    fields.append((item.target.id, knob))
                sigs.append(Signature({node.name}, fields))
            for item in node.body:
                if not isinstance(item, _FUNCTIONS):
                    continue
                decorators = _decorators(item)
                where = f"{source.label}:{item.lineno}"
                skip = 0 if "staticmethod" in decorators else 1
                if item.name == "__init__":
                    sigs.append(_function(item, {node.name}, key, where, skip))
                elif not item.name.startswith("__") and not {"property", "setter"} & decorators:
                    method = f"{key}.{item.name}"
                    sigs.append(_function(item, {item.name}, method, where, skip))
    return sigs, settable


def _calls(tree: ast.AST) -> list[tuple[ast.Call, ast.ClassDef | None]]:
    """Every call in a tree, with its enclosing class."""
    out: list[tuple[ast.Call, ast.ClassDef | None]] = []

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> None:
        if isinstance(node, ast.ClassDef):
            cls = node
        elif isinstance(node, ast.Call):
            out.append((node, cls))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return out


def _callee(call: ast.Call, cls: ast.ClassDef | None) -> str | None:
    """The name a call is matched by: inside a class, ``cls(...)`` calls
    that class and ``super().__init__(...)`` its first base."""
    name = _name(call.func)
    if cls is not None and name == "cls" and isinstance(call.func, ast.Name):
        return cls.name
    if cls is not None and name == "__init__" and isinstance(call.func, ast.Attribute):
        return _name(cls.bases[0]) if cls.bases else None
    return name


def _stored_attributes(source: Source) -> set[str]:
    """Attributes a source writes: ``x.a = v``, ``x.a += v``, ``x.a[k] = v``."""
    found: set[str] = set()
    for node in source.nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.add(node.attr)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            found.add(_name(node.value))
    return found


def _escaping(source: Source) -> set[str]:
    """Names a source hands on as values rather than calls (``builder=f``),
    locals and parameters aside."""
    called: set[int] = set()
    local: set[str] = set()
    loaded: list[ast.Name] = []
    for node in source.nodes:
        if isinstance(node, ast.Call):
            called.add(id(node.func))
        elif isinstance(node, ast.arg):
            local.add(node.arg)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                local.add(node.id)
            elif isinstance(node.ctx, ast.Load):
                loaded.append(node)
    return {n.id for n in loaded if id(n) not in called and n.id not in local}


def dead_knobs(sources: list[Source]) -> tuple[dict[str, str], int]:
    """Parameters and dataclass fields with a default that no live call
    sets to another value, and the settable-value count."""
    sigs, settable = signatures(sources)
    functions = {
        node.name
        for source in sources
        if source.module is not None
        for node in source.tree.body
        if isinstance(node, _FUNCTIONS)
    }
    by_name: dict[str, list[Signature]] = {}
    fields_by_name: dict[str, list[Knob]] = {}
    for sig in sigs:
        for name in sig.names:
            by_name.setdefault(name, []).append(sig)
        for param, knob in sig.params:
            if knob is not None and knob.field:
                fields_by_name.setdefault(param, []).append(knob)

    def mark(knob: Knob | None, value: ast.expr | None = None) -> None:
        if knob is not None and (value is None or ast.dump(value) != knob.default):
            knob.used = True

    for source in sources:
        for name in _stored_attributes(source):
            for knob in fields_by_name.get(name, []):
                mark(knob)
        for name in _escaping(source) & functions:
            for knob in (k for sig in by_name[name] for k in sig.knobs()):
                mark(knob)
        for call, cls in _calls(source.tree):
            name, args = _callee(call, cls), call.args
            if name in ("replace", "_replace"):  # dataclasses.replace(obj, field=...)
                for kw in call.keywords:
                    for knob in fields_by_name.get(kw.arg or "", []):
                        mark(knob, kw.value)
            for sig in by_name.get(name, []):
                if any(kw.arg is None for kw in call.keywords):
                    for knob in sig.knobs():
                        mark(knob)
                slots = sig.params[sig.skip:]
                for index, arg in enumerate(args[: len(slots)]):
                    if isinstance(arg, ast.Starred):
                        for _, knob in slots[index:]:
                            mark(knob)
                        break
                    mark(slots[index][1], arg)
                named = dict(sig.params) | sig.keyword_only
                for kw in call.keywords:
                    mark(named.get(kw.arg), kw.value)
    knobs = {knob.key: knob for sig in sigs for knob in sig.knobs()}
    findings = {
        key: f"{knob.where}: no live call sets it" for key, knob in knobs.items() if not knob.used
    }
    return findings, settable


# -- flags --------------------------------------------------------------------


def dead_flags(sources: list[Source], text: str) -> dict[str, str]:
    """``--flags`` of ``add_argument`` under ``src/`` that no live string
    and no command line in ``text`` passes."""
    passed = set(_FLAG.findall(text))
    declared: dict[str, tuple[str, list[str]]] = {}
    for source in sources:
        own: set[int] = set()  # a declaration's own strings pass nothing
        for node in source.nodes:
            if isinstance(node, ast.Call) and _name(node.func) == "add_argument":
                own.update(id(arg) for arg in node.args)
                flags = [
                    arg.value for arg in node.args
                    if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
                ]
                if flags and source.module is not None:
                    where = f"{source.label}:{node.lineno}"
                    declared[f"{source.module} {flags[0]}"] = (where, flags)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in own:
                    passed.update(_FLAG.findall(node.value))
    return {
        key: f"{where}: nothing passes it"
        for key, (where, flags) in declared.items()
        if not passed.intersection(flags)
    }


def scan(root: pathlib.Path = ROOT) -> Report:
    """All dead surface under ``root``, and its settable-value count."""
    sources, text = collect(root)
    findings = dead_names(sources)
    knobs, settable = dead_knobs(sources)
    findings |= knobs
    findings |= dead_flags(sources, text)
    return Report(dict(sorted(findings.items())), settable)


def problems(report: Report, allowlist: dict[str, str] = ALLOWLIST) -> list[str]:
    """Unlisted findings, and listed entries that are no longer findings."""
    unlisted = [
        f"{where}: {key}" for key, where in report.findings.items() if key not in allowlist
    ]
    stale = [
        f"{key} is allowlisted but no longer dead: drop it from ALLOWLIST"
        for key in allowlist
        if key not in report.findings
    ]
    return unlisted + stale


def main() -> int:
    report = scan()
    found = problems(report)
    for problem in found:
        print(problem)
    print(
        f"{report.settable} settable values; {len(report.findings)} dead-surface "
        f"finding(s), {len(ALLOWLIST)} allowlisted"
    )
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
