"""Greedy scenario shrinking and artifact emission.

A fuzz failure arrives as a (possibly large) random scenario; what a
bug report needs is the *minimal* scenario that still trips the same
oracle.  :func:`shrink_scenario` runs the classical greedy loop over
:meth:`repro.scenarios.Scenario.shrink_candidates` -- delete a whole
fault event, demote churn to crash, halve an omission round list or a
partition window, simplify a ``keep`` budget -- re-running the full
differential check after each mutation and keeping any candidate that
still fails in the same oracle *category* (``parity`` / ``safety`` /
``bounds`` / ``invariant``).  Termination is unconditional: every
candidate strictly decreases :meth:`Scenario.shrink_size`, and the run
budget caps the worst case.

The minimal failing run is then re-executed once more with trace
recording and written as a **self-contained artifact**
(:func:`emit_artifact`): one JSON trace whose embedded protocol recipe,
scenario and ``meta`` block (violated oracles, original scenario,
shrink statistics, reproduction command) make
``repro.trace.replay_trace(path)`` reproduce the execution anywhere --
no source-tree context required.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from repro.check.driver import FuzzConfig, run_config, write_artifact
from repro.scenarios import Scenario

__all__ = ["ShrinkResult", "emit_artifact", "oracle_categories", "shrink_scenario"]


def oracle_categories(violations: Iterable[dict]) -> frozenset[str]:
    """The coarse oracle classes of a violation list (``parity:net`` and
    ``parity:sim-ref`` both count as ``parity``), the equivalence used
    to decide whether a shrunk candidate reproduces "the same" failure."""
    return frozenset(v["oracle"].split(":")[0] for v in violations)


@dataclass
class ShrinkResult:
    """Outcome of one shrink loop."""

    original: Optional[Scenario]
    minimal: Optional[Scenario]
    categories: frozenset[str]
    steps: int
    runs: int
    #: violations of the final (minimal) configuration
    violations: list[dict]

    def summary(self) -> dict:
        return {
            "categories": sorted(self.categories),
            "steps": self.steps,
            "runs": self.runs,
            "original_size": (
                self.original.shrink_size() if self.original else 0
            ),
            "minimal_size": self.minimal.shrink_size() if self.minimal else 0,
        }


def _shrink_backends(
    config: FuzzConfig, categories: frozenset[str], violations: list[dict]
) -> tuple[str, ...]:
    """Replay only what the failure needs: parity failures keep exactly
    the diverging backends, pure oracle failures re-run sim-only."""
    if "parity" not in categories:
        return ()
    diverged = {
        v["oracle"].split(":", 1)[1]
        for v in violations
        if v["oracle"].startswith("parity:")
    }
    return tuple(b for b in config.backends if b in diverged)


def shrink_scenario(
    config: FuzzConfig,
    violations: list[dict],
    *,
    max_runs: int = 150,
) -> ShrinkResult:
    """Reduce ``config.scenario`` to a minimal scenario that still fails.

    ``violations`` is the original failing run's violation list (from
    :func:`repro.check.driver.run_config`); a candidate counts as still
    failing when its own violations intersect the same oracle
    categories.  Each probe is one full differential check, so
    ``max_runs`` bounds the total work; the greedy loop restarts from
    the first successful mutation, which keeps the sequence of adopted
    scenarios strictly shrinking.
    """
    categories = oracle_categories(violations)
    original = config.scenario
    if original is None or not categories:
        return ShrinkResult(original, original, categories, 0, 0, violations)
    backends = _shrink_backends(config, categories, violations)
    runs = 0
    steps = 0
    current = original
    current_violations = violations

    def probe(candidate: Scenario) -> Optional[list[dict]]:
        nonlocal runs
        runs += 1
        row = run_config(replace(config, scenario=candidate, backends=backends))
        found = row.get("violation_details", [])
        if oracle_categories(found) & categories:
            return found
        return None

    progress = True
    while progress and runs < max_runs:
        progress = False
        for candidate in current.shrink_candidates():
            if runs >= max_runs:
                break
            found = probe(candidate)
            if found is not None:
                current = candidate
                current_violations = found
                steps += 1
                progress = True
                break
    return ShrinkResult(
        original, current, categories, steps, runs, current_violations
    )


def emit_artifact(
    config: FuzzConfig,
    shrink: ShrinkResult,
    out_dir: str | os.PathLike,
    *,
    label: Optional[str] = None,
) -> str:
    """Write the minimal failing run as one self-contained trace file.

    The minimal configuration goes through
    :func:`repro.check.driver.write_artifact` with a ``meta`` block
    naming the violated oracles, the original (pre-shrink) scenario and
    the exact reproduction commands.  Returns the artifact path;
    ``repro.trace.replay_trace(path)`` reproduces the execution
    standalone on any backend.
    """
    name = label or f"fuzz-seed{config.seed}-index{config.index}"
    repro_cli = (
        f"python -m repro.check --seed {config.seed} "
        f"--only {config.index} --budget {config.index + 1}"
    )
    meta = {
        "repro.check": {
            "violations": shrink.violations,
            "family": config.family,
            "kind": config.kind,
            "shrink": shrink.summary(),
            "original_scenario": (
                shrink.original.to_dict() if shrink.original else None
            ),
            "reproduce": {
                "cli": repro_cli,
                "replay": f"python -c \"from repro import replay_trace; "
                f"replay_trace('{name}.trace.json')\"",
            },
        }
    }
    return write_artifact(
        config.recipe, shrink.minimal, config.max_rounds, out_dir, name, meta
    )
