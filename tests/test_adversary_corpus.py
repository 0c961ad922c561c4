"""Satellite: the adversary regression corpus.

``tests/corpus/`` holds the worst scenarios the annealing search of
:mod:`repro.check.search` has found per kernel family, committed as
self-contained replayable trace artifacts (top-3 per family, small
instances so the files stay lean).  Every test run replays each trace
bit-for-bit on both engine variants and re-asserts the recorded bound
ratios, so a protocol change that shifts worst-case behaviour -- for
better or worse -- fails here instead of passing silently.

Regenerate (deliberately) with::

    python -m repro.check --search --seed 0 --budget 30 --n 10 --t 1 \
        --objective comm --moves crash --families <family> \
        --out tests/corpus
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.oracles import bound_certificate
from repro.trace import Trace, replay_trace

CORPUS_DIR = Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.trace.json"))

#: the families with a committed corpus (not every kernel family has one)
CORPUS_FAMILIES = ("flooding", "gossip", "checkpointing")


def _meta(path: Path) -> dict:
    return json.loads(path.read_text())["meta"]["repro.search"]


def test_corpus_is_seeded():
    """Top-3 per corpus family, as the search committed them."""
    assert CORPUS, "tests/corpus/ must hold committed adversary traces"
    by_family = {family: 0 for family in CORPUS_FAMILIES}
    for path in CORPUS:
        meta = _meta(path)
        by_family[meta["family"]] += 1
        assert meta["rank"] >= 1
        assert "trajectory" in meta and meta["trajectory"]
        assert "reproduce" in meta
    for family, count in by_family.items():
        assert count == 3, f"{family}: expected top-3 corpus entries"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
@pytest.mark.parametrize(
    "optimized", [True, False], ids=["sim-opt", "sim-ref"]
)
def test_corpus_replays_bit_for_bit(path, optimized):
    """Each committed trace reproduces on both engine variants, every
    delivery and fault checked against the recording."""
    result = replay_trace(path, backend="sim", optimized=optimized, check=True)
    assert result.completed


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_ratios_still_hold(path):
    """Replaying recomputes the certificate the search recorded: the
    measured rounds/communication ratios must match to the digit."""
    trace = Trace.load(path)
    meta = trace.meta["repro.search"]
    recorded = meta["certificate"]
    result = replay_trace(trace, backend="sim", optimized=True, check=True)
    fresh = bound_certificate(meta["family"], trace.protocol, result)
    # round_bound depends on the clean-run baseline the search held; the
    # measurements themselves must match the recording to the digit.
    assert fresh["rounds"] == recorded["rounds"]
    assert fresh["comm"] == recorded["comm"]
    assert fresh["comm_ratio"] == recorded["comm_ratio"]
    assert fresh["comm_ok"] == recorded["comm_ok"]
    assert recorded["ok"]
    evaluation = meta["evaluation"]
    assert evaluation["completed"]
    # The committed energy is the adversary's claim; it must still be
    # reachable from the replay's own measurements.
    assert meta["energy"] <= max(
        evaluation["rounds_ratio"], evaluation["comm_ratio"]
    ) + 1e-9
