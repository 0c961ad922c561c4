"""Workload generators shared by the benchmark harness and examples."""

from __future__ import annotations

import math
import random
from typing import Any

__all__ = [
    "byzantine_sample",
    "input_vector",
    "rumor_vector",
    "table1_fault_bound",
]


def input_vector(n: int, kind: str = "random", seed: int = 0, width: int = 128) -> list:
    """An input assignment, binary unless ``kind`` says otherwise.

    ``kind``: ``"random"`` (iid bits); ``"wide"`` (iid ``width``-bit
    integers) and ``"real"`` (four-decimal floats in ``[0, 100]``) for
    the multi-valued and approximate families.
    """
    rng = random.Random(seed)
    if kind == "random":
        return [rng.randint(0, 1) for _ in range(n)]
    if kind == "wide":
        return [rng.randrange(0, 2**width) for _ in range(n)]
    if kind == "real":
        return [round(rng.uniform(0.0, 100.0), 4) for _ in range(n)]
    raise ValueError(f"unknown input kind {kind!r}")


def rumor_vector(n: int, seed: int = 0) -> list[Any]:
    """Distinct rumors, one per node."""
    return [f"rumor-{seed}-{i}" for i in range(n)]


def byzantine_sample(n: int, t: int, seed: int = 0) -> list[int]:
    """A Byzantine node set of size ``t``, half of it drawn from the
    committee (attacking little nodes is the interesting case for
    AB-Consensus)."""
    rng = random.Random(seed)
    committee = min(n, max(5 * t, 8))
    from_little = min(t // 2, committee)
    chosen = set(rng.sample(range(committee), from_little))
    rest = [pid for pid in range(n) if pid not in chosen]
    chosen.update(rng.sample(rest, t - len(chosen)))
    return sorted(chosen)


def table1_fault_bound(problem: str, n: int) -> int:
    """The Table 1 optimality-range boundary for each problem row.

    * crash consensus: ``t = Θ(n / log n)``
    * crash gossip/checkpointing: ``t = Θ(n / log² n)``
    * authenticated Byzantine consensus: ``t = Θ(√n)``
    """
    log_n = max(1.0, math.log2(n))
    if problem == "consensus":
        return max(1, int(n / (2 * log_n)))
    if problem in ("gossip", "checkpointing"):
        return max(1, int(n / (log_n * log_n)))
    if problem == "byzantine":
        return max(1, int(math.sqrt(n) / 2))
    raise ValueError(f"unknown problem {problem!r}")
