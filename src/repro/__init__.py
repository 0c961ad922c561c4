"""repro -- executable reproduction of *Deterministic Fault-Tolerant
Distributed Computing in Linear Time and Communication* (Chlebus,
Kowalski, Olkowski; PODC 2023, arXiv:2305.11644).

Quickstart::

    from repro import run_consensus, check_consensus

    inputs = [0, 1] * 50                       # 100 nodes, mixed inputs
    result = run_consensus(inputs, t=15)        # t < n/5 crashes
    check_consensus(result, inputs)             # validity/agreement/termination
    print(result.rounds, result.messages, result.bits)

Layers:

* :mod:`repro.sim` -- the synchronous message-passing simulator
  (the lock-step engine, the single-port discipline, crash/Byzantine
  adversaries);
* :mod:`repro.graphs` -- (near-)Ramanujan overlays and their
  combinatorics (expansion, compactness, survival subsets);
* :mod:`repro.auth` -- simulated unforgeable signatures;
* :mod:`repro.core` -- the paper's algorithms (Figs. 1-7);
* :mod:`repro.singleport` -- the Section 8 single-port adaptation;
* :mod:`repro.lowerbounds` -- the Theorem 13 adversary constructions;
* :mod:`repro.baselines` -- classical comparators;
* :mod:`repro.families` -- the registry: one record per protocol family
  (builder, sampler, oracles, bound, vec kernel);
* :mod:`repro.scenarios` -- declarative omission/partition/churn fault
  scenarios (see ``docs/faults.md``);
* :mod:`repro.trace` -- deterministic record/replay of executions;
* :mod:`repro.check` -- differential fuzzing with paper-bound oracles
  and scenario shrinking (``python -m repro.check``);
* :mod:`repro.bench` -- the experiment harness behind ``repro-bench``
  (README, "Benchmarks and sweeps").
"""

from repro.api import (
    run_aea,
    run_ab_consensus,
    run_approximate,
    run_checkpointing,
    run_consensus,
    run_flooding,
    run_gossip,
    run_lv_consensus,
    run_recipe,
    run_scv,
)
from repro.core.params import ProtocolParams
from repro.properties import (
    PropertyViolation,
    check_aea,
    check_approximate,
    check_checkpointing,
    check_consensus,
    check_gossip,
    check_scv,
)
from repro.scenarios import Scenario, scenario_schedule
from repro.sim.engine import RunResult
from repro.trace import Trace, replay_trace

__version__ = "1.0.0"

__all__ = [
    "ProtocolParams",
    "PropertyViolation",
    "RunResult",
    "Scenario",
    "Trace",
    "__version__",
    "check_aea",
    "check_approximate",
    "check_checkpointing",
    "check_consensus",
    "check_gossip",
    "check_scv",
    "replay_trace",
    "run_aea",
    "run_ab_consensus",
    "run_approximate",
    "run_checkpointing",
    "run_consensus",
    "run_flooding",
    "run_gossip",
    "run_lv_consensus",
    "run_recipe",
    "run_scv",
    "scenario_schedule",
]
