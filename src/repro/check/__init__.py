"""``repro.check`` -- differential fuzzing with paper-bound oracles.

The paper's claims are *exact* -- agreement / validity / termination
plus the Table 1 round and communication budgets -- and the repository
runs them on five backends (:data:`repro.api.BACKENDS`: ``sim-opt``
and ``sim-ref``, the two ``Engine`` loops; ``vec``, the numpy kernels;
``net`` and ``tcp``, the :mod:`repro.net` runtime over memory and
sockets) under a scenario generator whose combined state space no
hand-written test matrix covers.  This package closes the gap
mechanically:

* :mod:`repro.check.oracles` -- one definition of "identical
  execution" (:func:`~repro.check.oracles.check_parity`, shared with
  the engine parity tests and the bench certification) plus two oracle
  classes applied to every fuzzed run: **safety/liveness** (the
  :mod:`repro.properties` predicates, crash-model invariants such as
  post-crash silence and churn-rejoin consistency) and **paper-bound
  certificates** (rounds and communication within the Table 1
  envelopes, explicit constants recorded per run);
* :mod:`repro.check.driver` -- deterministic sampling of
  ``(protocol family, params, seeded Scenario, backend set)``
  configurations and their differential execution: the primary run
  records a :class:`repro.trace.Trace` on ``sim-opt``, every other
  backend replays it bit-for-bit (divergence = the first differing
  event, not a boolean); its ``run_on`` / ``write_artifact`` are how
  every checker here runs an instance and saves one;
* :mod:`repro.check.shrink` -- greedy deletion/narrowing over a
  failing scenario's events (via
  :meth:`repro.scenarios.Scenario.shrink_candidates`), re-running after
  each mutation, down to a minimal scenario that still trips the same
  oracle, emitted as a self-contained trace artifact that
  :func:`repro.trace.replay_trace` reproduces anywhere;
* :mod:`repro.check.search` -- the *optimization-guided* complement to
  blind fuzzing: simulated annealing over scenario space with
  grow+shrink moves, maximizing the measured bound ratio from the
  paper-bound certificates; ``python -m repro.check --search`` /
  ``repro-bench adversary``, with the worst scenarios emitted as
  replayable trace artifacts and regression-tested from
  ``tests/corpus/``;
* :mod:`repro.check.cli` -- ``python -m repro.check --seed 0 --budget
  200`` (deterministic given ``--seed``, parallel via the sweep
  scheduler); the same series runs as ``repro-bench fuzz`` and as the
  nightly CI job.
"""

from repro.check.driver import (
    FAMILIES,
    FuzzConfig,
    build_fuzz_spec,
    fuzz_unit,
    run_config,
    sample_config,
)
from repro.check.oracles import (
    OracleViolation,
    bound_certificate,
    check_parity,
    run_oracles,
)
from repro.check.driver import sample_instance
from repro.check.search import (
    SearchConfig,
    SearchResult,
    build_search_spec,
    make_search_config,
    record_search_trace,
    run_search,
    search_unit,
)
from repro.check.shrink import ShrinkResult, emit_artifact, shrink_scenario

__all__ = [
    "FAMILIES",
    "FuzzConfig",
    "OracleViolation",
    "SearchConfig",
    "SearchResult",
    "ShrinkResult",
    "bound_certificate",
    "build_fuzz_spec",
    "build_search_spec",
    "check_parity",
    "emit_artifact",
    "fuzz_unit",
    "make_search_config",
    "record_search_trace",
    "run_config",
    "run_oracles",
    "run_search",
    "sample_config",
    "sample_instance",
    "search_unit",
    "shrink_scenario",
]
