"""The family registry is the single statement of each protocol family.

Parametrised over :data:`repro.families.REGISTRY`, so a new record is
covered by being appended: its sampler must produce recipes its own
schema accepts, its ``run_*`` shim must state exactly the recipe
``run_recipe`` reproduces, and every table other modules expose
(``FAMILIES``, ``BOUND_CONSTANTS``, ``KERNEL_FAMILIES``, kernel
dispatch) must be the registry's, not a copy.
"""

from __future__ import annotations

import random

import pytest

import repro
from repro.api import build_recipe_processes, run_recipe
from repro.check.driver import FAMILIES, sample_instance
from repro.check.oracles import BOUND_CONSTANTS, check_parity
from repro.core.params import ProtocolParams
from repro.families import REGISTRY, by_family, by_recipe, instance_shape
from repro.sim.vec import HAVE_NUMPY, KERNEL_FAMILIES

each_family = pytest.mark.parametrize(
    "family", REGISTRY, ids=[family.family for family in REGISTRY]
)


def _sampled(family, seed: int) -> dict:
    return sample_instance(family.family, random.Random(seed), seed)


@each_family
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_recipe_validates_and_builds(family, seed):
    recipe = _sampled(family, seed)
    assert recipe["name"] == family.recipe
    assert set(family.recipe_args(recipe)) <= set(family.required) | set(
        family.optional
    )
    processes, horizon, byzantine = build_recipe_processes(recipe)
    n, t = instance_shape(recipe)
    assert len(processes) == n
    assert all(
        isinstance(proc, family.process)
        for proc in processes
        if proc.pid not in byzantine
    )
    # The fuzz window is the builder's crash horizon, except where the
    # record says why not.
    params = ProtocolParams(n=n, t=t, seed=recipe.get("overlay_seed", 0))
    if family.family == "ab-consensus":
        assert horizon == 1
    elif family.family == "approximate":
        assert family.fault_horizon(params) >= horizon
    else:
        assert family.fault_horizon(params) == horizon


@each_family
def test_shim_states_the_recipe_run_recipe_reproduces(family):
    recipe = _sampled(family, 1)
    args = family.recipe_args(recipe)
    execution = {"seed": 3, "max_rounds": 4000}
    if family.crash_faults:
        execution["crashes"] = "early"
    shim = getattr(repro, f"run_{family.recipe}")
    result = shim(**args, record_trace=True, **execution)
    # The trace carries the recipe the shim was given, completed with
    # the schema's defaults...
    assert result.trace.protocol == {
        "name": family.recipe, **family.optional, **args
    }
    # ...and that recipe alone reproduces the run.
    again = run_recipe(result.trace.protocol, **execution)
    check_parity(result, again, shim.__name__, "run_recipe")
    family.safety(recipe, result)


@each_family
def test_record_carries_an_oracle_and_a_positive_envelope(family):
    recipe = _sampled(family, 2)
    n, t = instance_shape(recipe)
    assert callable(family.safety)
    measure, constant = family.bound
    assert measure in ("bits", "messages") and constant > 0
    assert family.envelope(ProtocolParams(n=n, t=t), recipe) > 0
    assert BOUND_CONSTANTS[family.family] == family.bound


def test_tables_are_the_registry():
    names = tuple(family.family for family in REGISTRY)
    assert FAMILIES == names and len(set(names)) == len(REGISTRY) == 10
    assert set(BOUND_CONSTANTS) == set(names)
    assert all(by_family(name).family == name for name in names)
    with pytest.raises(ValueError, match="unknown family"):
        by_family("lv_consensus")  # a recipe name is not a family name
    with pytest.raises(ValueError, match="unknown protocol recipe"):
        by_recipe("lv-consensus")


def test_records_sharing_a_recipe_name_agree_on_recipe_level_fields():
    for family in REGISTRY:
        first = by_recipe(family.recipe)
        for field in ("builder", "max_rounds", "crash_faults", "safety"):
            assert getattr(family, field) == getattr(first, field), (
                f"{family.family} and {first.family} share recipe "
                f"{family.recipe!r} but differ on {field}"
            )
    assert [f.family for f in REGISTRY if not f.crash_faults] == ["ab-consensus"]


def test_kernel_families_are_the_records_with_a_kernel():
    assert KERNEL_FAMILIES == tuple(
        family.family for family in REGISTRY if family.kernel is not None
    )
    assert set(KERNEL_FAMILIES) == {"flooding", "gossip", "checkpointing"}


@pytest.mark.skipif(not HAVE_NUMPY, reason="kernels need numpy")
@each_family
def test_build_kernel_dispatches_exactly_the_kernel_families(family):
    from repro.sim.vec.engine import build_kernel

    processes, _horizon, _byzantine = build_recipe_processes(_sampled(family, 0))
    kernel = build_kernel(processes)
    if family.kernel is None:
        assert kernel is None
    else:
        assert type(kernel).__name__ == family.kernel.partition(":")[2]
