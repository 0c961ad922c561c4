"""The parity/fuzz test wall for the approximate-consensus family.

Certification layers, matching the discipline every family gets:

* **spec under crashes** -- ε-agreement, range validity and termination
  (:func:`repro.properties.check_approximate`) across crash kinds,
  averaging modes and ε values;
* **hypothesis parity wall** -- random ``scenario_schedule`` scenarios
  (crashes with partial sends, omission links, partition windows, churn
  rejoins), executed on sim-ref, sim-opt and the net runtime, compared
  field-for-field via the repository's single parity definition;
* **trace round-trips** -- record on one substrate, replay with
  verification on another, in both directions;
* **fuzz-driver rotation** -- ``repro.check`` samples the family and
  runs it clean with the ε-agreement oracle and the bits-measure
  certificate armed.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro import check_approximate, run_approximate
from repro.baselines.approximate import approximate_phase_count
from repro.check.driver import FAMILIES, run_config, sample_config
from repro.check.oracles import check_parity
from repro.scenarios import scenario_schedule
from tests.conftest import drawn_scenario, scenario_draws

WALL = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SCENARIOS = scenario_draws(max_round=(6, 40), omission_links=10, churn_nodes=2)


def _inputs(n, seed):
    rng = random.Random(seed)
    return [round(rng.uniform(0.0, 100.0), 4) for _ in range(n)]


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["random", "early", "late", "staggered"])
    @pytest.mark.parametrize("mode", ["midpoint", "mean"])
    def test_eps_agreement_under_crashes(self, seed, kind, mode):
        n, t = 40, 8
        inputs = _inputs(n, seed)
        result = run_approximate(
            inputs, t, eps=0.5, mode=mode, crashes=kind, seed=seed
        )
        check_approximate(result, inputs, 0.5)

    def test_crash_model_gives_exact_agreement(self):
        # One clean round unifies every operational estimate, and later
        # dirty rounds cannot break it -- so the crash model actually
        # delivers exact agreement, not just ε.
        inputs = _inputs(30, 9)
        result = run_approximate(inputs, 6, eps=4.0, crashes="random", seed=2)
        assert len(set(result.correct_decisions().values())) == 1

    def test_failure_free_everyone_decides_in_range(self):
        n = 50
        inputs = _inputs(n, 1)
        result = run_approximate(inputs, 5, eps=1.0, crashes=None)
        decisions = result.correct_decisions()
        assert len(decisions) == n
        check_approximate(result, inputs, 1.0)
        assert all(
            min(inputs) <= v <= max(inputs) for v in decisions.values()
        )

    def test_identical_inputs_decide_that_value(self):
        result = run_approximate([7.25] * 20, 3, eps=0.5, crashes="random",
                                 seed=4)
        assert set(result.correct_decisions().values()) == {7.25}

    def test_t_zero_single_phase(self):
        inputs = [1.0, 2.0, 3.0, 4.0]
        result = run_approximate(inputs, 0, eps=10.0, crashes=None)
        check_approximate(result, inputs, 10.0)
        assert result.rounds == 2  # t + 1 + one phase

    def test_rejects_bad_mode_and_eps(self):
        with pytest.raises(ValueError):
            run_approximate([1.0, 2.0], 1, mode="median")
        with pytest.raises(ValueError):
            run_approximate([1.0, 2.0], 1, eps=0.0)
        with pytest.raises(ValueError):
            run_approximate([1.0, 2.0], 2)  # t >= n

    def test_phase_count_schedule(self):
        assert approximate_phase_count([0.0, 64.0], 1.0) == 6
        assert approximate_phase_count([5.0, 5.5], 1.0) == 1
        assert approximate_phase_count([0.0, 100.0], 0.5) == 8


class TestBitsAccounting:
    def test_every_message_is_one_float(self):
        # Estimates are floats: 64 bits each, every operational node
        # multicasts one per round.
        result = run_approximate(_inputs(24, 3), 4, eps=1.0, crashes=None)
        assert result.bits == 64 * result.messages


class TestParityWall:
    """sim-ref == sim-opt == net on the full parity surface, under
    random extended-fault scenarios."""

    @WALL
    @given(
        draw=SCENARIOS,
        n=st.integers(3, 24),
        inputs_seed=st.integers(0, 10_000),
        mode=st.sampled_from(["midpoint", "mean"]),
    )
    def test_three_substrates(self, draw, n, inputs_seed, mode):
        rng = random.Random(inputs_seed)
        t = rng.randrange(0, n)
        inputs = _inputs(n, inputs_seed)
        eps = rng.choice((0.5, 1.0, 4.0))
        scenario = drawn_scenario(draw, n, t)
        # Churn can park a rejoined node past its schedule (the run then
        # reports completed=False); a tight bound keeps the net arm fast
        # while every substrate still observes the identical cutoff.
        kwargs = dict(eps=eps, mode=mode, scenario=scenario, max_rounds=600)
        ref = run_approximate(inputs, t, backend="sim", optimized=False,
                              **kwargs)
        opt = run_approximate(inputs, t, backend="sim", optimized=True,
                              **kwargs)
        net = run_approximate(inputs, t, backend="net", **kwargs)
        check_parity(ref, opt, "sim-ref", "sim-opt")
        check_parity(ref, net, "sim-ref", "net")


class TestTraceRoundTrips:
    def test_record_and_replay_across_substrates(self):
        sc = scenario_schedule(16, seed=5, crashes=2, omission_links=3,
                               partition_windows=1, churn_nodes=1,
                               max_round=20)
        inputs = _inputs(16, 7)
        rec = run_approximate(inputs, 3, eps=0.5, crashes=sc,
                              record_trace=True, max_rounds=2000)
        for replay_kwargs in (
            dict(backend="sim", optimized=False),
            dict(backend="net"),
        ):
            rep = run_approximate(inputs, 3, eps=0.5, replay=rec.trace,
                                  max_rounds=2000, **replay_kwargs)
            check_parity(rec, rep, "opt-record", "replay")

    def test_float_payloads_survive_json(self, tmp_path):
        # Averaged estimates are arbitrary binary floats; the JSON trace
        # artifact must round-trip them exactly (repr-based floats).
        from repro import replay_trace

        path = tmp_path / "approx.trace.json"
        inputs = _inputs(12, 11)
        rec = run_approximate(inputs, 2, eps=0.5, crashes="random", seed=3,
                              record_trace=str(path))
        rep = replay_trace(str(path))
        check_parity(rec, rep, "record", "file-replay")


class TestFuzzRotation:
    def test_family_in_rotation_and_clean(self):
        assert "approximate" in FAMILIES
        index = FAMILIES.index("approximate")
        config = sample_config(0, index)
        assert config.family == "approximate"
        assert config.recipe["name"] == "approximate"
        row = run_config(config)
        assert row["violations"] == 0, row

    def test_certificate_measures_bits(self):
        from repro.check.oracles import BOUND_CONSTANTS

        measure, constant = BOUND_CONSTANTS["approximate"]
        assert measure == "bits" and constant >= 1.0
