"""The parity/fuzz test wall for the Liang–Vaidya-slot consensus family.

Same certification layers as ``tests/test_approximate.py``: spec under
crashes (exact consensus on multi-valued ``width``-bit inputs),
hypothesis parity across sim-ref / sim-opt / net under random
``scenario_schedule`` scenarios, trace record→replay round-trips, and
the fuzz-driver rotation with the payload-bits certificate armed.  The
family-specific layer is the **bits accounting**: one coordinator
multicast per round, so total payload bits stay linear in ``n`` per
round -- the quantity its envelope certificate pins.
"""

import random
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro import check_consensus, run_flooding, run_lv_consensus
from repro.bench import series
from repro.bench.sweep import run_sweep
from repro.check.driver import FAMILIES, run_config, sample_config
from repro.check.oracles import check_parity
from repro.scenarios import scenario_schedule
from tests.conftest import drawn_scenario, scenario_draws

WALL = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

SCENARIOS = scenario_draws(max_round=(4, 30), omission_links=10, churn_nodes=2)


def _inputs(n, seed, width=64):
    rng = random.Random(seed)
    return [rng.randrange(0, 2**width) for _ in range(n)]


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["random", "early", "late", "staggered"])
    def test_consensus_spec_under_crashes(self, seed, kind):
        n, t = 40, 8
        inputs = _inputs(n, seed)
        result = run_lv_consensus(inputs, t, width=64, crashes=kind, seed=seed)
        check_consensus(result, inputs)

    def test_failure_free_adopts_first_coordinator(self):
        n = 30
        inputs = _inputs(n, 2)
        result = run_lv_consensus(inputs, 4, width=64, crashes=None)
        decisions = result.correct_decisions()
        assert len(decisions) == n
        assert set(decisions.values()) == {inputs[0]}

    def test_crashing_early_coordinators_moves_the_decision(self):
        # Crash coordinators 0 and 1 before round 0: coordinator 2's
        # value wins (the one-correct-coordinator argument, made
        # concrete).
        from repro.scenarios import CrashEvent, Scenario

        n, t = 20, 4
        inputs = _inputs(n, 5)
        sc = Scenario(
            n=n,
            crashes=[CrashEvent(0, 0, 0), CrashEvent(1, 0, 0)],
            name="kill-early-coordinators",
        )
        result = run_lv_consensus(inputs, t, width=64, scenario=sc)
        check_consensus(result, inputs)
        values = set(result.correct_decisions().values())
        assert values == {inputs[2]}

    def test_t_zero_one_round(self):
        inputs = [9, 5, 3]
        result = run_lv_consensus(inputs, 0, crashes=None)
        assert result.rounds == 1
        assert set(result.correct_decisions().values()) == {9}

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            run_lv_consensus([1, 2], 2)  # t >= n
        with pytest.raises(ValueError):
            run_lv_consensus([1, 2**9], 1, width=8)  # input wider than width
        with pytest.raises(ValueError):
            run_lv_consensus([-1, 2], 1)  # negative input


class TestBitsAccounting:
    def test_messages_linear_per_round(self):
        # Exactly one coordinator multicast per round in a failure-free
        # run: (t + 1) * (n - 1) messages, against flooding's
        # n * (n - 1) * (t + 1) for the same instance.
        n, t = 40, 8
        inputs = _inputs(n, 1)
        lv = run_lv_consensus(inputs, t, width=64, crashes=None)
        assert lv.messages == (t + 1) * (n - 1)
        flood = run_flooding(inputs, t, crashes=None)
        assert flood.messages == n * (n - 1) * (t + 1)
        assert flood.bits > 10 * lv.bits

    def test_bits_within_width_envelope(self):
        n, t, width = 24, 5, 256
        inputs = _inputs(n, 3, width)
        result = run_lv_consensus(inputs, t, width=width, crashes="random",
                                  seed=2)
        assert result.bits <= (t + 1) * (n - 1) * width

    def test_wide_payloads_counted_not_fixed(self):
        # payload_bits is value-dependent (bit_length), so a wider input
        # costs more bits through the same message count.
        narrow = run_lv_consensus([3] * 10, 2, width=2, crashes=None)
        wide = run_lv_consensus([2**200 - 1] * 10, 2, width=200, crashes=None)
        assert narrow.messages == wide.messages
        assert wide.bits == 100 * narrow.bits

    def test_families_series_pins_the_gap_to_flooding(self):
        # The cross-family headline (Liang-Vaidya, arXiv 1008.4551): on
        # the same 128-bit instance lv-consensus pays ~n times fewer
        # payload bits than flooding.  Model costs are exact, both
        # engine loops agree on them, and README quotes the quotient.
        rows = run_sweep(series.families_spec(n=80, t=16)).rows()
        model = ("rounds", "messages", "bits", "completed")
        cost = {
            backend: {
                row["family"]: {key: row[key] for key in model}
                for row in rows
                if row["backend"] == backend
            }
            for backend in ("sim-opt", "sim-ref")
        }
        assert cost["sim-ref"] == cost["sim-opt"]
        flooding = cost["sim-opt"]["flooding"]["bits"]
        lv = cost["sim-opt"]["lv-consensus"]["bits"]
        assert (flooding, lv) == (13_241_190, 170_561)
        readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
        ratio = flooding / lv
        assert f"{ratio:.1f}× fewer bits at n=80, t=16" in readme


class TestParityWall:
    """sim-ref == sim-opt == net on the full parity surface, under
    random extended-fault scenarios."""

    @WALL
    @given(
        draw=SCENARIOS,
        n=st.integers(3, 24),
        inputs_seed=st.integers(0, 10_000),
        width=st.sampled_from([16, 64, 256]),
    )
    def test_three_substrates(self, draw, n, inputs_seed, width):
        rng = random.Random(inputs_seed)
        t = rng.randrange(0, n)
        inputs = _inputs(n, inputs_seed, width)
        scenario = drawn_scenario(draw, n, t)
        kwargs = dict(width=width, scenario=scenario, max_rounds=600)
        ref = run_lv_consensus(inputs, t, backend="sim", optimized=False,
                               **kwargs)
        opt = run_lv_consensus(inputs, t, backend="sim", optimized=True,
                               **kwargs)
        net = run_lv_consensus(inputs, t, backend="net", **kwargs)
        check_parity(ref, opt, "sim-ref", "sim-opt")
        check_parity(ref, net, "sim-ref", "net")


class TestTraceRoundTrips:
    def test_record_and_replay_across_substrates(self):
        sc = scenario_schedule(16, seed=4, crashes=2, omission_links=3,
                               partition_windows=1, churn_nodes=1,
                               max_round=12)
        inputs = _inputs(16, 9)
        rec = run_lv_consensus(inputs, 4, width=64, crashes=sc,
                               record_trace=True, max_rounds=600)
        for replay_kwargs in (
            dict(backend="sim", optimized=False),
            dict(backend="net"),
        ):
            rep = run_lv_consensus(inputs, 4, width=64, replay=rec.trace,
                                   max_rounds=600, **replay_kwargs)
            check_parity(rec, rep, "opt-record", "replay")

    def test_wide_int_payloads_survive_json(self, tmp_path):
        # 256-bit ints ride through the JSON trace artifact untouched.
        from repro import replay_trace

        path = tmp_path / "lv.trace.json"
        inputs = _inputs(12, 13, 256)
        rec = run_lv_consensus(inputs, 3, width=256, crashes="random",
                               seed=1, record_trace=str(path))
        rep = replay_trace(str(path))
        check_parity(rec, rep, "record", "file-replay")


class TestFuzzRotation:
    def test_family_in_rotation_and_clean(self):
        assert "lv-consensus" in FAMILIES
        index = FAMILIES.index("lv-consensus")
        config = sample_config(0, index)
        assert config.family == "lv-consensus"
        assert config.recipe["name"] == "lv_consensus"
        row = run_config(config)
        assert row["violations"] == 0, row

    def test_certificate_measures_bits(self):
        from repro.check.oracles import BOUND_CONSTANTS

        measure, constant = BOUND_CONSTANTS["lv-consensus"]
        assert measure == "bits" and constant >= 1.0
