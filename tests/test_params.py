"""Unit tests for the parameter derivation (paper formulas vs practical
caps)."""

import copy
from functools import cached_property

import pytest

from repro.core.params import DEGREE_CAP, LITTLE_FLOOR, ProtocolParams
from repro.graphs.ramanujan import paper_delta
from repro.sim.process import Process


class TestValidation:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=0, t=0)

    def test_rejects_t_out_of_range(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=10, t=10)
        with pytest.raises(ValueError):
            ProtocolParams(n=10, t=-1)


class TestLittleCommittee:
    def test_five_t_little_nodes(self):
        params = ProtocolParams(n=100, t=10)
        assert params.little_count == 50

    def test_floor_for_tiny_t(self):
        params = ProtocolParams(n=100, t=0)
        assert params.little_count == LITTLE_FLOOR

    def test_capped_at_n(self):
        params = ProtocolParams(n=30, t=10)
        assert params.little_count == 30

    def test_is_little_matches_count(self):
        params = ProtocolParams(n=100, t=10)
        littles = [pid for pid in range(100) if params.is_little(pid)]
        assert littles == list(range(50))

    def test_related_partition(self):
        # "i and j are related" iff congruent modulo the committee size;
        # every non-little node has exactly one little relative, and the
        # relatives partition the non-little nodes.
        params = ProtocolParams(n=100, t=10)
        m = params.little_count
        seen = set()
        for little in range(m):
            related = params.related_nodes(little)
            assert all(r % m == little for r in related)
            assert not (set(related) & seen)
            seen.update(related)
        assert seen == set(range(m, 100))

    def test_related_little_of_everyone(self):
        params = ProtocolParams(n=97, t=7)
        for pid in range(97):
            assert params.related_little(pid) == pid % params.little_count


class TestCommitteeOverlayParameters:
    def test_degree_capped(self):
        params = ProtocolParams(n=1000, t=150)
        assert params.little_degree == DEGREE_CAP

    def test_degree_bounded_by_committee(self):
        params = ProtocolParams(n=100, t=1)
        assert params.little_degree == params.little_count - 1

    def test_delta_uses_paper_formula(self):
        params = ProtocolParams(n=1000, t=150)
        assert params.little_delta == paper_delta(params.little_degree)

    def test_probe_rounds_two_plus_log(self):
        params = ProtocolParams(n=1000, t=150)  # m = 750
        assert params.little_probe_rounds == 2 + 10  # ceil(lg 750) = 10

    def test_flood_rounds_committee_path_length(self):
        params = ProtocolParams(n=100, t=10)
        assert params.little_flood_rounds == 49


class TestMCCParameters:
    def test_alpha(self):
        assert ProtocolParams(n=100, t=50).alpha == 0.5

    def test_degree_grows_with_alpha(self):
        low = ProtocolParams(n=4000, t=400).mcc_degree
        high = ProtocolParams(n=4000, t=3600).mcc_degree
        assert high > low

    def test_degree_capped_at_n_minus_one(self):
        params = ProtocolParams(n=50, t=45)
        assert params.mcc_degree <= 49

    def test_delta_positive_and_below_survivable(self):
        for t in (1, 100, 300, 390):
            params = ProtocolParams(n=400, t=t)
            assert params.mcc_delta >= 1
            assert params.mcc_delta <= params.mcc_degree

    def test_phase_count_logarithmic(self):
        params = ProtocolParams(n=1024, t=512)
        # 1 + ceil(lg((1+3α)n/4)) with α=0.5 -> 1 + ceil(lg 640) = 11
        assert params.mcc_phase_count == 11

    def test_flood_rounds_n_minus_one(self):
        assert ProtocolParams(n=64, t=3).mcc_flood_rounds == 63


class TestSCVParameters:
    def test_direct_branch_condition(self):
        assert ProtocolParams(n=100, t=10).scv_direct_inquiry
        assert not ProtocolParams(n=100, t=11).scv_direct_inquiry

    def test_phase_count_logarithmic_in_t(self):
        params = ProtocolParams(n=10_000, t=1000)
        assert params.scv_phase_count == 10 + 2  # ceil(lg 1002) + slack

    def test_spread_rounds_positive_even_for_t_zero(self):
        assert ProtocolParams(n=100, t=0).scv_spread_rounds >= 1


class TestByzantineParameters:
    def test_certificate_threshold_paper_value(self):
        # With m = 5t the paper threshold 4t = m - t is used exactly.
        params = ProtocolParams(n=1000, t=30)
        assert params.byz_little_count == 150
        assert params.byz_certificate_threshold == 120

    def test_threshold_sound_when_committee_capped(self):
        params = ProtocolParams(n=40, t=15)  # committee capped at n
        m = params.byz_little_count
        threshold = params.byz_certificate_threshold
        assert threshold <= m - params.t  # honest can always assemble it
        assert threshold > params.t  # Byzantine alone never can

    def test_threshold_for_t_zero(self):
        assert ProtocolParams(n=10, t=0).byz_certificate_threshold == 1


class TestMisc:
    def test_with_seed_copies(self):
        params = ProtocolParams(n=100, t=10, seed=1)
        other = params.with_seed(9)
        assert other.seed == 9 and other.n == 100 and params.seed == 1

    def test_derived_quantities_are_computed_once_and_invisible(self):
        # Every derived quantity is cached in the instance __dict__ on
        # first read; equality, hashing, repr, with_seed and deepcopy see
        # only the fields, so a warm instance is the same value as a
        # cold one -- also inside a process's state_digest.
        derived = [
            name
            for name, attr in vars(ProtocolParams).items()
            if isinstance(attr, cached_property)
        ]
        assert len(derived) == 17
        warm, cold = ProtocolParams(n=60, t=7, seed=3), ProtocolParams(n=60, t=7, seed=3)
        values = {name: getattr(warm, name) for name in derived}
        assert set(derived) <= set(vars(warm)) and not set(derived) & set(vars(cold))
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        clone = copy.deepcopy(warm)
        assert clone == warm and {n: getattr(clone, n) for n in derived} == values
        reseeded = warm.with_seed(9)
        assert reseeded == ProtocolParams(n=60, t=7, seed=9)
        assert reseeded.with_seed(3) == warm and not set(derived) & set(vars(reseeded))

        class Holder(Process):
            def __init__(self, params):
                super().__init__(0, params.n)
                self.params = params

        before = Holder(cold).state_digest()
        assert {n: getattr(cold, n) for n in derived} == values
        after = Holder(cold).state_digest()
        assert before == after and hash(before) == hash(after)

    def test_paper_constants_uncapped(self):
        params = ProtocolParams.paper(n=10**9, t=10**8)
        assert params.degree_cap == 5**8

    def test_gossip_phase_count(self):
        assert ProtocolParams(n=1024, t=100).gossip_phase_count == 10
