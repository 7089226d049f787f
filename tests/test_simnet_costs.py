"""Tests for the α-β(-γ) collective cost models, including hypothesis
property tests on the algebraic structure the literature guarantees."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import DistributedTrainingPerfModel, TrainingRecipe
from repro.simnet import (
    CommCostModel,
    LinkKind,
    allreduce_recursive_doubling_time,
    allreduce_ring_time,
    allreduce_rabenseifner_time,
    best_allreduce_time,
    ptp_time,
)

from repro.simnet.costs import ALLREDUCE_TIMES, GAMMA

ALPHA, BETA = 1e-6, 4e-11


def test_ptp_alpha_beta():
    assert ptp_time(ALPHA, BETA, 1000) == pytest.approx(ALPHA + 1000 * BETA)


def test_single_rank_collectives_are_free():
    assert allreduce_ring_time(1, 1e6, ALPHA, BETA) == 0.0
    assert allreduce_recursive_doubling_time(1, 1e6, ALPHA, BETA) == 0.0
    assert allreduce_rabenseifner_time(1, 1e6, ALPHA, BETA) == 0.0


def test_ring_formula():
    p, n = 8, 1e6
    expected = 2 * 7 * ALPHA + 2 * n * BETA * 7 / 8 + n * GAMMA * 7 / 8
    assert allreduce_ring_time(p, n, ALPHA, BETA) == pytest.approx(expected)


def test_recursive_doubling_formula():
    p, n = 8, 1e6
    expected = 3 * (ALPHA + n * BETA + n * GAMMA)
    assert allreduce_recursive_doubling_time(p, n, ALPHA, BETA) == \
        pytest.approx(expected)


def test_ring_bandwidth_term_saturates_with_p():
    """Ring's bandwidth term approaches n(2β + γ) — (p-1)/p saturation."""
    n = 1e8
    t64 = allreduce_ring_time(64, n, 0.0, BETA)
    t1024 = allreduce_ring_time(1024, n, 0.0, BETA)
    assert t1024 < n * (2 * BETA + GAMMA)
    assert t1024 / t64 < 1.02


def test_small_messages_favour_recursive_doubling():
    t_ring = allreduce_ring_time(64, 64, ALPHA, BETA)
    t_rd = allreduce_recursive_doubling_time(64, 64, ALPHA, BETA)
    assert t_rd < t_ring


def test_large_messages_favour_ring_or_rabenseifner():
    n = 1e9
    t_ring = allreduce_ring_time(64, n, ALPHA, BETA)
    t_rd = allreduce_recursive_doubling_time(64, n, ALPHA, BETA)
    assert t_ring < t_rd


def test_best_allreduce_picks_minimum():
    for n in (64, 1e4, 1e6, 1e9):
        t, name = best_allreduce_time(32, n, ALPHA, BETA)
        candidates = [
            allreduce_ring_time(32, n, ALPHA, BETA),
            allreduce_recursive_doubling_time(32, n, ALPHA, BETA),
            allreduce_rabenseifner_time(32, n, ALPHA, BETA),
        ]
        assert t == pytest.approx(min(candidates))


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        allreduce_ring_time(0, 1e6, ALPHA, BETA)
    with pytest.raises(ValueError):
        ptp_time(ALPHA, BETA, -1)


@given(
    p=st.integers(min_value=2, max_value=4096),
    nbytes=st.floats(min_value=1.0, max_value=1e10),
)
@settings(max_examples=200, deadline=None)
def test_property_all_costs_positive_and_finite(p, nbytes):
    for fn in (allreduce_ring_time, allreduce_recursive_doubling_time,
               allreduce_rabenseifner_time):
        t = fn(p, nbytes, ALPHA, BETA)
        assert t > 0 and math.isfinite(t)


@given(
    p=st.integers(min_value=2, max_value=512),
    nbytes=st.floats(min_value=1.0, max_value=1e9),
)
@settings(max_examples=100, deadline=None)
def test_property_rabenseifner_never_beats_both_lower_bounds(p, nbytes):
    """Any allreduce needs >= the bandwidth lower bound 2nβ(p-1)/p."""
    lower = 2 * nbytes * BETA * (p - 1) / p
    for fn in (allreduce_ring_time, allreduce_rabenseifner_time):
        assert fn(p, nbytes, ALPHA, BETA) >= lower * 0.999999


@given(nbytes=st.floats(min_value=1.0, max_value=1e9))
@settings(max_examples=50, deadline=None)
def test_property_costs_monotone_in_message_size(nbytes):
    t1 = allreduce_ring_time(16, nbytes, ALPHA, BETA)
    t2 = allreduce_ring_time(16, nbytes * 2, ALPHA, BETA)
    assert t2 > t1


class TestCommCostModel:
    def test_from_link_kind(self):
        model = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR)
        assert model.alpha > 0 and model.beta > 0

    def test_closed_forms_by_name(self):
        m = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR)
        assert best_allreduce_time(8, 1e6, m.alpha, m.beta)[0] > 0
        assert ALLREDUCE_TIMES["ring"](8, 1e6, m.alpha, m.beta) > 0

    def test_unknown_algorithm_rejected(self):
        model = DistributedTrainingPerfModel(
            fabric=CommCostModel.of_kind(LinkKind.EXTOLL),
            recipe=TrainingRecipe(allreduce_algorithm="magic"))
        with pytest.raises(KeyError):
            model.allreduce_time(8)

    def test_auto_never_worse_than_named(self):
        m = CommCostModel.of_kind(LinkKind.INFINIBAND_EDR)
        for n in (100, 1e5, 1e8):
            auto, _ = best_allreduce_time(32, n, m.alpha, m.beta)
            for fn in ALLREDUCE_TIMES.values():
                assert auto <= fn(32, n, m.alpha, m.beta) + 1e-15
