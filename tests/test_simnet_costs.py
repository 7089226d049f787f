"""Tests for the α-β collective cost models: hypothesis property tests on
the algebraic structure the literature guarantees, and a differential test
that holds each allreduce closed form to the collective the simulated MPI
executes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import DistributedTrainingPerfModel, TrainingRecipe
from repro.mpi import run_spmd
from repro.mpi.collectives import (rabenseifner_allreduce,
                                   recursive_doubling_allreduce)
from repro.simnet import (
    CommCostModel,
    LinkKind,
    allreduce_recursive_doubling_time,
    allreduce_ring_time,
    allreduce_rabenseifner_time,
    best_allreduce_time,
    ptp_time,
)

from repro.simnet.costs import ALLREDUCE_TIMES

ALPHA, BETA = 1e-6, 4e-11


def test_ptp_alpha_beta():
    assert ptp_time(ALPHA, BETA, 1000) == pytest.approx(ALPHA + 1000 * BETA)


def test_single_rank_collectives_are_free():
    assert allreduce_ring_time(1, 1e6, ALPHA, BETA) == 0.0
    assert allreduce_recursive_doubling_time(1, 1e6, ALPHA, BETA) == 0.0
    assert allreduce_rabenseifner_time(1, 1e6, ALPHA, BETA) == 0.0


def test_ring_formula():
    p, n = 8, 1e6
    expected = 2 * 7 * ALPHA + 2 * n * BETA * 7 / 8
    assert allreduce_ring_time(p, n, ALPHA, BETA) == pytest.approx(expected)


def test_recursive_doubling_formula():
    p, n = 8, 1e6
    expected = 3 * (ALPHA + n * BETA)
    assert allreduce_recursive_doubling_time(p, n, ALPHA, BETA) == \
        pytest.approx(expected)


def test_ring_bandwidth_term_saturates_with_p():
    """Ring's bandwidth term approaches 2nβ — (p-1)/p saturation."""
    n = 1e8
    t64 = allreduce_ring_time(64, n, 0.0, BETA)
    t1024 = allreduce_ring_time(1024, n, 0.0, BETA)
    assert t1024 < n * 2 * BETA
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


def test_rabenseifner_prices_only_what_runs():
    """The closed form refuses the rank counts the collective refuses, so
    a recipe naming it cannot price an allreduce that never runs."""
    for p in (3, 6, 96):
        with pytest.raises(ValueError, match="power-of-two"):
            allreduce_rabenseifner_time(p, 1e6, ALPHA, BETA)
    model = DistributedTrainingPerfModel(
        recipe=TrainingRecipe(allreduce_algorithm="rabenseifner"))
    with pytest.raises(ValueError, match="power-of-two"):
        model.allreduce_time(96)
    assert model.allreduce_time(64) > 0


def test_best_allreduce_skips_what_refuses_p():
    """The pick asks each closed form and skips one that refuses ``p``:
    Rabenseifner never wins off a power of two and can win on one, and
    bad input still raises its own error, not an empty ``min``."""
    sizes = [2.0 ** k for k in range(0, 34)]
    assert {best_allreduce_time(6, n, ALPHA, BETA)[1] for n in sizes} \
        == {"ring", "recursive-doubling"}
    assert "rabenseifner" in {best_allreduce_time(8, n, ALPHA, BETA)[1]
                              for n in sizes}
    with pytest.raises(ValueError, match="participant"):
        best_allreduce_time(0, 1e6, ALPHA, BETA)
    with pytest.raises(ValueError, match="nbytes"):
        best_allreduce_time(6, -1.0, ALPHA, BETA)


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
    pow2 = 1 << (p.bit_length() - 1)        # Rabenseifner's domain
    for fn, q in ((allreduce_ring_time, p),
                  (allreduce_recursive_doubling_time, p),
                  (allreduce_rabenseifner_time, pow2)):
        t = fn(q, nbytes, ALPHA, BETA)
        assert t > 0 and math.isfinite(t)


@given(
    p=st.integers(min_value=2, max_value=512),
    nbytes=st.floats(min_value=1.0, max_value=1e9),
)
@settings(max_examples=100, deadline=None)
def test_property_rabenseifner_never_beats_both_lower_bounds(p, nbytes):
    """Any allreduce needs >= the bandwidth lower bound 2nβ(p-1)/p."""
    for fn, q in ((allreduce_ring_time, p),
                  (allreduce_rabenseifner_time, 1 << (p.bit_length() - 1))):
        lower = 2 * nbytes * BETA * (q - 1) / q
        assert fn(q, nbytes, ALPHA, BETA) >= lower * 0.999999


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


# ---------------------------------------------------------------------------
# the closed forms against the executed collectives
# ---------------------------------------------------------------------------

HDR = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR)
WORD = 8                    #: bytes per float64 element on the wire
RANKS = range(2, 17)
POWERS_OF_TWO = (2, 4, 8, 16)
UNEVEN = 4099               #: prime: n mod p != 0 at every p here

EXECUTED = {
    "ring": lambda comm, x: comm.allreduce(x),
    "recursive-doubling": lambda comm, x: recursive_doubling_allreduce(
        comm, x, comm._next_coll_tag()),
    "rabenseifner": lambda comm, x: rabenseifner_allreduce(
        comm, x, comm._next_coll_tag()),
}


def executed_time(name: str, p: int, n: int) -> float:
    """Critical-path sim time of the executed ``name`` allreduce of ``n``
    float64 elements on ``p`` HDR ranks; every rank must get the sum."""
    data = np.arange(p * n, dtype=np.float64).reshape(p, n)

    def fn(comm):
        out = EXECUTED[name](comm, data[comm.rank].copy())
        return out, comm.sim_time

    pairs = run_spmd(fn, p, cost_model=HDR)
    for out, _ in pairs:
        np.testing.assert_array_equal(out, data.sum(axis=0))
    return max(t for _, t in pairs)


def closed_form(name: str, p: int, n: int) -> float:
    return ALLREDUCE_TIMES[name](p, n * WORD, HDR.alpha, HDR.beta)


class TestClosedFormsMatchExecution:
    """DESIGN "One cost model per quantity": equal to float rounding where
    every message carries its closed-form share, within one element's wire
    time per critical-path message where chunks round to whole elements."""

    @pytest.mark.parametrize("p", RANKS)
    def test_ring(self, p):
        n = 48 * p
        assert executed_time("ring", p, n) == pytest.approx(
            closed_form("ring", p, n), rel=1e-12, abs=0)
        # The largest chunk travels the whole ring: 2(p-1) messages, each
        # under one element longer than the closed form's n/p share.
        gap = executed_time("ring", p, UNEVEN) - closed_form("ring", p, UNEVEN)
        assert -1e-18 <= gap <= 2 * (p - 1) * WORD * HDR.beta

    @pytest.mark.parametrize("p", RANKS)
    @pytest.mark.parametrize("n", [1, UNEVEN])
    def test_recursive_doubling_at_every_rank_count(self, p, n):
        assert executed_time("recursive-doubling", p, n) == pytest.approx(
            closed_form("recursive-doubling", p, n), rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", POWERS_OF_TWO)
    def test_rabenseifner_at_powers_of_two(self, p):
        n = 48 * p
        assert executed_time("rabenseifner", p, n) == pytest.approx(
            closed_form("rabenseifner", p, n), rel=1e-12, abs=0)
        # Halving rounds each part to whole elements: 2 log2(p) messages.
        gap = (executed_time("rabenseifner", p, UNEVEN)
               - closed_form("rabenseifner", p, UNEVEN))
        assert abs(gap) <= 2 * math.log2(p) * WORD * HDR.beta

    def test_best_allreduce_picks_only_what_runs(self):
        """Every algorithm the selector picks runs at that rank count, and
        the ring only with at least one element per rank."""
        picked = set()
        for p in RANKS:
            for n in (1, p, 1 << 10, 1 << 16, 1 << 23):
                _, name = best_allreduce_time(p, n * WORD, HDR.alpha,
                                              HDR.beta)
                assert name != "ring" or n >= p
                picked.add((p, name))
        assert {name for _, name in picked} == set(EXECUTED)
        for p, name in sorted(picked):
            executed_time(name, p, 48 * p)      # raises if it refuses p
