"""The FPGA Global Collective Engine (E9): numerical equality with the
software path, and the latency/bandwidth advantage of in-network reduction."""

import numpy as np
import pytest

from repro.mpi import GlobalCollectiveEngine, gce_allreduce, run_spmd
from repro.mpi.runtime import spmd_sim_times


@pytest.fixture
def gce(hdr_fabric):
    return GlobalCollectiveEngine(hdr_fabric)


@pytest.mark.parametrize("ws", [1, 2, 3, 4, 8])
def test_gce_result_equals_software_allreduce(gce, ws):
    rng = np.random.default_rng(11)
    data = rng.normal(size=(ws, 300))
    expected = data.sum(axis=0)

    def fn(comm):
        return gce_allreduce(comm, data[comm.rank].copy(), gce)

    for out in run_spmd(fn, ws):
        np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_gce_preserves_shape(gce):
    def fn(comm):
        return gce_allreduce(comm, np.ones((4, 5)), gce).shape

    assert run_spmd(fn, 2) == [(4, 5)] * 2


def test_gce_time_model_faster_than_software_at_booster_scale(gce):
    # At small p with huge payloads a ring is bandwidth-optimal and can win;
    # the GCE's advantage is at scale (the ESB's regime) and for
    # latency-bound sizes at any p.
    for p in (16, 64, 256):
        for nbytes in (1024, 1 << 20, 100 << 20):
            assert gce.allreduce_time(p, nbytes) < \
                gce.software_allreduce_time(p, nbytes)
    for p in (4, 8):
        assert gce.allreduce_time(p, 1024) < \
            gce.software_allreduce_time(p, 1024)


def test_gce_speedup_grows_with_rank_count(gce):
    """In-network trees beat rings most where per-step latency dominates."""
    def speedup(p, nbytes):
        return (gce.software_allreduce_time(p, nbytes)
                / gce.allreduce_time(p, nbytes))

    assert speedup(512, 4096) > speedup(8, 4096) > 1.0


def test_gce_near_constant_in_p(gce):
    """Tree depth grows as log_radix(p): 16x more ranks, ~1 more hop."""
    t16 = gce.allreduce_time(16, 1 << 20)
    t256 = gce.allreduce_time(256, 1 << 20)
    assert t256 < t16 * 1.5


def test_gce_single_rank_free(gce):
    assert gce.allreduce_time(1, 1 << 20) == 0.0


def test_gce_invalid_rank_count(gce):
    with pytest.raises(ValueError):
        gce.allreduce_time(0, 1024)


def test_gce_simulated_clock_charged_gce_time(gce, hdr_fabric):
    nbytes = 100_000 * 8

    def fn(comm):
        gce_allreduce(comm, np.zeros(100_000), gce)
        return comm.sim_time

    _, times = spmd_sim_times(fn, 4, cost_model=hdr_fabric)
    expected = gce.allreduce_time(4, nbytes)
    assert max(times) == pytest.approx(expected, rel=0.05)


def test_gce_then_software_collectives_still_aligned(gce):
    """GCE offload must not desynchronise the collective tag sequence."""
    def fn(comm):
        a = gce_allreduce(comm, np.full(64, float(comm.rank)), gce)
        b = comm.allreduce(1)
        c = comm.bcast("ok" if comm.rank == 0 else None)
        return (float(a[0]), b, c)

    ws = 4
    for a0, b, c in run_spmd(fn, ws):
        assert a0 == sum(range(ws))
        assert b == ws
        assert c == "ok"
