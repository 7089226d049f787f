"""Cross-cutting hypothesis property tests on system invariants.

These complement the per-module suites: each property is an invariant the
whole reproduction leans on (collective correctness, scheduler safety,
autograd linearity, storage conservation).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    BoosterModule,
    ClusterModule,
    DEEP_CM_NODE,
    DEEP_ESB_NODE,
    MSASystem,
    MsaScheduler,
    StorageModule,
    synthetic_workload_mix,
)
from repro.ml import Tensor
from repro.mpi import run_spmd
from repro.storage import ParallelFileSystem

GiB = 1024 ** 3


# ---------------------------------------------------------------------------
# MPI collectives vs NumPy ground truth
# ---------------------------------------------------------------------------

@given(
    ws=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=8, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_property_allreduce_equals_numpy_sum(ws, n, seed):
    data = np.random.default_rng(seed).normal(size=(ws, n))
    expected = data.sum(axis=0)

    def fn(comm):
        return comm.allreduce(data[comm.rank].copy())

    for out in run_spmd(fn, ws):
        np.testing.assert_allclose(out, expected, rtol=1e-10)


@given(ws=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_property_allgather_is_permutation_invariant_truth(ws, seed):
    values = np.random.default_rng(seed).integers(0, 100, size=ws).tolist()

    def fn(comm):
        return comm.allgather(values[comm.rank])

    outs = run_spmd(fn, ws)
    for out in outs:
        assert out == values


@given(ws=st.integers(min_value=2, max_value=5),
       payload=st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_property_bcast_delivers_root_value(ws, payload):
    def fn(comm):
        return comm.bcast(payload if comm.rank == 0 else None)

    assert run_spmd(fn, ws) == [payload] * ws


# ---------------------------------------------------------------------------
# scheduler safety
# ---------------------------------------------------------------------------

def _system():
    sys = MSASystem("prop")
    sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 6))
    sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 4))
    sys.add_module("sssm", StorageModule("S", capacity_PB=1.0))
    return sys


@given(n_jobs=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=20, deadline=None)
def test_property_scheduler_never_oversubscribes_nodes(n_jobs, seed):
    system = _system()
    sched = MsaScheduler(system)
    sched.submit_all(synthetic_workload_mix(n_jobs=n_jobs, seed=seed,
                                            mean_interarrival_s=100.0))
    report = sched.run()

    # Per module: at no instant do overlapping allocations exceed capacity,
    # and no node is double-booked.
    capacities = {k: m.n_nodes for k, m in system.compute_modules().items()}
    events = []
    for alloc in report.allocations:
        events.append((alloc.start, len(alloc.nodes), alloc.module_key,
                       alloc.nodes, +1))
        events.append((alloc.end, len(alloc.nodes), alloc.module_key,
                       alloc.nodes, -1))
    for key in capacities:
        in_use: dict[int, int] = {}
        # Releases (-1) sort before starts (+1) at equal timestamps: the
        # scheduler frees nodes before re-allocating them at the same t.
        timeline = sorted([e for e in events if e[2] == key],
                          key=lambda e: (e[0], e[4]))
        count = 0
        for _, n, _, nodes, sign in timeline:
            count += sign * n
            assert count <= capacities[key]
            for node in nodes:
                in_use[node] = in_use.get(node, 0) + sign
                assert in_use[node] in (0, 1)

    # Every submitted job completed, after its arrival.
    assert len(report.completion_times) == n_jobs
    for job in synthetic_workload_mix(n_jobs=n_jobs, seed=seed,
                                      mean_interarrival_s=100.0):
        assert report.completion_times[job.name] >= job.arrival_time


@given(n_jobs=st.integers(min_value=1, max_value=10),
       seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=15, deadline=None)
def test_property_phase_order_preserved(n_jobs, seed):
    sched = MsaScheduler(_system())
    jobs = synthetic_workload_mix(n_jobs=n_jobs, seed=seed)
    sched.submit_all(jobs)
    report = sched.run()
    per_job: dict[str, list] = {}
    for alloc in report.allocations:
        per_job.setdefault(alloc.job_name, []).append(alloc)
    for allocs in per_job.values():
        allocs.sort(key=lambda a: a.phase_index)
        for earlier, later in zip(allocs, allocs[1:]):
            assert later.start >= earlier.end - 1e-9


# ---------------------------------------------------------------------------
# autograd linearity
# ---------------------------------------------------------------------------

@given(
    x=hnp.arrays(np.float64, (6,), elements=st.floats(-3, 3,
                                                      allow_nan=False)),
    scale=st.floats(min_value=-5, max_value=5, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_property_gradient_scales_linearly(x, scale):
    a = Tensor(x.copy(), requires_grad=True)
    ((a * a).sum()).backward()
    base = a.grad.copy()
    b = Tensor(x.copy(), requires_grad=True)
    ((b * b).sum() * scale).backward()
    np.testing.assert_allclose(b.grad, base * scale, atol=1e-9)


@given(
    x=hnp.arrays(np.float64, (4,), elements=st.floats(-3, 3,
                                                      allow_nan=False)),
)
@settings(max_examples=60, deadline=None)
def test_property_sum_rule(x):
    """grad(f+g) = grad(f) + grad(g)."""
    def grad_of(builder):
        t = Tensor(x.copy(), requires_grad=True)
        builder(t).backward()
        return t.grad

    f = lambda t: (t * t).sum()
    g = lambda t: (t.tanh()).sum()
    combined = grad_of(lambda t: f(t) + g(t))
    np.testing.assert_allclose(combined, grad_of(f) + grad_of(g), atol=1e-9)


# ---------------------------------------------------------------------------
# storage conservation
# ---------------------------------------------------------------------------

@given(
    sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                   max_size=8),
    stripes=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=40, deadline=None)
def test_property_pfs_usage_conserved(sizes, stripes):
    pfs = ParallelFileSystem("fs", n_targets=16)
    for i, gb in enumerate(sizes):
        pfs.create(f"/f{i}", gb * GiB, stripe_count=stripes)
    # Usage equals the sum of integer per-stripe shares.
    expected = sum((gb * GiB // min(stripes, 16)) * min(stripes, 16)
                   for gb in sizes)
    assert pfs.used_bytes == expected
    for i in range(len(sizes)):
        pfs.unlink(f"/f{i}")
    assert pfs.used_bytes == 0


@given(stripes=st.lists(st.integers(min_value=1, max_value=32), min_size=2,
                        max_size=6, unique=True))
@settings(max_examples=30, deadline=None)
def test_property_wider_stripes_never_slower(stripes):
    pfs = ParallelFileSystem("fs", n_targets=32)
    times = {}
    for s in stripes:
        handle = pfs.create(f"/s{s}", 64 * GiB, stripe_count=s)
        times[s] = pfs.read_time(handle)
    ordered = sorted(stripes)
    for a, b in zip(ordered, ordered[1:]):
        assert times[b] <= times[a] + 1e-12


# -- range checks refuse NaN --------------------------------------------------

NAN = float("nan")


def _params():
    from repro.ml.layers import Parameter
    return [Parameter(np.zeros(2))]


def _builds():
    from repro.ml.optim import SGD, Adam
    from repro.resilience.faults import FaultKind, FaultSpec
    from repro.resilience.retry import RetryPolicy
    from repro.serving.request import TraceConfig
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.spans import Tracer

    crash, straggler = FaultKind.NODE_CRASH, FaultKind.STRAGGLER
    return {
        **{f"TraceConfig.{f}": (lambda f=f: TraceConfig(**{f: NAN}))
           for f in ("rate_per_s", "duration_s", "slo_deadline_s",
                     "samples_per_request", "key_universe", "burst_len_s",
                     "gap_len_s")},
        **{f"RetryPolicy.{f}": (lambda f=f: RetryPolicy(**{f: NAN}))
           for f in ("max_retries", "base_delay_s", "max_delay_s")},
        "FaultSpec.time": lambda: FaultSpec(crash, NAN),
        "FaultSpec.duration": lambda: FaultSpec(crash, 0.0, duration=NAN),
        "FaultSpec.magnitude": lambda: FaultSpec(straggler, 0.0,
                                                 magnitude=NAN),
        "FaultSpec.magnitude(degrade)": lambda: FaultSpec(
            FaultKind.LINK_DEGRADE, 0.0, magnitude=NAN),
        "FaultSpec.magnitude(gray)": lambda: FaultSpec(
            FaultKind.GRAY_FAILURE, 0.0, magnitude=NAN),
        "SGD.lr": lambda: SGD(_params(), lr=NAN),
        "Adam.lr": lambda: Adam(_params(), lr=NAN),
        "Counter.inc": lambda: MetricsRegistry().counter("c").inc(NAN),
        "Tracer.record": lambda: Tracer().record("s", "c", 0.0, NAN),
    }


@pytest.mark.parametrize("name", sorted(_builds()))
def test_a_range_check_refuses_nan(name):
    with pytest.raises(ValueError):
        _builds()[name]()
