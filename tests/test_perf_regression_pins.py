"""Bit-identity pins for the hot-path optimizations.

Each optimization in this PR family (inlined DES run loop, trusted
envelope fast path, pooled gradient-fusion buffers) is required to be
*behavior-preserving to the bit*.  These tests pin that property by
running the optimized path against an unoptimized reference built from
the still-exported primitives (``Simulator.step``, ``checksum_payload``,
``_flatten_grads``), so any future "optimization" that changes numerics
fails here rather than drifting a digest silently.
"""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    CoAllocatedPhase,
    Job,
    JobPhase,
    PlacementPolicy,
    SchedulerPolicy,
    WorkloadClass,
    deep_system,
    schedule_workload,
    small_msa_system,
    synthetic_workload_mix,
)
from repro.distributed.horovod import (
    DistributedOptimizer,
    _flatten_grads,
    _unflatten_into_grads,
    broadcast_parameters,
)
from repro.ml.models import MLP
from repro.ml.optim import SGD
from repro.ml.tensor import Tensor
from repro.ml.losses import cross_entropy
from repro.mpi.comm import Communicator
from repro.mpi.runtime import run_spmd
from repro.mpi.transport import Transport
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.integrity import (
    TRUSTED_CRC,
    CorruptionInjector,
    Envelope,
    IntegrityConfig,
    IntegrityContext,
    checksum_payload,
)
from repro.simnet.events import Simulator


# ---------------------------------------------------------------------------
# DES kernel: inlined run() vs the step() reference
# ---------------------------------------------------------------------------

def _des_workload(sim: Simulator, trace: list) -> None:
    """A mix of processes, timeouts, resources and cancellations."""
    res = sim.resource(2, name="res")

    def worker(i):
        for hop in range(4):
            yield sim.timeout(0.1 * ((i * 7 + hop) % 5) + 0.01)
            grant = res.acquire()
            yield grant
            yield sim.timeout(0.05)
            res.release()
            trace.append((round(sim.now, 9), i, hop))
        return i

    procs = [sim.process(worker(i), name=f"w{i}") for i in range(8)]
    doomed = sim.timeout(0.5, name="doomed")
    doomed.cancel()
    sim.all_of([p.done for p in procs], name="all-done") \
        .add_callback(lambda evt: trace.append(("done", round(sim.now, 9))))


class TestRunLoopPinsStepSemantics:
    def test_run_matches_step_by_step_reference(self):
        fast_trace, ref_trace = [], []

        sim_fast = Simulator()
        _des_workload(sim_fast, fast_trace)
        end_fast = sim_fast.run()

        sim_ref = Simulator()
        _des_workload(sim_ref, ref_trace)
        while sim_ref.step():
            pass

        assert fast_trace == ref_trace
        assert end_fast == sim_ref.now
        assert sim_fast.events_processed == sim_ref.events_processed


# ---------------------------------------------------------------------------
# Envelope fast path: payloads bit-identical, detection still armed
# ---------------------------------------------------------------------------

class TestTrustedEnvelopeFastPath:
    def test_fast_path_skips_checksum_but_keeps_envelope(self):
        ctx = IntegrityContext(config=IntegrityConfig())
        payload = np.arange(64.0)
        wire = ctx.outbound(payload, 0, 1)
        assert isinstance(wire, Envelope)
        assert wire.crc == TRUSTED_CRC
        assert wire.payload is payload          # zero-copy
        out, penalty = ctx.inbound(wire)
        assert out is payload and penalty == 0.0

    def test_trusted_crc_cannot_collide_with_real_checksums(self):
        assert TRUSTED_CRC < 0 <= checksum_payload(np.arange(8.0))

    def test_slow_path_still_taken_when_injector_armed(self):
        plan = FaultPlan.silent_corruption(0, message_p=1e-9)
        with telemetry.capture():
            ctx = IntegrityContext(CorruptionInjector(plan),
                                   config=IntegrityConfig())
            wire = ctx.outbound(np.arange(8.0), 0, 1)
        assert wire.crc == checksum_payload(np.arange(8.0)) != TRUSTED_CRC

    def test_legacy_checksummed_envelope_still_verifies(self):
        ctx = IntegrityContext(config=IntegrityConfig())
        payload = np.arange(16.0)
        wire = Envelope(payload=payload, crc=checksum_payload(payload))
        out, penalty = ctx.inbound(wire)
        assert np.array_equal(out, payload) and penalty == 0.0

    def test_received_payloads_identical_with_and_without_verify(self):
        def pingpong(integrity):
            def fn(comm):
                data = np.linspace(0.0, 1.0, 257) * (comm.rank + 1)
                comm.send(data, dest=1 - comm.rank, tag=3)
                return comm.recv(source=1 - comm.rank, tag=3)

            return run_spmd(fn, 2, integrity=integrity)

        base = pingpong(None)
        trusted = pingpong(IntegrityContext(config=IntegrityConfig()))
        for b, t in zip(base, trusted):
            assert np.array_equal(b, t)
            assert b.dtype == t.dtype

    def test_fastpath_counter_moves_checksum_counter_stays(self):
        transport = Transport(2)
        ctx = IntegrityContext(config=IntegrityConfig())

        def fn(rank):
            comm = Communicator(transport, rank, integrity=ctx)
            for i in range(5):
                comm.send(np.arange(32.0), dest=1 - rank, tag=1)
                comm.recv(source=1 - rank, tag=1)

        import threading
        threads = [threading.Thread(target=fn, args=(r,)) for r in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for state in transport.states:
            assert state.envelope_fastpath == 10    # 5 sends + 5 recvs
            assert state.envelope_checksums == 0

    def test_armed_injector_corruption_still_detected(self):
        """The fast path must never swallow a real corruption."""
        plan = FaultPlan.silent_corruption(3, message_p=0.35)
        with telemetry.capture() as (_, registry):
            ctx = IntegrityContext(CorruptionInjector(plan),
                                   config=IntegrityConfig())
            hits = 0
            for i in range(40):
                payload = np.arange(16.0) + i
                wire = ctx.outbound(payload, 0, 1)
                out, penalty = ctx.inbound(wire)
                assert np.array_equal(out, payload)   # repaired if hit
                hits += penalty > 0.0
        assert hits > 0
        from repro.resilience.integrity import corruption_totals
        injected, detected = corruption_totals(registry)
        assert injected == detected == hits


# ---------------------------------------------------------------------------
# Pooled gradient fusion: bitwise-identical to the concatenate reference
# ---------------------------------------------------------------------------

def _grads_model(seed):
    model = MLP([6, 13, 3], seed=seed)
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters():
        p.grad = rng.normal(size=p.data.shape)
    return model


class TestPooledFusionBuffers:
    def test_fused_buffer_matches_concatenate_reference(self):
        model = _grads_model(0)
        opt = DistributedOptimizer(
            SGD(model.parameters(), lr=0.1),
            Communicator(Transport(1), 0))
        reference = _flatten_grads(opt.params)
        fused_1 = opt._fuse_grads()
        assert fused_1.dtype == reference.dtype
        assert np.array_equal(
            fused_1.view(np.uint64), reference.view(np.uint64))
        # Refill with new grads: same buffer object, still exact.
        rng = np.random.default_rng(9)
        for p in opt.params:
            p.grad = rng.normal(size=p.data.shape)
        fused_2 = opt._fuse_grads()
        assert fused_2 is fused_1
        assert np.array_equal(
            fused_2.view(np.uint64),
            _flatten_grads(opt.params).view(np.uint64))
        assert (opt.fusion_allocs, opt.fusion_reuses) == (1, 1)

    def test_missing_grads_fuse_as_zeros(self):
        model = _grads_model(0)
        opt = DistributedOptimizer(
            SGD(model.parameters(), lr=0.1),
            Communicator(Transport(1), 0))
        opt.params[1].grad = None
        assert np.array_equal(opt._fuse_grads(), _flatten_grads(opt.params))

    def test_scatter_matches_unflatten_reference(self):
        model = _grads_model(2)
        opt = DistributedOptimizer(
            SGD(model.parameters(), lr=0.1),
            Communicator(Transport(1), 0))
        buf = np.arange(float(sum(p.size for p in opt.params)))
        opt._scatter_grads(buf)
        pooled = [p.grad.copy() for p in opt.params]
        _unflatten_into_grads(opt.params, buf)
        for got, ref in zip(pooled, (p.grad for p in opt.params)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_training_bitwise_identical_to_unpooled_reference(self):
        """Full data-parallel runs: optimized synchronize vs a reference
        replicating the pre-pooling implementation, compared to the bit."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(64, 10))
        Y = rng.integers(0, 3, size=64)

        def train(comm, reference: bool):
            model = MLP([10, 17, 3], seed=7)
            broadcast_parameters(model, comm)
            opt = DistributedOptimizer(SGD(model.parameters(), lr=0.05),
                                       comm)
            losses = []
            for step in range(6):
                shard = np.arange(step % 2, len(X), comm.size * 2)
                shard = (shard + comm.rank * 2) % len(X)
                loss = cross_entropy(model(Tensor(X[shard])), Y[shard])
                opt.zero_grad()
                loss.backward()
                if reference:
                    # The pre-pooling synchronize, reproduced verbatim.
                    from repro.mpi import collectives
                    fused = _flatten_grads(opt.params)
                    wire = fused.copy()
                    collectives.ring_allreduce_inplace(
                        comm, wire, comm._next_coll_tag())
                    reduced = wire / comm.size
                    _unflatten_into_grads(opt.params, reduced)
                    opt.optimizer.step()
                else:
                    opt.step()
                losses.append(loss.item())
            return losses, {k: v.copy()
                            for k, v in model.state_dict().items()}

        pooled = run_spmd(lambda c: train(c, reference=False), 2)
        ref = run_spmd(lambda c: train(c, reference=True), 2)
        for (pl, pw), (rl, rw) in zip(pooled, ref):
            assert pl == rl                     # loss trajectory, exact
            assert set(pw) == set(rw)
            for key in pw:
                assert np.array_equal(pw[key].view(np.uint64),
                                      rw[key].view(np.uint64)), key

    def test_average_divide_in_place_matches_fresh_divide(self):
        arr = np.linspace(-3.0, 3.0, 97)
        expect = arr / 4
        got = arr.copy()
        np.divide(got, 4, out=got)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


# ---------------------------------------------------------------------------
# Lazy tensor engine: ENGINE=lazy replays ENGINE=eager to the bit
# ---------------------------------------------------------------------------

def _bits(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64)


def _assert_state_bitwise_equal(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(_bits(a[key]), _bits(b[key])), key


class TestLazyEngineReplayPins:
    """Fusion elides buffers, never reassociates math: every workload
    below must produce bitwise-identical outputs under both engines."""

    def _run_both(self, workload):
        from repro.ml import engine
        with engine.engine("eager"):
            eager = workload()
        with engine.engine("lazy"):
            lazy = workload()
        return eager, lazy

    def test_mlp_training_loop_bitwise_identical(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(48, 12))
        Y = rng.integers(0, 3, size=48)

        def train():
            model = MLP([12, 19, 3], seed=4)
            opt = SGD(model.parameters(), lr=0.05)
            losses = []
            for step in range(6):
                lo = (step * 16) % 48
                loss = cross_entropy(model(Tensor(X[lo:lo + 16])),
                                     Y[lo:lo + 16])
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(loss.item())
            return losses, {k: v.copy()
                            for k, v in model.state_dict().items()}

        (el, ew), (ll, lw) = self._run_both(train)
        assert el == ll
        _assert_state_bitwise_equal(ew, lw)

    def test_gru_forward_bitwise_identical(self):
        from repro.ml.models import GruForecaster

        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 10, 6))

        def forward():
            model = GruForecaster(n_features=6, hidden=8, seed=2)
            model.eval()
            return model(Tensor(x)).numpy().copy()

        eager, lazy = self._run_both(forward)
        assert np.array_equal(_bits(eager), _bits(lazy))

    def test_conv_model_forward_bitwise_identical(self):
        from repro.ml.models import resnet_small

        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 8, 8))

        def forward():
            model = resnet_small(in_channels=3, n_classes=4, seed=5)
            model.eval()
            return model(Tensor(x)).numpy().copy()

        eager, lazy = self._run_both(forward)
        assert np.array_equal(_bits(eager), _bits(lazy))

    def test_devices_agree_to_the_bit(self):
        from repro.ml import engine

        rng = np.random.default_rng(17)
        xs = rng.normal(size=(32, 32))

        def chain():
            x = Tensor(xs)
            return ((x * 3.0 + 0.5).tanh().sigmoid()
                    + (x @ x).relu()).sum(axis=0).numpy().copy()

        with engine.engine("lazy"):
            with engine.use_device("cpu"):
                on_cpu = chain()
            with engine.use_device("sim-gpu"):
                on_a100 = chain()
            with engine.use_device("sim-gpu:v100"):
                on_v100 = chain()
        assert np.array_equal(_bits(on_cpu), _bits(on_a100))
        assert np.array_equal(_bits(on_cpu), _bits(on_v100))

    def test_out_buffer_reuse_matches_fresh_allocation(self):
        """ufunc(..., out=dying_temp) is the only trick the fused
        executor plays; pin that it cannot perturb values."""
        rng = np.random.default_rng(23)
        x = rng.normal(size=(257,))
        fresh = np.exp(np.tanh(x * 2.0 + 1.0))
        reused = np.multiply(x, 2.0)
        np.add(reused, 1.0, out=reused)
        np.tanh(reused, out=reused)
        np.exp(reused, out=reused)
        assert np.array_equal(_bits(fresh), _bits(reused))


# ---------------------------------------------------------------------------
# Scheduler placement tables: reference replay of the per-call scoring loops
# ---------------------------------------------------------------------------

def _schedule_digest(report) -> str:
    """Allocations tuple + summary text + energy, to the bit."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(tuple(report.allocations)).encode())
    h.update(report.summary().encode())
    h.update(repr((report.makespan, report.energy_busy_joules,
                   report.energy_idle_joules)).encode())
    return h.hexdigest()


def _community_mix(n_jobs: int, seed: int, interarrival_s: float):
    """The Fig. 2 mix with three submitting communities (fair-share keys
    on ``Job.user``) and a queue deep enough that backfill matters."""
    jobs = synthetic_workload_mix(n_jobs, seed=seed,
                                  mean_interarrival_s=interarrival_s)
    for i, job in enumerate(jobs):
        job.user = ("remote-sensing", "health", "climate")[i % 3]
    return jobs


def _policy_scenario(queue_policy, placement):
    return schedule_workload(deep_system(), _community_mix(60, 11, 30.0),
                             queue_policy=queue_policy, placement=placement)


def _coalloc_scenario():
    """In-situ solver∥analytics co-allocations of three sizes queued behind
    a DAM hog, a job that stages cm -> co-allocation, and background mix."""
    def insitu(name, solver_nodes, analytics_nodes, arrival):
        return Job(name=name, arrival_time=arrival, phases=[CoAllocatedPhase(
            name="solve+analyse",
            components=(
                JobPhase(name="solver",
                         workload=WorkloadClass.SIMULATION_HIGHSCALE,
                         work_flops=1e17, nodes=solver_nodes, uses_gpu=True,
                         parallel_fraction=0.99),
                JobPhase(name="analytics",
                         workload=WorkloadClass.DATA_ANALYTICS,
                         work_flops=1e14, nodes=analytics_nodes,
                         memory_GB_per_node=400.0),
            ),
            coupling_bytes=50e9,
        )])

    hog = Job(name="hog", phases=[JobPhase(
        name="spark", workload=WorkloadClass.DATA_ANALYTICS,
        work_flops=5e15, nodes=2, memory_GB_per_node=400.0)])
    staged = Job(name="staged", arrival_time=5.0, phases=[
        JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                 work_flops=1e13, nodes=1, io_bytes=1e11),
        insitu("x", 4, 1, 0.0).phases[0],
        JobPhase(name="post", workload=WorkloadClass.ML_INFERENCE,
                 work_flops=1e15, nodes=4, uses_gpu=True, io_bytes=2e11),
    ])
    jobs = [hog, insitu("insitu-a", 6, 2, 1.0), insitu("insitu-b", 3, 1, 2.0),
            insitu("insitu-c", 8, 2, 3.0), staged]
    jobs += synthetic_workload_mix(8, seed=5, mean_interarrival_s=20.0)
    return schedule_workload(small_msa_system(), jobs)


def _fault_scenario():
    """Crashes + stragglers + link degradations over a backlog of
    multi-phase jobs (the degrade factors reach the transfer terms)."""
    system = deep_system()
    targets = {key: mod.n_nodes
               for key, mod in system.compute_modules().items()}
    plan = FaultPlan.random(7, targets, horizon_s=30000.0, n_crashes=5,
                            n_stragglers=4, n_degrades=6, repair_s=4000.0,
                            slowdown=6.0)
    return schedule_workload(system, _community_mix(60, 13, 20.0),
                             fault_injector=FaultInjector(plan))


def _degrade_flip_scenario(magnitude: float):
    """prep on the CM, then a training phase whose 4 TB input crosses the
    federation: a degraded ESB link makes the DAM the better target."""
    system = small_msa_system(cm_nodes=4, esb_nodes=8, dam_nodes=4)
    job = Job(name="w", phases=[
        JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                 work_flops=2e13, nodes=1, memory_GB_per_node=32.0),
        JobPhase(name="train", workload=WorkloadClass.ML_TRAINING,
                 work_flops=4e16, nodes=8, uses_gpu=True,
                 parallel_fraction=0.99, io_bytes=4e12),
    ])
    plan = FaultPlan(seed=0, specs=(FaultSpec(
        kind=FaultKind.LINK_DEGRADE, time=1.0, module="esb",
        duration=1e5, magnitude=magnitude),))
    return schedule_workload(system, [job],
                             fault_injector=FaultInjector(plan))


#: Captured from the commit before the placement-table refactor (PR 11's
#: tree): every placement, time and energy figure must stay bit-identical.
_SCHEDULER_PINS = {
    "fcfs/matchmaking": "1acd2270cfb27b2c",
    "fcfs/first-fit": "dd3e146fd8577fab",
    "fcfs-backfill/matchmaking": "e39adc9f9afcf882",
    "fcfs-backfill/first-fit": "05d08c9d1ea7f288",
    "fair-share/matchmaking": "e7050dd3af87d405",
    "fair-share/first-fit": "c090954c5815bbdd",
    "coalloc": "1f8e798353631bc4",
    "faults": "04aaf73637ddac47",
    "degrade-flip": "32b5df0a3d3630b8",
}


def _scheduler_pin_digests() -> dict:
    out = {}
    for queue_policy in SchedulerPolicy:
        for placement in PlacementPolicy:
            out[f"{queue_policy.value}/{placement.value}"] = \
                _schedule_digest(_policy_scenario(queue_policy, placement))
    out["coalloc"] = _schedule_digest(_coalloc_scenario())
    out["faults"] = _schedule_digest(_fault_scenario())
    out["degrade-flip"] = _schedule_digest(_degrade_flip_scenario(12.0))
    return out


class TestSchedulerPlacementTablePins:
    @pytest.fixture(scope="class")
    def digests(self):
        return _scheduler_pin_digests()

    @pytest.mark.parametrize("name", sorted(_SCHEDULER_PINS))
    def test_schedule_bit_identical_to_reference(self, digests, name):
        assert digests[name] == _SCHEDULER_PINS[name]

    def test_scenarios_exercise_what_they_claim(self):
        coalloc = _coalloc_scenario()
        assert sum("/" in a.phase_name for a in coalloc.allocations) >= 8
        faults = _fault_scenario()
        kinds = {spec.kind for _, spec in faults.resilience.faults_injected}
        assert {FaultKind.NODE_CRASH, FaultKind.STRAGGLER,
                FaultKind.LINK_DEGRADE} <= kinds
        assert faults.resilience.total_retries > 0

    def test_link_degrade_flips_the_chosen_module(self):
        def train_module(report):
            return next(a.module_key for a in report.allocations
                        if a.phase_name == "train")

        assert train_module(_degrade_flip_scenario(1.0)) == "esb"
        assert train_module(_degrade_flip_scenario(12.0)) == "dam"
