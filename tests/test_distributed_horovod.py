"""Horovod-style data parallelism: replica consistency, equivalence to
serial large-batch training, compression, traffic accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    DistributedOptimizer,
    Fp16Compression,
    NoCompression,
    ZeroStage1Optimizer,
    ZeroStage2Optimizer,
    broadcast_parameters,
)
from repro.ml import (
    Adam,
    ArrayDataset,
    DistributedDataLoader,
    Parameter,
    SGD,
    Tensor,
    cross_entropy,
)
from repro.ml.losses import mae, mse
from repro.ml.models import MLP, GruForecaster, resnet_small
from repro.mpi import run_spmd

rng = np.random.default_rng(0)
X = np.concatenate([rng.normal(-2, 1, size=(64, 2)),
                    rng.normal(2, 1, size=(64, 2))])
Y = np.array([0] * 64 + [1] * 64)


def _train(comm, epochs=2, compression=None, lr=0.05, seed_by_rank=True):
    model = MLP([2, 8, 2], seed=comm.rank * 11 if seed_by_rank else 3)
    broadcast_parameters(model, comm)
    opt = DistributedOptimizer(SGD(model.parameters(), lr=lr), comm,
                               compression=compression)
    loader = DistributedDataLoader(ArrayDataset(X, Y), batch_size=16,
                                   rank=comm.rank, world_size=comm.size,
                                   seed=1)
    for epoch in range(epochs):
        loader.set_epoch(epoch)
        for xb, yb in loader:
            loss = cross_entropy(model(Tensor(xb)), yb)
            opt.zero_grad()
            loss.backward()
            opt.step()
    return model, opt


class TestBroadcastParameters:
    def test_all_replicas_match_root(self):
        def fn(comm):
            model = MLP([2, 4, 2], seed=comm.rank * 7)
            broadcast_parameters(model, comm)
            return model.state_dict()

        states = run_spmd(fn, 4)
        for state in states[1:]:
            for key in states[0]:
                np.testing.assert_array_equal(states[0][key], state[key])


@pytest.mark.parametrize("ws", [1, 2, 4])
class TestReplicaConsistency:
    def test_replicas_identical_after_training(self, ws):
        def fn(comm):
            model, _ = _train(comm)
            return model.state_dict()

        states = run_spmd(fn, ws)
        for state in states[1:]:
            for key in states[0]:
                np.testing.assert_allclose(states[0][key], state[key],
                                           atol=1e-12)

    def test_replicas_identical_with_fp16(self, ws):
        def fn(comm):
            model, _ = _train(comm, compression=Fp16Compression())
            return model.state_dict()

        states = run_spmd(fn, ws)
        for state in states[1:]:
            for key in states[0]:
                np.testing.assert_allclose(states[0][key], state[key],
                                           atol=1e-12)


@pytest.mark.parametrize("ws", [3, 5, 6, 7])
def test_small_fused_buffer_is_averaged_once_on_every_rank(ws):
    """A fused buffer smaller than the world goes through recursive
    doubling; every rank divides its own sum by p exactly once."""
    def fn(comm):
        w = Parameter(np.zeros(2))
        opt = DistributedOptimizer(SGD([w], lr=0.1), comm)
        w.grad = np.array([comm.rank + 1.0, 0.5 * comm.rank])
        opt.synchronize()
        return w.grad

    total = sum(np.array([r + 1.0, 0.5 * r]) for r in range(ws))
    for grad in run_spmd(fn, ws):
        np.testing.assert_array_equal(grad, total / ws)


class TestEquivalenceToSerial:
    def test_two_rank_training_matches_global_batch_serial(self):
        """Data parallelism over p ranks with per-rank batch b must equal
        serial training with batch p*b (gradient averaging identity)."""
        def fn(comm):
            model = MLP([2, 8, 2], seed=3)
            broadcast_parameters(model, comm)
            opt = DistributedOptimizer(SGD(model.parameters(), lr=0.1), comm)
            sampler_idx = np.arange(comm.rank, 64, comm.size)
            xb, yb = X[sampler_idx], Y[sampler_idx]
            loss = cross_entropy(model(Tensor(xb)), yb)
            opt.zero_grad()
            loss.backward()
            opt.step()
            return model.state_dict()

        dist_state = run_spmd(fn, 2)[0]

        serial = MLP([2, 8, 2], seed=3)
        opt = SGD(serial.parameters(), lr=0.1)
        # The union of both rank shards, with matching per-shard weights:
        # mean over ranks of per-shard means == global mean when shards are
        # equal-sized (they are: 32 + 32).
        idx0 = np.arange(0, 64, 2)
        idx1 = np.arange(1, 64, 2)
        l0 = cross_entropy(serial(Tensor(X[idx0])), Y[idx0])
        l1 = cross_entropy(serial(Tensor(X[idx1])), Y[idx1])
        loss = (l0 + l1) * 0.5
        opt.zero_grad()
        loss.backward()
        opt.step()
        for key, value in serial.state_dict().items():
            np.testing.assert_allclose(dist_state[key], value, atol=1e-10)


class TestAccuracyInvariance:
    """The paper's Fig. 3 claim: speed-up 'without loosing accuracy'."""

    def test_final_accuracy_independent_of_worker_count(self):
        from repro.ml.metrics import accuracy

        def fn(comm):
            model, _ = _train(comm, epochs=4)
            return accuracy(model.predict(X), Y)

        accs = {ws: run_spmd(fn, ws)[0] for ws in (1, 2, 4)}
        assert min(accs.values()) > 0.9
        assert max(accs.values()) - min(accs.values()) < 0.05


class TestDtypeClosure:
    @pytest.mark.parametrize("world_size", [1, 2])
    @pytest.mark.parametrize("compression", [None, Fp16Compression()],
                             ids=["plain", "fp16"])
    def test_a_float32_model_stays_float32(self, world_size, compression):
        """The fusion buffer, the gradient pool and the fp16 decompressor
        take the gradients' dtype: float64 ones made every ``.grad`` of a
        float32 model float64 after the first synchronised step."""
        def fn(comm):
            model = MLP([2, 8, 2], seed=3)
            for p in model.parameters():
                p.data = p.data.astype(np.float32)
            opt = DistributedOptimizer(Adam(model.parameters(), lr=0.01),
                                       comm, compression=compression)
            for step in range(2):
                xb = X[comm.rank::comm.size][step * 8:(step + 1) * 8]
                yb = Y[comm.rank::comm.size][step * 8:(step + 1) * 8]
                loss = cross_entropy(model(Tensor(xb.astype(np.float32))), yb)
                opt.zero_grad()
                loss.backward()
                opt.step()
            return [(p.data.dtype, p.grad.dtype) for p in model.parameters()]

        for dtypes in run_spmd(fn, world_size):
            assert set(dtypes) == {(np.dtype(np.float32),) * 2}

    #: name -> (float32 model, input shape); the GRU's one output is one class.
    MODELS = {
        "mlp": (lambda: MLP([6, 8, 3], seed=0), (4, 6)),
        "resnet_small": (lambda: resnet_small(in_channels=2, n_classes=3,
                                              seed=0), (4, 2, 8, 8)),
        "gru": (lambda: GruForecaster(n_features=3, hidden=4, seed=0),
                (4, 5, 3)),
    }
    LOSSES = {"cross_entropy": lambda out: cross_entropy(
                  out, np.arange(out.shape[0]) % out.shape[1]),
              "mse": lambda out: mse(out, np.ones(out.shape, np.float32)),
              "mae": lambda out: mae(out, np.ones(out.shape, np.float32))}
    #: How the step runs, and on how many ranks.
    RANKS = {"plain": 1, "horovod": 1, "horovod-p2": 2, "zero1": 1,
             "zero1-p2": 2, "zero2-p2": 2}

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(MODELS)), st.sampled_from(sorted(LOSSES)),
           st.sampled_from([SGD, Adam]), st.sampled_from(sorted(RANKS)))
    def test_a_float32_model_trains_in_float32(self, model, loss, optim,
                                               wrap):
        """Outputs, losses, every ``.grad``, Adam's moments (ZeRO's shards
        of them) and the weights stay float32 through two steps.  ZeRO
        kept float64 moments, and the allreduce its stage 1 reduces
        through widened a float32 buffer to float64."""
        build, shape = self.MODELS[model]

        def fn(comm):
            net = build()
            params = net.parameters()
            for p in params:
                p.data = p.data.astype(np.float32)
            if wrap.startswith("zero"):
                zero = ZeroStage2Optimizer if "2-" in wrap else \
                    ZeroStage1Optimizer
                opt = inner = zero(params, comm)
            else:
                opt = inner = optim(params, lr=0.01)
                if wrap != "plain":
                    opt = DistributedOptimizer(inner, comm)
            x = np.random.default_rng(comm.rank).normal(size=shape)
            seen = set()
            for _ in range(2):
                out = net(Tensor(x.astype(np.float32)))
                value = self.LOSSES[loss](out)
                opt.zero_grad()
                value.backward()
                opt.step()
                seen |= {out.dtype, value.dtype}
                seen |= {p.grad.dtype for p in params}
            m, v = getattr(inner, "_m", []), getattr(inner, "_v", [])
            moments = m + v if isinstance(m, list) else [m, v]  # ZeRO: shards
            return seen | {a.dtype for a in moments + [p.data for p in params]}

        for seen in run_spmd(fn, self.RANKS[wrap]):
            assert seen == {np.dtype(np.float32)}

    def test_fp16_restores_the_dtype_it_compressed(self):
        c = Fp16Compression()
        for dtype in (np.float32, np.float64):
            buf = rng.normal(size=10).astype(dtype)
            assert c.decompress(c.compress(buf)).dtype == dtype


class TestCompression:
    def test_fp16_halves_wire_bytes(self):
        buf = np.ones(1000)
        assert Fp16Compression().wire_bytes(buf) == \
            NoCompression().wire_bytes(buf) // 4  # float64 -> float16

    def test_fp16_roundtrip_close(self):
        c = Fp16Compression()
        buf = rng.normal(size=100)
        out = c.decompress(c.compress(buf))
        np.testing.assert_allclose(out, buf, atol=1e-2)
        assert out.dtype == np.float64

    def test_fp16_reduces_simulated_traffic(self):
        def fn(comm, compression):
            _, opt = _train(comm, epochs=1, compression=compression)
            return comm.state.bytes_sent

        plain = run_spmd(fn, 2, args=(None,))
        fp16 = run_spmd(fn, 2, args=(Fp16Compression(),))
        assert sum(fp16) < sum(plain) * 0.5


class TestAccounting:
    def test_allreduce_called_once_per_step(self):
        def fn(comm):
            _, opt = _train(comm, epochs=1)
            return opt.allreduce_calls

        calls = run_spmd(fn, 2)[0]
        loader_len = len(DistributedDataLoader(
            ArrayDataset(X, Y), 16, 0, 2))
        assert calls == loader_len

    def test_single_rank_skips_allreduce(self):
        def fn(comm):
            _, opt = _train(comm, epochs=1)
            return opt.allreduce_calls

        assert run_spmd(fn, 1) == [0]

