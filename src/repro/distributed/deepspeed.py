"""DeepSpeed-ZeRO-style optimiser state sharding (stage 1).

The paper names DeepSpeed as the "more recent" distributed-training tool
(Sec. III-A).  Its core memory innovation, ZeRO, partitions redundant
training state across data-parallel ranks.  Stage 1 shards the *optimiser
state* (Adam's m/v moments): each rank keeps moments only for its parameter
shard, applies the update there, and the updated shard is allgathered so
every replica ends the step with identical weights.

Observable properties reproduced (and asserted in tests):

* per-rank optimiser-state memory ≈ 1/p of the unsharded optimiser,
* final weights equal plain data-parallel Adam's, bit-for-bit in exact
  arithmetic; moments, shards and the gathered weights keep the
  parameters' dtype, so a float32 model steps in float32.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry
from repro.distributed.horovod import _flatten_grads
from repro.mpi.comm import Communicator
from repro.ml.layers import Parameter
from repro.ml.optim import adam_update


class ZeroStage1Optimizer:
    """Adam with optimiser state sharded across data-parallel ranks."""

    _span = "zero1-step"        #: telemetry name of one step
    #: Adam's learning rate (:func:`~repro.ml.optim.adam_update` reads it).
    lr = 0.01

    def __init__(self, params: Sequence[Parameter],
                 comm: Communicator) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("need at least one parameter")
        self.comm = comm
        self._step_count = 0

        # Shard boundaries over the fused parameter vector.
        self.total_elements = sum(p.size for p in self.params)
        bounds = np.linspace(0, self.total_elements, comm.size + 1).astype(np.int64)
        self.shard_bounds = [(int(bounds[i]), int(bounds[i + 1]))
                             for i in range(comm.size)]
        lo, hi = self.shard_bounds[comm.rank]
        self._lo, self._hi = lo, hi
        #: The gradients' dtype: every parameter's, as backward keeps it.
        self.dtype = np.result_type(*(p.data.dtype for p in self.params))
        # Moments exist ONLY for this rank's shard — the ZeRO saving.
        self._m = np.zeros(hi - lo, self.dtype)
        self._v = np.zeros(hi - lo, self.dtype)

    # -- memory accounting (the ZeRO claim) ---------------------------------
    @property
    def local_state_bytes(self) -> int:
        return int(self._m.nbytes + self._v.nbytes)

    @property
    def unsharded_state_bytes(self) -> int:
        return int(2 * self.total_elements * self.dtype.itemsize)

    # -- the training step ------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _fused_param(self) -> np.ndarray:
        return np.concatenate([p.data.ravel() for p in self.params])

    def _write_back(self, fused: np.ndarray) -> None:
        offset = 0
        for p in self.params:
            n = p.size
            p.data[...] = fused[offset:offset + n].reshape(p.data.shape)
            offset += n

    def step(self) -> None:
        """Average gradients, update the local shard, allgather weights."""
        with telemetry.get_tracer().span(
                self._span, "train", lambda: self.comm.sim_time,
                lane=self.comm._lane()):
            self._step_count += 1
            g = self._grad_shard(_flatten_grads(self.params))
            theta = self._fused_param()[self._lo:self._hi]
            theta = theta - adam_update(self, g, self._m, self._v)
            self._write_back(self._gather(theta))

    def _grad_shard(self, grad: np.ndarray) -> np.ndarray:
        """This rank's ``[_lo, _hi)`` slice of the rank-averaged gradient."""
        if self.comm.size > 1:
            grad = self.comm.allreduce(grad) / self.comm.size
        return grad[self._lo:self._hi]

    def _gather(self, theta: np.ndarray) -> np.ndarray:
        """Every rank's updated shard, reassembled."""
        fused = np.concatenate(self.comm.allgather(theta))
        if fused.shape[0] != self.total_elements:
            raise RuntimeError("shard reassembly size mismatch")
        return fused

    @property
    def step_count(self) -> int:
        return self._step_count


class ZeroStage2Optimizer(ZeroStage1Optimizer):
    """ZeRO stage 2: gradients *and* optimiser state sharded.

    Instead of allreducing the full fused gradient, the step reduce-scatters
    it: each rank materialises only its fully-reduced gradient shard
    (~1/p of the gradient memory), updates its parameter shard, and the
    updated shards are allgathered.  Numerically identical to stage 1 and
    plain data-parallel Adam (asserted in tests); communication volume per
    step is the same 2·n·(p-1)/p bytes a ring allreduce moves.
    """

    _span = "zero2-step"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Stage 2 shards along the ring reduce-scatter's chunk boundaries,
        # which differ from stage 1's contiguous split: chunk (rank+1)%p.
        self.peak_grad_shard_bytes = 0

    def _grad_shard(self, grad: np.ndarray) -> np.ndarray:
        shard, (lo, hi) = self.comm.reduce_scatter(grad)
        shard = shard / self.comm.size
        self.peak_grad_shard_bytes = max(self.peak_grad_shard_bytes,
                                         int(shard.nbytes))
        # Moments are lazily (re)sized to the reduce-scatter's shard.
        if self._m.shape[0] != hi - lo:
            self._m = np.zeros(hi - lo, self.dtype)
            self._v = np.zeros(hi - lo, self.dtype)
        self._lo, self._hi = lo, hi
        return shard

    def _gather(self, theta: np.ndarray) -> np.ndarray:
        fused = np.empty(self.total_elements, self.dtype)
        covered = 0
        for plo, chunk in self.comm.allgather((self._lo, theta)):
            fused[plo:plo + chunk.shape[0]] = chunk
            covered += chunk.shape[0]
        if covered != self.total_elements:
            raise RuntimeError("stage-2 shard reassembly mismatch")
        return fused
