"""The Horovod-timeline view of a trace."""

import numpy as np

from repro.mpi import run_spmd


class TestTimeline:
    def test_training_loop_timeline_shows_comm_growth(self):
        """The instrument the paper's [20]-style tuning relies on: comm
        fraction visibly grows with the worker count."""
        from repro import telemetry
        from repro.distributed import DistributedOptimizer, broadcast_parameters
        from repro.ml import SGD, Tensor, cross_entropy
        from repro.ml.models import MLP

        rng = np.random.default_rng(0)
        X = rng.normal(size=(32, 2))
        y = (X[:, 0] > 0).astype(int)

        def fn(comm):
            model = MLP([2, 16, 2], seed=0)
            broadcast_parameters(model, comm)
            opt = DistributedOptimizer(SGD(model.parameters(), lr=0.1), comm)
            for _ in range(3):
                comm.compute(0.005)         # fwd+bwd
                loss = cross_entropy(model(Tensor(X)), y)
                opt.zero_grad()
                loss.backward()
                opt.step()

        def comm_fraction(world: int) -> float:
            with telemetry.capture() as (tracer, _):
                run_spmd(fn, world)
            lane = [s for s in tracer.spans
                    if (s.track, s.lane) == ("mpi", "rank000")]
            comm = sum(s.duration_s for s in lane if s.category == "comm")
            return comm / sum(s.duration_s for s in lane)

        assert comm_fraction(8) > comm_fraction(2) > 0.0
