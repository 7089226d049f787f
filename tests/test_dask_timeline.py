"""The Dask-like delayed engine and the Horovod-timeline view of a trace."""

import threading

import numpy as np
import pytest

from repro.analytics import Delayed, compute, delayed
from repro.mpi import run_spmd
from repro.mpi.runtime import spmd_sim_times


# ---------------------------------------------------------------------------
# delayed task graphs
# ---------------------------------------------------------------------------

class TestDelayed:
    def test_laziness(self):
        calls = []

        @_spy_list(calls)
        def work(x):
            return x + 1

        node = delayed(work)(1)
        assert calls == []                 # nothing ran
        assert node.compute() == 2
        assert calls == [1]

    def test_chained_graph(self):
        inc = delayed(lambda x: x + 1, name="inc")
        double = delayed(lambda x: x * 2, name="double")
        out = double(inc(inc(3)))
        assert out.compute() == 10

    def test_diamond_computes_shared_node_once(self):
        calls = []

        def expensive(x):
            calls.append(x)
            return x * 10

        shared = delayed(expensive)(2)
        left = delayed(lambda v: v + 1)(shared)
        right = delayed(lambda v: v + 2)(shared)
        total = delayed(lambda a, b: a + b)(left, right)
        assert total.compute() == 43
        assert calls == [2]                 # the diamond property

    def test_kwargs_dependencies(self):
        node = delayed(lambda a, b=0: a - b)(10, b=delayed(lambda: 3)())
        assert node.compute() == 7

    def test_operator_sugar(self):
        a = delayed(lambda: 2)()
        b = delayed(lambda: 3)()
        assert (a + b).compute() == 5
        assert (a * b).compute() == 6
        assert (1 + a).compute() == 3
        assert (4 * b).compute() == 12

    def test_compute_many_shares_cache(self):
        calls = []

        def base():
            calls.append(1)
            return 5

        shared = delayed(base)()
        x = delayed(lambda v: v + 1)(shared)
        y = delayed(lambda v: v * 2)(shared)
        out = compute(x, y)
        assert out == (6, 10)
        assert len(calls) == 1

    def test_compute_passes_plain_values_through(self):
        assert compute(delayed(lambda: 1)(), 42) == (1, 42)

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(0)
        mats = [rng.normal(size=(40, 40)) for _ in range(6)]
        prods = [delayed(np.matmul)(m, m) for m in mats]
        total = delayed(lambda *xs: float(sum(x.sum() for x in xs)))(*prods)
        serial = total.compute(n_workers=1)
        parallel = total.compute(n_workers=4)
        assert serial == pytest.approx(parallel)

    def test_parallel_runs_independent_branches_concurrently(self):
        # All four branches must be inside ``meet`` at once to get past the
        # barrier; the timeout only bounds how long a serial run takes to
        # fail (BrokenBarrierError), it is never waited out on success.
        barrier = threading.Barrier(4)

        def meet(tag):
            barrier.wait(timeout=10.0)
            return tag

        branches = [delayed(meet)(i) for i in range(4)]
        gather = delayed(lambda *xs: sum(xs))(*branches)
        assert gather.compute(n_workers=4) == 6

    def test_parallel_error_propagates(self):
        bad = delayed(lambda: 1 / 0)()
        out = delayed(lambda v: v)(bad)
        with pytest.raises(ZeroDivisionError):
            out.compute(n_workers=2)

    def test_repr(self):
        assert "inc" in repr(delayed(lambda x: x, name="inc")(1))


def _spy_list(calls):
    def decorator(fn):
        def wrapper(*args):
            calls.append(*args)
            return fn(*args)
        return wrapper
    return decorator


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------

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
