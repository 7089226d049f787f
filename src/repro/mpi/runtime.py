"""SPMD runtime: launch one thread per rank, mpiexec-style.

``run_spmd(fn, world_size)`` runs ``fn(comm, *args)`` on every rank and
returns the per-rank results.  A raising rank aborts the world (unblocking
receivers) and the first exception is re-raised in the caller, so test
failures surface instead of deadlocking.

NumPy releases the GIL inside kernels, so ranks genuinely overlap for the
array-heavy workloads this library runs.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, Optional, Sequence

from repro.simnet.costs import CommCostModel
from repro.mpi.comm import Communicator
from repro.mpi.transport import Transport, TransportAborted


class SpmdFailure(RuntimeError):
    """Wraps the first exception raised by any rank."""

    def __init__(self, rank: int, original: BaseException, formatted: str) -> None:
        super().__init__(f"rank {rank} failed: {original!r}\n{formatted}")
        self.rank = rank
        self.original = original


def run_spmd(
    fn: Callable[..., Any],
    world_size: int,
    args: Sequence[Any] = (),
    cost_model: Optional[CommCostModel] = None,
    timeout: Optional[float] = 300.0,
    integrity: Optional[Any] = None,
) -> list[Any]:
    """Execute ``fn(comm, *args)`` on ``world_size`` ranks; return results.

    Parameters
    ----------
    fn:
        The per-rank entry point; receives a :class:`Communicator` first.
    args:
        Extra positional arguments passed identically to every rank.
    cost_model:
        Fabric cost model charged to the simulated clocks.
    timeout:
        Wall-clock safety net per join; ``None`` disables it.
    integrity:
        Optional shared :class:`~repro.resilience.integrity.IntegrityContext`
        installed on every rank's communicator (checksummed envelopes and
        silent-corruption injection).
    """
    if world_size < 1:
        raise ValueError("world_size must be >= 1")

    transport = Transport(world_size)
    results: list[Any] = [None] * world_size
    errors: list[Optional[SpmdFailure]] = [None] * world_size

    def worker(rank: int) -> None:
        comm = Communicator(transport, rank, cost_model=cost_model,
                            integrity=integrity)
        try:
            results[rank] = fn(comm, *args)
        except TransportAborted:
            pass  # secondary failure caused by another rank's abort
        except BaseException as exc:  # noqa: BLE001 — must not deadlock the world
            errors[rank] = SpmdFailure(rank, exc, traceback.format_exc())
            transport.abort()

    if world_size == 1:
        # Fast path: no threads for the degenerate world.
        worker(0)
    else:
        threads = [
            threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}", daemon=True)
            for r in range(world_size)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=timeout)
            if t.is_alive():
                transport.abort()
                t.join(timeout=5.0)
                raise SpmdFailure(
                    -1, TimeoutError("rank did not finish"), f"thread {t.name} hung"
                )

    for err in errors:
        if err is not None:
            raise err
    return results


def spmd_sim_times(
    fn: Callable[[Communicator], Any],
    world_size: int,
    cost_model: CommCostModel,
) -> tuple[list[Any], list[float]]:
    """Like :func:`run_spmd` but also return each rank's final simulated time."""
    def timed(comm: Communicator) -> tuple[Any, float]:
        return fn(comm), comm.sim_time

    pairs = run_spmd(timed, world_size, cost_model=cost_model)
    return [r for r, _ in pairs], [t for _, t in pairs]
