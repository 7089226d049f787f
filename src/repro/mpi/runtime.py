"""SPMD runtime: launch one thread per rank, mpiexec-style.

``run_spmd(fn, world_size)`` runs ``fn(comm, *args)`` on every rank and
returns the per-rank results.  A raising rank aborts the world (unblocking
receivers) and the first exception is re-raised in the caller; a world
that can no longer move ends at once with :class:`SpmdDeadlock`.

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


class SpmdDeadlock(SpmdFailure):
    """Every rank that had not returned waited on a message no rank would
    send (``rank`` -1); the message gives each rank's wait and sim time."""


def run_spmd(
    fn: Callable[..., Any],
    world_size: int,
    args: Sequence[Any] = (),
    cost_model: Optional[CommCostModel] = None,
    integrity: Optional[Any] = None,
) -> list[Any]:
    """Execute ``fn(comm, *args)`` on ``world_size`` ranks; return results.

    Raises :class:`SpmdFailure` or :class:`SpmdDeadlock`; no timer runs.

    Parameters
    ----------
    fn:
        The per-rank entry point; receives a :class:`Communicator` first.
    args:
        Extra positional arguments passed identically to every rank.
    cost_model:
        Fabric cost model charged to the simulated clocks, or an
        :meth:`MSASystem.placement <repro.core.system.MSASystem.placement>`
        of the ranks on modules.
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
            transport.settle(rank, ())
        except TransportAborted:
            pass  # the world was aborted: a rank failed, or none can move
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
            t.join()

    for err in errors:
        if err is not None:
            raise err
    if transport.aborted:  # by no rank: the wait registry found a deadlock
        raise SpmdDeadlock(-1, TransportAborted("no rank can move"), "\n".join(
            f"rank {r} at sim t={transport.states[r].sim_time!r} s: " + (
                "waits in recv(source={}, tag={}, context={})".format(*w)
                if w else "returned")
            for r, w in enumerate(transport.waits)))
    return results
