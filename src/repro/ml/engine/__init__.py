"""``repro.ml.engine`` — the lazy tensor engine behind the ML substrate.

A tinygrad-style execution layer under :class:`repro.ml.tensor.Tensor`:

* :mod:`~repro.ml.engine.ops` — the primitive-op set (unary/binary
  elementwise, reduce, matmul, movement),
* :mod:`~repro.ml.engine.graph` — :class:`LazyExpr`, the recorded graph,
* :mod:`~repro.ml.engine.cpu` — the one NumPy executor: a realize runs
  each pending node's executor once, in topological order, and caches
  its result,
* :mod:`~repro.ml.engine.stats` — alloc/kernel counters for the bench.

The mode switch
---------------

``ENGINE=eager`` (default) runs each op's executor when the op is applied;
``ENGINE=lazy`` records ops into a lazy graph and runs the same executors,
op by op, when bytes are demanded.  The environment variable
is read once at import; :func:`set_engine` and the :func:`engine`
context manager switch it at runtime, and :func:`engine_mode` returns
the current mode.  Both paths are bit-identical by
construction — pinned in ``tests/test_perf_regression_pins.py``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.ml.engine.graph import LazyExpr
from repro.ml.engine.stats import STATS, EngineStats, collect

MODES = ("eager", "lazy")


class _EngineState:
    """One mutable flag object; the Tensor hot path reads ``.lazy``."""

    __slots__ = ("lazy",)

    def __init__(self, lazy: bool) -> None:
        self.lazy = lazy


def _mode_from_env() -> str:
    raw = (os.environ.get("ENGINE") or "eager").strip().lower()
    if raw not in MODES:
        raise ValueError(
            f"ENGINE must be one of {MODES}, got {raw!r}")
    return raw


state = _EngineState(lazy=_mode_from_env() == "lazy")


def engine_mode() -> str:
    """The active execution mode: ``"eager"`` or ``"lazy"``."""
    return "lazy" if state.lazy else "eager"


def set_engine(mode: str) -> str:
    """Switch the execution mode; returns the previous mode."""
    if mode not in MODES:
        raise ValueError(f"engine mode must be one of {MODES}, got {mode!r}")
    old = engine_mode()
    state.lazy = mode == "lazy"
    return old


def set_device(name: str) -> None:
    """Check that ``name`` is ``"cpu"``, the one device lazy graphs run on."""
    if name != "cpu":
        raise ValueError(f"unknown device {name!r}: the engine runs on 'cpu'")


@contextmanager
def engine(mode: str):
    """Scoped engine switch: ``with engine("lazy"): ...``"""
    old = set_engine(mode)
    try:
        yield
    finally:
        set_engine(old)


__all__ = [
    "LazyExpr",
    "EngineStats",
    "MODES",
    "STATS",
    "collect",
    "engine",
    "engine_mode",
    "set_device",
    "set_engine",
]
