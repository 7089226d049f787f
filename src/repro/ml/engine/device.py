"""Device registry: pluggable backends for the lazy engine.

Backends register a *factory* under a name; instances are created on
first use so importing the engine never drags in backend-specific
dependency chains (the simulated-GPU backend pulls the hardware
catalogue and perf models of :mod:`repro.distributed.perfmodel`, which
itself imports the ML substrate — lazy construction is what keeps that
cycle open).

Built-ins:

* ``cpu`` — NumPy with a nominal deterministic cost model (the default),
* ``sim-gpu`` — NumPy execution, charged per fused kernel on the A100
  roofline of the booster nodes,
* ``sim-gpu:v100`` — same, on the V100 (DEEP-EST ESB generation).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Optional

from repro.ml.engine.cpu import CpuDevice, Device

_FACTORIES: dict[str, Callable[[], Device]] = {}
_INSTANCES: dict[str, Device] = {}
_lock = threading.Lock()
_current = "cpu"


def register_device(name: str, factory: Callable[[], Device]) -> None:
    """Register a backend factory (overwrites are allowed for tests)."""
    with _lock:
        _FACTORIES[name] = factory
        _INSTANCES.pop(name, None)


def _make_simgpu(gpu_name: str) -> Device:
    from repro.ml.engine.simgpu import SimGpuDevice
    return SimGpuDevice(gpu=gpu_name)


register_device("cpu", CpuDevice)
register_device("sim-gpu", lambda: _make_simgpu("A100"))
register_device("sim-gpu:v100", lambda: _make_simgpu("V100"))


def get_device(name: Optional[str] = None) -> Device:
    """The device instance for ``name`` (the current device when None)."""
    name = name or _current
    inst = _INSTANCES.get(name)
    if inst is None:
        with _lock:
            inst = _INSTANCES.get(name)
            if inst is None:
                if name not in _FACTORIES:
                    raise ValueError(
                        f"unknown device {name!r} (have {sorted(_FACTORIES)})")
                inst = _FACTORIES[name]()
                _INSTANCES[name] = inst
    return inst


def set_device(name: str) -> str:
    """Switch the device lazy graphs realize on; returns the old name."""
    global _current
    get_device(name)                     # validate + instantiate
    old = _current
    _current = name
    return old


@contextmanager
def use_device(name: str):
    """Scoped device switch: realize everything inside on ``name``."""
    old = set_device(name)
    try:
        yield get_device(name)
    finally:
        set_device(old)
