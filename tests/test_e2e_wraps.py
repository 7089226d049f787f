"""The wall-clock benchmark's hooks are where it looks for them.

``benchmarks/e2e/layers.py:WRAPS`` names the callables a traced run
patches, each through ``owner.__dict__[attr]`` (``install``), so a rename
in ``src/`` fails the traced run only.  This reads ``WRAPS`` as a literal,
as ``test_reachability.py`` reads the benchmark's files, and checks every
entry against the code; then that a patched engine hook sees the calls.
"""

import ast
import importlib

import numpy as np
import pytest

from repro.ml import engine
from repro.ml.engine import cpu as engine_cpu
from repro.ml.tensor import Tensor
from tests.test_reachability import E2E


def _wraps() -> list[tuple]:
    for node in ast.parse((E2E / "layers.py").read_text()).body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "WRAPS":
            return ast.literal_eval(node.value)
    raise LookupError("benchmarks/e2e/layers.py defines no WRAPS")


@pytest.mark.parametrize("entry", _wraps(), ids=lambda e: f"{e[0]}:{e[1]}")
def test_every_wrapped_callable_is_defined_on_its_owner(entry):
    module_name, cls_name, attrs, _ = entry
    module = importlib.import_module(module_name)
    owner = vars(module)[cls_name] if cls_name else module
    assert [a for a in attrs if a not in vars(owner)] == []


@pytest.mark.parametrize("attr", ["realize", "schedule"])
def test_a_patched_engine_hook_sees_every_lazy_realize(monkeypatch, attr):
    """``LazyExpr.realize`` looks ``Device.realize`` up on the class, and
    ``Device.realize`` looks ``schedule`` up in its module, at call time:
    each runs once per realize."""
    owner = engine_cpu.Device if attr == "realize" else engine_cpu
    real, calls = vars(owner)[attr], []

    def counted(*args):
        calls.append(attr)
        return real(*args)

    monkeypatch.setattr(owner, attr, counted)
    with engine.engine("lazy"), engine.collect() as stats:
        x = Tensor(np.linspace(0.0, 1.0, 7))
        h = x * 3.0 + 1.0
        out = (h.tanh().sum()).numpy()
        h.numpy()                               # cached: no realize
        (h * 2.0).numpy()
    assert len(calls) == stats.realizes == 2
    assert out == np.tanh(np.linspace(0.0, 1.0, 7) * 3.0 + 1.0).sum()
