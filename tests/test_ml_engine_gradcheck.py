"""Finite-difference gradcheck of every primitive op, both engines.

Satellite of the lazy-engine PR: central-difference gradients for the
whole primitive-op vocabulary (unary, binary, reduce, matmul, movement)
and for representative chains of them, each checked under ``ENGINE=eager``
and ``ENGINE=lazy``.  Analytic and numeric gradients must agree to 1e-6
— and because both engines run the same executors, the two modes'
*analytic* gradients must agree to the bit.
"""

from collections import Counter

import numpy as np
import pytest

from repro.ml import engine
from repro.ml.engine.cpu import schedule
from repro.ml.engine.ops import OPS
from repro.ml.tensor import Tensor

ATOL = 1e-6
MODES = ("eager", "lazy")


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        x[i] += eps
        fp = f()
        x[i] -= 2 * eps
        fm = f()
        x[i] += eps
        g[i] = (fp - fm) / (2 * eps)
    return g


def gradcheck(build, *arrays, mode: str, atol: float = ATOL):
    """Analytic vs central-difference gradients under ``mode``."""
    with engine.engine(mode):
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        build(*params).backward()

        def value():
            return float(build(*[Tensor(p.data) for p in params]).data)

        grads = []
        for p in params:
            ref = numeric_grad(value, p.data)
            np.testing.assert_allclose(p.grad, ref, atol=atol)
            grads.append(p.grad)
    return grads


def gradcheck_both(build, *arrays, atol: float = ATOL):
    """Run gradcheck in both modes and pin bitwise mode agreement."""
    eager = gradcheck(build, *arrays, mode="eager", atol=atol)
    lazy = gradcheck(build, *arrays, mode="lazy", atol=atol)
    for ge, gl in zip(eager, lazy):
        assert np.array_equal(
            np.ascontiguousarray(ge).view(np.uint64),
            np.ascontiguousarray(gl).view(np.uint64))


rng = np.random.default_rng(1234)


def away_from(x: np.ndarray, points, margin: float = 0.05) -> np.ndarray:
    """Nudge samples off non-differentiable points for finite differences."""
    for p in points:
        x[np.abs(x - p) < margin] = p + 4 * margin
    return x


PRIMITIVES = {
    # unary elementwise
    "neg": (lambda a: (-a).sum(), lambda: rng.normal(size=(3, 4))),
    "exp": (lambda a: a.exp().sum(), lambda: rng.uniform(-1, 1, (3, 4))),
    "log": (lambda a: a.log().sum(), lambda: rng.uniform(0.5, 2.0, (3, 4))),
    "tanh": (lambda a: a.tanh().sum(), lambda: rng.normal(size=(5,))),
    "sigmoid": (lambda a: a.sigmoid().sum(), lambda: rng.normal(size=(5,))),
    # 0-d: ufuncs hand back NumPy scalars, which no ``out=`` accepts
    "sigmoid_0d": (lambda a: a.sigmoid().sum(), lambda: np.array(0.3)),
    "relu": (lambda a: a.relu().sum(),
             lambda: away_from(rng.normal(size=(8,)), [0.0])),
    "abs": (lambda a: a.abs().sum(),
            lambda: away_from(rng.normal(size=(8,)), [0.0])),
    "pow": (lambda a: (a ** 3).sum(), lambda: rng.uniform(0.5, 1.5, (4,))),
    # binary elementwise (with broadcasting)
    "add": (lambda a: (a + a * 2.0).sum(), lambda: rng.normal(size=(3, 4))),
    "mul": (lambda a: (a * a).sum(), lambda: rng.normal(size=(3, 4))),
    "div": (lambda a: (a.tanh() / a).sum(), lambda: rng.uniform(0.5, 2.0, (4,))),
    "div_numerator": (lambda a: (a / 2.0).sum(), lambda: rng.normal(size=(4,))),
    # reduce
    "sum": (lambda a: (a.sum(axis=0) ** 2).sum(),
            lambda: rng.normal(size=(3, 4))),
    "sum_keepdims": (lambda a: (a.sum(axis=1, keepdims=True) * a).sum(),
                     lambda: rng.normal(size=(3, 4))),
    "max": (lambda a: a.max().sum(), lambda: rng.normal(size=(4, 5))),
    # matmul
    "matmul": (lambda a: ((a @ a) ** 2).sum(),
               lambda: rng.normal(size=(4, 4))),
    # movement
    "reshape": (lambda a: (a.reshape(2, 6) ** 2).sum(),
                lambda: rng.normal(size=(3, 4))),
    "transpose": (lambda a: (a.transpose(1, 0) @ a).sum(),
                  lambda: rng.normal(size=(3, 4))),
}


def op_of(name: str) -> str:
    """The ``OPS`` key a sweep entry exercises (``sum_keepdims`` -> ``sum``)."""
    return name.split("_")[0]


class TestPrimitiveOps:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_primitive_gradcheck_both_engines(self, name):
        build, make = PRIMITIVES[name]
        gradcheck_both(build, make())

    def test_sweep_covers_the_op_table(self):
        assert {op_of(name) for name in PRIMITIVES} == set(OPS)

    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_eager_runs_each_invocation_through_the_op_table(
            self, name, monkeypatch):
        """One forward definition: eager calls ``OPS[op].execute`` exactly
        once per primitive invocation (= per node lazy records)."""
        build, make = PRIMITIVES[name]
        x = make()
        with engine.engine("lazy"):
            recorded = Counter(
                node.op for node in schedule(build(Tensor(x))._lazy))
        assert recorded[op_of(name)] >= 1
        executed = Counter()
        for op, spec in OPS.items():
            def spy(args, kw, op=op, execute=spec.execute):
                executed[op] += 1
                return execute(args, kw)
            monkeypatch.setitem(OPS, op, spec._replace(execute=spy))
        with engine.engine("eager"):
            build(Tensor(x))
        assert executed == recorded


class TestBinaryBroadcast:
    @pytest.mark.parametrize("mode", MODES)
    def test_two_operand_broadcast(self, mode):
        gradcheck(lambda a, b: ((a + b) * (a / b)).sum(),
                  rng.normal(size=(3, 4)),
                  rng.uniform(1.0, 2.0, size=(4,)), mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_matmul_1d_operands(self, mode):
        gradcheck(lambda v, m: (v @ m).sum(),
                  rng.normal(size=(4,)), rng.normal(size=(4, 3)),
                  mode=mode)
        gradcheck(lambda m, v: (m @ v).sum(),
                  rng.normal(size=(3, 4)), rng.normal(size=(4,)),
                  mode=mode)
        gradcheck(lambda u, v: u @ v,
                  rng.normal(size=(5,)), rng.normal(size=(5,)), mode=mode)


class TestFusedChains:
    """Chains of primitives — elementwise runs, reduce epilogues, a
    diamond, movement inside a chain — through both engines."""

    def test_elementwise_chain(self):
        gradcheck_both(
            lambda a: ((a * 2.0 + 1.0).tanh().sigmoid()).sum(),
            rng.normal(size=(4, 4)))

    def test_elementwise_reduce_epilogue(self):
        gradcheck_both(
            lambda a: ((a * a + 1.0).log().sum(axis=1) ** 2).sum(),
            rng.normal(size=(3, 4)))

    def test_matmul_feeding_fused_chain(self):
        gradcheck_both(
            lambda a, b: ((a @ b + 0.5).relu() * 2.0).sum(),
            away_from(rng.normal(size=(3, 4)), [0.0]),
            rng.normal(size=(4, 2)) + 3.0)

    def test_diamond_reuse(self):
        def build(a):
            h = a * 2.0 + 1.0
            return (h.tanh() * h.sigmoid()).sum()

        gradcheck_both(build, rng.normal(size=(6,)))

    def test_movement_inside_chain(self):
        gradcheck_both(
            lambda a: ((a.transpose(1, 0).reshape(12) * 3.0).exp()).sum(),
            rng.uniform(-0.5, 0.5, (3, 4)))

    def test_softmax_like_composite(self):
        def build(a):
            shifted = a - a.max().detach()
            z = shifted.exp().sum(axis=1, keepdims=True).log()
            return ((shifted - z) * a).sum()

        gradcheck_both(build, rng.normal(size=(3, 5)))
