"""Recurrent layers: the GRU used by the ARDS time-series case study.

The paper's model (Sec. IV-B): two GRU layers with 32 units each, dropout
0.2, kernel and recurrent regularisation, then a Dense(1) output; MAE loss,
ADAM at learning rate 1e-4.  :class:`GRU` uses the cuDNN default GRU
formulation (reset gate on the candidate's recurrent term), which Keras
requires for cuDNN support, as the paper notes.  As in cuDNN, the cell is
one fused kernel: a :class:`GRUCell` step is a single autograd node (a
boundary op for the lazy engine) whose backward yields all five gradients.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Module, Parameter, xavier_init
from repro.ml.engine.ops import OPS
from repro.ml.tensor import Tensor, _node


class GRUCell(Module):
    """A single GRU step.

    Gates (cuDNN/Keras `reset_after` convention):

    .. math::
        z_t = σ(x_t W_z + h_{t-1} U_z + b_z) \\
        r_t = σ(x_t W_r + h_{t-1} U_r + b_r) \\
        \\tilde h_t = tanh(x_t W_h + r_t ⊙ (h_{t-1} U_h) + b_h) \\
        h_t = z_t ⊙ h_{t-1} + (1 - z_t) ⊙ \\tilde h_t
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        h, d = hidden_size, input_size
        self.W = Parameter(xavier_init(rng, (d, 3 * h), d, h))   # input kernel
        self.U = Parameter(xavier_init(rng, (h, 3 * h), h, h))   # recurrent kernel
        self.b = Parameter(np.zeros(3 * h))

    def forward(self, x: Tensor, h_prev: Tensor) -> Tensor:
        """One node: the per-op graph's ufuncs, in its order (same bits)."""
        h, W, U, b = self.hidden_size, self.W, self.U, self.b
        xd, hd, wd, ud = x.data, h_prev.data, W.data, U.data
        gx, gh = xd @ wd + b.data, hd @ ud              # (N, 3h) each
        zr = OPS["sigmoid"].execute([gx[:, :2 * h] + gh[:, :2 * h]], {})
        z, r, gh_n = zr[:, :h], zr[:, h:], gh[:, 2 * h:]
        h_cand = np.tanh(gx[:, 2 * h:] + r * gh_n)
        keep = 1.0 - z                  # the bits of 1 + (-z), IEEE 754

        def backward(out) -> None:
            g = out.grad
            g_n = (g * keep) * (1.0 - h_cand ** 2)          # tanh's input
            g_zr = np.concatenate((g * hd + -(g * h_cand), g_n * gh_n), 1)
            g_zr = (g_zr * zr) * (1.0 - zr)                 # the sigmoids'
            # Cast per block, then + 0.0 (-0.0 -> +0.0), as adding into zeros.
            ggx = np.concatenate((g_zr, g_n), 1, dtype=gx.dtype) + 0.0
            ggh = np.concatenate((g_zr, g_n * r), 1, dtype=gh.dtype) + 0.0
            b._accumulate(ggx.sum(axis=0), fresh=True)
            W._accumulate(xd.T @ ggx, fresh=True)
            U._accumulate(hd.T @ ggh, fresh=True)
            if x.requires_grad:
                x._accumulate(ggx @ wd.T, fresh=True)
            if h_prev.requires_grad:
                h_prev._accumulate(g * z, fresh=True)
                h_prev._accumulate(ggh @ ud.T, fresh=True)

        return _node(z * hd + keep * h_cand, (x, h_prev, W, U, b), backward)


class GRU(Module):
    """A full GRU layer over (N, T, D) sequences.

    ``return_sequences=True`` yields (N, T, H); otherwise the last hidden
    state (N, H) — matching Keras semantics so the paper's 2-layer stack
    translates directly.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 return_sequences: bool = False, *,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences

    def forward(self, x: Tensor) -> Tensor:
        n, t, _ = x.shape
        h = Tensor(np.zeros((n, self.hidden_size), dtype=x.dtype))
        outputs: list[Tensor] = []
        for step in range(t):
            h = self.cell(x[:, step, :], h)
            outputs.append(h)
        return Tensor.stack(outputs) if self.return_sequences else h
