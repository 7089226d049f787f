"""Recurrent layers: the GRU used by the ARDS time-series case study.

The paper's model (Sec. IV-B): two GRU layers with 32 units each, dropout
0.2, kernel and recurrent regularisation, followed by a Dense(1) output;
MAE loss, ADAM with learning rate 1e-4.  :class:`GRU` implements the cuDNN
default GRU formulation (reset gate applied to the candidate's recurrent
term), which is the configuration Keras requires for cuDNN support — the
constraint the paper explicitly mentions.
"""

from __future__ import annotations

import numpy as np

from repro.ml.layers import Module, Parameter, xavier_init
from repro.ml.tensor import Tensor


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
        hsz = self.hidden_size
        gates_x = x @ self.W + self.b         # (N, 3h)
        gates_h = h_prev @ self.U             # (N, 3h)
        z = (gates_x[:, :hsz] + gates_h[:, :hsz]).sigmoid()
        r = (gates_x[:, hsz:2 * hsz] + gates_h[:, hsz:2 * hsz]).sigmoid()
        h_cand = (gates_x[:, 2 * hsz:] + r * gates_h[:, 2 * hsz:]).tanh()
        return z * h_prev + (1.0 - z) * h_cand


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
        h = Tensor(np.zeros((n, self.hidden_size)))
        outputs: list[Tensor] = []
        for step in range(t):
            h = self.cell(x[:, step, :], h)
            if self.return_sequences:
                outputs.append(h)
        if self.return_sequences:
            return Tensor.stack(outputs)
        return h
