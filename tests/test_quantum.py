"""Quantum module: QUBO/Ising algebra (hypothesis roundtrips), device
topologies and budgets, the annealer, and the QSVM (E6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.quantum import (
    DWAVE_2000Q,
    DWAVE_ADVANTAGE,
    QSvmEnsemble,
    QuantumSVM,
    Qubo,
    SimulatedQuantumAnnealer,
)
from repro.quantum.annealer import EmbeddingError

rng = np.random.default_rng(0)

qmatrix = hnp.arrays(np.float64, (5, 5),
                     elements=st.floats(-3, 3, allow_nan=False))
assignment = hnp.arrays(np.int64, (5,), elements=st.integers(0, 1))


class TestQubo:
    def test_energy_manual(self):
        Q = np.array([[1.0, 2.0], [0.0, -1.0]])
        qubo = Qubo(Q)
        assert qubo.energy(np.array([1.0, 1.0])) == pytest.approx(2.0)
        assert qubo.energy(np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert qubo.energy(np.array([0.0, 0.0])) == 0.0

    def test_canonicalisation_folds_lower_triangle(self):
        a = Qubo(np.array([[0.0, 1.0], [1.0, 0.0]]))
        b = Qubo(np.array([[0.0, 2.0], [0.0, 0.0]]))
        x = np.array([1.0, 1.0])
        assert a.energy(x) == b.energy(x)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Qubo(np.ones((2, 3)))

    def test_non_binary_assignment_rejected(self):
        with pytest.raises(ValueError):
            Qubo(np.eye(2)).energy(np.array([0.5, 1.0]))

    def test_interactions_count(self):
        Q = np.zeros((3, 3))
        Q[0, 1] = 1.0
        Q[1, 2] = 1.0
        assert Qubo(Q).n_interactions == 2

    @given(Q=qmatrix, x=assignment)
    @settings(max_examples=100, deadline=None)
    def test_property_energy_deltas_match_flips(self, Q, x):
        qubo = Qubo(Q)
        x = x.astype(float)
        deltas = qubo.energy_deltas(x)
        for k in range(5):
            flipped = x.copy()
            flipped[k] = 1.0 - flipped[k]
            assert deltas[k] == pytest.approx(
                qubo.energy(flipped) - qubo.energy(x), abs=1e-9)


class TestTopology:
    def test_device_budgets_match_paper(self):
        assert DWAVE_2000Q.n_qubits == 2048
        assert DWAVE_ADVANTAGE.n_qubits == 5000
        assert DWAVE_ADVANTAGE.n_couplers == 35000

    def test_advantage_embeds_larger_cliques(self):
        assert DWAVE_ADVANTAGE.max_clique > 2 * DWAVE_2000Q.max_clique

    def test_clique_capacity_checks(self):
        assert DWAVE_2000Q.fits_dense_problem(64)
        assert not DWAVE_2000Q.fits_dense_problem(65)
        with pytest.raises(ValueError):
            DWAVE_2000Q.chain_length_for_clique(100)

    def test_chain_length_grows_with_problem(self):
        assert DWAVE_2000Q.chain_length_for_clique(64) > \
            DWAVE_2000Q.chain_length_for_clique(8)


class TestAnnealer:
    def _annealer(self, device=DWAVE_2000Q, sweeps=150):
        return SimulatedQuantumAnnealer.for_device(device, sweeps=sweeps)

    def test_finds_ground_state_of_small_problem(self):
        # E(x) = (x0 + x1 - 1)^2 + (x2 - 1)^2, minimum -2 at x0+x1=1, x2=1.
        Q = np.zeros((3, 3))
        Q[0, 0] = Q[1, 1] = Q[2, 2] = -1.0
        Q[0, 1] = 2.0
        result = self._annealer().sample(Qubo(Q), seed=1)
        best = result.samples[0]
        assert result.energies[0] == pytest.approx(-2.0)
        assert best[2] == 1.0
        assert best[0] + best[1] == 1.0

    def test_samples_sorted_by_energy(self):
        Q = rng.normal(size=(6, 6))
        result = self._annealer(sweeps=60).sample(Qubo(Q), seed=2)
        assert (np.diff(result.energies) >= -1e-12).all()

    def test_deterministic_given_seed(self):
        Q = rng.normal(size=(5, 5))
        a = self._annealer(sweeps=50).sample(Qubo(Q), seed=3)
        b = self._annealer(sweeps=50).sample(Qubo(Q), seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_lowest_returns_distinct(self):
        Q = np.diag([-1.0, 0.1, 0.1])
        result = self._annealer(sweeps=80).sample(Qubo(Q), seed=4)
        low = result.lowest(3)
        assert len({row.tobytes() for row in low}) == len(low)

    def test_dense_problem_beyond_clique_rejected(self):
        n = DWAVE_2000Q.max_clique + 4
        Q = rng.normal(size=(n, n))
        with pytest.raises(EmbeddingError):
            self._annealer().sample(Qubo(Q))

    def test_advantage_accepts_what_2000q_rejects(self):
        n = DWAVE_2000Q.max_clique + 4
        Q = rng.normal(size=(n, n))
        annealer = self._annealer(device=DWAVE_ADVANTAGE, sweeps=10)
        result = annealer.sample(Qubo(Q), seed=0)
        assert result.n_variables == n

    def test_sparse_problem_bounded_by_qubits(self):
        # Diagonal-only (no interactions): qubit budget applies, not clique.
        Q = np.diag(rng.normal(size=100))
        result = self._annealer(sweeps=5).sample(Qubo(Q), seed=0)
        assert result.chain_length == 1

    def test_chain_accounting(self):
        n = 20
        Q = rng.normal(size=(n, n))
        result = self._annealer(sweeps=5).sample(Qubo(Q), seed=0)
        assert result.physical_qubits == n * result.chain_length


class TestQsvm:
    def _data(self, n_per=12, seed=5):
        r = np.random.default_rng(seed)
        X = np.concatenate([r.normal(-1.2, 0.6, size=(n_per, 2)),
                            r.normal(1.2, 0.6, size=(n_per, 2))])
        y = np.array([-1.0] * n_per + [1.0] * n_per)
        return X, y

    def _qsvm(self, device=DWAVE_2000Q, **kw):
        annealer = SimulatedQuantumAnnealer.for_device(device, sweeps=80)
        defaults = dict(gamma=0.5, n_solutions=3)
        defaults.update(kw)
        return QuantumSVM(annealer, **defaults)

    def test_capacity_reflects_device_and_encoding(self):
        assert self._qsvm().max_training_samples() == 32          # 64 / 2 bits
        adv = self._qsvm(device=DWAVE_ADVANTAGE)
        assert adv.max_training_samples() == 90                   # 180 / 2

    def test_learns_separable_data(self):
        X, y = self._data()
        qsvm = self._qsvm().fit(X, y)
        predicted = np.where(qsvm.decision_function(X) >= 0, 1.0, -1.0)
        assert (predicted == y).mean() > 0.85

    def test_over_capacity_forces_subsampling(self):
        X = np.zeros((40, 2))
        y = np.array([-1.0, 1.0] * 20)
        with pytest.raises(EmbeddingError):
            self._qsvm().fit(X, y)

    def test_qubo_size_is_samples_times_bits(self):
        X, y = self._data(n_per=6)
        qubo = self._qsvm().build_qubo(X, y)
        assert qubo.n_variables == 12 * QuantumSVM.N_BITS

    def test_qubo_energy_matches_svm_objective(self):
        """E(a) must equal the encoded dual objective for random bits."""
        X, y = self._data(n_per=4)
        qsvm = self._qsvm()
        qubo = qsvm.build_qubo(X, y)
        from repro.svm.kernels import rbf_kernel

        K = rbf_kernel(X, X, gamma=0.5)
        r = np.random.default_rng(0)
        for _ in range(10):
            bits = r.integers(0, 2, size=qubo.n_variables).astype(float)
            alphas = qsvm._decode(bits, len(y))
            ref = (0.5 * np.einsum("i,j,ij->", alphas * y, alphas * y,
                                   K + 2.0 * qsvm.XI)
                   - alphas.sum())
            assert qubo.energy(bits) == pytest.approx(ref, abs=1e-9)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            self._qsvm().fit(np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            self._qsvm().decision_function(np.ones((2, 2)))


class TestQsvmEnsemble:
    def test_handles_data_beyond_device_capacity(self):
        r = np.random.default_rng(9)
        X = np.concatenate([r.normal(-1.2, 0.6, size=(60, 2)),
                            r.normal(1.2, 0.6, size=(60, 2))])
        y = np.array([-1.0] * 60 + [1.0] * 60)
        annealer = SimulatedQuantumAnnealer.for_device(DWAVE_2000Q, sweeps=60)
        ens = QSvmEnsemble(annealer, gamma=0.5, n_solutions=2).fit(X, y)
        assert len(ens.members_) == QSvmEnsemble.N_MEMBERS
        assert ens.score(X, y) > 0.8
        # Every member respected the device budget.
        for member in ens.members_:
            assert len(member.y_) <= member.max_training_samples()

    def test_validation(self):
        annealer = SimulatedQuantumAnnealer.for_device(DWAVE_2000Q)
        with pytest.raises(RuntimeError):
            QSvmEnsemble(annealer).predict(np.ones((2, 2)))
