"""SVM stack: kernels, SMO and the MPI cascade (E4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import run_spmd
from repro.svm import CascadeSVM, SVC, cascade_train, rbf_kernel
from repro.svm.cascade import serial_train

rng = np.random.default_rng(0)


def blobs(n_per_class=60, gap=1.5, seed=0):
    r = np.random.default_rng(seed)
    X = np.concatenate([r.normal(-gap, 0.8, size=(n_per_class, 2)),
                        r.normal(gap, 0.8, size=(n_per_class, 2))])
    y = np.array([-1.0] * n_per_class + [1.0] * n_per_class)
    perm = r.permutation(len(y))
    return X[perm], y[perm]


class TestKernels:
    def test_rbf_diagonal_is_one(self):
        A = rng.normal(size=(5, 3))
        K = rbf_kernel(A, A, gamma=0.7)
        np.testing.assert_allclose(np.diag(K), 1.0)

    def test_rbf_decays_with_distance(self):
        a = np.array([[0.0, 0.0]])
        near = np.array([[0.1, 0.0]])
        far = np.array([[5.0, 0.0]])
        assert rbf_kernel(a, near)[0, 0] > rbf_kernel(a, far)[0, 0]

    def test_rbf_symmetric_psd(self):
        A = rng.normal(size=(10, 3))
        K = rbf_kernel(A, A, gamma=0.5)
        np.testing.assert_allclose(K, K.T)
        eigs = np.linalg.eigvalsh(K)
        assert eigs.min() > -1e-9

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_property_rbf_bounded(self, n):
        A = np.random.default_rng(n).normal(size=(n, 3))
        K = rbf_kernel(A, A, gamma=1.0)
        assert (K <= 1.0 + 1e-12).all() and (K >= 0.0).all()


class TestSVC:
    def test_separable_blobs(self):
        X, y = blobs()
        svc = SVC(gamma=0.5).fit(X, y)
        assert svc.score(X, y) > 0.95

    def test_sparse_support_vectors(self):
        X, y = blobs(gap=3.0)
        svc = SVC(gamma=0.5).fit(X, y)
        assert svc.support_vectors_.shape[0] < len(X) / 2

    def test_decision_function_sign_matches_predict(self):
        X, y = blobs()
        svc = SVC(gamma=0.5).fit(X, y)
        scores = svc.decision_function(X)
        np.testing.assert_array_equal(np.sign(scores) >= 0,
                                      svc.predict(X) > 0)

    def test_nonlinear_problem_needs_rbf(self):
        # Concentric circles: no line separates them, the RBF kernel does.
        r = np.random.default_rng(1)
        theta = r.uniform(0, 2 * np.pi, 120)
        radius = np.concatenate([np.full(60, 1.0), np.full(60, 3.0)])
        X = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
        X += r.normal(0, 0.1, X.shape)
        y = np.array([-1.0] * 60 + [1.0] * 60)
        rbf = SVC(gamma=1.0).fit(X, y)
        assert rbf.score(X, y) > 0.95

    def test_label_validation(self):
        with pytest.raises(ValueError):
            SVC().fit(np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            SVC().fit(np.ones((4, 2)), np.array([1.0, 1.0, 1.0, 1.0]))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            SVC().predict(np.ones((2, 2)))

    def test_clone_unfitted(self):
        svc = SVC(gamma=0.3, seed=2)
        clone = svc.clone_unfitted()
        assert (clone.gamma, clone.seed) == (0.3, 2)
        assert clone.support_vectors_ is None

    def test_deterministic(self):
        X, y = blobs()
        a = SVC(gamma=0.5, seed=1).fit(X, y)
        b = SVC(gamma=0.5, seed=1).fit(X, y)
        np.testing.assert_array_equal(a.decision_function(X),
                                      b.decision_function(X))


class TestCascade:
    def test_accuracy_matches_serial(self):
        X, y = blobs(n_per_class=150, seed=4)
        serial_machine, _ = serial_train(X, y, SVC(gamma=0.5))

        def fn(comm):
            shard = np.arange(comm.rank, len(y), comm.size)
            return cascade_train(comm, X[shard], y[shard], SVC(gamma=0.5))

        result = run_spmd(fn, 4)[0]
        assert isinstance(result, CascadeSVM)
        assert result.score(X, y) >= serial_machine.score(X, y) - 0.03

    def test_non_root_ranks_return_none(self):
        X, y = blobs(n_per_class=40)

        def fn(comm):
            shard = np.arange(comm.rank, len(y), comm.size)
            return cascade_train(comm, X[shard], y[shard], SVC(gamma=0.5))

        out = run_spmd(fn, 4)
        assert out[0] is not None
        assert all(o is None for o in out[1:])

    @pytest.mark.parametrize("ws", [1, 2, 3, 4, 5])
    def test_works_at_any_world_size(self, ws):
        X, y = blobs(n_per_class=50, seed=5)

        def fn(comm):
            shard = np.arange(comm.rank, len(y), comm.size)
            return cascade_train(comm, X[shard], y[shard], SVC(gamma=0.5))

        result = run_spmd(fn, ws)[0]
        assert result.score(X, y) > 0.9

    def test_levels_are_log2(self):
        X, y = blobs(n_per_class=40)

        def fn(comm):
            shard = np.arange(comm.rank, len(y), comm.size)
            return cascade_train(comm, X[shard], y[shard], SVC(gamma=0.5))

        assert run_spmd(fn, 4)[0].n_levels == 2
        assert run_spmd(fn, 8)[0].n_levels == 3

    def test_exchanges_only_support_vectors(self):
        X, y = blobs(n_per_class=150, gap=3.0, seed=6)

        def fn(comm):
            shard = np.arange(comm.rank, len(y), comm.size)
            return cascade_train(comm, X[shard], y[shard], SVC(gamma=0.5))

        result = run_spmd(fn, 4)[0]
        # Far fewer vectors travel than raw data rows.
        assert result.total_sv_exchanged < len(y) / 2

    def test_local_times_gathered(self):
        X, y = blobs(n_per_class=30)

        def fn(comm):
            shard = np.arange(comm.rank, len(y), comm.size)
            return cascade_train(comm, X[shard], y[shard], SVC(gamma=0.5))

        result = run_spmd(fn, 4)[0]
        assert len(result.local_times) == 4
        assert all(t > 0 for t in result.local_times)
        # Modeled work on the sim clock, not host time: a rerun agrees exactly.
        assert run_spmd(fn, 4)[0].local_times == result.local_times
