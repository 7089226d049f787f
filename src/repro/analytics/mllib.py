"""MLlib-like algorithms on the mini-Spark RDD engine.

The paper's DAM analytics footnote points at Spark MLlib's
classification/regression stack ("robust classifiers often used", naming
the random forest).  Provided here:

* :class:`RddLogisticRegression` — binary logistic regression whose
  gradient is computed with ``treeAggregate`` over partitions (MLlib's
  exact execution pattern),
* :class:`DecisionTree` / :class:`RandomForest` — CART trees with Gini
  impurity; the forest trains its trees partition-parallel on bootstrap
  samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analytics.rdd import MiniSparkContext, RDD

#: Gradient-descent step, L2 penalty and step count of
#: :class:`RddLogisticRegression`.
LOGREG_LR, LOGREG_L2, LOGREG_ITERATIONS = 0.5, 1e-4, 30
#: Smallest node a :class:`DecisionTree` still splits, and its depth limit.
MIN_SAMPLES_SPLIT, MAX_DEPTH = 4, 5
#: Trees in a :class:`RandomForest`.
N_TREES = 10

# ---------------------------------------------------------------------------
# logistic regression (treeAggregate gradients)
# ---------------------------------------------------------------------------

class RddLogisticRegression:
    """Binary logistic regression over (x, y) row RDDs, y ∈ {0, 1}."""

    def __init__(self, n_features: int) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.n_features = n_features
        self.weights = np.zeros(n_features)
        self.bias = 0.0
        self.loss_history: list[float] = []

    @staticmethod
    def _sigmoid(z: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))

    def fit(self, rows: RDD) -> "RddLogisticRegression":
        n_total = rows.count()
        if n_total == 0:
            raise ValueError("empty training RDD")
        for _ in range(LOGREG_ITERATIONS):
            w, b = self.weights, self.bias

            def seq_op(acc, row):
                gw, gb, loss, n = acc
                x, y = row
                p = float(self._sigmoid(np.dot(w, x) + b))
                err = p - y
                gw = gw + err * np.asarray(x)
                gb += err
                eps = 1e-12
                loss += -(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
                return (gw, gb, loss, n + 1)

            def comb_op(a, c):
                return (a[0] + c[0], a[1] + c[1], a[2] + c[2], a[3] + c[3])

            zero = (np.zeros(self.n_features), 0.0, 0.0, 0)
            gw, gb, loss, n = rows.tree_aggregate(zero, seq_op, comb_op)
            gw = gw / n + LOGREG_L2 * self.weights
            gb /= n
            self.weights = self.weights - LOGREG_LR * gw
            self.bias = self.bias - LOGREG_LR * gb
            self.loss_history.append(loss / n)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self._sigmoid(np.asarray(X) @ self.weights + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(X) == np.asarray(y)).mean())


# ---------------------------------------------------------------------------
# decision tree + random forest
# ---------------------------------------------------------------------------

@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None
    prediction: int = 0
    is_leaf: bool = False


class DecisionTree:
    """CART classifier with Gini impurity and depth/size limits; each split
    considers a random ⌊√d⌋ of the d features, as a forest's trees do."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.root: Optional[_TreeNode] = None
        self.n_classes_: int = 0

    @staticmethod
    def _gini(counts: np.ndarray) -> float:
        p = counts / counts.sum()
        return float(1.0 - (p ** 2).sum())

    def _best_split(self, X: np.ndarray, y: np.ndarray,
                    rng: np.random.Generator) -> Optional[tuple[int, float, float]]:
        n, d = X.shape
        features = np.arange(d)
        k = max(1, int(np.sqrt(d)))
        if k < d:
            features = rng.choice(d, size=k, replace=False)
        parent_counts = np.bincount(y, minlength=self.n_classes_)
        parent_gini = self._gini(parent_counts)
        best = None
        best_gain = 1e-9
        for f in features:
            order = np.argsort(X[:, f], kind="stable")
            xs, ys = X[order, f], y[order]
            left = np.zeros(self.n_classes_, dtype=np.int64)
            right = parent_counts.copy()
            for i in range(n - 1):
                left[ys[i]] += 1
                right[ys[i]] -= 1
                if xs[i] == xs[i + 1]:
                    continue
                nl, nr = i + 1, n - i - 1
                gain = parent_gini - (
                    nl * self._gini(left) + nr * self._gini(right)
                ) / n
                if gain > best_gain:
                    best_gain = gain
                    best = (int(f), float(0.5 * (xs[i] + xs[i + 1])), gain)
        return best

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int,
              rng: np.random.Generator) -> _TreeNode:
        counts = np.bincount(y, minlength=self.n_classes_)
        majority = int(counts.argmax())
        if (depth >= MAX_DEPTH or len(y) < MIN_SAMPLES_SPLIT
                or counts.max() == len(y)):
            return _TreeNode(prediction=majority, is_leaf=True)
        split = self._best_split(X, y, rng)
        if split is None:
            return _TreeNode(prediction=majority, is_leaf=True)
        f, thr, _ = split
        mask = X[:, f] <= thr
        node = _TreeNode(feature=f, threshold=thr)
        node.left = self._grow(X[mask], y[mask], depth + 1, rng)
        node.right = self._grow(X[~mask], y[~mask], depth + 1, rng)
        node.prediction = majority
        return node

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if len(X) == 0:
            raise ValueError("empty training set")
        self.n_classes_ = int(y.max()) + 1
        rng = np.random.default_rng(self.seed)
        self.root = self._grow(X, y, 0, rng)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise RuntimeError("fit before predicting")
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.int64)
        for i, x in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if x[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out


class RandomForest:
    """Bagged CART trees; training parallelises over RDD partitions."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.trees_: list[DecisionTree] = []

    def fit(self, X: np.ndarray, y: np.ndarray,
            ctx: Optional[MiniSparkContext] = None) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        n = X.shape[0]

        def train_one(tree_idx: int) -> DecisionTree:
            rng = np.random.default_rng(self.seed + tree_idx)
            boot = rng.integers(0, n, size=n)
            tree = DecisionTree(seed=self.seed + tree_idx)
            tree.fit(X[boot], y[boot])
            return tree

        if ctx is not None:
            # Distribute tree indices over the RDD engine's partitions —
            # MLlib's embarrassingly-parallel forest pattern.
            rdd = ctx.parallelize(range(N_TREES), name="forest-trees")
            self.trees_ = rdd.map(train_one).collect()
        else:
            self.trees_ = [train_one(i) for i in range(N_TREES)]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_:
            raise RuntimeError("fit before predicting")
        votes = np.stack([t.predict(X) for t in self.trees_], axis=1)
        n_classes = max(t.n_classes_ for t in self.trees_)
        out = np.empty(len(X), dtype=np.int64)
        for i in range(len(X)):
            out[i] = np.bincount(votes[i], minlength=n_classes).argmax()
        return out

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return float((self.predict(X) == np.asarray(y)).mean())
