"""Logistic regression over sparse binary features.

``Class(x) :- R(x, f) with weight = w(f)`` declares exactly this model
(paper Ex. 2.6): each object's log-odds is the sum of its features' tied
weights.  The incremental-learning study (App. B.3, Fig. 16) and the
concept-drift study (App. B.4, Fig. 17) compare training strategies —
SGD with/without warmstart and full gradient descent — on this model, so
the trainer records a per-epoch (time, loss) trace.

Features are held as a numpy CSR triple; matrix-vector products are
``np.bincount`` sums over its entries and a minibatch is a row gather.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.util.csr import csr_row_gather
from repro.util.rng import as_generator


@dataclass
class TrainingTrace:
    """Per-epoch (seconds, loss) pairs for one training run."""

    strategy: str
    times: list = field(default_factory=list)
    losses: list = field(default_factory=list)

    def record(self, elapsed: float, loss: float) -> None:
        self.times.append(elapsed)
        self.losses.append(loss)

    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("inf")

    def time_to_loss(self, target: float):
        """First recorded time at which loss ≤ target, or ``None``."""
        for t, loss in zip(self.times, self.losses):
            if loss <= target:
                return t
        return None


class _Entries(NamedTuple):
    """Rows of a feature matrix as flat entries, row after row: entry
    ``k`` is feature ``cols[k]`` with value ``vals[k]`` in row ``owner[k]``."""

    owner: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    num_rows: int

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``X @ w``, each row summed in CSR order."""
        return np.bincount(
            self.owner, weights=self.vals * w[self.cols], minlength=self.num_rows
        )

    def rmatvec(self, v: np.ndarray, num_cols: int) -> np.ndarray:
        """``Xᵀ @ v``, accumulated row by row."""
        return np.bincount(
            self.cols, weights=self.vals * v[self.owner], minlength=num_cols
        )


class _Features(NamedTuple):
    """A feature matrix in CSR form: row ``r`` has the features
    ``indices[indptr[r]:indptr[r + 1]]`` with values ``data[...]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    def rows(self, idx=None) -> _Entries:
        """The entries of rows ``idx`` (default: every row), in order."""
        if idx is None:
            idx = np.arange(self.num_rows)
        positions, owner = csr_row_gather(self.indptr, idx)
        return _Entries(owner, self.indices[positions], self.data[positions], len(idx))


def _as_features(features, num_features: int) -> _Features:
    """Accept a CSR-convertible matrix (anything with ``.tocsr()``) or a
    list of feature-index lists; out-of-range list entries are dropped."""
    if isinstance(features, _Features):
        return features
    if hasattr(features, "tocsr"):
        matrix = features.tocsr()
        if matrix.shape[1] != num_features:
            raise ValueError(
                f"feature matrix has {matrix.shape[1]} columns, "
                f"model has {num_features} features"
            )
        return _Features(
            np.asarray(matrix.indptr, dtype=np.int64),
            np.asarray(matrix.indices, dtype=np.int64),
            np.asarray(matrix.data, dtype=float),
        )
    lengths, indices = [], []
    for feats in features:
        kept = sorted(f for f in feats if 0 <= f < num_features)
        lengths.append(len(kept))
        indices.extend(kept)
    return _Features(
        np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        np.asarray(indices, dtype=np.int64),
        np.ones(len(indices)),
    )


class LogisticRegression:
    """Binary logistic regression with L2 regularization.

    Labels are {0, 1}.  The model keeps its weights between ``fit`` calls,
    which is what makes *warmstart* the default behaviour; pass
    ``warmstart=False`` to a fit method to re-initialise at zero first.
    """

    def __init__(self, num_features: int, l2: float = 1e-4, seed=None) -> None:
        self.num_features = num_features
        self.l2 = l2
        self.weights = np.zeros(num_features)
        self.bias = 0.0
        self.rng = as_generator(seed)

    # ------------------------------------------------------------------ #

    def decision_function(self, features) -> np.ndarray:
        x = _as_features(features, self.num_features)
        return x.rows().matvec(self.weights) + self.bias

    def predict_proba(self, features) -> np.ndarray:
        z = self.decision_function(features)
        return 1.0 / (1.0 + np.exp(-z))

    def predict(self, features, threshold: float = 0.5) -> np.ndarray:
        return self.predict_proba(features) >= threshold

    def loss(self, features, labels) -> float:
        """Mean logistic loss (without the L2 term, as plotted in Fig. 16)."""
        z = self.decision_function(features)
        y = np.asarray(labels, dtype=float)
        margins = np.where(y > 0.5, z, -z)
        return float(np.logaddexp(0.0, -margins).mean())

    def accuracy(self, features, labels) -> float:
        predictions = self.predict(features)
        return float((predictions == np.asarray(labels, dtype=bool)).mean())

    # ------------------------------------------------------------------ #

    def _reset(self) -> None:
        self.weights = np.zeros(self.num_features)
        self.bias = 0.0

    def fit_sgd(
        self,
        features,
        labels,
        epochs: int = 20,
        step_size: float = 0.1,
        batch_size: int = 32,
        warmstart: bool = True,
        eval_features=None,
        eval_labels=None,
        strategy_name=None,
        record_initial: bool = False,
    ) -> TrainingTrace:
        """Mini-batch SGD; returns a per-epoch trace.

        The trace's loss is evaluated on ``eval_*`` when given (test loss,
        as in Fig. 17), otherwise on the training data.
        ``record_initial`` adds a time-0 point before any training — the
        warmstart advantage is visible there.
        """
        if not warmstart:
            self._reset()
        x = _as_features(features, self.num_features)
        y = np.asarray(labels, dtype=float)
        n = x.num_rows
        trace = TrainingTrace(strategy_name or ("sgd+warm" if warmstart else "sgd-cold"))
        ex, ey = (eval_features, eval_labels) if eval_features is not None else (x, y)
        start = time.perf_counter()
        if record_initial:
            trace.record(0.0, self.loss(ex, ey))
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for lo in range(0, n, batch_size):
                idx = order[lo : lo + batch_size]
                xb = x.rows(idx)
                z = xb.matvec(self.weights) + self.bias
                p = 1.0 / (1.0 + np.exp(-z))
                err = p - y[idx]
                grad_w = (
                    xb.rmatvec(err, self.num_features) / len(idx)
                    + self.l2 * self.weights
                )
                grad_b = float(err.mean())
                self.weights -= step_size * grad_w
                self.bias -= step_size * grad_b
            trace.record(time.perf_counter() - start, self.loss(ex, ey))
        return trace

    def fit_gd(
        self,
        features,
        labels,
        epochs: int = 20,
        step_size: float = 0.5,
        warmstart: bool = True,
        eval_features=None,
        eval_labels=None,
        strategy_name=None,
    ) -> TrainingTrace:
        """Full-batch gradient descent (the "Gradient Descent + Warmstart"
        baseline of Fig. 16)."""
        if not warmstart:
            self._reset()
        x = _as_features(features, self.num_features)
        y = np.asarray(labels, dtype=float)
        n = x.num_rows
        xa = x.rows()
        trace = TrainingTrace(strategy_name or ("gd+warm" if warmstart else "gd-cold"))
        ex, ey = (eval_features, eval_labels) if eval_features is not None else (x, y)
        start = time.perf_counter()
        for _ in range(epochs):
            z = xa.matvec(self.weights) + self.bias
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            grad_w = xa.rmatvec(err, self.num_features) / n + self.l2 * self.weights
            grad_b = float(err.mean())
            self.weights -= step_size * grad_w
            self.bias -= step_size * grad_b
            trace.record(time.perf_counter() - start, self.loss(ex, ey))
        return trace
