"""Variational materialization: log-determinant relaxation (§3.2.3, Alg. 1).

Materialization learns a *sparser* factor graph approximating the
original distribution: estimate the (spin) covariance from Gibbs
samples on the ``NZ`` set (pairs that co-occur in some factor), then
solve

    max  log det X
    s.t. X_kk = M_kk + 1/3,   |X_kj − M_kj| ≤ λ,   X_kj = 0 off NZ

by projected gradient ascent with a Cholesky-guarded backtracking step.
The constraints make ``X`` block-diagonal over the connected components
of ``NZ``, so the solve runs per component: a singleton is
``M_kk + 1/3`` in closed form and the larger components are stacked by
size into ``(k, b, b)`` blocks that share one global step, backtracking
and stopping rule.  The solve costs ``Σ_c b_c³`` and the stored
precision is its diagonal plus one value per ``NZ`` pair,
``O(n + |NZ|)``; no ``n × n`` array is built.
λ controls the sparsity of the approximation (Fig. 6).  Each non-zero
off-diagonal becomes a pairwise (Ising) factor with weight ``X̂_ij``;
unary bias factors are calibrated mean-field-style so the approximate
graph reproduces the materialized marginals (the paper leaves the unary
treatment unspecified — see DESIGN.md).

The inference phase splices updates into the approximated graph in
*energy space*: new factors are added as-is, removed factors are added
back with negated weights, reweighted factors as shifted copies — so the
spliced graph's energy tracks ``W_approx + δW`` exactly.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from repro.graph.delta import FactorGraphDelta
from repro.graph.delta_energy import DeltaEvaluator
from repro.graph.factor_graph import FactorGraph
from repro.util.rng import as_generator

#: Pair-covariance chunking: at most this many sample cells per gather.
_COV_CHUNK_CELLS = 1 << 20


def nz_components(num_vars: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Label the connected components of the ``NZ`` graph.

    Min-label propagation with root hooking and pointer jumping; returns
    one label in ``0..C-1`` per variable.  No pairs, no work.
    """
    labels = np.arange(num_vars)
    if len(rows) == 0:
        return labels
    while True:
        left, right = labels[rows], labels[cols]
        low = np.minimum(left, right)
        hooked = labels.copy()
        for ends in (rows, cols, left, right):
            np.minimum.at(hooked, ends, low)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = hooked


@dataclass
class _Stack:
    """All ``NZ`` components of one size ``b``, stacked ``(k, b, b)``."""

    diag: np.ndarray  # (k, b, b) diagonal matrices of M_kk + 1/3
    mask: np.ndarray  # (k, b, b) off-diagonal NZ entries
    lower: np.ndarray
    upper: np.ndarray
    pair_at: tuple  # (slot, a, b) block coordinates of each pair
    pair_ids: np.ndarray  # which input pairs live in this stack

    def project(self, x: np.ndarray) -> np.ndarray:
        out = np.clip(x, self.lower, self.upper) * self.mask + self.diag
        return (out + out.transpose(0, 2, 1)) / 2.0


def _stacks(diag, rows, cols, cov, lam) -> list:
    """Group the non-singleton ``NZ`` components into per-size stacks."""
    labels = nz_components(len(diag), rows, cols)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    offsets = np.cumsum(sizes) - sizes
    local = np.empty(len(diag), dtype=np.int64)
    local[order] = np.arange(len(diag)) - offsets[labels[order]]
    slot = np.empty(len(sizes), dtype=np.int64)
    pair_size = sizes[labels[rows]]
    stacks = []
    for b in np.unique(sizes[sizes > 1]):
        comps = np.flatnonzero(sizes == b)
        slot[comps] = np.arange(len(comps))
        members = order[offsets[comps][:, None] + np.arange(b)]
        ids = np.flatnonzero(pair_size == b)
        k, a, c = slot[labels[rows[ids]]], local[rows[ids]], local[cols[ids]]
        shape = (len(comps), b, b)
        mask = np.zeros(shape, dtype=bool)
        mask[k, a, c] = mask[k, c, a] = True
        m = np.zeros(shape)
        m[k, a, c] = m[k, c, a] = cov[ids]
        d = np.zeros(shape)
        d[:, np.arange(b), np.arange(b)] = diag[members]
        stacks.append(
            _Stack(d, mask, (m - lam) * mask, (m + lam) * mask, (k, a, c), ids)
        )
    return stacks


def _all_positive_definite(blocks) -> bool:
    try:
        for block in blocks:
            np.linalg.cholesky(block)
        return True
    except np.linalg.LinAlgError:
        return False


def solve_logdet(
    diag: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    cov: np.ndarray,
    lam: float,
    max_iter: int = 40,
    tol: float = 1e-5,
    step: float = 0.25,
) -> tuple:
    """Algorithm 1's optimization step (line 4), one block per component.

    ``diag`` is the covariance diagonal with the ``+1/3`` boost already
    applied; ``rows``/``cols`` are the ``NZ`` pairs and ``cov`` their
    covariances.  Returns ``X`` as ``(diagonal, pair values)``, the pair
    values in the order of ``rows``/``cols``; ``X`` is zero elsewhere.
    """
    diag = np.asarray(diag, dtype=float)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    cov = np.asarray(cov, dtype=float)
    if not (len(rows) == len(cols) == len(cov)):
        raise ValueError("rows, cols and cov must have one entry per pair")
    if (diag <= 0).any():
        raise ValueError("boosted diagonal must be positive")
    stacks = _stacks(diag, rows, cols, cov, lam)
    x = [s.project(s.diag) for s in stacks]
    if not _all_positive_definite(x):
        # Fall back to the always-feasible diagonal start.
        x = [s.diag for s in stacks]
    for _ in range(max_iter if stacks else 0):
        gradient = [np.linalg.inv(block) for block in x]
        alpha = step
        candidate = x
        while alpha > 1e-9:
            trial = [
                s.project(block + alpha * g)
                for s, block, g in zip(stacks, x, gradient)
            ]
            if _all_positive_definite(trial):
                candidate = trial
                break
            alpha /= 2.0
        change = max(np.abs(c - block).max() for c, block in zip(candidate, x))
        x = candidate
        if change < tol:
            break
    values = np.empty(len(rows))
    for s, block in zip(stacks, x):
        values[s.pair_ids] = block[s.pair_at]
    return diag, values


def _pair_covariance(samples, means, rows, cols) -> np.ndarray:
    """Spin covariance of each ``NZ`` pair, gathered in bounded chunks."""
    count = max(len(samples), 1)
    chunk = max(1, _COV_CHUNK_CELLS // count)
    cov = np.empty(len(rows))
    for start in range(0, len(rows), chunk):
        r, c = rows[start : start + chunk], cols[start : start + chunk]
        left = np.where(samples[:, r], 1.0, -1.0) - means[r]
        right = np.where(samples[:, c], 1.0, -1.0) - means[c]
        cov[start : start + chunk] = np.einsum("si,si->i", left, right) / count
    return cov


@dataclass
class VariationalApproximation:
    """Output of Algorithm 1 plus bookkeeping.

    The learned precision ``X`` is symmetric and zero off the diagonal
    and the ``NZ`` set: ``precision_diag`` holds its diagonal and
    ``pair_values[k]`` its entry at ``(pair_rows[k], pair_cols[k])``.
    """

    graph: FactorGraph
    means: np.ndarray
    precision_diag: np.ndarray
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    pair_values: np.ndarray
    lam: float
    candidate_pairs: int
    kept_pairs: int

    @property
    def sparsity(self) -> float:
        """Kept fraction of candidate pairwise factors."""
        if self.candidate_pairs == 0:
            return 0.0
        return self.kept_pairs / self.candidate_pairs


def learn_approximation(
    graph: FactorGraph,
    lam: float,
    num_samples: int = 300,
    samples: np.ndarray | None = None,
    seed=None,
    max_iter: int = 40,
    weight_threshold: float = 1e-8,
) -> VariationalApproximation:
    """Algorithm 1: original graph → sparse pairwise approximation."""
    from repro.core.sampling import make_sampler

    rng = as_generator(seed)
    if samples is None:
        sampler = make_sampler(graph, seed=rng)
        samples = sampler.sample_worlds(num_samples, burn_in=20)
    samples = np.asarray(samples, dtype=bool)
    n = graph.num_vars
    # Spins are ±1, so the mean is exact from counts and the variance is
    # 1 − mean²; only the NZ pairs need a pass over the samples.
    means = (2.0 * samples.sum(axis=0) - len(samples)) / max(len(samples), 1)
    pairs = np.array(list(graph.neighbor_pairs()), dtype=np.int64).reshape(-1, 2)
    rows, cols = pairs[:, 0], pairs[:, 1]
    cov = _pair_covariance(samples, means, rows, cols)

    precision_diag, values = solve_logdet(
        1.0 - means * means + 1.0 / 3.0, rows, cols, cov, lam, max_iter=max_iter
    )

    approx = FactorGraph()
    approx.add_named_variables([graph.name_of(v) for v in range(n)])
    for var, value in graph.evidence.items():
        approx.set_evidence(var, value)

    # Couplings in (lo, hi) row-major order.
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    order = np.lexsort((hi, lo))
    order = order[np.abs(values[order]) > weight_threshold]
    ki, kj, kw = lo[order], hi[order], values[order]
    for i, j, w in zip(ki.tolist(), kj.tolist(), kw.tolist()):
        wid = approx.weights.intern(("J", i, j), initial=w, fixed=True)
        approx.add_ising_factor(wid, i, j)
    # Mean-field bias calibration: anchor each variable's marginal.
    field = np.bincount(ki, kw * means[kj], minlength=n) + np.bincount(
        kj, kw * means[ki], minlength=n
    )
    safe_means = np.clip(means, -0.999999, 0.999999)
    biases = np.arctanh(safe_means) - field
    for v in range(n):
        if graph.is_evidence(v):
            continue
        wid = approx.weights.intern(("h", v), initial=float(biases[v]), fixed=True)
        approx.add_bias_factor(wid, v)

    return VariationalApproximation(
        graph=approx,
        means=means,
        precision_diag=precision_diag,
        pair_rows=rows,
        pair_cols=cols,
        pair_values=values,
        lam=lam,
        candidate_pairs=len(rows),
        kept_pairs=len(ki),
    )


class VariationalMaterialization:
    """Owns an evolving approximated graph and answers updated queries."""

    def __init__(self, graph: FactorGraph, lam: float = 0.05, seed=None) -> None:
        self.base_graph = graph
        self.lam = lam
        self.rng = as_generator(seed)
        self.approximation: VariationalApproximation | None = None
        self.current: FactorGraph | None = None
        self.materialization_seconds = 0.0
        self._splice_counter = 0

    # ------------------------------------------------------------------ #

    def materialize(
        self, num_samples: int = 300, samples: np.ndarray | None = None
    ) -> VariationalApproximation:
        start = time.perf_counter()
        self.approximation = learn_approximation(
            self.base_graph,
            self.lam,
            num_samples=num_samples,
            samples=samples,
            seed=self.rng,
        )
        self.current = self.approximation.graph
        self.materialization_seconds = time.perf_counter() - start
        return self.approximation

    @property
    def num_factors(self) -> int:
        return self.current.num_factors if self.current is not None else 0

    # ------------------------------------------------------------------ #

    def apply_update(self, base_for_delta: FactorGraph, delta: FactorGraphDelta) -> None:
        """Splice ``delta`` (relative to ``base_for_delta``) into the
        approximated graph, preserving the update's energy difference."""
        if self.current is None:
            raise RuntimeError("materialize() before apply_update()")
        evaluator = DeltaEvaluator(base_for_delta, delta)
        updated = self.current.copy()

        for offset in range(delta.num_new_vars):
            names = delta.new_var_names
            name = names[offset] if offset < len(names) else None
            vid = updated.add_variable(name=name)
            if offset in delta.new_var_evidence:
                updated.set_evidence(vid, delta.new_var_evidence[offset])
        for var, value in delta.evidence_updates.items():
            if value is None:
                updated.clear_evidence(var)
            else:
                updated.set_evidence(var, value)

        for factor in delta.new_factors:
            key = evaluator.new_weights.key_for(factor.weight_id)
            value = evaluator.new_weights.value(factor.weight_id)
            fixed = evaluator.new_weights.is_fixed(factor.weight_id)
            wid = updated.weights.intern(key, initial=value, fixed=fixed)
            updated.factors.append(dataclasses.replace(factor, weight_id=wid))
        for factor in evaluator.removed_factors:
            self._splice_counter += 1
            wid = updated.weights.intern(
                ("spliced-removal", self._splice_counter),
                initial=-evaluator.old_weights.value(factor.weight_id),
                fixed=True,
            )
            updated.factors.append(dataclasses.replace(factor, weight_id=wid))
        for factor, shift in evaluator.reweighted:
            self._splice_counter += 1
            wid = updated.weights.intern(
                ("spliced-reweight", self._splice_counter),
                initial=shift,
                fixed=True,
            )
            updated.factors.append(dataclasses.replace(factor, weight_id=wid))

        updated.validate()
        self.current = updated

    def infer(self, num_samples: int = 200, burn_in: int = 20) -> np.ndarray:
        """Marginals of the (updated) approximated graph."""
        from repro.core.sampling import make_sampler

        if self.current is None:
            raise RuntimeError("materialize() before infer()")
        sampler = make_sampler(self.current, seed=self.rng)
        marginals = sampler.estimate_marginals(num_samples, burn_in=burn_in)
        for var, value in self.current.evidence.items():
            marginals[var] = 1.0 if value else 0.0
        return marginals
