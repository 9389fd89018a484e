"""The library's numpy code against the scipy/networkx code it replaced.

The library and the service run on numpy alone.  scipy and networkx
remain as test oracles: each numpy replacement is checked here against
the scipy or networkx formulation it replaced.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import logsumexp as scipy_logsumexp

from repro.core import VariableGroup, decompose, merge_groups
from repro.graph import FactorGraph, Semantics
from repro.inference import ChromaticGibbsSampler
from repro.inference.exact import logsumexp
from repro.learning import LogisticRegression
from repro.util.rng import as_generator


# --------------------------------------------------------------------- #
# Chromatic Gibbs: bincount local fields vs a scipy CSR coupling matrix


def pairwise_graph(seed: int) -> FactorGraph:
    """Random Ising/bias graph with parallel edges and some evidence."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    fg = FactorGraph()
    fg.add_variables(n)
    pairs = rng.integers(n, size=(2 * n, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.concatenate([pairs, pairs[: n // 3], pairs[: n // 5, ::-1]])
    for k, (i, j) in enumerate(pairs.tolist()):
        wid = fg.weights.intern(("J", k), initial=rng.uniform(-1.2, 1.2))
        fg.add_ising_factor(wid, i, j)
    for v in rng.choice(n, size=n // 2, replace=False).tolist():
        wid = fg.weights.intern(("h", v), initial=rng.uniform(-0.6, 0.6))
        fg.add_bias_factor(wid, v)
    for v in rng.choice(n, size=max(1, n // 6), replace=False).tolist():
        fg.set_evidence(v, bool(rng.random() < 0.5))
    return fg


def scipy_sweep(sampler: ChromaticGibbsSampler, coupling) -> None:
    """One sweep as written with a scipy CSR coupling matrix."""
    for cls in sampler.color_classes:
        local = coupling[cls] @ sampler.spins + sampler.field[cls]
        p_up = 1.0 / (1.0 + np.exp(-2.0 * local))
        flips = sampler.rng.random(len(cls)) < p_up
        sampler.spins[cls] = np.where(flips, 1.0, -1.0)


@pytest.mark.parametrize("seed", range(12))
def test_chromatic_sweeps_match_scipy_csr_bit_for_bit(seed):
    fg = pairwise_graph(seed)
    ours = ChromaticGibbsSampler(fg, seed=seed)
    oracle = ChromaticGibbsSampler(fg, seed=seed)
    compiled = oracle.compiled
    weights = np.asarray(fg.weights.values_array(), dtype=np.float64)
    coupling = sp.csr_matrix(
        (weights[compiled.ising_wid], compiled.ising_other, compiled.ising_indptr),
        shape=(fg.num_vars, fg.num_vars),
    )
    assert np.array_equal(ours.spins, oracle.spins)
    for _ in range(40):
        ours.sweep()
        scipy_sweep(oracle, coupling)
        assert np.array_equal(ours.spins, oracle.spins)


# --------------------------------------------------------------------- #
# Algorithm 2 decomposition vs networkx connected components


def nx_decompose(graph: FactorGraph, active_vars) -> list:
    """Algorithm 2 lines 1–3 on a networkx adjacency graph.

    networkx yields components in the iteration order of its subgraph
    view, which follows set hashing once most variables are active;
    ``decompose`` orders groups by their smallest variable, so the
    oracle sorts the same way.
    """
    active = frozenset(int(v) for v in active_vars)
    adjacency = nx.Graph()
    adjacency.add_nodes_from(range(graph.num_vars))
    adjacency.add_edges_from(graph.neighbor_pairs())
    inactive = adjacency.subgraph([v for v in adjacency.nodes if v not in active])
    groups = []
    for component in sorted(nx.connected_components(inactive), key=min):
        boundary = {
            u for v in component for u in adjacency.neighbors(v) if u in active
        }
        groups.append(
            VariableGroup(inactive=frozenset(component), active=frozenset(boundary))
        )
    return groups


def random_factor_graph(seed: int) -> FactorGraph:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    fg = FactorGraph()
    fg.add_variables(n)
    wid = fg.weights.intern("w", initial=0.3)
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(n, size=2).tolist()
        if i != j:
            fg.add_ising_factor(wid, i, j)
    if n >= 3:
        for _ in range(int(rng.integers(0, 4))):
            head, a, b = rng.choice(n, size=3, replace=False).tolist()
            fg.add_rule_factor(wid, head, [[(a, True), (b, False)]], Semantics.LOGICAL)
    return fg


@pytest.mark.parametrize("seed", range(40))
def test_decompose_matches_networkx(seed):
    fg = random_factor_graph(seed)
    rng = np.random.default_rng(seed + 1000)
    share = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0])
    active = np.flatnonzero(rng.random(fg.num_vars) < share).tolist()
    groups = decompose(fg, active)
    expected = nx_decompose(fg, active)
    assert groups == expected
    assert merge_groups(groups) == merge_groups(expected)


# --------------------------------------------------------------------- #
# Exact inference: numpy logsumexp vs scipy.special.logsumexp


@pytest.mark.parametrize(
    "values",
    [
        [0.0],
        [-np.inf, -np.inf],
        [-np.inf, 0.0, -np.inf],
        [-np.inf, -745.0, -746.0],
        [1000.0, 1000.0, -1000.0],
        [1e300, 1e300],
        [-1e300, -1e300, -1e299],
        [np.inf, 0.0],
        [700.0, 710.0, 709.9, -np.inf],
    ],
)
def test_logsumexp_matches_scipy(values):
    ours, theirs = logsumexp(values), float(scipy_logsumexp(values))
    if np.isinf(theirs):
        assert ours == theirs
    else:
        assert ours == pytest.approx(theirs, rel=1e-14, abs=1e-14)


def test_logsumexp_random_magnitudes_and_empty():
    rng = np.random.default_rng(0)
    for scale in (1.0, 50.0, 1e4, 1e150):
        values = rng.normal(size=200) * scale
        assert logsumexp(values) == pytest.approx(
            float(scipy_logsumexp(values)), rel=1e-13
        )
    assert logsumexp([]) == -np.inf


# --------------------------------------------------------------------- #
# Logistic regression: numpy CSR triple vs scipy CSR


def feature_rows(seed: int, num_rows: int, num_features: int) -> list:
    rng = np.random.default_rng(seed)
    return [
        rng.integers(num_features, size=rng.integers(0, 6)).tolist()
        for _ in range(num_rows)
    ]


def scipy_features(rows, num_features: int) -> sp.csr_matrix:
    r = [i for i, feats in enumerate(rows) for _ in feats]
    c = [f for feats in rows for f in feats]
    return sp.csr_matrix(
        (np.ones(len(c)), (r, c)), shape=(len(rows), num_features)
    )


def scipy_fit(x, y, epochs, step_size, batch_size, seed, l2=1e-4):
    """Minibatch SGD as written with scipy CSR products."""
    rng = as_generator(seed)
    n, d = x.shape
    w, b = np.zeros(d), 0.0
    for _ in range(epochs):
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            idx = order[lo : lo + batch_size]
            xb = x[idx]
            err = 1.0 / (1.0 + np.exp(-(xb @ w + b))) - y[idx]
            w -= step_size * (xb.T @ err / len(idx) + l2 * w)
            b -= step_size * float(err.mean())
    return w, b


@pytest.mark.parametrize("seed", range(4))
def test_logistic_sgd_and_gd_match_scipy_csr(seed):
    d = 15
    rows = feature_rows(seed, 120, d)
    y = np.random.default_rng(seed).random(len(rows)) < 0.4
    x = scipy_features(rows, d)

    model = LogisticRegression(d, seed=seed)
    model.fit_sgd(rows, y, epochs=6, step_size=0.3, batch_size=16)
    w, b = scipy_fit(x, y.astype(float), 6, 0.3, 16, seed)
    np.testing.assert_allclose(model.weights, w, rtol=1e-12, atol=1e-15)
    assert model.bias == pytest.approx(b, rel=1e-12, abs=1e-15)
    np.testing.assert_allclose(
        model.decision_function(rows), x @ model.weights + model.bias, rtol=1e-12
    )

    gd = LogisticRegression(d, seed=seed)
    gd.fit_gd(x, y, epochs=5, step_size=0.5)
    wg, bg = np.zeros(d), 0.0
    for _ in range(5):
        err = 1.0 / (1.0 + np.exp(-(x @ wg + bg))) - y
        wg -= 0.5 * (x.T @ err / len(rows) + gd.l2 * wg)
        bg -= 0.5 * float(err.mean())
    np.testing.assert_allclose(gd.weights, wg, rtol=1e-12, atol=1e-15)


def test_logistic_rejects_feature_matrix_of_wrong_width():
    model = LogisticRegression(3)
    with pytest.raises(ValueError):
        model.predict_proba(sp.csr_matrix(np.eye(4)))
