"""The per-component log-det solver (Algorithm 1) against the dense oracle.

``solve_logdet`` splits the ``NZ`` graph into connected components and
runs the projected gradient on stacked blocks; the dense formulation in
``dense_logdet.py`` solves the same problem on one ``n × n`` matrix.
Both follow one global step, backtracking and stopping rule, so they
must agree to round-off.
"""

from __future__ import annotations

import pickle
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from dense_logdet import (
    dense_approx_precision,
    dense_from_pairs,
    dense_kept_pairs,
    dense_precision,
)
from repro.core import learn_approximation, solve_logdet
from repro.core.sampling import make_sampler
from repro.core.variational import nz_components
from repro.graph import FactorGraph, IsingFactor, Semantics


def mixed_component_graph(seed: int) -> FactorGraph:
    """Pairwise graph whose ``NZ`` components have mixed sizes.

    Variable ids are shuffled so components interleave; one three-variable
    rule factor per large component adds a non-pairwise scope, and a few
    variables carry evidence.
    """
    rng = np.random.default_rng(seed)
    sizes = rng.choice([1, 1, 2, 3, 4, 6, 9], size=rng.integers(3, 8))
    ids = rng.permutation(int(sizes.sum()))
    fg = FactorGraph()
    fg.add_variables(len(ids))
    start = 0
    for size in sizes:
        members = ids[start : start + size].tolist()
        start += size
        for pos in range(1, size):
            # A random spanning tree keeps the component connected.
            edges = [(members[rng.integers(pos)], members[pos])]
            edges += [
                (members[other], members[pos])
                for other in range(pos)
                if rng.random() < 0.3
            ]
            for i, j in set(edges):
                wid = fg.weights.intern(("J", i, j), initial=rng.uniform(-0.8, 0.8))
                fg.add_ising_factor(wid, i, j)
        if size >= 4:
            wid = fg.weights.intern(("R", seed, start), initial=0.5)
            body = [[(members[1], True), (members[2], True)]]
            fg.add_rule_factor(wid, members[0], body, Semantics.LOGICAL)
    for v in range(fg.num_vars):
        wid = fg.weights.intern(("h", v), initial=rng.uniform(-0.5, 0.5))
        fg.add_bias_factor(wid, v)
    for v in rng.choice(fg.num_vars, size=2, replace=False).tolist():
        fg.set_evidence(v, bool(rng.random() < 0.5))
    return fg


def component_sets(labels) -> set:
    groups = {}
    for var, label in enumerate(labels.tolist()):
        groups.setdefault(label, set()).add(var)
    return {frozenset(members) for members in groups.values()}


@pytest.mark.parametrize("seed", range(6))
def test_nz_components_match_connected_components(seed):
    fg = mixed_component_graph(seed)
    pairs = np.array(list(fg.neighbor_pairs())).reshape(-1, 2)
    labels = nz_components(fg.num_vars, pairs[:, 0], pairs[:, 1])
    reference = nx.Graph()
    reference.add_nodes_from(range(fg.num_vars))
    reference.add_edges_from(pairs.tolist())
    expected = {frozenset(c) for c in nx.connected_components(reference)}
    assert component_sets(labels) == expected
    assert labels.max() == len(expected) - 1


def test_nz_components_long_chain_and_no_pairs():
    n = 2000
    chain = np.arange(n - 1)
    assert np.all(nz_components(n, chain[::-1], chain[::-1] + 1) == 0)
    empty = np.array([], dtype=np.int64)
    assert np.array_equal(nz_components(5, empty, empty), np.arange(5))


@pytest.mark.parametrize("lam", [0.01, 0.05, 0.3])
@pytest.mark.parametrize("seed", range(30))
def test_blocked_solver_matches_dense_oracle(seed, lam):
    fg = mixed_component_graph(seed)
    samples = make_sampler(fg, seed=seed).sample_worlds(150, burn_in=10)
    approx = learn_approximation(fg, lam, samples=samples)
    dense, nz_mask = dense_precision(fg, samples, lam)
    assert np.abs(dense_approx_precision(approx) - dense).max() <= 1e-12
    kept = [
        (f.i, f.j) for f in approx.graph.factors if isinstance(f, IsingFactor)
    ]
    assert kept == dense_kept_pairs(dense, nz_mask)
    assert approx.kept_pairs == len(kept)
    assert approx.candidate_pairs == int(np.triu(nz_mask, k=1).sum())


def test_singletons_solve_in_closed_form():
    diag = np.array([0.5, 1.0, 1.0 / 3.0])
    empty = np.array([], dtype=np.int64)
    x_diag, x_pairs = solve_logdet(diag, empty, empty, np.array([]), lam=0.05)
    assert np.array_equal(dense_from_pairs(x_diag, empty, empty, x_pairs), np.diag(diag))
    with pytest.raises(ValueError):
        solve_logdet(np.array([1.0, 0.0]), empty, empty, np.array([]), lam=0.05)
    with pytest.raises(ValueError):
        solve_logdet(diag, np.array([0]), np.array([1]), np.array([]), lam=0.05)


def pair_free_graph(n: int) -> FactorGraph:
    fg = FactorGraph()
    fg.add_variables(n)
    for v in range(n):
        fg.add_bias_factor(fg.weights.intern(("h", v), initial=0.1), v)
    return fg


def test_pair_free_graph_stays_linear_in_memory():
    """A dense solve would need one 20k × 20k float64 array (3.2 GB)."""
    n = 20_000
    fg = pair_free_graph(n)
    samples = np.random.default_rng(0).random((300, n)) < 0.4
    tracemalloc.start()
    try:
        approx = learn_approximation(fg, lam=0.05, samples=samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert approx.kept_pairs == 0 and approx.candidate_pairs == 0
    assert len(approx.precision_diag) == n and len(approx.pair_values) == 0
    # The pickled approximation is O(n): doubling n at most doubles it.
    small = learn_approximation(pair_free_graph(n // 2), lam=0.05, samples=samples[:, : n // 2])
    size, small_size = len(pickle.dumps(approx)), len(pickle.dumps(small))
    assert size < 2.2 * small_size
    assert size < 500 * n
