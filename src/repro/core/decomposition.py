"""Inactive-variable decomposition (Appendix B.1, Algorithm 2).

The developer declares an *interest area*: the variables she will work on
next ("active").  Conditioned on the active variables, the inactive ones
split into independent groups; each group — its inactive variables plus
the minimal active boundary — can be materialized separately, and updates
that touch only some groups leave the others' materialized state valid.

Finding the optimal grouping is NP-hard (reduction from weighted set
cover); the paper's greedy heuristic merges two groups whenever one's
active boundary contains the other's
(``|V_j^a ∪ V_k^a| = max(|V_j^a|, |V_k^a|)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.variational import nz_components
from repro.graph.factor_graph import FactorGraph


@dataclass(frozen=True)
class VariableGroup:
    """One materialization unit: inactive variables + active boundary."""

    inactive: frozenset
    active: frozenset

    @property
    def variables(self) -> frozenset:
        return self.inactive | self.active

    def __len__(self) -> int:
        return len(self.inactive) + len(self.active)


def decompose(graph: FactorGraph, active_vars) -> list:
    """Algorithm 2 lines 1–3: split inactive variables into conditionally
    independent groups with their minimal active boundaries.

    Groups are the connected components of the ``NZ`` graph restricted to
    inactive variables, ordered by their smallest variable id.
    """
    n = graph.num_vars
    is_active = np.zeros(n, dtype=bool)
    is_active[[v for v in map(int, active_vars) if 0 <= v < n]] = True
    pairs = np.array(list(graph.neighbor_pairs()), dtype=np.int64).reshape(-1, 2)
    rows, cols = pairs[:, 0], pairs[:, 1]
    row_active, col_active = is_active[rows], is_active[cols]
    inner = ~row_active & ~col_active
    labels = nz_components(n, rows[inner], cols[inner])
    # Active variables are singleton components of their own; renumber
    # the inactive ones 0..G-1, keeping smallest-member order.
    inactive = np.flatnonzero(~is_active)
    group_ids, group_of = np.unique(labels[inactive], return_inverse=True)
    members = [[] for _ in group_ids]
    for var, group in zip(inactive.tolist(), group_of.tolist()):
        members[group].append(var)
    boundaries = [set() for _ in group_ids]
    cross = row_active != col_active
    inner_end = np.where(row_active, cols, rows)[cross]
    active_end = np.where(row_active, rows, cols)[cross]
    inner_group = np.searchsorted(group_ids, labels[inner_end])
    for group, var in zip(inner_group.tolist(), active_end.tolist()):
        boundaries[group].add(var)
    return [
        VariableGroup(inactive=frozenset(m), active=frozenset(b))
        for m, b in zip(members, boundaries)
    ]


def merge_groups(groups) -> list:
    """Algorithm 2 lines 4–6: greedily merge nested-boundary groups."""
    merged = list(groups)
    changed = True
    while changed:
        changed = False
        for j in range(len(merged)):
            for k in range(j + 1, len(merged)):
                a, b = merged[j], merged[k]
                union = a.active | b.active
                if len(union) == max(len(a.active), len(b.active)):
                    merged[j] = VariableGroup(
                        inactive=a.inactive | b.inactive, active=union
                    )
                    del merged[k]
                    changed = True
                    break
            if changed:
                break
    return merged


def plan_groups(graph: FactorGraph, active_vars) -> list:
    """Decompose then merge — the full Algorithm 2."""
    return merge_groups(decompose(graph, active_vars))


def group_subgraph(graph: FactorGraph, group: VariableGroup) -> tuple:
    """The induced factor graph over a group's variables.

    Returns ``(subgraph, local_of)`` where ``local_of`` maps original
    variable ids to the subgraph's ids.  Only factors whose full scope
    lies inside the group are included; by construction of the
    decomposition, every factor touching the group's inactive variables
    qualifies.
    """
    variables = sorted(group.variables)
    local_of = {v: i for i, v in enumerate(variables)}
    sub = FactorGraph(graph.weights.copy())
    for v in variables:
        sub.add_variable(name=graph.name_of(v))
        if graph.is_evidence(v):
            sub.set_evidence(local_of[v], graph.evidence_value(v))
    for factor in graph.factors:
        scope = factor.variables()
        if scope <= group.variables:
            sub.factors.append(_relocalize(factor, local_of))
    sub.validate()
    return sub, local_of


def _relocalize(factor, local_of: dict):
    import dataclasses

    from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor

    if isinstance(factor, BiasFactor):
        return dataclasses.replace(factor, var=local_of[factor.var])
    if isinstance(factor, IsingFactor):
        return dataclasses.replace(
            factor, i=local_of[factor.i], j=local_of[factor.j]
        )
    if isinstance(factor, RuleFactor):
        groundings = tuple(
            tuple((local_of[v], pos) for v, pos in g)
            for g in factor.groundings
        )
        return dataclasses.replace(
            factor, head=local_of[factor.head], groundings=groundings
        )
    raise TypeError(f"unknown factor type {type(factor)!r}")
