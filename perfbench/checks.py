"""Output checks.  Each raises :class:`CheckFailed` with a reason.

They take plain data (graphs, marginal arrays, read logs) so that the
smoke test can hand them deliberately corrupted results and see them
fire.
"""

from __future__ import annotations

from repro.graph import FactorGraph, RuleFactor
from repro.grounding import IncrementalGrounder


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def canonical_form(graph: FactorGraph) -> dict:
    """Graph summary invariant to variable-id renumbering.

    Tombstoned variables (clamped False, no factors) are excluded, so an
    incrementally maintained graph compares equal to a fresh grounding.
    """
    touched = set()
    for factor in graph.factors:
        touched.update(factor.variables())

    def name(v):
        n = graph.name_of(v)
        return n if n is not None else ("_anon", v)

    variables = set()
    evidence = {}
    for v in range(graph.num_vars):
        if v not in touched and graph.evidence_value(v) is False:
            continue
        variables.add(name(v))
        if graph.is_evidence(v):
            evidence[name(v)] = graph.evidence_value(v)
    factors: dict = {}
    for factor in graph.factors:
        if not isinstance(factor, RuleFactor):
            raise CheckFailed(f"unexpected factor type {type(factor).__name__}")
        key = graph.weights.key_for(factor.weight_id)
        groundings = tuple(
            sorted(
                tuple(sorted((name(v), pos) for v, pos in g))
                for g in factor.groundings
            )
        )
        sig = (key, name(factor.head), factor.semantics.value, groundings)
        factors[sig] = factors.get(sig, 0) + 1
    return {"variables": variables, "evidence": evidence, "factors": factors}


def _diff(label: str, got: dict, want: dict) -> str:
    parts = []
    for key in ("variables", "evidence", "factors"):
        if got[key] != want[key]:
            parts.append(f"{key} differ ({len(got[key])} vs {len(want[key])})")
    return f"{label}: " + ", ".join(parts)


def check_live_graph(grounder, engine, program_factory, expected_rows: dict) -> dict:
    """The live KB must equal a fresh grounding of its final database.

    First the database must hold exactly the input rows the workload
    sent; then a fresh ``IncrementalGrounder.from_scratch`` over those
    rows must give the same canonical graph as the grounder's graph and
    the engine's graph.  Returns the live-graph sizes."""
    for rel, rows in expected_rows.items():
        have = set(grounder.db.relation(rel).rows())
        if have != set(rows):
            raise CheckFailed(
                f"relation {rel}: database holds {len(have)} rows, "
                f"workload sent {len(set(rows))}"
            )
    program = program_factory()
    db = program.create_database()
    for rel in expected_rows:
        db.insert_all(rel, list(grounder.db.relation(rel).rows()))
    want = canonical_form(IncrementalGrounder.from_scratch(program, db).graph)
    live = canonical_form(grounder.graph)
    if live != want:
        raise CheckFailed(_diff("grounder graph vs fresh grounding", live, want))
    current = canonical_form(engine.current_graph)
    if current != want:
        raise CheckFailed(_diff("engine graph vs fresh grounding", current, want))
    return graph_size(engine, current)


def graph_size(engine, form: dict | None = None) -> dict:
    """Variable slots of the engine's graph, and how many are live."""
    if form is None:
        form = canonical_form(engine.current_graph)
    return {
        "slots": engine.current_graph.num_vars,
        "live_vars": len(form["variables"]),
    }


def check_restored(expected, restored: list) -> None:
    """Every restore must give marginals bit-identical to the snapshot
    committed last before the crash."""
    for i, got in enumerate(restored):
        if got.shape != expected.shape or got.tobytes() != expected.tobytes():
            raise CheckFailed(
                f"restore {i}: marginals differ from the last committed "
                f"snapshot ({got.shape} vs {expected.shape})"
            )


def check_reads(reads, bound: int, base_txn: int) -> None:
    """No served read may exceed its staleness bound.

    ``reads`` holds ``(txn, lag, accepted_before)`` per served read:
    ``accepted_before`` is the count of admitted updates just before the
    call, so ``accepted_before - (txn - base_txn)`` updates were admitted
    but missing from the served snapshot.  Snapshots must also never go
    back in time."""
    last = base_txn
    for i, (txn, lag, accepted_before) in enumerate(reads):
        missing = accepted_before - (txn - base_txn)
        if lag > bound or missing > bound:
            raise CheckFailed(
                f"read {i} served txn {txn} missing {missing} updates "
                f"(stamped lag {lag}) beyond bound {bound}"
            )
        if txn < last:
            raise CheckFailed(f"read {i} went back from txn {last} to {txn}")
        last = txn


def check_devloop(passes: list, sampling: tuple, variational: tuple,
                  steps: int) -> None:
    """Every pass must give identical marginals, and the optimizer must
    route the feature updates to sampling and the supervision updates to
    variational inference.

    ``passes`` holds per pass a list of ``(label, marginals digest,
    samples consumed)``; sampling consumes exactly ``steps`` bundle
    samples, variational inference none."""
    first = [(label, digest) for label, digest, _ in passes[0]]
    for p, updates in enumerate(passes):
        if [(label, digest) for label, digest, _ in updates] != first:
            raise CheckFailed(f"devloop pass {p} marginals differ from pass 0")
        for label, _digest, consumed in updates:
            if label in sampling and consumed != steps:
                raise CheckFailed(
                    f"pass {p}: {label} consumed {consumed} bundle samples, "
                    f"not routed to sampling ({steps})"
                )
            if label in variational and consumed != 0:
                raise CheckFailed(
                    f"pass {p}: {label} consumed {consumed} bundle samples, "
                    "not routed to variational"
                )
