"""Tiny-size smoke test of the benchmark itself.

Runs every workload briefly at toy sizes (untraced, then one traced),
then hands each output check a deliberately corrupted result and
requires it to fire.  Exits non-zero on the first failure.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import shutil
import sys

import numpy as np

import run
from run import ROOT, Churn, DevloopSpec, Run, Stream

TINY = {
    "stream-small": Stream(base=6, rate=20.0, checkpoint_every=0),
    "stream-large": Stream(base=12, rate=20.0, checkpoint_every=5),
    "churn": Churn(window=10, batch=3, updates=4),
    "devloop": DevloopSpec(scale=0.3),
}


def expect_failure(label: str, check, *args, **kwargs) -> None:
    import checks

    try:
        check(*args, **kwargs)
    except checks.CheckFailed as exc:
        print(f"  {label}: fired ({exc})")
        return
    raise SystemExit(f"smoke: check did not fire on {label}")


def run_workloads() -> None:
    from layers import PER_LAYER, per_layer
    from spans import Tracer

    for name, spec in TINY.items():
        bench = Run(name, spec, seed=3, seconds=1.0)
        bench.dir.mkdir(parents=True, exist_ok=True)
        try:
            bench.warm_up()
            samples, _ = bench.measure(episodes=1)
            metrics = run.end_to_end(samples)
            if not samples.update_ms or not samples.read_ms:
                raise SystemExit(f"smoke: {name} measured no updates or reads")
            if name == "churn":
                bench.tracer = Tracer()
                with bench.tracer:
                    traced, result = bench.measure(episodes=1)
                layers, _ = per_layer(bench.tracer, traced, samples, result)
                if set(layers) != {n for n, _ in PER_LAYER}:
                    raise SystemExit("smoke: traced run missed per-layer metrics")
                if layers["grounding.update_ms"] <= 0:
                    raise SystemExit("smoke: traced run recorded no grounding")
        finally:
            shutil.rmtree(bench.dir, ignore_errors=True)
        print(
            f"  {name}: {len(samples.update_ms)} updates, "
            f"update mean {metrics['update_mean_ms']:.2f} ms, checks passed"
        )


def corrupted_results() -> None:
    import checks
    from workloads import (
        INPUT_RELATIONS,
        SentenceGenerator,
        build_spouse_pair,
        spouse_program,
    )

    gen = SentenceGenerator(3, 12)
    live = range(8)
    rows = gen.database_rows(live)
    expected = {rel: list(rows.get(rel, [])) for rel in INPUT_RELATIONS}

    grounder, engine = build_spouse_pair(gen, live)
    checks.check_live_graph(grounder, engine, spouse_program, expected)
    # Grounder advanced, engine never saw the delta.
    grounder.apply_update(inserts=gen.rows(8))
    grown = gen.database_rows(range(9))
    expect_failure(
        "engine graph behind grounder", checks.check_live_graph,
        grounder, engine, spouse_program,
        {rel: grown.get(rel, []) for rel in INPUT_RELATIONS},
    )
    # A row the workload sent never reached the database.
    grounder, engine = build_spouse_pair(gen, live)
    extra = {rel: list(v) for rel, v in expected.items()}
    extra["PhraseFeature"].append(("m90", "m91", "wed"))
    expect_failure(
        "lost insert", checks.check_live_graph,
        grounder, engine, spouse_program, extra,
    )
    # The database changed behind the grounder's back: the live graph
    # silently diverges from a fresh grounding.
    row = ("m0", "m1", "a silent phrase")
    grounder.db.insert_all("PhraseFeature", [row])
    diverged = {rel: list(v) for rel, v in expected.items()}
    diverged["PhraseFeature"].append(row)
    expect_failure(
        "silent divergence", checks.check_live_graph,
        grounder, engine, spouse_program, diverged,
    )

    marginals = np.linspace(0.1, 0.9, 7)
    flipped = marginals.copy()
    flipped.view(np.uint64)[3] ^= 1
    checks.check_restored(marginals, [marginals.copy()])
    expect_failure(
        "restored marginals off by one bit", checks.check_restored,
        marginals, [marginals.copy(), flipped],
    )

    bound = run.READ_BOUND
    checks.check_reads([(1, 0, 0), (2, 1, 2), (3, 0, 2)], bound, 1)
    expect_failure(
        "stamped lag over bound", checks.check_reads,
        [(1, bound + 1, 0)], bound, 1,
    )
    expect_failure(
        "snapshot missing too many updates", checks.check_reads,
        [(2, 0, bound + 2)], bound, 1,
    )
    expect_failure(
        "snapshot went back in time", checks.check_reads,
        [(3, 0, 2), (2, 0, 2)], bound, 1,
    )

    good = [("A1", "x", 100), ("FE1", "y", 100), ("S1", "z", 0)]
    routes = dict(sampling=("FE1",), variational=("S1",), steps=100)
    checks.check_devloop([good, list(good)], **routes)
    expect_failure(
        "devloop passes disagree", checks.check_devloop,
        [good, [("A1", "x", 100), ("FE1", "q", 100), ("S1", "z", 0)]],
        **routes,
    )
    expect_failure(
        "feature update not sampled", checks.check_devloop,
        [[("A1", "x", 100), ("FE1", "y", 0), ("S1", "z", 0)]],
        **routes,
    )
    expect_failure(
        "supervision update sampled", checks.check_devloop,
        [[("A1", "x", 100), ("FE1", "y", 100), ("S1", "z", 100)]],
        **routes,
    )


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print("workloads at toy sizes:")
    run_workloads()
    print("checks on corrupted results:")
    corrupted_results()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
