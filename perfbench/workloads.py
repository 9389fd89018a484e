"""Seeded inputs and stack builders for the KB-update benchmark.

Every input the program sees is generated here from the run's seed: the
spouse-program sentences (phrase, entity links, arrival order) for the
stream and churn workloads, and the News corpus seed for ``devloop``.
The benchmark carries its own copy of the spouse program (the paper's
Fig. 2 running example) so that edits to other benchmark scripts cannot
move these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import EngineConfig, IncrementalEngine
from repro.datalog import Atom, Program, Var, WeightSpec
from repro.grounding import IncrementalGrounder
from repro.service import KBService, ServiceConfig

PHRASES = (
    "and his wife",
    "married",
    "friend of",
    "wed",
    "spouse of",
    "met",
    "divorced from",
    "brother of",
)
NUM_ENTITIES = 60
NUM_MARRIED = 20
#: Share of sentences whose two mentions link to a married couple; those
#: sentences carry distant-supervision evidence (rule ``s1``).
MARRIED_SHARE = 0.3

#: Engine settings of the spouse workloads (the service benchmark's
#: scaled-down proportions: small bundle, short chains).
SPOUSE_ENGINE = dict(
    materialization_samples=120,
    inference_steps=60,
    inference_samples=40,
    variational_inference_samples=60,
    burn_in=5,
    seed=0,
)
#: Engine settings of ``devloop``: a bundle large enough that the
#: feature updates FE1/FE2 route to sampling, as in the paper's Fig. 9.
DEVLOOP_ENGINE = dict(
    materialization_samples=600,
    inference_steps=100,
    inference_samples=40,
    variational_inference_samples=60,
    burn_in=5,
    seed=0,
)
DEVLOOP_RELEARN_EPOCHS = 2


def service_config(checkpoint_every: int = 0) -> ServiceConfig:
    """The default service configuration, with the WAL synced on every
    record and the workload's checkpoint period."""
    return ServiceConfig(checkpoint_every=checkpoint_every, wal_fsync="always")


def spouse_program() -> Program:
    """The paper's running example (Fig. 2)."""
    program = Program(default_semantics="ratio")
    program.add_relation("PersonCandidate", ("s", "m"))
    program.add_relation("EL", ("m", "e"))
    program.add_relation("Married", ("e1", "e2"))
    program.add_relation("MarriedCandidate", ("m1", "m2"))
    program.add_relation("PhraseFeature", ("m1", "m2", "f"))
    program.declare_variable_relation("MarriedMentions", ("m1", "m2"))
    program.add_derivation_rule(
        "r1",
        Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
        [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ],
    )
    program.add_derivation_rule(
        "vars",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [Atom("MarriedCandidate", (Var("m1"), Var("m2")))],
    )
    program.add_derivation_rule(
        "s1",
        Atom("MarriedMentions_Ev", (Var("m1"), Var("m2"), True)),
        [
            Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
            Atom("EL", (Var("m1"), Var("e1"))),
            Atom("EL", (Var("m2"), Var("e2"))),
            Atom("Married", (Var("e1"), Var("e2"))),
        ],
    )
    program.add_inference_rule(
        "fe1",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [
            Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
            Atom("PhraseFeature", (Var("m1"), Var("m2"), Var("f"))),
        ],
        weight=WeightSpec(tied_on=("f",)),
    )
    return program


#: Base relations the generator fills; everything else is derived.
INPUT_RELATIONS = ("PersonCandidate", "EL", "Married", "PhraseFeature")


class SentenceGenerator:
    """A seeded sequence of spouse-program sentences.

    The seed picks each sentence's phrase, its two mentions' entity links
    and the arrival order; ``rows(i)`` is the i-th sentence to arrive.
    Sentence ``s<k>`` owns mentions ``m<2k>`` and ``m<2k+1>``.
    """

    def __init__(self, seed: int, count: int) -> None:
        rng = np.random.default_rng([seed, 0x5B0])
        entities = [f"e{i}" for i in range(NUM_ENTITIES)]
        couples = rng.choice(NUM_ENTITIES, size=(NUM_MARRIED, 2), replace=False)
        self.married = [(entities[a], entities[b]) for a, b in couples]
        self.order = rng.permutation(count)
        # Balanced assignments: every seed gives the same phrase counts
        # and the same share of distantly supervised sentences, so seeds
        # differ in which sentence gets what, not in how much work a run
        # holds.
        self.phrase = rng.permutation(np.arange(count) % len(PHRASES))
        supervised = rng.permutation(count) < round(MARRIED_SHARE * count)
        couple_of = rng.permutation(np.arange(count) % NUM_MARRIED)
        links = rng.integers(NUM_ENTITIES, size=(count, 2))
        self.links = [
            self.married[couple_of[k]] if supervised[k]
            else (entities[links[k, 0]], entities[links[k, 1]])
            for k in range(count)
        ]

    def rows(self, i: int) -> dict:
        """Relation rows of the i-th arriving sentence."""
        k = int(self.order[i])
        s, m1, m2 = f"s{k}", f"m{2 * k}", f"m{2 * k + 1}"
        e1, e2 = self.links[k]
        return {
            "PersonCandidate": [(s, m1), (s, m2)],
            "PhraseFeature": [(m1, m2, PHRASES[self.phrase[k]])],
            "EL": [(m1, e1), (m2, e2)],
        }

    def batch(self, indices) -> dict:
        """Union of the rows of several sentences."""
        out: dict = {}
        for i in indices:
            for rel, rows in self.rows(i).items():
                out.setdefault(rel, []).extend(rows)
        return out

    def database_rows(self, indices) -> dict:
        """Every input row of a KB holding exactly ``indices``."""
        rows = self.batch(indices)
        rows["Married"] = list(self.married)
        return rows


def build_spouse_pair(gen: SentenceGenerator, indices):
    """Ground and materialize a fresh (grounder, engine) over the KB that
    holds the sentences ``indices``."""
    program = spouse_program()
    db = program.create_database()
    for rel, rows in gen.database_rows(indices).items():
        db.insert_all(rel, rows)
    grounder = IncrementalGrounder.from_scratch(program, db)
    engine = IncrementalEngine(grounder.graph, EngineConfig(**SPOUSE_ENGINE))
    engine.materialize()
    return grounder, engine


@dataclass
class Devloop:
    """One News development loop: the base system and its six updates."""

    pipeline: object
    updates: list

    @classmethod
    def generate(cls, seed: int, scale: float = 1.0) -> "Devloop":
        from repro.workloads.systems import build_pipeline, workload_by_name

        pipeline = build_pipeline(workload_by_name("news"), scale=scale, seed=seed)
        return cls(pipeline, pipeline.snapshot_updates())

    def build_pair(self):
        grounder = self.pipeline.build_base()
        engine = IncrementalEngine(grounder.graph, EngineConfig(**DEVLOOP_ENGINE))
        engine.materialize()
        return grounder, engine


def start_service(pair, wal_path, checkpoint_dir=None, checkpoint_every=0):
    """Wrap a materialized pair in a primed, running :class:`KBService`."""
    grounder, engine = pair
    svc = KBService(
        grounder,
        engine,
        config=service_config(checkpoint_every),
        wal_path=wal_path,
        checkpoint_dir=checkpoint_dir,
    )
    svc.prime()
    return svc.start()
