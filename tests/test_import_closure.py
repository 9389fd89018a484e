"""The library and the service run on numpy alone.

A subprocess makes ``import scipy`` and ``import networkx`` fail, imports
``repro`` and ``repro.service``, and runs a tiny service life cycle:
ground → materialize → checkpoint → variational update → crash-free
restore from the checkpoint plus WAL tail.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPT = r"""
import sys

sys.modules["scipy"] = sys.modules["networkx"] = None

import numpy as np

import repro
import repro.service
from repro.core import EngineConfig, IncrementalEngine
from repro.grounding import IncrementalGrounder
from repro.service import KBService, ServiceConfig
from tests.test_grounding import spouse_db, spouse_program


def make_stack():
    program = spouse_program()
    grounder = IncrementalGrounder.from_scratch(program, spouse_db(program))
    engine = IncrementalEngine(
        grounder.graph,
        EngineConfig(
            materialization_samples=60,
            inference_steps=40,
            inference_samples=30,
            variational_inference_samples=40,
            burn_in=5,
            seed=0,
        ),
    )
    engine.materialize()
    return grounder, engine


config = ServiceConfig(poll_interval=0.005)
svc = KBService(*make_stack(), wal_path="wal", checkpoint_dir="ckpt", config=config)
svc.prime()
assert svc.checkpoint() is not None
# Distant supervision for an existing candidate: an evidence-only update.
outcome = svc.pipeline.apply_update(
    inserts={"EL": [("m3", "e3"), ("m4", "e4")], "Married": [("e3", "e4")]}
)
assert outcome.strategy == "variational", outcome.decision
svc._on_commit(svc.pipeline.last_txn)
expected = svc.read(max_staleness=0).marginals.copy()

restored = KBService.restore("wal", make_stack, checkpoint_dir="ckpt", config=config)
assert restored.recovery["mode"] == "checkpoint", restored.recovery
assert restored.recovery["replayed"] == 1, restored.recovery
assert np.array_equal(restored.read(max_staleness=0).marginals, expected)
restored.stop()

loaded = sorted(
    name for name, module in sys.modules.items()
    if module is not None and name.split(".")[0] in ("scipy", "networkx")
)
assert not loaded, loaded
print("numpy-only ok")
"""


def test_service_runs_without_scipy_or_networkx(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "numpy-only ok" in done.stdout
