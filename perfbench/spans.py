"""Spans around the calls into each layer's public entry points.

A :class:`Tracer` replaces the listed methods (class-level, so instances
built later are covered too) with wrappers that record a span: name,
start, end, parent span and transaction id.  Spans live in memory until
the run ends.  Nothing is wrapped unless :meth:`Tracer.install` runs,
and :meth:`Tracer.uninstall` puts every original back.

A transaction is one ``ReliableUpdatePipeline.apply_update`` call (or
one ``KBService.restore``): every span opened inside it carries its id.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    txn: int = -1
    thread: str = ""
    #: Episode (one service stack) and run phase the span belongs to.
    episode: int = 0
    phase: str = ""
    attrs: dict = field(default_factory=dict)
    #: Time covered by direct children (children run nested, in order).
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


#: Spans that open a transaction: their children inherit its id.
ROOTS = ("reliability.txn", "service.restore")


def _delta_size(_args, result, _before) -> dict:
    delta = result.delta
    return {
        # Retracted variables are tombstoned through an evidence clamp,
        # so they appear among ``evidence_updates``.
        "delta_vars": delta.num_new_vars + len(delta.evidence_updates),
        "delta_factors": len(delta.new_factors) + len(delta.removed_factor_ids),
    }


def _outcome(_args, outcome, _before) -> dict:
    return {
        "strategy": outcome.strategy,
        "acceptance": outcome.acceptance_rate,
    }


def _checkpoint_bytes(_args, path, _before) -> dict:
    return {"bytes": os.path.getsize(path) if path else 0}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Set by the driver; stamped on every span opened afterwards.
        self.episode = 0
        self.phase = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_txn = 0
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs_of=None, pre=None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if name in ROOTS:
            with self._lock:
                self._next_txn += 1
                txn = self._next_txn
        else:
            txn = self.spans[parent].txn if parent >= 0 else -1
        span = Span(
            name,
            0.0,
            parent=parent,
            txn=txn,
            thread=threading.current_thread().name,
            episode=self.episode,
            phase=self.phase,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        before = pre(args) if pre is not None else None
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent >= 0:
                self.spans[parent].child_time += span.duration
        if attrs_of is not None:
            span.attrs.update(attrs_of(args, result, before))
        return result

    # ------------------------------------------------------------------ #
    # Wrappers

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_method(self, cls, attr, name, attrs_of=None, pre=None):
        original = cls.__dict__[attr]
        tracer = self

        if isinstance(original, classmethod):
            func = original.__func__

            @functools.wraps(func)
            def cls_wrapper(klass, *args, **kwargs):
                return tracer.call(
                    name, func, (klass, *args), kwargs, attrs_of, pre
                )

            self._replace(cls, attr, classmethod(cls_wrapper))
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, attrs_of, pre)

        self._replace(cls, attr, wrapper)

    def wrap_function(self, module, attr, name):
        original = module.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs)

        self._replace(module, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap every traced entry point."""
        from repro.core import engine as engine_mod
        from repro.core.engine import IncrementalEngine
        from repro.core.sampling import SampleMaterialization
        from repro.core.variational import VariationalMaterialization
        from repro.graph.compiled import CompiledFactorGraph
        from repro.grounding.incremental import IncrementalGrounder
        from repro.reliability.pipeline import ReliableUpdatePipeline
        from repro.reliability.snapshots import IncrementalUpdateSnapshot
        from repro.reliability.wal import DeltaLog
        from repro.service import server as server_mod
        from repro.service.checkpoint import CheckpointStore
        from repro.service.server import KBService

        def wal_size(args):
            wal = args[0].wal
            return os.path.getsize(wal.path) if wal.path else 0

        def txn_attrs(args, _outcome, size_before):
            return {"wal_bytes": wal_size(args) - size_before}

        self.wrap_method(
            ReliableUpdatePipeline, "apply_update", "reliability.txn",
            attrs_of=txn_attrs, pre=wal_size,
        )
        for attr in ("begin", "mark", "commit"):
            self.wrap_method(DeltaLog, attr, "reliability.wal")
        self.wrap_method(
            IncrementalUpdateSnapshot, "__init__", "reliability.snapshot"
        )
        self.wrap_method(
            IncrementalGrounder, "apply_update", "grounding.update",
            attrs_of=_delta_size,
        )
        self.wrap_method(IncrementalGrounder, "from_scratch", "grounding.full")
        self.wrap_method(CompiledFactorGraph, "apply_delta", "graph.apply_delta")
        self.wrap_function(engine_mod, "compose_deltas", "graph.compose")
        self.wrap_method(
            IncrementalEngine, "apply_update", "core.engine", attrs_of=_outcome
        )
        self.wrap_method(IncrementalEngine, "materialize", "core.materialize")
        self.wrap_method(IncrementalEngine, "relearn", "learning.relearn")
        self.wrap_method(
            VariationalMaterialization, "apply_update", "core.variational_splice"
        )
        self.wrap_method(
            VariationalMaterialization, "infer", "core.variational_infer"
        )
        self.wrap_method(SampleMaterialization, "infer", "core.sampling_infer")
        self.wrap_method(
            KBService, "checkpoint", "service.checkpoint",
            attrs_of=_checkpoint_bytes,
        )
        self.wrap_method(KBService, "restore", "service.restore")
        self.wrap_method(CheckpointStore, "load", "service.restore_load")
        self.wrap_function(server_mod, "replay_payload", "service.restore_replay")
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Queries

    def by_txn(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.txn >= 0:
                out.setdefault(span.txn, []).append(span)
        return out

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]
