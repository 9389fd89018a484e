"""Per-layer metrics and the self-time accounting of one update.

Computed from the spans of a traced phase (``spans.Tracer``) plus the
client-side times of the same phase.  Times are medians over the calls
or updates named; counts are totals over the phase.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


#: The benchmark's metric definitions, shared with ``run.py``.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = tuple((m["name"], m["unit"]) for m in BENCHMARK["per_layer"])


def _ms(seconds) -> float:
    return seconds * 1e3


def _per_call(spans, name: str) -> float:
    return _ms(median([s.duration for s in spans if s.name == name]))


def per_layer(tracer, traced, untraced, result: dict):
    """Returns ``(metrics, report lines)`` for one traced phase."""
    spans = tracer.spans
    roots = [
        s for s in spans
        if s.name == "reliability.txn" and s.phase == "measure"
        and s.thread == "kb-batcher"
    ]
    by_txn = tracer.by_txn()
    episodes: dict[int, list] = {}
    for root in roots:
        episodes.setdefault(root.episode, []).append(root)

    rows: dict[str, list[float]] = {}
    txn_sums: dict[str, list[float]] = {}
    waits, posts, lates = [], [], []
    strategies, acceptance = [], []
    delta_vars, delta_factors, ground_ms = [], [], []
    for episode, txn_roots in sorted(episodes.items()):
        txn_roots.sort(key=lambda s: s.start)
        submits = traced.submits.get(episode, [])
        visible = traced.visible.get(episode, [])
        dues = traced.dues.get(episode, submits)
        for i, root in enumerate(txn_roots[: len(visible)]):
            members = by_txn[root.txn]
            wait = root.start - submits[i]
            post = visible[i] - root.end
            late = submits[i] - dues[i]
            waits.append(wait)
            posts.append(post)
            lates.append(late)
            selves: dict[str, float] = {}
            sums: dict[str, float] = {}
            for span in members:
                selves[span.name] = selves.get(span.name, 0.0) + span.self_time
                sums[span.name] = sums.get(span.name, 0.0) + span.duration
                if span.name == "core.engine":
                    strategies.append(span.attrs.get("strategy"))
                    if span.attrs.get("strategy") == "sampling":
                        acceptance.append(span.attrs.get("acceptance") or 0.0)
                if span.name == "grounding.update":
                    delta_vars.append(span.attrs["delta_vars"])
                    delta_factors.append(span.attrs["delta_factors"])
                    ground_ms.append(_ms(span.duration))
            for name, value in selves.items():
                rows.setdefault(name, []).append(value)
            for name, value in sums.items():
                txn_sums.setdefault(name, []).append(value)
    n = len(waits)
    for name in list(rows):
        rows[name] += [0.0] * (n - len(rows[name]))

    def txn_median(name: str) -> float:
        values = txn_sums.get(name, [])
        return _ms(median(values + [0.0] * (n - len(values))))

    restore_spans = [s for s in spans if s.phase == "restore"]
    replay_per_restore: dict[int, float] = {}
    for s in restore_spans:
        if s.name == "service.restore_replay":
            replay_per_restore[s.txn] = replay_per_restore.get(s.txn, 0.0) + s.duration
    restores = [s for s in restore_spans if s.name == "service.restore"]
    setup = [s for s in spans if s.phase == "setup"]
    checkpoints = [s for s in spans if s.name == "service.checkpoint"]

    untraced_p50 = percentile(untraced.update_ms, 50)
    traced_p50 = percentile(traced.update_ms, 50)
    self_rows = {
        "service.queue_wait": waits,
        **{name: values for name, values in rows.items()},
        "bench.post_commit": posts,
        "bench.gen_late": lates,
    }
    # Per update the self times add up to its latency exactly, so their
    # means add up to the traced mean latency.
    self_sum = sum(_ms(mean(v)) for v in self_rows.values())
    untraced_mean, traced_mean = mean(untraced.update_ms), mean(traced.update_ms)
    slots = result.get("slots", 0)
    metrics = {
        "service.queue_wait_ms": _ms(median(waits)),
        "service.queue_high_water": traced.high_water,
        "service.checkpoint_ms": _ms(median([s.duration for s in checkpoints])),
        "service.checkpoint_bytes": median(
            [s.attrs.get("bytes", 0) for s in checkpoints]
        ),
        "service.restore_load_ms": _per_call(restore_spans, "service.restore_load"),
        "service.restore_replay_ms": _ms(
            median([replay_per_restore.get(r.txn, 0.0) for r in restores])
        ),
        "reliability.txn_ms": _ms(median([r.duration for r in roots])),
        "reliability.txn_self_ms": _ms(median([r.self_time for r in roots])),
        "reliability.wal_ms": txn_median("reliability.wal"),
        "reliability.wal_bytes_per_update": median(
            [r.attrs.get("wal_bytes", 0) for r in roots]
        ),
        "reliability.snapshot_ms": txn_median("reliability.snapshot"),
        "reliability.retries": traced.retries,
        "reliability.rollbacks": traced.rollbacks,
        "grounding.update_ms": txn_median("grounding.update"),
        "grounding.full_ms": _per_call(setup, "grounding.full"),
        "grounding.delta_vars": median(delta_vars),
        "grounding.delta_factors": median(delta_factors),
        "grounding.ms_per_delta_factor": (
            sum(ground_ms) / sum(delta_factors) if sum(delta_factors) else 0.0
        ),
        **{
            f"db.{key}": value
            for key, value in sorted(traced.index_delta.items())
        },
        "graph.apply_delta_ms": txn_median("graph.apply_delta"),
        "graph.compose_ms": txn_median("graph.compose"),
        "graph.slots": slots,
        "graph.live_vars": result.get("live_vars", 0),
        "graph.live_ratio": result.get("live_vars", 0) / slots if slots else 0.0,
        "core.engine_ms": txn_median("core.engine"),
        "core.engine_self_ms": _ms(median(rows.get("core.engine", []))),
        "core.variational_splice_ms": _per_call(spans, "core.variational_splice"),
        "core.variational_infer_ms": _per_call(spans, "core.variational_infer"),
        "core.variational_factors": traced.variational_factors,
        "core.sampling_infer_ms": _per_call(spans, "core.sampling_infer"),
        "core.sampling_acceptance": (
            sum(acceptance) / len(acceptance) if acceptance else 0.0
        ),
        "core.samples_remaining": traced.samples_remaining,
        "core.variational_share": (
            strategies.count("variational") / len(strategies) if strategies else 0.0
        ),
        "core.materialize_ms": _per_call(setup, "core.materialize"),
        "learning.relearn_ms": _per_call(spans, "learning.relearn"),
        "bench.gen_late_ms": percentile(traced.late_ms, 99),
        "bench.update_p50_untraced_ms": untraced_p50,
        "bench.update_p50_traced_ms": traced_p50,
        "bench.trace_overhead_ms": traced_p50 - untraced_p50,
    }
    known = {name for name, _ in PER_LAYER}
    missing = known - set(metrics)
    extra = set(metrics) - known
    if missing or extra:
        raise RuntimeError(
            f"per-layer metrics out of sync: missing {sorted(missing)}, "
            f"unexpected {sorted(extra)}"
        )
    metrics = {name: float(metrics[name]) for name, _ in PER_LAYER}

    lines = [f"per-layer metrics ({n} traced updates, {len(spans)} spans)"]
    units = dict(PER_LAYER)
    for name, value in metrics.items():
        lines.append(f"  {name:<36} {value:>14.4f} {units[name]}")
    lines.append("self time of one update, by span (ms per update)")
    lines.append(f"  {'span':<30} {'p50':>10} {'mean':>10}")
    for name, values in self_rows.items():
        lines.append(
            f"  {name:<30} {_ms(median(values)):>10.3f} {_ms(mean(values)):>10.3f}"
        )
    lines += [
        f"  {'sum of mean self times':<30} {'':>10} {self_sum:>10.3f}",
        f"  {'traced update latency':<30} {traced_p50:>10.3f} {traced_mean:>10.3f}",
        f"  {'untraced update latency':<30} {untraced_p50:>10.3f} "
        f"{untraced_mean:>10.3f}",
        f"  {'tracing overhead':<30} {traced_p50 - untraced_p50:>10.3f} "
        f"{traced_mean - untraced_mean:>10.3f}",
    ]
    return metrics, lines
