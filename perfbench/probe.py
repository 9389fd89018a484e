"""Closed-loop capacity probe for the stream workloads' writer and reader.

Updates: builds each stream workload's stack, then submits ``--updates``
one-sentence updates closed loop (submit, wait until a read reflects
it) with the benchmark's reader thread running.  The inverse of the mean
update latency is the workload's capacity in updates per second.

Reads: on the stream-small stack, with its open-loop writer running,
calls ``read_fact`` back to back for ``--read-seconds`` (read capacity
under the writer), then runs the benchmark's reader at ``READ_RATE`` for
as long and records the share of a core it uses.  The read rate must
keep the mean wait from a commit to the next read (``1/READ_RATE`` for
Poisson arrivals) at most a fifth of stream-small's mean update latency.

The open-loop rates in ``run.py`` were chosen from these figures; the
result is written, with a machine stamp, to ``perfbench/capacity.json``.

    python3 perfbench/probe.py --updates 100 --read-seconds 5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import sys
import threading
import time

from run import (
    HERE, READ_BOUND, READ_RATE, ROOT, WORKLOADS, Reader, Run, Samples,
    sleep_until,
)


def machine_stamp() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%d"),
    }


def probe(name: str, seed: int, updates: int) -> dict:
    from workloads import build_spouse_pair

    spec = WORKLOADS[name]
    run = Run(name, spec, seed, seconds=0.0)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        run.warm_up()
        gen = run.generator(spec.base + updates)
        samples = Samples()
        svc, _wal, _ckpt = run.build(
            samples, lambda: build_spouse_pair(gen, range(spec.base)),
            spec.checkpoint_every,
        )
        for k in range(spec.base, spec.base + updates):
            run._closed_loop(
                samples, svc, 1, [{"inserts": gen.rows(k)}], sentences=1
            )
        svc.stop()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    mean_ms = sum(samples.update_ms) / len(samples.update_ms)
    return {
        "updates": len(samples.update_ms),
        "mean_update_ms": mean_ms,
        "capacity_per_s": 1e3 / mean_ms,
        "rate_per_s": spec.rate,
        "utilization": spec.rate * mean_ms / 1e3,
    }


def probe_reads(name: str, seed: int, seconds: float, update_ms: float) -> dict:
    from repro.service import ServiceError
    from workloads import build_spouse_pair

    spec = WORKLOADS[name]
    writes = int(2 * seconds * spec.rate) + 2
    run = Run(name, spec, seed, seconds=0.0)
    run.dir.mkdir(parents=True, exist_ok=True)
    stop = threading.Event()
    try:
        run.warm_up()
        gen = run.generator(spec.base + writes)
        svc, _wal, _ckpt = run.build(
            Samples(), lambda: build_spouse_pair(gen, range(spec.base))
        )
        num_vars = svc.read().num_vars

        def writer() -> None:
            t0 = time.perf_counter()
            for k in range(writes):
                sleep_until(t0 + k / spec.rate)
                if stop.is_set():
                    return
                svc.submit(inserts=gen.rows(spec.base + k))

        thread = threading.Thread(target=writer, name="probe-writer")
        thread.start()
        rng = random.Random(seed)
        reads = failed = 0
        cpu0, start = time.thread_time(), time.perf_counter()
        while time.perf_counter() - start < seconds:
            try:
                svc.read_fact(rng.randrange(num_vars), max_staleness=READ_BOUND)
            except ServiceError:
                failed += 1
            reads += 1
        wall, cpu = time.perf_counter() - start, time.thread_time() - cpu0

        t0 = time.perf_counter()
        reader = Reader(svc, num_vars, seed, t0)
        reader.start()
        time.sleep(seconds)
        reader.stop.set()
        reader.finish(10.0)
        reader_wall = time.perf_counter() - t0
        stop.set()
        thread.join()
        svc.stop()
    finally:
        stop.set()
        shutil.rmtree(run.dir, ignore_errors=True)
    if failed or reader.failed:
        raise RuntimeError(f"{failed + reader.failed} reads failed in the probe")
    capacity = reads / wall
    wait_ms = 1e3 / READ_RATE
    return {
        "workload": name,
        "write_rate_per_s": spec.rate,
        "reads": reads,
        "capacity_per_s": capacity,
        "cpu_us_per_read": cpu * 1e6 / reads,
        "rate_per_s": READ_RATE,
        "utilization": READ_RATE / capacity,
        "reader_reads": len(reader.served),
        "reader_core_share": reader.cpu_s / reader_wall,
        "mean_commit_to_read_ms": wait_ms,
        "mean_update_ms": update_ms,
        "wait_to_update_ratio": wait_ms / update_ms,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--updates", type=int, default=100)
    parser.add_argument("--read-seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    record = {"machine": machine_stamp(), "updates": args.updates}
    for name in ("stream-small", "stream-large"):
        record[name] = probe(name, args.seed, args.updates)
        print(name, json.dumps(record[name]))
    record["reads"] = probe_reads(
        "stream-small", args.seed, args.read_seconds,
        record["stream-small"]["mean_update_ms"],
    )
    print("reads", json.dumps(record["reads"]))
    if record["reads"]["wait_to_update_ratio"] > 0.2:
        print("READ_RATE too low for stream-small's update latency",
              file=sys.stderr)
        return 1
    (HERE / "capacity.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
