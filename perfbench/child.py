"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <setup|run|timed|trace> <spans-stem>

Imports hatlab from the checkout's ``src/`` (cold module-level caches),
builds the workload's inputs, and in ``run``/``timed``/``trace`` mode runs
the call list once, then checks every output.  ``trace`` wraps hatlab's public
functions before the inputs are built and writes the spans to
``<spans-stem>.{json,bin}``.  The last stdout line is one JSON object;
``ready`` is the ``time.monotonic()`` reading once set-up finished, which
the parent subtracts from its spawn time, and ``ready_kernel_s`` the host
speed sample taken right after it (see hostclock).  ``timed`` is ``run``
timed with a HostClock as well.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import hatlab  # noqa: E402

if not os.path.abspath(hatlab.__file__).startswith(SRC + os.sep):
    sys.exit(f"hatlab imported from {hatlab.__file__}, not from {SRC}")

import hostclock  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spantrace import Tracer  # noqa: E402


def main(workload: str, seed: int, mode: str, stem: str) -> dict:
    tracer = Tracer(layers.HOOKS) if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    ops = workloads.setup(workload, seed)
    ready = time.monotonic()
    report: dict = {"ready": ready, "ready_kernel_s": hostclock.speed_sample()}
    if mode != "setup":
        clock = hostclock.HostClock() if mode == "timed" else None
        report.update(run_ops(workload, ops, tracer, stem, clock))
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report


def run_ops(workload: str, ops: list, tracer: Tracer | None, stem: str,
            clock: hostclock.HostClock | None = None) -> dict:
    """Run the call list once, then check every output.

    With a ``clock``, ``ref_s`` is the pass in reference seconds and
    ``wall_s`` its raw seconds, both without the clock's own samples.
    """
    results: dict = {}
    failures: list[str] = []
    if clock is not None:
        clock.start()
    t0 = time.perf_counter()
    try:
        for op in ops:
            if clock is not None:
                clock.sample()  # a slice never spans two ops
            try:
                if tracer is None:
                    results[op.label] = op.call()
                else:
                    with tracer.span("op." + op.label):
                        results[op.label] = op.call()
            except Exception as exc:  # an unexpected error is a failed op, not a crash
                failures.append(f"{op.label}: raised {exc!r}")
        wall = time.perf_counter() - t0
    finally:
        if clock is not None:
            clock.stop()
    out: dict = {"wall_s": wall}
    if clock is not None:
        out["wall_s"], out["ref_s"] = clock.reading()
        out["kernel_s"] = statistics.median(clock.samples)
    if tracer is not None:
        tracer.uninstall()

    for op in ops:
        if op.label not in results:
            continue
        try:
            reason = op.check(results[op.label], results)
        except Exception as exc:
            reason = f"check raised {exc!r}"
        if reason is not None:
            failures.append(f"{op.label}: {reason}")

    out.update(attempted=len(ops), failures=failures)
    if workload == "mis-frontier":
        out["certified_gap"] = workloads.certified_gap(results)
    if workload == "suite" and "suite" in results:
        out["check_s"] = {
            f"acceptance.check_{rec['criterion']:02d}.s": rec["wall_ms"] / 1000.0
            for rec in results["suite"].records
        }
    if tracer is not None:
        per_layer = layers.metrics(tracer.spans.by_name(), tracer.counters)
        per_layer["trace.spans"] = len(tracer.spans)
        per_layer["trace.wall_s"] = wall
        out["per_layer"] = per_layer
        tracer.spans.save(stem)
    return out


if __name__ == "__main__":
    workload, seed, mode, stem = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    print(json.dumps(main(workload, seed, mode, stem)))
