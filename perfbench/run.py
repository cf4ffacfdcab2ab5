"""hatlab benchmark: end-to-end timings per workload, per-layer numbers from a traced run.

    python3 perfbench/run.py --workload {suite,mis-frontier,games,sampling}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; hatlab is imported from its ``src/``.
Every pass and every set-up sample is a fresh interpreter, so hatlab's
module-level caches start empty each time, as they do for a user.  One
discarded set-up run first compiles the ``.pyc`` files.

``--trace 0``: passes run back to back until ``--seconds`` have gone by
(at least one); prints wall_s (median pass), setup_s (median of the
set-ups run between passes, at least SETUP_SAMPLES) and peak_rss_mb
(median pass).  Both times are in reference seconds: each stretch of work
is scaled by the host's speed measured around it (see hostclock), so a
host that drifts slower for minutes does not move them.
``--trace 1``: untraced and traced passes alternate; prints the per-layer
metrics of metricnames.PER_LAYER (median over traced passes, raw seconds)
and the tracing overhead.  Spans go to ``.perfbench_out/<workload>.{json,bin}``.
Every pass's readings go to ``.perfbench_out/<workload>-<seed>.passes.json``.

Human-readable lines come first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
a result was printed; without a hatlab source tree, or when a pass
crashes, it is non-zero and nothing is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostclock
from metricnames import UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("suite", "mis-frontier", "games", "sampling")
SETUP_SAMPLES = 15  # at least this many set-ups per run
SETUPS_PER_PASS = 3
CHILD_TIMEOUT_S = 150


class PassFailed(RuntimeError):
    pass


def child_env() -> dict:
    """The caller's environment without Python path overrides, hash seed fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, mode: str) -> dict:
    stem = os.path.join(OUT_DIR, workload)
    cmd = [sys.executable, "-s", os.path.join(HERE, "child.py"), workload, str(seed), mode, stem]
    kernel_before = hostclock.speed_sample()
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    speed = (kernel_before + report["ready_kernel_s"]) / 2
    report["setup_ref_s"] = report["setup_s"] * hostclock.REFERENCE_KERNEL_S / speed
    return report


def median_metric(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[dict]]:
    """Passes until ``seconds`` have elapsed, with set-up samples spread between them.

    Spreading the set-ups over the whole run, rather than taking them back
    to back, keeps one slow phase of the host from setting their median.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    run_child(workload, seed, "setup")  # compiles .pyc files; discarded
    setups: list[dict] = []
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    while True:
        setups += [run_child(workload, seed, "setup") for _ in range(SETUPS_PER_PASS)]
        plain.append(run_child(workload, seed, "run" if trace else "timed"))
        if trace:
            traced.append(run_child(workload, seed, "trace"))
        if time.monotonic() - t0 >= seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup"))
    return setups, plain, traced


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hatlab", "__init__.py")):
        print(f"perfbench: no hatlab source tree under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        setups, plain, traced = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (PassFailed, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    with open(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}.passes.json"), "w") as fh:
        json.dump({"setups": setups, "plain": plain, "traced": traced}, fh)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    wall = median_metric(plain, "wall_s")
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced + {len(traced)} traced "
          f"passes, {len(setups)} set-ups; closed loop, one caller")
    print("untraced pass raw s:  " + " ".join(f"{p['wall_s']:.3f}" for p in plain))
    if not args.trace:
        print("untraced pass ref s:  " + " ".join(f"{p['ref_s']:.3f}" for p in plain))
        print("host kernel ms:       " + " ".join(f"{p['kernel_s'] * 1e3:.3f}" for p in plain)
              + f" (reference {hostclock.REFERENCE_KERNEL_S * 1e3:.3f})")
    for f in sorted(set(failures)):
        print(f"FAILED {f}")
    print(f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4g}")
    if "certified_gap" in plain[0]:
        print(f"certified_gap {plain[0]['certified_gap']} count")

    if not args.trace:
        metrics = {
            "wall_s": (median_metric(plain, "ref_s"), "s"),
            "setup_s": (median_metric(setups, "setup_ref_s"), "s"),
            "peak_rss_mb": (median_metric(plain, "maxrss_kb") * 1024 / 1e6, "MB"),
        }
    else:
        per_layer = {name: statistics.median(p["per_layer"][name] for p in traced) for name in UNITS}
        for name in UNITS:
            if name.startswith("acceptance."):  # CheckResult.seconds of the untraced passes
                per_layer[name] = statistics.median(p.get("check_s", {}).get(name, 0.0) for p in plain)
        per_layer["graph_core.certified_gap"] = plain[0].get("certified_gap", 0)
        per_layer["trace.overhead_ratio"] = median_metric(traced, "wall_s") / wall
        metrics = {name: (value, UNITS[name]) for name, value in per_layer.items()}
        print(f"tracing overhead: traced pass {per_layer['trace.wall_s']:.4f} s vs untraced {wall:.4f} s "
              f"(x{per_layer['trace.overhead_ratio']:.3f}), {per_layer['trace.spans']:.0f} spans")

    for name, (value, unit) in metrics.items():
        print(f"{name:<56s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
