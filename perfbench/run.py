"""Seeded benchmark of the verogeo library: one workload per run, one
process, one thread.

    python3 perfbench/run.py --workload census|reduct|build --seed N \\
        --seconds S --trace 0|1

A run imports the library from ./src of the checkout and repeats the
workload's pass until S seconds are used.  Between passes it times the
set-up (import plus input generation) in fresh interpreters.  Every pass
is checked against the recorded values in workloads.py; a mismatch
prints its witness on stderr and the run exits 1.

With --trace 0 the run reports the end-to-end metrics; their pass times
are the sum of each library call's fastest time over the run
(spans.BestTimes says why).  With --trace 1 it alternates traced and
untraced passes and reports the per-layer metrics from the spans of the
traced ones, the untimed remainder, and the tracing overhead.  Each run
also writes a results record (and, traced, its spans) under
.perfbench-results/.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from spans import BestTimes, Tracer, call_counts, layer_metrics, untraced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-results"
SETUP_PROBES = 9

END_TO_END = {"best_wall_s": "s", "best_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_library():
    """Import verogeo from this checkout's src, and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import verogeo
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import verogeo from {SRC}: {exc}")
    if Path(verogeo.__file__).resolve().parent != SRC / "verogeo":
        raise SystemExit(f"perfbench: imported verogeo from {verogeo.__file__}, not {SRC}")


def setup_seconds(workload: str, seed: int) -> float:
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    done = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "seed": seed}


def check(expected: dict, observed: dict) -> list[dict]:
    """One entry per recorded value that the pass did not reproduce."""
    wrong = [{"key": k, "expected": v, "got": observed.get(k, "<missing>")}
             for k, v in expected.items() if observed.get(k, "<missing>") != v]
    wrong += [{"key": k, "expected": "<unrecorded>", "got": observed[k]}
              for k in observed if k not in expected]
    return wrong


def per_layer_metrics(W, spans, traced_walls, untraced_walls, work) -> dict:
    layers = layer_metrics(spans)
    counts = call_counts(spans, min(s.pass_id for s in spans))
    values = {}
    for name in W.LAYER_CALLS:
        values[f"{name}.s"] = layers.get(f"{name}.s", 0.0)
        values[f"{name}.calls"] = counts.get(name, 0)
    for module in W.MODULES:
        values[f"{module}.s"] = layers.get(f"{module}.s", 0.0)
    values["untimed.s"] = layers["untimed.s"]
    values["traced.wall_s"] = layers["traced.wall_s"]
    values["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    for name in W.WORK_COUNTERS:
        values[name] = work.get(name, 0)
    return values


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith((".s", "_s")) else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["census", "reduct", "build"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads as W

    inputs = W.make_inputs(args.workload, args.seed)
    run_pass = W.PASSES[args.workload]
    expected = W.EXPECTED[args.workload]

    tracer, best = Tracer(), BestTimes()
    walls, cpus, traced_walls, untraced_walls = [], [], [], []
    attempted = failed = 0
    observed, work = {}, {}
    # The set-ups are spread over the run, between passes: the host's slow
    # and fast phases last from a second to minutes, longer than a set-up.
    setups: list[float] = []
    started = time.perf_counter()
    while True:
        while (len(setups) < SETUP_PROBES and time.perf_counter() - started
               >= len(setups) * args.seconds / SETUP_PROBES):
            setups.append(setup_seconds(args.workload, args.seed))
        i = len(walls)
        traced = args.trace == 1 and i % 2 == 1
        # Every pass starts from the same heap, so the collector stops at the
        # same points in each; left to the previous pass's garbage, the
        # build pass's gamma chains ran 4.1 to 6.3 s from pass to pass.
        gc.collect()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if traced:
            tracer.begin_pass(i)
            observed, work = run_pass(inputs, tracer.call)
            tracer.end_pass()
        elif args.trace:
            observed, work = run_pass(inputs, untraced)
        else:
            best.begin_pass()
            observed, work = run_pass(inputs, best.call)
            best.end_pass()
        wall = time.perf_counter() - wall0
        cpus.append(time.process_time() - cpu0)
        walls.append(wall)
        (traced_walls if traced else untraced_walls).append(wall)
        wrong = check(expected, observed)
        attempted += len(expected.keys() | observed.keys())
        failed += len(wrong)
        for w in wrong:
            print(f"MISMATCH {args.workload} seed {args.seed} pass {i}: {w['key']}: "
                  f"expected {w['expected']!r}, got {w['got']!r}", file=sys.stderr)
        least = 2 if args.trace else 1
        if len(walls) >= least and time.perf_counter() - started + wall > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(args.workload, args.seed))

    if args.trace:
        metrics = per_layer_metrics(W, tracer.spans, traced_walls, untraced_walls, work)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        best_wall, best_cpu = best.pass_seconds()
        metrics = {"best_wall_s": best_wall, "best_cpu_s": best_cpu, "setup_s": median(setups),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**provenance(args.seed), "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "passes": len(walls), "pass_wall_s": walls,
              "pass_cpu_s": cpus, "setup_s": setups, "attempted": attempted,
              "failed": failed, "failed_ratio": failed / attempted,
              "best_call_s": {f"{pos}:{name}": t for (pos, name), t in best.calls.items()},
              "observed": observed, "finding": W.FINDINGS.get(args.workload),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(walls)} passes, "
          f"{failed}/{attempted} checks failed, record {OUT.name}/{stem}.json")
    for k, v in metrics.items():
        print(f"  {k} {v} {units[k]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
