"""colift benchmark: closed-loop CLI workloads, end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload flagship_laurent --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --probes
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from its
`src/` directory and from nowhere else.  With --trace 0 the last line of
stdout is a JSON object holding every end-to-end metric of BENCHMARK.json,
times at reference speed (see workloads.REF_S); with --trace 1 every
per-layer metric, from ops that are each run once untraced and once traced
(the difference is reported as the tracing overhead), and the spans are
written to perfbench/_runs/.  --probes runs the big-prime correctness
probes, which no workload runs, and prints their outcomes per modulus and
exit code.  --smoke runs all workloads and the probes at tiny sizes, traced
and untraced, and checks that every named metric is emitted and every
output check ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")
SETUP_REPEATS = 9

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def import_colift():
    """Import colift from this checkout's src/ only; exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "colift", "__init__.py")):
        sys.exit(f"error: no colift sources under {SRC}")
    sys.path.insert(0, SRC)
    import colift
    import colift.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(colift.__file__))) != SRC:
        sys.exit(f"error: colift was imported from {colift.__file__}, not {SRC}")
    colift.homs.HomRegistry.builtin()
    return colift


def setup_once(args):
    """One timed set-up in this fresh process: import colift, load the hom
    registry and write the run's input files.  Importing is bound by the
    module loader and file reads, which follow the pure-Python reference
    block only loosely (between fast and slow phases of a shared machine it
    moves about 0.4 times as much), so it counts in wall seconds; writing the
    inputs is pure Python and counts at reference speed (see
    workloads.REF_S).  Also reports the whole set-up in wall seconds."""
    ref_before = workloads.time_reference()
    t0 = time.perf_counter()
    import_colift()
    t1 = time.perf_counter()
    workloads.prepare(args.workload, args.seed, args.smoke, args.out)
    t2 = time.perf_counter()
    ref_after = workloads.time_reference()
    print(json.dumps({"setup_s": (t1 - t0) + (t2 - t1) * 2 * workloads.REF_S
                      / (ref_before + ref_after), "wall_s": t2 - t0}))


def timed_setup(args, work_dir):
    """Medians of several set-ups, at reference speed and in wall seconds,
    each in its own interpreter so imports are cold; the last one's files
    are the run's inputs."""
    times, walls = [], []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed),
               "--out", work_dir] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, env=dict(os.environ, COLIFT_THREADS="1"))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(done.returncode or 1)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        times.append(last["setup_s"])
        walls.append(last["wall_s"])
    with open(os.path.join(work_dir, "manifest.json"), encoding="utf-8") as fh:
        return statistics.median(times), statistics.median(walls), json.load(fh)


def machine_facts(args, runner, cycles, setup_wall_s):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "cycles": cycles,
            "samples": {k: len(v) for k, v in sorted(runner.samples.items())},
            "reference_s": statistics.median(runner.refs) if runner.refs else None,
            "wall_medians": dict({"setup_s": setup_wall_s},
                                 **{k: statistics.median(v)
                                    for k, v in sorted(runner.raw.items())})}


def run_workload(args):
    work_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, setup_wall_s, manifest = timed_setup(args, work_dir)
        colift = import_colift()
        import tracer
        runner = workloads.Runner(colift, manifest,
                                  tracer.Recorder() if args.trace else None)
        cycles = workloads.run_loop(runner, args.workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        metrics = workloads.per_layer(runner)
        span_path = os.path.join(RUNS, f"spans-{args.workload}-{args.seed}.json")
        runner.rec.write(span_path, runner.ops)
        print(f"spans written to {os.path.relpath(span_path, ROOT)}")
    else:
        metrics = workloads.end_to_end(runner, setup_s)
    facts = machine_facts(args, runner, cycles, setup_wall_s)
    print("facts " + json.dumps(facts, sort_keys=True))
    for what in runner.unexpected + runner.wrong:
        print(f"check failed: {what}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    correct = not runner.wrong and not runner.unexpected
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return result


def run_probes(args):
    """The big-prime probes: valid specs over Z/(2^31-1) and Z/(2^61-1),
    each built from a known conjugator, recovered once each.  They are kept
    out of the workloads, where every op must succeed; their outcomes are
    printed per modulus and exit code.  Returns the outcome counts, or None
    if a probe recovered a wrong conjugator."""
    work_dir = os.path.join(RUNS, f"probes-{args.seed}-{os.getpid()}")
    try:
        colift = import_colift()
        n = workloads.PROBE_N["smoke" if args.smoke else "full"]
        manifest = workloads.prepare_probes(args.seed, n, work_dir)
        runner = workloads.Runner(colift, manifest)
        for cls, entries in sorted(manifest["probe"].items()):
            for _ in entries:
                runner.probe(cls)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for key, count in sorted(runner.probe_outcomes.items()):
        print(f"probe n={n} {key}: {count}")
    for what in runner.wrong:
        print(f"check failed: {what}")
    print(json.dumps({"probes": runner.probe_outcomes}))
    return None if runner.wrong else runner.probe_outcomes


def smoke(args):
    """Every workload at smoke size, untraced and traced: every metric of
    BENCHMARK.json is emitted and every output check passes."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            ns = argparse.Namespace(workload=workload, seed=args.seed, seconds=1,
                                    trace=trace, smoke=True)
            result = run_workload(ns)
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics differ: "
                                f"{sorted(set(got) ^ set(want))} or units")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: output checks failed")
    outcomes = run_probes(argparse.Namespace(seed=args.seed, smoke=True))
    if outcomes is None:
        problems.append("probes: a wrong conjugator was recovered")
    elif sum(outcomes.values()) != 2 * workloads.PROBE_SPECS:
        problems.append("probes: not every probe ran")
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probes", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.environ["COLIFT_THREADS"] = "1"
    if args.setup_only:
        setup_once(args)
        return 0
    os.makedirs(RUNS, exist_ok=True)
    if args.probes:
        return 0 if run_probes(args) is not None else 1
    if args.workload is None:
        return smoke(args) if args.smoke else parser.error("--workload is required")
    return 0 if run_workload(args)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
