"""finkern's benchmark: five closed-loop workloads, one caller each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the repository root; the program is imported from ``src``. With
``--trace 0`` a run prints the end-to-end metrics, measured untraced; with
``--trace 1`` it prints the per-layer metrics of one cycle of ops, taken
under cProfile with spans around the benchmark's calls into each layer.
Untraced timings are scaled to the reference machine's quiet host speed
by the reference tasks of ``hostspeed.py``; wall figures are printed beside
them.
Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
in this directory for the workloads, ops, checks and metric definitions.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

from hostspeed import reference, scale, scale_all
from tracing import (DETERMINISTIC, PER_LAYER, UNTRACED, Tracer,
                     layer_metrics, merged_stats)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

WORKLOADS = ("theorem-batch", "structural-build", "dense-algebra", "simulate",
             "cli")

# A second seed kept out of tuning, to re-check a claim on unseen inputs.
HELD_OUT_SEED = 90210

# Nominal wall seconds of one cycle of ops, their checks and their
# host-speed references on the reference machine (see README.md). A run
# times round(seconds / cycle) whole cycles, so the op mix and count depend
# on --seconds alone and are equal on any two commits; at 25 s that is 6
# cycles of structural-build, 8 of simulate and 4 of cli.
NOMINAL_CYCLE_S = {
    "theorem-batch": 1.9,
    "structural-build": 4.0,
    "dense-algebra": 1.9,
    "simulate": 3.0,
    "cli": 6.8,
}
# The host-speed reference task whose work is most like each workload's ops
# (see hostspeed.py); set-up samples, fresh processes, use "process".
REFERENCE_TASK = {
    "theorem-batch": "exact",
    "structural-build": "exact",
    "dense-algebra": "exact",
    "simulate": "sampling",
    "cli": "process",
}
SETUP_REPEATS = 5
# On a machine or in a host state slower than the reference one, start no
# cycle that the last one says would end past 1.4 times --seconds, so a run
# still ends in time.
DEADLINE_FACTOR = 1.4

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cycles(args) -> int:
    return max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))


def _build_ops(workload: str, seed: int, cycles: int):
    """Seeded inputs for one run: (ops, cli children or None)."""
    import workloads  # imports finkern, so only once src is on sys.path
    rng = random.Random(seed)
    if workload == "cli":
        from cli_workload import Children, cli
        children = Children(ROOT, WORK / "cli")
        return cli(rng, cycles, children), children
    setup = {"theorem-batch": workloads.theorem_batch,
             "structural-build": workloads.structural_build,
             "dense-algebra": workloads.dense_algebra,
             "simulate": workloads.simulate}[workload]
    return setup(rng, cycles), None


def _setup_once(args) -> tuple[float, float]:
    """A fresh process to inputs ready: (wall seconds, at reference speed)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-only"]
    before = reference("process")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=120)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed, scale(elapsed, (before, reference("process")), "process")


def _run_ops(ops, tr, profile=None, brackets=None, task=None):
    """Time each op; return (latencies in seconds, failed ops).

    With a ``brackets`` list, a run of the host-speed reference ``task``
    goes before the first op and after each, and each op's (before, after)
    pair of reference times is appended there.
    """
    # An array, unlike a list, is not traversed by every gc.collect().
    latencies = array("d")
    failed = []
    before = reference(task) if brackets is not None else 0.0
    for op in ops:
        gc.collect()
        with tr.op(op.kind):
            if profile is not None:
                profile.enable()
            start = time.perf_counter()
            try:
                result = op.run(tr)
            except Exception:
                result = None
                ok = False
                traceback.print_exc()
            else:
                ok = True
            latencies.append(time.perf_counter() - start)
            if profile is not None:
                profile.disable()
        if brackets is not None:
            after = reference(task)
            brackets.append((before, after))
            before = after
        if ok:
            try:
                ok = op.check(result, tr)
            except Exception:
                ok = False
                traceback.print_exc()
        del result
        if not ok:
            failed.append(op)
    return latencies, failed


def _report_failures(failed) -> bool:
    """Print failures by kind; True when every one is a documented defect."""
    kinds: dict[str, list] = {}
    for op in failed:
        kinds.setdefault(op.kind, []).append(op)
    for kind, ops in sorted(kinds.items()):
        note = f" (known defect: {ops[0].known_defect})" if ops[0].known_defect else ""
        print(f"failed {kind}: {len(ops)}{note}")
    return all(op.known_defect for op in failed)


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": _commit(),
            "held_out_seed": HELD_OUT_SEED}


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on the highest-numbered CPU.

    A single-threaded run then never migrates between CPUs, and stays off
    CPU 0, which usually takes the interrupts.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _result(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}})


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def timed_run(args) -> str:
    """Time every op at the reference host speed.

    This host's speed moves by up to 2x between states that last seconds to
    minutes (README.md), so each op and each set-up sample is bracketed by
    the reference task of ``hostspeed`` and scaled to its quiet speed.
    Set-up is timed before the first cycle and again after every few, so its
    samples come from across the run.
    """
    cycles = _cycles(args)
    task = REFERENCE_TASK[args.workload]
    setups = [_setup_once(args)]
    ops, children = _build_ops(args.workload, args.seed, cycles)
    gc.collect()
    gc.freeze()
    if children is None:
        ops[0].run(UNTRACED)  # warm-up; the CLI keeps its cold start per op
    per_cycle = len(ops) // cycles
    setup_every = max(1, cycles // (SETUP_REPEATS - 1))
    walls, scaled, failed = array("d"), array("d"), []
    deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
    cycle_s = 0.0
    for c in range(cycles):
        if time.perf_counter() + cycle_s > deadline:
            print(f"warning: stopped after cycle {c} of {cycles} to end in "
                  "time", file=sys.stderr)
            break
        start = time.perf_counter()
        brackets = []
        latencies, cycle_failed = _run_ops(
            ops[c * per_cycle:(c + 1) * per_cycle], UNTRACED,
            brackets=brackets, task=task)
        walls.extend(latencies)
        scaled.extend(scale_all(latencies, brackets, task))
        failed += cycle_failed
        cycle_s = time.perf_counter() - start
        if (c + 1) % setup_every == 0:
            setups.append(_setup_once(args))
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_once(args))

    def summary(op_times, setup_times):
        ordered = sorted(op_times)
        return {
            "setup_s": statistics.median(setup_times),
            "throughput_per_s": len(op_times) / sum(op_times),
            "latency_p50_ms": statistics.median(op_times) * 1e3,
            "latency_tail_ms": ordered[tail] * 1e3,
        }
    n = len(scaled)
    # The highest op time with 10 beyond it (the slowest in a shorter run).
    tail = n - 11 if n > 10 else n - 1
    metrics = summary(scaled, [at_ref for _, at_ref in setups])
    wall_metrics = summary(walls, [wall for wall, _ in setups])
    if children is None:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = children.peak_rss_kb
    metrics["ok_ratio"] = (n - len(failed)) / n
    metrics["peak_rss_mb"] = peak_kb / 1024
    print(f"cycles = {n // per_cycle} of {cycles}  ops = {n}  "
          f"of which failed = {len(failed)}")
    for name, value in metrics.items():
        line = f"{name} = {value:.6g} {END_TO_END[name]}"
        if name in wall_metrics:
            line += f"  (wall {wall_metrics[name]:.6g})"
        if name == "latency_tail_ms":
            line += (f"  (p{100 * (tail + 1) / n:.2f}, "
                     f"{n - tail - 1} of {n} samples beyond)")
        elif name == "setup_s":
            line += f"  (median of {len(setups)} fresh processes)"
        print(line)
    by_kind: dict[str, list] = {}
    for op, latency in zip(ops, scaled):
        by_kind.setdefault(op.kind, []).append(latency)
    for kind, times in by_kind.items():
        print(f"  {kind}: {len(times)} ops, median "
              f"{statistics.median(times) * 1e3:.4g} ms")
    correct = _report_failures(failed)
    return _result(correct, n, len(failed), metrics, END_TO_END)


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _one_pass(args, tracer, profile):
    """Set up and run one cycle; return (wall seconds, ops run, failed ops).

    The wall time covers set-up and the ops, not the warm-up or the checks.
    """
    start = time.perf_counter()
    if profile is not None:
        profile.enable()
    ops, children = _build_ops(args.workload, args.seed, 1)
    if profile is not None:
        profile.disable()
    setup_wall = time.perf_counter() - start
    gc.collect()
    gc.freeze()
    if children is None:
        ops[0].run(UNTRACED)
    latencies, failed = _run_ops(ops, tracer, profile)
    gc.unfreeze()
    gc.collect()
    return setup_wall + sum(latencies), len(latencies), failed


def _import_seconds() -> float:
    """Cold ``import finkern.cli`` minus the bare interpreter, medians of 5."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def median_run(code):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, timeout=60)
            times.append(time.perf_counter() - start)
        return statistics.median(times)
    return median_run("import finkern.cli") - median_run("pass")


def traced_run(args, environment: dict) -> str:
    out_dir = WORK / "trace"
    untraced_wall, attempted, failed = _one_pass(args, UNTRACED, None)
    passes = []
    for i in range(2):
        profile_dir = out_dir / f"{args.workload}-{i}"
        profile_dir.mkdir(parents=True, exist_ok=True)
        for stale in profile_dir.glob("*.prof"):
            stale.unlink()
        tracer = Tracer(profile_dir)
        profile = cProfile.Profile()
        wall, ran, pass_failed = _one_pass(args, tracer, profile)
        attempted += ran
        failed += pass_failed
        metrics = layer_metrics(merged_stats(profile, tracer.profiles), tracer)
        passes.append((wall, tracer, metrics))
    wall, tracer, metrics = passes[0]
    metrics["cli.import_s"] = _import_seconds() if args.workload == "cli" else 0.0
    metrics["trace.overhead_ratio"] = wall / untraced_wall
    metrics = {name: metrics[name] for name in PER_LAYER}

    mismatched = [name for name in DETERMINISTIC
                  if metrics[name] != passes[1][2][name]]
    for name in mismatched:
        print(f"nondeterministic count {name}: {metrics[name]} then "
              f"{passes[1][2][name]}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {PER_LAYER[name]}")
    print(f"counts repeat across two traced passes: {not mismatched}")

    trace_file = out_dir / f"{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "environment": environment, "per_layer": metrics,
        "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "spans": tracer.spans}))
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    correct = _report_failures(failed) and not mismatched
    return _result(correct, attempted, len(failed), metrics, PER_LAYER)


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one summary table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}")
            return 1
        results[workload] = json.loads(lines[-1])
    print("\nsummary")
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(f"{workload:<17} {name:<32} {metric['value']:.6g} "
                  f"{metric['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": metric for w, r in results.items()
                    for name, metric in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "finkern" / "__init__.py").is_file():
        print(f"error: the finkern sources are missing from {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _build_ops(args.workload, args.seed, _cycles(args))
        print("ready", flush=True)
        return 0
    environment = _environment()
    _pin_to_one_cpu()
    print("environment = " + json.dumps(environment))
    print(f"workload = {args.workload}  seed = {args.seed}  "
          f"seconds = {args.seconds:g}  trace = {args.trace}", flush=True)
    print(traced_run(args, environment) if args.trace else timed_run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
