"""gracecolor benchmark: one workload per run, checked, with named metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics: the workload's task list is run
pass after pass for --seconds, and at least three times, with tracing off.
--trace 1 reports the per-layer metrics: two passes with spans around every
layer's public functions alternate with two untraced passes, and `graceful`
then runs its palette and pool probes.  Any wrong answer ends the run with
exit code 1 and no result.

The last line of stdout is the result as one JSON object.  The lines before
it are a readable table, with each timing's sample count, and the machine's
details.  Provenance, the result and (traced) the spans and per-level rows
are also written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 9
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p90_s": "s",
    "proven_frac": "ratio",
    "peak_rss_mb": "MB",
}


def fail(message: str, code: int) -> None:
    print(message, file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import gracecolor from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "gracecolor", "__init__.py")):
        fail(f"no gracecolor sources under {SRC}: run from the root of a checkout", 2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import gracecolor
    if os.path.dirname(os.path.dirname(os.path.abspath(gracecolor.__file__))) != SRC:
        fail(f"imported gracecolor from {gracecolor.__file__}, not {SRC}", 2)


def check_declared() -> None:
    """The metric names printed here must be those BENCHMARK.json declares."""
    import layers
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if declared != END_TO_END or per_layer != {k: v[:2] for k, v in layers.METRICS.items()}:
        fail("BENCHMARK.json and perfbench/run.py declare different metrics", 2)


def provenance(workload: str, seed: int, tasks: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "tasks": tasks,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "commit": git_commit()}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; read from .git directly
    so that nothing outside the checkout is consulted."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def make_workload(name: str, seed: int):
    from workloads import WORKLOADS
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir), workdir


def time_setup(args) -> list[float]:
    """Wall times of fresh processes that import gracecolor and build the
    workload's inputs (corpus, files, pre-warmed cache)."""
    samples = []
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            fail(f"set-up failed:\n{done.stderr}", 1)
    return samples


def measure(workload, seconds: float, setup: list[float]) -> tuple[dict, dict, int]:
    """End-to-end metrics over passes run for `seconds` (at least MIN_PASSES).

    A task's time is its mean over the passes; a task is one step, or all of
    them when the workload is ONE_TASK.  wall_s is the sum of the task
    times: the time to finish the task list.  task_p90_s is the 90th
    percentile of the task times.  setup_s is the median of `setup`.

    The VM's speed drifts over seconds and minutes (see calibrate.py), so
    every time is then scaled to reference seconds by the speed gauge,
    sampled between tasks all through the run.  On `graceful`, five runs
    spread 33 % on the unscaled sum of per-task best times, and five others
    4 % on the scaled sum of means.  The set-up processes ran before the
    passes and take the same scale: the gauge, timed between them, read
    3-24 ms where the passes' samples read 4-6 ms.  Unscaled, the median
    setup_s of ten `graceful` runs moved 35 % between two sets of ten as
    the VM sped up; scaled, 2.5 %.  The unscaled times are kept in the
    samples.
    """
    from calibrate import Gauge
    gauge = Gauge()
    passes, proven = [], 0
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()  # every pass starts from the same heap
        passes.append(workload.run_pass(gauge=gauge))
        proven += workload.check(passes[-1])
    gauge.sample()
    steps = [statistics.mean(times) for times in zip(*(p.task_times for p in passes))]
    tasks = [sum(steps)] if workload.ONE_TASK else steps
    attempted = len(tasks) * len(passes)
    measured = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(tasks),
        "task_p90_s": (statistics.quantiles(tasks, n=10, method="inclusive")[8]
                       if len(tasks) > 1 else tasks[0]),
    }
    scale = gauge.scale()
    metrics = {key: value * scale for key, value in measured.items()}
    metrics["proven_frac"] = proven / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    count = f"{len(tasks)} tasks of {len(steps)} steps x {len(passes)} passes"
    samples = {"setup_s": f"{SETUP_REPEATS} processes", "wall_s": count,
               "task_p90_s": count, "proven_frac": count, "peak_rss_mb": "1 process",
               "unscaled_s": measured, "scale": scale, "gauge_samples": gauge.samples,
               "setup_samples": setup, "pass_task_times": [p.task_times for p in passes]}
    return metrics, samples, attempted


def measure_traced(name: str, workload, tracer) -> tuple[dict, int, list[dict]]:
    """Per-layer metrics from the first of two traced passes, which alternate
    with two untraced ones; then the probes.  trace.overhead_frac compares
    per-task best times, traced against untraced."""
    import layers
    from spans import Tracer
    runs = {False: [], True: []}
    tracers = [tracer, Tracer()]
    for traced in (False, True, False, True):
        active = tracers[len(runs[True])] if traced else None
        gc.collect()
        if active:
            active.install()
        try:
            runs[traced].append(workload.run_pass(active))
        finally:
            if active:
                active.uninstall()
        workload.check(runs[traced][-1])
    first, last = runs[True][0], runs[False][-1]
    rows, pool = [], None
    if name == "ladder":
        rows = workload.levels(first)
    elif name == "graceful":
        rows = workload.levels(last)
        pool = workload.pool_times(last)
    metrics = layers.metrics(tracer.spans, rows, pool)
    best = {traced: sum(min(t) for t in zip(*(p.task_times for p in passes)))
            for traced, passes in runs.items()}
    metrics["trace.overhead_frac"] = best[True] / best[False] - 1
    return metrics, workload.tasks(), rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "graceful", "scripting"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_program()
    os.makedirs(OUT, exist_ok=True)
    if args.setup_only:
        _, workdir = make_workload(args.workload, args.seed)
        shutil.rmtree(workdir)
        return
    check_declared()
    import layers
    from spans import Tracer
    from workloads import WrongAnswer

    setup = None if args.trace else time_setup(args)
    workload, workdir = make_workload(args.workload, args.seed)
    tracer = Tracer()
    try:
        if args.trace:
            metrics, attempted, rows = measure_traced(args.workload, workload, tracer)
            units = {k: v[0] for k, v in layers.METRICS.items()}
            samples = {}
        else:
            metrics, samples, attempted = measure(workload, args.seconds, setup)
            units = END_TO_END
    except WrongAnswer as exc:
        fail(f"wrong answer on {args.workload}: {exc}", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = provenance(args.workload, args.seed, workload.tasks())
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer.write(stem + ".spans.jsonl", rows)
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"provenance": info, "samples": samples, **result}, handle, indent=1)
    for key in units:
        count = f"  ({samples[key]})" if key in samples else ""
        print(f"{key:24} {metrics[key]:>16.6g} {units[key]}{count}")
    print("provenance " + json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
