"""One workload process of the quiverkit pipeline benchmark.

Started by run.py, which pins BLAS/OpenMP threads and the hash seed first.
The process sets up its inputs, runs every task of the workload once per
round, closed loop, until its time is spent, and prints one JSON object as
the last line of its output.

--setup-only   set up once and report the set-up time only
--trace 1      after untraced rounds, run traced passes (set-up and one round
               each) and report per-layer metrics and the tracing overhead

Round times are reported at reference speed.  On a shared machine, other
tenants slow the processor by up to 1.7x for spells longer than a whole run,
and a run's fastest or median round then moves with them, not with the
program.  So the process times a fixed reference kernel, which never calls
quiverkit, before and after every task, and scales each round's wall time by
REFERENCE_S over the kernel's mean time during that round.  run.py scales
set-up times the same way.
"""

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))

# Seconds the reference kernel takes on an unloaded 2-vCPU Intel Xeon VM
# under Python 3.11 and numpy 2.4; a fixed scale, so that times at reference
# speed stay comparable between runs and commits.
REFERENCE_S = 0.007
_MATRICES = [numpy.random.default_rng(0).integers(0, 32003, (6, 6)) for _ in range(40)]


def reference_s():
    """Wall seconds of one run of the reference kernel: the mix of dict,
    Fraction and small numpy work that the pipeline itself does."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    counts = {}
    for i in range(25000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
    sum(Fraction(i, 7) for i in range(1, 400))
    for _ in range(25):
        for m in _MATRICES:
            (m @ m) % 32003
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the launcher just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def run_round(tasks, inputs, task_s):
    """Every task once; returns (wall seconds, seconds at reference speed,
    {task id: answer}) and appends each task's wall seconds to
    task_s[task id].  The reference kernel runs between tasks, untimed."""
    answers = {}
    references = [reference_s()]
    seconds = 0.0
    for task in tasks:
        start = time.perf_counter()
        try:
            answers[task.id] = task.run(*inputs[task.id])
        except Exception as exc:  # a task that raises is a failed task
            answers[task.id] = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        seconds += elapsed
        task_s.setdefault(task.id, []).append(elapsed)
        references.append(reference_s())
    return seconds, seconds * REFERENCE_S / statistics.mean(references), answers


def measure(workloads, tasks, parsed, inputs, budget):
    """Closed loop of rounds, at least one, until the next would overrun
    `budget` seconds.  Each round gets fresh inputs, prepared outside the
    timed region.
    """
    start = time.perf_counter()
    times, scaled, answers, task_s = [], [], [], {}
    while True:
        gc.collect()
        seconds, at_reference, result = run_round(tasks, inputs, task_s)
        times.append(seconds)
        scaled.append(at_reference)
        answers.append(result)
        spent = time.perf_counter() - start
        if spent * (len(times) + 1) / len(times) > budget:
            return times, scaled, answers, task_s
        inputs = workloads.prepare(tasks, parsed)


def traced_passes(workloads, layers, workload, seed, budget):
    """Traced passes, each a fresh set-up followed by one round; at least two,
    so that their counts can be compared."""
    tracer = layers.Tracer()
    absent, restore = layers.install(tracer)
    start = time.perf_counter()
    passes = []
    try:
        while True:
            gc.collect()
            tracer.begin_pass()
            tasks, parsed = workloads.presentations(workload, seed)
            inputs = workloads.prepare(tasks, parsed)
            _, at_reference, answers = run_round(tasks, inputs, {})
            stats, spans = tracer.end_pass()
            passes.append((at_reference, answers, stats, spans))
            spent = time.perf_counter() - start
            if len(passes) >= 2 and spent * (len(passes) + 1) / len(passes) > budget:
                break
    finally:
        restore()
    return absent, passes


def write_spans(path, layers, spans):
    """Spans of one traced pass as gzipped JSON: [id, name, start_ns, end_ns, parent]."""
    names = [f"{module}.{qualname}" for module, qualname, *_ in layers.TARGETS]
    with gzip.open(path, "wt") as out:
        json.dump({"columns": ["id", "name", "start_ns", "end_ns", "parent"],
                   "spans": [[i, names[n], s, e, p] for i, n, s, e, p in spans]}, out)


def main():
    args = _args()
    import quiverkit  # noqa: F401  (import time is part of set-up)
    import workloads

    tasks, parsed = workloads.presentations(args.workload, args.seed)
    inputs = workloads.prepare(tasks, parsed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    with open(os.path.join(HERE, "known_failures.json")) as fh:
        known = {k["task"] for k in json.load(fh) if k["workload"] == args.workload}

    budget = args.seconds / 2 if args.trace else args.seconds
    measure_start = time.perf_counter()
    times, scaled, rounds, task_s = measure(workloads, tasks, parsed, inputs, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = rounds[0]
    problems = []
    if any(r != first for r in rounds[1:]):
        problems.append("answers differ between rounds")
    failed = [t.id for t in tasks if first[t.id] != t.expected]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "run_s": statistics.median(scaled),
        "round_s": times,
        "round_at_reference_s": scaled,
        "task_s": {t: statistics.median(s) for t, s in task_s.items()},
        "peak_rss_mb": peak_rss_mb,
        "tasks": len(tasks),
        "attempted": len(tasks) * len(rounds),
        "failed": len(failed) * len(rounds),
        "failures": {t: repr(first[t]) for t in failed},
        "known_failures": sorted(set(failed) & known),
        "fixed_known_failures": sorted(known - set(failed)),
        "meta": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "pinned_env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "PYTHONHASHSEED")},
        },
    }
    unexpected = sorted(set(failed) - known)
    if unexpected:
        problems.append("unexpected failures: " + ", ".join(unexpected))

    if args.trace:
        import layers
        absent, passes = traced_passes(workloads, layers, args.workload, args.seed,
                                       args.seconds - (time.perf_counter() - measure_start))
        counts = [{q: s.counts() for q, s in p[2].items()} for p in passes]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("per-layer counts differ between traced passes")
        if any(p[1] != first for p in passes):
            problems.append("traced answers differ from untraced answers")
        traced_s = statistics.median(p[0] for p in passes)
        metrics = layers.metrics([p[2] for p in passes], absent)
        metrics["trace.untraced_run_s"] = result["run_s"]
        metrics["trace.traced_run_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - result["run_s"]
        result["layers"] = metrics
        result["absent_functions"] = absent
        result["traced_passes"] = len(passes)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json.gz")
        write_spans(spans_path, layers, passes[0][3])
        result["spans_file"] = os.path.relpath(spans_path)
        result["spans"] = len(passes[0][3])

    result["problems"] = problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
