"""Benchmark of the quiverkit exact pipeline: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports quiverkit from ``src/``.  The
workloads, metrics and units are those listed in ``BENCHMARK.json``; the
tasks and their expected answers are in ``workloads.py``.

The launcher pins BLAS/OpenMP threads to 1 and PYTHONHASHSEED to 0 for the
processes it starts, so the program needs no knob of its own.  With
``--trace 0`` it starts one workload process between eleven set-up-only
processes, and reports

  setup_s      median time from the start of a process until its inputs are
               ready (import, presentations, build_algebra), over the
               set-up-only processes
  run_s        median wall time of the run's rounds; a round runs every task
               of the workload once
  peak_rss_mb  peak resident memory of the workload process

Both times are at reference speed: each is scaled by how long the fixed
reference kernel of worker.py took around it, so that other tenants of a
shared machine, who slow the processor for spells longer than a run, do not
move them.

With ``--trace 1`` it starts one workload process that also runs traced
passes and reports the per-layer metrics of ``layers.py``, the tracing
overhead, and writes the spans of one pass under ``perfbench/out/``.

Every answer is checked.  Failures listed in ``known_failures.json`` are
counted in ``failed`` but keep ``correct`` true; any other failure, answers
that change between rounds, or per-layer counts that change between traced
passes make ``correct`` false.  The last line of output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import REFERENCE_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 11
PROBE_REFERENCES = 3  # reference kernel runs before and after each probe
DEADLINE_S = 170  # every run must end within 180 s

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _spawn(args, env, extra, timeout):
    """Run one worker process to completion; returns its last JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        _fail(f"workload process did not finish within {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    started = time.monotonic()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        _fail("--seconds must be between 1 and 60")
    if not os.path.isfile(os.path.join(ROOT, "src", "quiverkit", "__init__.py")):
        _fail("no quiverkit source under src/; run from the root of a checkout")

    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])

    # set-up probes run before and after the workload process, so that their
    # median spans the whole run rather than one moment of it
    probes = 0 if args.trace else SETUP_PROBES

    def setup_probe():
        references = [reference_s() for _ in range(PROBE_REFERENCES)]
        setup = _spawn(args, env, ["--setup-only"], 60)["setup_s"]
        references += [reference_s() for _ in range(PROBE_REFERENCES)]
        return setup * REFERENCE_S / statistics.mean(references)

    setups = [setup_probe() for _ in range(probes // 2)]
    remaining = DEADLINE_S - 10 - (time.monotonic() - started)
    result = _spawn(args, env, [], remaining)
    setups += [setup_probe() for _ in range(probes - probes // 2)]

    values = {
        "setup_s": statistics.median(setups) if setups else None,
        "run_s": result["run_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    values.update(result.get("layers", {}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(result['round_s'])} of {result['tasks']} tasks")
    if not args.trace:
        print(f"  setup_s      {values['setup_s']:.4f} s   (median of {len(setups)} set-ups)")
    rounds = result["round_s"]
    print(f"  run_s        {values['run_s']:.4f} s   (median of {len(rounds)} rounds at "
          f"reference speed; wall time fastest {min(rounds):.4f} s, "
          f"median {statistics.median(rounds):.4f} s)")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    print(f"  fail_frac    {failed / attempted:.4f}   ({failed} of {attempted} task runs)")
    for task, answer in result["failures"].items():
        tag = "known" if task in result["known_failures"] else "UNEXPECTED"
        print(f"    {tag} failure {task}: {answer}")
    for task in result["fixed_known_failures"]:
        print(f"    known failure {task} now passes; remove it from known_failures.json")
    if args.trace:
        print(f"  traced passes {result['traced_passes']}, spans per pass {result['spans']} "
              f"in {result['spans_file']}")
        print(f"  tracing overhead {values['trace.overhead_s']:.4f} s per round")
        if result["absent_functions"]:
            print("  absent functions (metrics null): " + ", ".join(result["absent_functions"]))
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print("meta " + json.dumps({"workload": args.workload, "seed": args.seed,
                                "round_s": result["round_s"],
                                "round_at_reference_s": result["round_at_reference_s"],
                                "task_s": result["task_s"],
                                "setup_samples_s": setups,
                                **result["meta"]}))
    print(json.dumps({"correct": not result["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
