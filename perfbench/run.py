"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload enumerate --seed 0 --seconds 55 --trace 0

Run from the root of a checkout.  The seeded inputs are written under
`.perfbench/` in the checkout, and every pass of the workload's job list
runs in a fresh worker process, one process at a time.

--trace 0  timed passes, no instrumentation, until --seconds is used up
           (at least one).  Reports the median over passes of wall_s,
           max_job_s and peak_rss_mb, and the median set-up time over every
           fresh import of dgh.cli in the run (the passes plus dedicated
           import-only processes).
--trace 1  one untraced pass, then one traced pass whose spans are written
           to .perfbench/spans-<workload>-<seed>.tsv.  Reports the per-layer
           values, the tracing overhead, and the seconds of each job group
           in the untraced pass.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Failed jobs are listed on stderr.  A job fails on an
unexpected exit code (the budget exit 3 included), an exception, or an
answer that differs from the exact expected one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

import spans
import workloads

END_TO_END = (("wall_s", "s"), ("max_job_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
TRACE_EXTRA = (("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.self_s", "s"),
               ("trace.spans", "count"))

#: import-only processes per run, after one discarded warm-up import that
#: may compile bytecode in a fresh checkout
SETUP_SAMPLES = 7
#: a run that has not finished by then is abandoned (the limit is 180 s)
DEADLINE_S = 170


class Runner:
    """Starts worker processes one at a time, all inside one deadline."""

    def __init__(self, seed):
        self.deadline = monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONHASHSEED=str(seed))

    def worker(self, *args):
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - monotonic()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_samples(self):
        self.worker("--import-only")
        return [self.worker("--import-only")["setup_s"] for _ in range(SETUP_SAMPLES)]


def timed_passes(runner, jobs_path, seconds):
    passes = []
    start = monotonic()
    while True:
        passes.append(runner.worker(jobs_path))
        used = monotonic() - start
        if used + used / len(passes) > seconds:
            return passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(runner, jobs_path, args):
    if not args.trace:
        setups = runner.setup_samples()
        passes = timed_passes(runner, jobs_path, args.seconds)
        setups += [p["setup_s"] for p in passes]
        metrics = {
            name: metric(statistics.median(p[name] for p in passes), unit)
            for name, unit in END_TO_END if name != "setup_s"
        }
        metrics["setup_s"] = metric(statistics.median(setups), "s")
        return passes, metrics
    plain = runner.worker(jobs_path)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv")
    traced = runner.worker(jobs_path, "--trace", spans_path)
    values = dict(traced["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["trace.spans"] = traced["spans"]
    for group in workloads.GROUPS:
        values[f"group.{group}_s"] = sum(
            (job["seconds"] for job in plain["jobs"] if job["group"] == group), 0.0)
    units = dict(spans.LAYER_METRICS + TRACE_EXTRA)
    units.update((f"group.{group}_s", "s") for group in workloads.GROUPS)
    return [plain, traced], {name: metric(values[name], units[name]) for name in units}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main():
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running worker before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dgh", "cli.py")):
        sys.exit(f"no program to measure: {ROOT}/src/dgh/cli.py is missing")
    runner = Runner(args.seed)
    work = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    try:
        jobs = workloads.write_inputs(args.workload, args.seed, work)
        jobs_path = os.path.join(work, "jobs.json")
        with open(jobs_path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        passes, metrics = measure(runner, jobs_path, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = failed = 0
    for n, report in enumerate(passes):
        for job in report["jobs"]:
            attempted += 1
            if job["problems"]:
                failed += 1
                print(f"pass {n} job {job['id']} FAILED: {job['problems']}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} jobs, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
