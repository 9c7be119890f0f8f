"""Run the benchmark over workloads and seeds, print every metric, compare.

    python3 perfbench/suite.py run [--workloads enumerate,eliminate]
                                   [--seeds 0-9] [--trace] [--out FILE]
    python3 perfbench/suite.py compare BASE.json NEW.json

`run` starts perfbench/run.py once per (workload, seed), in a fresh process,
one process at a time, with `run_seconds` from BENCHMARK.json, and prints
each metric by name with its unit.  Per
workload it then prints the median, the quartiles and the spread (quartile
distance over median) of every metric, the spread against the metric's
bound from BENCHMARK.json, and fail_frac (failed jobs over attempted jobs).
All results are saved as JSON (default .perfbench/suite-<time>.json).

`compare` reads two saved untraced sets made with the same run length and
checks, per workload and end-to-end metric, whether the second median is
worse than the first by more than the bound.  It exits 1 when one is, and 2
when the sets cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("nan")


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec, results, trace):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs.values())
        failed = sum(r["failed"] for r in runs.values())
        print(f"\n{workload}: {len(runs)} runs, fail_frac {failed}/{attempted}"
              f" = {failed / attempted:.3g}")
        names = next(iter(runs.values()))["metrics"]
        for name, first in names.items():
            values = [r["metrics"][name]["value"] for r in runs.values()]
            q1, med, q3 = quartiles(values)
            line = (f"  {name:26s} {med:14.6g} {first['unit']:6s}"
                    f" q1 {q1:.6g} q3 {q3:.6g}")
            if med:
                line += f" spread {(q3 - q1) / med:.3f}"
            bound = None if trace else bounds.get(name)
            if bound is not None:
                line += f" bound {bound} ({'ok' if spread(values) <= bound else 'WIDE'})"
            print(line)


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {}
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            out = run_one(workload, seed, seconds, args.trace)
            results.setdefault(workload, {})[str(seed)] = out
            values = " ".join(
                f"{name}={m['value']:.6g}{m['unit']}" for name, m in out["metrics"].items())
            print(f"{workload} seed {seed} correct={out['correct']} "
                  f"failed={out['failed']}/{out['attempted']} {values}", flush=True)
    path = args.out or os.path.join(ROOT, ".perfbench", f"suite-{int(time.time())}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "trace": args.trace, "results": results}, fh)
    summarize(spec, results, args.trace)
    print(f"\nsaved {path}")
    return 0 if all(r["correct"] for runs in results.values() for r in runs.values()) else 1


def cmd_compare(args):
    spec = load_spec()
    sets = []
    for path in (args.base, args.new):
        with open(path, encoding="utf-8") as fh:
            saved = json.load(fh)
        if saved["trace"] or saved["seconds"] != spec["run_seconds"]:
            print(f"{path}: made with --trace or with another run length than "
                  f"run_seconds = {spec['run_seconds']}; not comparable", file=sys.stderr)
            return 2
        sets.append(saved["results"])
    base, new = sets
    worse = 0
    for workload in base:
        if workload not in new:
            continue
        print(f"{workload}:")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in base[workload].values()]
            b = [r["metrics"][m["name"]]["value"] for r in new[workload].values()]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            if m["better"] == "higher":
                change = -change
            wide = max(spread(a), spread(b)) > m["bound"]
            if change > m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif wide:
                verdict = "unresolved (spread over bound)"
            else:
                verdict = "within bound"
            print(f"  {m['name']:12s} {ma:.6g} -> {mb:.6g} {m['unit']}"
                  f"  worse by {change:+.3f} (bound {m['bound']})  {verdict}")
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default=None, help="comma list; default all")
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
