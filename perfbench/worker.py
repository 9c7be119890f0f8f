"""One pass of a job list in a fresh process.

    python3 perfbench/worker.py --import-only
    python3 perfbench/worker.py JOBS.json [--trace SPANS.tsv]

Imports `dgh.cli` from the checkout's `src/` (timed as set-up), runs every
job through `dgh.cli.main(argv)` with stdout captured, then checks each
report against its exact expected answer.  Prints one JSON object.  With
`--trace`, layer wrappers are installed after the import, the spans are
written to SPANS.tsv when the pass ends, and per-layer values are added.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_cli():
    """Import dgh.cli from SRC; return (module, seconds)."""
    sys.path.insert(0, SRC)
    start = perf_counter()
    from dgh import cli

    seconds = perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dgh was imported from {cli.__file__}, not from {SRC}")
    return cli, seconds


def run_job(main, argv):
    """(exit code, stdout, error text or None) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        error = f"exit {code}: {err.getvalue().strip()}"
    except Exception:  # a job that raises is a failed job, not a failed run
        code = None
        error = traceback.format_exc()
    if error is None and code != 0:
        error = err.getvalue().strip() or None
    return code, out.getvalue(), error


def run_pass(cli, jobs, recorder=None):
    results = []
    for job in jobs:
        if recorder is not None:
            recorder.job = job["id"]
        start = perf_counter()
        code, stdout, error = run_job(cli.main, job["argv"])
        results.append((job, code, stdout, error, start, perf_counter()))
    return results


def main():
    cli, setup_s = import_cli()
    if sys.argv[1] == "--import-only":
        print(json.dumps({"setup_s": setup_s}))
        return
    import workloads

    with open(sys.argv[1], encoding="utf-8") as fh:
        jobs = json.load(fh)
    recorder = None
    if len(sys.argv) > 2 and sys.argv[2] == "--trace":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    results = run_pass(cli, jobs, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {
        "setup_s": setup_s,
        "wall_s": results[-1][5] - results[0][4],
        "max_job_s": max(end - start for *_, start, end in results),
        "peak_rss_mb": peak_rss_mb,
        "jobs": [],
    }
    for job, code, stdout, error, start, end in results:
        problems = workloads.check(job, code, stdout)
        if error:
            problems.append(error)
        report["jobs"].append({"id": job["id"], "group": job["group"],
                               "seconds": end - start, "problems": problems})
    if recorder is not None:
        recorder.write(sys.argv[3])
        report["layers"] = spans.layer_values(recorder)
        report["spans"] = len(recorder.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
