"""One timed pass in a fresh interpreter.

Usage (from the repository root; run.py starts it):
    python3 bench/passrun.py --workload W --seed S --result FILE --outdir DIR
        [--trace] [--setup-only]

Set-up is everything up to `ready`: interpreter start, `import prcodes`
from ./src, and drawing the job list.  Then the jobs run one at a time
through `prcodes.cli.run(argv)` (or `construct.verify_disjoint` for
disjointness jobs) in this process, so the package's lru caches start
cold as they do for a command-line user.  A calibration kernel is timed
just before and just after the job loop (calibrate.py).  Outputs are
collected after the timed loop and written with the timings to FILE as
JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (bench/ is sys.path[0])


def _run_job(package, job: dict, outdir: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, value = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "pair" in job:
                p1, p2 = (package.gf2.BitPoly(int(p, 16)) for p in job["pair"])
                value = package.construct.verify_disjoint(p1, p2, job["n"])
                rc = 0
            else:
                rc = package.cli.run(job["argv"] + ["--outdir", outdir])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a job that raises is counted as failed, the pass goes on
        err.write(f"{type(exc).__name__}: {exc}\n")
    return {"rc": rc, "value": value, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _collect(outdir: str, result: dict) -> dict:
    files = {}
    if os.path.isdir(outdir):
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), newline="") as f:
                files[name] = f.read()
    result["stdout"] = result["stdout"].replace(outdir, "<outdir>")
    result["files"] = files
    result["bytes_written"] = (sum(len(t.encode()) for t in files.values())
                               + len(result["stdout"].encode()))
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
    import prcodes
    import prcodes.cli
    if not os.path.abspath(prcodes.__file__).startswith(SRC + os.sep):
        sys.exit(f"prcodes imported from {prcodes.__file__}, not from {SRC}")
    if recorder is not None:
        spans.install(recorder, prcodes)
    jobs = workloads.generate(args.workload, args.seed, prcodes.gf2)
    ready = time.monotonic()
    record = {"ready": ready, "argv": [job.get("argv") or job["pair"] for job in jobs]}

    if not args.setup_only:
        import calibrate
        kernel = workloads.CALIBRATION[args.workload]
        calibration_s = calibrate.sample(kernel)
        results, job_s = [], []
        start = time.perf_counter()
        for j, job in enumerate(jobs):
            if recorder is not None:
                recorder.job = j
            t0 = time.perf_counter()
            results.append(_run_job(prcodes, job, os.path.join(args.outdir, f"job{j}")))
            job_s.append(time.perf_counter() - t0)
        wall_s = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        calibration_s += calibrate.sample(kernel)
        record.update(
            wall_s=wall_s, job_s=job_s, peak_rss_mb=peak, calibration_s=calibration_s,
            outputs=[_collect(os.path.join(args.outdir, f"job{j}"), r)
                     for j, r in enumerate(results)])
        shutil.rmtree(args.outdir, ignore_errors=True)
        if recorder is not None:
            record["layers"] = spans.summarize(recorder.spans, recorder.counters, wall_s)
            record["spans"] = recorder.spans

    with open(args.result, "w") as f:
        json.dump(record, f)


if __name__ == "__main__":
    main()
