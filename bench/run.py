"""prcodes benchmark: one closed loop, one caller, one job at a time.

Usage, from the repository root:
    python3 bench/run.py --workload ensemble|single-code|wer-lowk|wer-highk \
        --seed N --seconds S --trace 0|1

The seed draws every job's inputs (see workloads.py); the program only
sees the generated argv.  Each timed pass is a fresh interpreter
(passrun.py) that imports prcodes from ./src, draws the jobs and runs
them through prcodes.cli.run in-process.  Passes repeat until S seconds
have gone, and every figure is a median over the passes of the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; set-up time
is also sampled by extra set-up-only interpreters.  Times that gate a
change are scaled to a reference host speed with a calibration kernel
timed in each pass (calibrate.py); the measured times are printed too.  --trace 1
alternates untraced and traced passes and reports the per-layer
metrics, whose self times plus `trace.unwrapped_s` add up to
`trace.wall_s`.

Every job's output is checked (checks.py); a job that raises, exits
non-zero or fails a check counts in `failed`.  The checks are
self-tested on every run by corrupting a correct output.  The last line
of stdout is the JSON result; a readable summary, the environment and
the drawn argv list come before it, and a full record (with the spans
of traced passes) is written to .bench_results/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")

SETUP_PROBES = 4      # set-up-only interpreters per untraced run, besides the passes
MIN_PASSES = 3        # untraced run; a traced run makes at least one of each kind
PASS_TIMEOUT = 120
WORK_NAMES = {"ensemble": "codes_per_s", "single-code": "codewords_per_s",
              "wer-lowk": "trials_per_s", "wer-highk": "trials_per_s"}


def _fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def _blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return min(nproc, int(asked)) if asked.isdigit() and int(asked) > 0 else nproc


def _environment(blas_threads: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (open(os.path.join(d, x)).read().strip()
                                 for x in ("level", "type", "size"))
            caches[f"L{level}-{kind}"] = size
        except OSError:
            pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "caches": caches,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads, "commit": commit}


class Runner:
    """Starts pass interpreters and keeps what they report."""

    def __init__(self, workload: str, seed: int, blas_threads: int):
        self.base = [sys.executable, os.path.join(HERE, "passrun.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                        OMP_NUM_THREADS=str(blas_threads), MKL_NUM_THREADS=str(blas_threads))
        self.dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
        self.count = 0

    def launch(self, *flags: str) -> tuple[float, dict]:
        """Run one pass; return (set-up seconds, the pass record)."""
        self.count += 1
        result = os.path.join(self.dir, f"pass{self.count}.json")
        outdir = os.path.join(self.dir, f"pass{self.count}")
        os.makedirs(outdir, exist_ok=True)
        cmd = self.base + ["--result", result, "--outdir", outdir, *flags]
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=PASS_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            _fail(f"pass {' '.join(flags)} timed out after {PASS_TIMEOUT} s", 1)
        if proc.returncode != 0:
            _fail(f"pass exited with status {proc.returncode}:\n{err[-2000:]}", 1)
        with open(result) as f:
            record = json.load(f)
        os.remove(result)
        return record["ready"] - launched, record

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def _declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]]}


def _evaluate(checker, jobs, argv, passes) -> tuple[int, int, list[str], list[dict]]:
    """Check every (job, pass); the first pass is checked in full and the
    others must reproduce it exactly."""
    reference = passes[0]["outputs"]
    ref_why = [checker.check(j, out) for j, out in enumerate(reference)]
    failures = []
    for p, rec in enumerate(passes):
        if rec["argv"] != argv:
            failures += [f"pass {p}: drew a different job list" for _ in jobs]
            continue
        for j, out in enumerate(rec["outputs"]):
            why = ref_why[j]
            if why is None and p > 0 and not checks.same_output(out, reference[j]):
                why = "output differs from the first pass"
            if why:
                failures.append(f"pass {p} job {j} ({' '.join(argv[j])}): {why}")
    return len(jobs) * len(passes), len(failures), failures, reference


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "prcodes", "__init__.py")):
        _fail(f"no prcodes sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import prcodes
    import prcodes.weights

    if not os.path.abspath(prcodes.__file__).startswith(SRC + os.sep):
        _fail(f"prcodes imported from {prcodes.__file__}, not from {SRC}")
    declared = _declared_metrics()
    jobs = workloads.generate(args.workload, args.seed, prcodes.gf2)
    argv = [job.get("argv") or job["pair"] for job in jobs]
    checker = checks.Checker(args.workload, args.seed, jobs, prcodes.weights)
    blas_threads = _blas_threads()
    env = _environment(blas_threads)

    runner = Runner(args.workload, args.seed, blas_threads)
    setups, untraced, traced = [], [], []
    try:
        if not args.trace:
            setups += [runner.launch("--setup-only")[0] for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        while True:
            tracing = bool(args.trace) and len(traced) < len(untraced)
            setup_s, record = runner.launch(*(["--trace"] if tracing else []))
            (traced if tracing else untraced).append(record)
            if not tracing:
                setups.append(setup_s)
            done = len(traced) >= 1 if args.trace else len(untraced) >= MIN_PASSES
            if done and time.monotonic() - start >= args.seconds:
                break
    finally:
        runner.close()

    passes = untraced + traced
    attempted, failed, failures, reference = _evaluate(checker, jobs, argv, passes)
    self_test_j = next((j for j, job in enumerate(jobs)
                        if job["kind"] in checks.Checker.SELF_TEST_KINDS
                        and checker.check(j, reference[j]) is None), None)
    if self_test_j is not None:
        missed = checker.self_test(self_test_j, reference[self_test_j])
        if missed:
            _fail(f"self-test: checks missed corrupted output ({', '.join(missed)})", 3)

    wall_s = statistics.median(r["wall_s"] for r in untraced)
    reference_s = calibrate.REFERENCE_S[workloads.CALIBRATION[args.workload]]
    for r in passes:
        r["wall_ref_s"] = r["wall_s"] * reference_s / statistics.median(r["calibration_s"])
    wall_ref_s = statistics.median(r["wall_ref_s"] for r in untraced)
    if args.workload.startswith("wer"):  # decoded trials, from the checked CSVs
        work = sum(int(row.split(",")[1]) for out in reference
                   for text in out["files"].values() for row in text.split("\n")[2:-1])
    else:
        work = sum(job["work"] for job in jobs)
    if args.trace:
        values = _layer_values(traced, untraced)
        wanted = declared["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), "wall_ref_s": wall_ref_s,
                  "work_per_ref_s": work / wall_ref_s,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}
        wanted = declared["end_to_end"]
    missing = [name for name, _ in wanted if name not in values]
    if missing:
        _fail(f"no value for declared metrics {missing}", 1)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "jobs": argv, "work": work,
              "passes": [{"traced": i >= len(untraced), "wall_s": r["wall_s"],
                          "wall_ref_s": r["wall_ref_s"], "job_s": r["job_s"],
                          "calibration_s": r["calibration_s"], "peak_rss_mb": r["peak_rss_mb"]}
                         for i, r in enumerate(passes)],
              "setup_s": setups, "attempted": attempted, "failed": failed,
              "failures": failures, "metrics": metrics}
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if traced:
        with open(os.path.join(RESULTS_DIR, tag + "-spans.jsonl"), "w") as f:
            for p, rec in enumerate(traced):
                for name, s, e, parent, job in rec["spans"]:
                    f.write(json.dumps({"pass": p, "name": name, "start": s, "end": e,
                                        "parent": parent, "job": job}) + "\n")

    print("env " + json.dumps(env))
    print("jobs " + json.dumps(argv))
    for why in failures:
        print("FAILED " + why)
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-up samples")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'wall_s (measured)':42s} {wall_s:.6g} s")
    print(f"  {WORK_NAMES[args.workload] + ' (measured)':42s} {work / wall_s:.6g} 1/s")
    print(f"  {'host speed (reference kernel time / measured)':42s} "
          f"{wall_ref_s / wall_s:.4g}")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ({failed} of {attempted} job runs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _layer_values(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over the traced passes of the span summaries, plus the
    figures computed from counters.  A layer with no calls reports 0."""
    values = {key: 0 for key in spans.layer_keys()}
    for key in set().union(*(r["layers"] for r in traced)):
        values[key] = statistics.median(r["layers"].get(key, 0) for r in traced)
    gflop = values["awgn.corr_flop"] / 1e9
    values["awgn.corr_gflop.computed"] = gflop
    values["awgn.corr_gflops.computed"] = (gflop / values["awgn.simulate_wer.s"]
                                           if values["awgn.simulate_wer.s"] else 0.0)
    values["awgn.codebook_mb_max.computed"] = values["awgn.codebook_bytes_max"] / 1e6
    values["cli.bytes_written"] = statistics.median(
        sum(out["bytes_written"] for out in r["outputs"]) for r in traced)
    values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    # at reference host speed, so that host drift between passes cancels
    values["trace.overhead_frac"] = (statistics.median(r["wall_ref_s"] for r in traced)
                                     / statistics.median(r["wall_ref_s"] for r in untraced) - 1)
    return values


if __name__ == "__main__":
    main()
