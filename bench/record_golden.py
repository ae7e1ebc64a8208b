"""Record golden.json: (trials, word_errors) at every SNR point of every
job of the WER workloads, for the default seed.

Run from the repository root:  python3 bench/record_golden.py

The package promises bit-for-bit WER for a given argv, so re-record only
when the job generator in workloads.py changes, never to make a program
change pass.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import prcodes.cli  # noqa: E402
import prcodes.gf2  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    golden = {}
    for workload in ("wer-lowk", "wer-highk"):
        counts = []
        for job in workloads.generate(workload, workloads.DEFAULT_SEED, prcodes.gf2):
            with tempfile.TemporaryDirectory(dir=os.getcwd()) as outdir:
                if prcodes.cli.run(job["argv"] + ["--outdir", outdir]) != 0:
                    sys.exit(f"job failed: {job['argv']}")
                (path,) = glob.glob(os.path.join(outdir, "*.csv"))
                with open(path) as f:
                    rows = f.read().split("\n")[2:-1]
            counts.append([[int(r.split(",")[1]), int(r.split(",")[2])] for r in rows])
        golden[workload] = counts
    with open(checks.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
