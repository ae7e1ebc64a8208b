"""Seeded job lists for the benchmark workloads.

A job is a dict with a `kind`, the parameters its checks need, and
either `argv` for `prcodes.cli.run` or `pair` for a direct
`construct.verify_disjoint` call.  Each workload is a fixed list of
slots, run in a fixed order: a slot fixes the job kind and the degree
(only the approx9 union-bound job draws it), and the seed draws the
rest: n, polynomial, SNR grid and simulation seed.  Degrees and the n
ranges of jobs whose cost depends on n are fixed per slot, so that
different seeds give about the same amount of work; the order is fixed
because the package's caches make peak memory depend on it.

`work` counts come from the inputs: codes in the ensemble (ensemble),
codewords of the exact enumerators (single-code).  For the WER
workloads the work is the decoded trials, which the checks take from
the output.
"""

from __future__ import annotations

import random

from oracle import euler_phi

WORKLOADS = ("ensemble", "single-code", "wer-lowk", "wer-highk")
DEFAULT_SEED = 0
# calibration kernel (calibrate.py) matching where each workload spends its time
CALIBRATION = {"ensemble": "python", "single-code": "python",
               "wer-lowk": "noise", "wer-highk": "blas"}

# ensemble: (k, query) slots.  Degrees repeat across queries as they do
# across table1/table2/fig1/fig2.  dmin --scan costs two ensemble
# averages, the other queries one.  n is drawn from equal strata of the
# degree's range; the k = 13 query does 40% of the work, so its range is
# narrow.  k = 14 (3-4.5 s a query on a 2-vCPU Xeon VM) would make a pass
# too long to repeat several times in a run.
ENSEMBLE_SLOTS = [
    (k, q) for k in (10, 11) for q in ("kld-dual", "kld-primal", "avg-exact", "dmin-scan")
] + [(12, "kld-primal"), (12, "dmin-scan"), (13, "kld-dual")]
ENSEMBLE_N = {10: (20, 64), 11: (22, 64), 12: (24, 64), 13: (40, 48)}

# single-code: (kind, k) slots for the exact enumerators.  The Gray walk
# costs about the same for any n above 60 bits, so n is drawn there; jobs
# that build a cold Krawtchouk table draw distinct n from a narrow range.
SINGLE_SLOTS = [("weights", 22), ("weights", 18), ("weights-dual", 21),
                ("weights-dual", 18), ("ub-exact", 20), ("ub-exact", 19)]
SINGLE_N = (60, 160)
SINGLE_TABLE_N = (110, 125)
SINGLE_APPROX_KS = (18, 22)
SINGLE_DISJOINT_KS = (16, 18)
SINGLE_DISJOINT_N = (96, 160)

# wer-lowk: (k, n) slots; 0-6 dB, one point per 1.2 dB stratum.  The degree
# sets the batch size, and with it the trial count of points that stop
# early, so it is fixed per slot.  k = 4, n = 32 sets the peak batch memory.
LOWK_SLOTS = [(4, 32), (3, 20), (5, 32), (6, 20)]
LOWK_SNR = (0.0, 6.0, 5)
LOWK_MAX_TRIALS = 200_000
TARGET_ERRORS = 100

# wer-highk: one slot per degree.  n is fixed for the three largest degrees,
# which do 90% of the correlation work and hold the largest codebooks, and
# drawn for the others.  At 3-6 dB no point reaches 100 errors, so every
# point runs its full trial budget.
HIGHK_KS = (9, 10, 11, 12, 13, 14, 15)
HIGHK_NS = (32, 48, 64)
HIGHK_FIXED_N = {13: 32, 14: 48, 15: 64}
HIGHK_SNR = (3.0, 6.0, 3)
HIGHK_TRIALS = 1536


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of `count` equal strata of [lo, hi], shuffled."""
    edges = [lo + (hi - lo + 1) * i // count for i in range(count + 1)]
    vals = [rng.randrange(a, b) if b > a else a for a, b in zip(edges, edges[1:])]
    rng.shuffle(vals)
    return vals


def _snr_list(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """`count` SNRs on a quarter-dB grid, one per stratum of [lo, hi], ascending."""
    return sorted(q / 4 for q in _strata(rng, int(lo * 4), int(hi * 4), count))


def _primitive(rng: random.Random, k: int, gf2, avoid=()) -> str:
    while True:
        mask = (1 << k) | 1 | rng.getrandbits(k - 1) << 1
        if mask not in avoid and gf2.is_primitive(gf2.BitPoly(mask)):
            return hex(mask)


def _ensemble(rng: random.Random, gf2) -> list[dict]:
    ks = [k for k, _ in ENSEMBLE_SLOTS]
    ns = {k: _strata(rng, *ENSEMBLE_N[k], ks.count(k)) for k in ENSEMBLE_N}
    jobs = []
    for k, query in ENSEMBLE_SLOTS:
        n = ns[k].pop()
        if query == "avg-exact":
            argv = ["avg-weights", "--k", str(k), "--n", str(n), "--mode", "exact"]
        elif query == "dmin-scan":
            argv = ["dmin", "--k", str(k), "--n", str(n), "--scan"]
        else:
            argv = ["kld", "--k", str(k), "--n", str(n),
                    "--which", query.removeprefix("kld-")]
        jobs.append({"kind": query, "k": k, "n": n,
                     "argv": argv + ["--allow-slow"],
                     "work": euler_phi((1 << k) - 1) // k})
    return jobs


def _union_bound(rng, gf2, kind: str, k: int, n: int) -> dict:
    poly, ebno = _primitive(rng, k, gf2), _snr_list(rng, 0.0, 9.0, 3)
    return {"kind": kind, "k": k, "n": n, "poly": poly, "ebno": ebno,
            "work": 1 << k if kind == "ub-exact" else 0,
            "argv": ["union-bound", "--poly", poly, "--n", str(n),
                     "--ebno-list", ",".join(f"{e:g}" for e in ebno),
                     "--source", "exact" if kind == "ub-exact" else "approx9"]}


def _single_code(rng: random.Random, gf2) -> list[dict]:
    table_ns = _strata(rng, *SINGLE_TABLE_N, 3)
    jobs = []
    for kind, k in SINGLE_SLOTS:
        if kind == "ub-exact":
            jobs.append(_union_bound(rng, gf2, kind, k, rng.randint(*SINGLE_N)))
            continue
        n = table_ns.pop() if kind == "weights-dual" else rng.randint(*SINGLE_N)
        poly = _primitive(rng, k, gf2)
        jobs.append({"kind": kind, "k": k, "n": n, "poly": poly, "work": 1 << k,
                     "argv": ["weights", "--poly", poly, "--n", str(n)]
                     + (["--dual"] if kind == "weights-dual" else [])})
    jobs.append(_union_bound(rng, gf2, "ub-approx", rng.randint(*SINGLE_APPROX_KS),
                             table_ns.pop()))
    for k in SINGLE_DISJOINT_KS:
        p1 = _primitive(rng, k, gf2)
        p2 = _primitive(rng, k, gf2, avoid={int(p1, 16)})
        jobs.append({"kind": "disjoint", "k": k, "n": rng.randint(*SINGLE_DISJOINT_N),
                     "pair": [p1, p2], "work": 0})
    return jobs


def _simulate_job(rng, gf2, k, n, snr, max_trials, extra=()):
    poly = _primitive(rng, k, gf2)
    ebno = _snr_list(rng, *snr)
    sim_seed = rng.getrandbits(32)
    argv = ["simulate", "--poly", poly, "--n", str(n),
            "--ebno-list", ",".join(f"{e:g}" for e in ebno),
            "--seed", str(sim_seed), "--max-trials", str(max_trials),
            "--target-errors", str(TARGET_ERRORS), *extra]
    return {"kind": "simulate", "k": k, "n": n, "poly": poly, "ebno": ebno,
            "max_trials": max_trials, "target": TARGET_ERRORS, "argv": argv}


def _wer_lowk(rng: random.Random, gf2) -> list[dict]:
    return [_simulate_job(rng, gf2, k, n, LOWK_SNR, LOWK_MAX_TRIALS) for k, n in LOWK_SLOTS]


def _wer_highk(rng: random.Random, gf2) -> list[dict]:
    jobs = []
    for k in HIGHK_KS:
        n = HIGHK_FIXED_N.get(k) or rng.choice(HIGHK_NS)
        jobs.append(_simulate_job(rng, gf2, k, n, HIGHK_SNR, HIGHK_TRIALS, ("--allow-slow",)))
    return jobs


_GENERATORS = {"ensemble": _ensemble, "single-code": _single_code,
               "wer-lowk": _wer_lowk, "wer-highk": _wer_highk}


def generate(workload: str, seed: int, gf2) -> list[dict]:
    """The job list of `workload` for `seed`; `gf2` is prcodes.gf2, used to
    draw maximal-period polynomials."""
    rng = random.Random(f"prcodes-bench:{workload}:{seed}")
    return _GENERATORS[workload](rng, gf2)
