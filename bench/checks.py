"""Output checks for every job kind.

`Checker.check(j, output)` returns None when job j's output is right and
a one-line reason otherwise.  Enumerators, their duals and the exact
ensemble averages are compared with the oracle.  The closed-form
approximations behind `kld` and `union-bound --source approx9` come from
the package itself, evaluated here outside the timed passes; the
divergence and the bound on top of them are recomputed independently.
Simulation results are checked against the stopping rule and, for the
default seed, against the golden (trials, word_errors) list.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import oracle
from spans import BATCH_BUDGET
from workloads import DEFAULT_SEED

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
REL_TOL = 1e-9


class Mismatch(Exception):
    pass


def _require(cond: bool, why: str) -> None:
    if not cond:
        raise Mismatch(why)


def _csv(output: dict, command: str) -> tuple[str, list[list[str]]]:
    files = output["files"]
    _require(len(files) == 1, f"expected one CSV, got {sorted(files)}")
    lines = next(iter(files.values())).split("\n")
    _require(lines[0].startswith("# manifest: "), "missing manifest line")
    _require(json.loads(lines[0][len("# manifest: "):])["command"] == command,
             "manifest names another command")
    _require(lines[-1] == "", "CSV does not end with a newline")
    return lines[1], [row.split(",") for row in lines[2:-1]]


def _column(rows: list[list[str]], col: int, n: int) -> list[str]:
    _require(len(rows) == n + 1, f"expected {n + 1} rows, got {len(rows)}")
    _require([r[0] for r in rows] == [str(j) for j in range(n + 1)], "weight column is not 0..n")
    return [r[col] for r in rows]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want) + 1e-300


def _qfunc(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def distance_bound(values: list[float]) -> int:
    """Largest d with values[3] + ... + values[d] <= 1, summed left to right."""
    best, acc = 2, 0.0
    for d in range(3, len(values)):
        acc += values[d]
        if acc <= 1.0:
            best = d
    return best


def union_bound_curve(values: list[float], k: int, n: int, ebno: list[float]) -> list[float]:
    d = distance_bound(values)
    out = []
    for db in ebno:
        gamma = 2.0 * (k / n) * 10.0 ** (db / 10.0)
        out.append(sum(values[i] * _qfunc(math.sqrt(i * gamma)) * (i / n)
                       for i in range(d, n + 1) if values[i] > 0.0))
    return out


def kl_divergence(p: list[float], q: list[float]) -> float:
    """KL(p || q) over weights 3..n after clamping at zero and normalizing."""
    pv = [max(v, 0.0) for v in p[3:]]
    qv = [max(v, 0.0) for v in q[3:]]
    ps, qs = sum(pv), sum(qv)
    acc = 0.0
    for pi, qi in zip(pv, qv):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        acc += pi / ps * math.log((pi / ps) / (qi / qs))
    return acc


class Checker:
    def __init__(self, workload: str, seed: int, jobs: list[dict], weights_module):
        self.jobs = jobs
        self.weights = weights_module
        self._cache: dict = {}
        self.golden = None
        if seed == DEFAULT_SEED and workload.startswith("wer"):
            with open(GOLDEN_PATH) as f:
                self.golden = json.load(f)[workload]
            _require(len(self.golden) == len(jobs), "golden list does not match the job list")

    # -- expectations, computed once per run and cached --------------------

    def _enumerator(self, job) -> list[int]:
        key = ("enum", job["poly"], job["n"])
        if key not in self._cache:
            self._cache[key] = oracle.enumerator(int(job["poly"], 16), job["n"])
        return self._cache[key]

    def _ensemble(self, k: int, n: int) -> tuple[list[int], list[int], int]:
        key = ("ensemble", k, n)
        if key not in self._cache:
            sums, count = oracle.ensemble_sums(k, n)
            _require(count == oracle.euler_phi((1 << k) - 1) // k, "oracle ensemble size")
            self._cache[key] = (sums, oracle.macwilliams(sums, n, k), count)
        return self._cache[key]

    # -- per-kind checks ----------------------------------------------------

    def check(self, j: int, output: dict) -> str | None:
        job = self.jobs[j]
        try:
            _require(output["rc"] == 0,
                     f"exit status {output['rc']}: {output['stderr'].strip()[-200:]}")
            getattr(self, "_check_" + job["kind"].replace("-", "_"))(j, job, output)
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None

    def _check_weights(self, j, job, output):
        k, n = job["k"], job["n"]
        got = [int(v) for v in _column(_csv(output, "weights")[1], 1, n)]
        _require(got[0] == 1, "A_0 != 1")
        _require(sum(got) == 1 << k, "sum of A != 2^k")
        _require(got == self._enumerator(job), "enumerator differs from the oracle")

    def _check_weights_dual(self, j, job, output):
        k, n = job["k"], job["n"]
        got = [int(v) for v in _column(_csv(output, "weights")[1], 1, n)]
        if n <= (1 << k) - 1:
            _require(got[1] == 0 and got[2] == 0, "dual has words of weight 1 or 2")
        _require(sum(got) == 1 << (n - k), "sum of B != 2^(n-k)")
        primal = self._enumerator(job)
        _require(oracle.macwilliams(got, n, n - k) == primal,
                 "MacWilliams of the dual is not the primal")
        _require(got == oracle.macwilliams(primal, n, k), "dual differs from the oracle")

    def _check_ub(self, job, output, values):
        header, rows = _csv(output, "union-bound")
        _require(header == "ebno_db,epsilon_ub", "unexpected header")
        _require([float(r[0]) for r in rows] == job["ebno"], "SNR column differs from the input")
        got = [float(r[1]) for r in rows]
        _require(all(math.isfinite(v) and v > 0.0 for v in got), "bound not finite and positive")
        _require(all(a >= b for a, b in zip(got, got[1:])), "bound grows with SNR")
        want = union_bound_curve(values, job["k"], job["n"], job["ebno"])
        _require(all(_close(g, w) for g, w in zip(got, want)),
                 "bound differs from the recomputation")

    def _check_ub_exact(self, j, job, output):
        self._check_ub(job, output, [float(c) for c in self._enumerator(job)])

    def _check_ub_approx(self, j, job, output):
        key = ("approx9", job["k"], job["n"])
        if key not in self._cache:
            self._cache[key] = list(self.weights.avg_primal_approx(job["k"], job["n"]).values)
        self._check_ub(job, output, self._cache[key])

    def _average(self, job, which: str) -> list[float]:
        sums, dual, count = self._ensemble(job["k"], job["n"])
        return [float(Fraction(s, count)) for s in (dual if which == "dual" else sums)]

    def _check_avg_exact(self, j, job, output):
        k, n = job["k"], job["n"]
        got = _column(_csv(output, "avg-weights")[1], 1, n)
        count = self._ensemble(k, n)[2]
        values = [float(v) for v in got]
        _require(abs(sum(values) - (1 << k)) <= 1e-9 * (1 << k), "average mass != 2^k")
        _require(all(abs(v * count - round(v * count)) <= 1e-11 * v * count + 1e-9
                     for v in values), "average x code count is not an integer")
        _require(got == [f"{v:.12g}" for v in self._average(job, "primal")],
                 "average differs from the oracle")

    def _check_kld(self, job, output, which):
        k, n = job["k"], job["n"]
        header, rows = _csv(output, "kld")
        _require(len(rows) == 1 and rows[0][:3] == [str(k), str(n), which], "unexpected kld row")
        got = float(rows[0][3])
        _require(got >= 0.0, "negative divergence")
        key = ("approx", which, k, n)
        if key not in self._cache:
            approx = (self.weights.avg_dual_approx(k, n) if which == "dual"
                      else self.weights.avg_primal_approx(k, n, mode="primary"))
            self._cache[key] = kl_divergence(self._average(job, which), list(approx.values))
        # inf is the documented result when q has no mass where p has some
        want = self._cache[key]
        _require(got == want or _close(got, want), "divergence differs from the recomputation")

    def _check_kld_dual(self, j, job, output):
        self._check_kld(job, output, "dual")

    def _check_kld_primal(self, j, job, output):
        self._check_kld(job, output, "primal")

    def _check_dmin_scan(self, j, job, output):
        k, n = job["k"], job["n"]
        _, rows = _csv(output, "dmin")
        _require(len(rows) == 1 and rows[0][0] == str(n), "unexpected dmin row")
        bound, witness_d = int(rows[0][1]), int(rows[0][2])
        _require(witness_d >= bound >= 2, "not witness_d >= bound >= 2")
        _require(bound == distance_bound(self._average(job, "primal")),
                 "bound differs from the oracle average")
        fields = dict(f.split("=", 1) for f in output["stdout"].split() if "=" in f)
        mask = int(fields["witness"], 16)
        _require(mask.bit_length() - 1 == k and oracle.is_maximal(mask),
                 "witness is not a maximal-period polynomial of degree k")
        enum = oracle.enumerator(mask, n)
        _require(min(w for w in range(1, n + 1) if enum[w]) == witness_d,
                 "witness distance differs from the oracle")

    def _check_disjoint(self, j, job, output):
        _require(output["value"] is True, "codes of distinct polynomials share a codeword")

    def _check_simulate(self, j, job, output):
        header, rows = _csv(output, "simulate")
        _require(header == "ebno_db,trials,word_errors,wer", "unexpected header")
        _require([float(r[0]) for r in rows] == job["ebno"], "SNR column differs from the input")
        batch = max(1, BATCH_BUDGET >> job["k"])
        counts = []
        for r in rows:
            trials, errors = int(r[1]), int(r[2])
            _require(0 <= errors <= trials <= job["max_trials"],
                     "not errors <= trials <= max_trials")
            _require(trials >= min(batch, job["max_trials"]), "stopped before one batch")
            if trials < job["max_trials"]:
                _require(errors >= job["target"] and trials % batch == 0,
                         "stopped early off a batch boundary or below the error target")
            _require(r[3] == f"{errors / trials:.12g}", "wer != word_errors / trials")
            counts.append([trials, errors])
        if self.golden is not None:
            _require(counts == self.golden[j], "(trials, word_errors) differ from the golden list")

    # -- self-test ----------------------------------------------------------

    SELF_TEST_KINDS = ("weights", "weights-dual", "avg-exact", "simulate")

    def self_test(self, j: int, output: dict) -> list[str]:
        """Corrupt counts in a correct output of job j; return the
        corruptions that the checks miss (empty when the self-test passes)."""
        kind = self.jobs[j]["kind"]
        (name, text), = output["files"].items()
        lines = text.split("\n")
        rows = [r.split(",") for r in lines[:-1]]

        def corrupt(edits: dict) -> dict:
            bad = [list(r) for r in rows]
            for (i, col), fn in edits.items():
                bad[i][col] = fn(bad[i][col])
            return dict(output, files={name: "\n".join(",".join(r) for r in bad) + "\n"})

        if kind in ("weights", "weights-dual"):
            i = next(i for i in range(3, len(rows) - 1) if int(rows[i][1]) > 0)
            cases = {"count + 1": corrupt({(i, 1): lambda v: str(int(v) + 1)}),
                     "one count moved to the next weight": corrupt(
                         {(i, 1): lambda v: str(int(v) - 1),
                          (i + 1, 1): lambda v: str(int(v) + 1)})}
        elif kind == "avg-exact":
            i = next(i for i in range(3, len(rows)) if float(rows[i][1]) > 0)
            cases = {"average * (1 + 1e-9)": corrupt(
                {(i, 1): lambda v: f"{float(v) * (1 + 1e-9):.12g}"})}
        else:  # simulate
            trials, errors = int(rows[2][1]), int(rows[2][2])
            # one trial fewer breaks the batch rule; the rate is kept consistent
            cases = {"trials - 1": corrupt({(2, 1): lambda v: str(trials - 1),
                                            (2, 3): lambda v: f"{errors / (trials - 1):.12g}"})}
            if self.golden is not None:
                more = errors + 1 if errors < trials else errors - 1
                cases["word_errors + 1"] = corrupt({(2, 2): lambda v: str(more),
                                                    (2, 3): lambda v: f"{more / trials:.12g}"})
        return [label for label, bad in cases.items() if self.check(j, bad) is None]


def same_output(a: dict, b: dict) -> bool:
    """Whether two passes produced identical results for one job."""
    return all(a[key] == b[key] for key in ("rc", "value", "stdout", "files"))
