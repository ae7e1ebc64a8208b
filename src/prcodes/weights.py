"""Hamming weight distributions and their transforms.

Exact enumerators are integer vectors A_0..A_n.  The nonzero codewords
of an (n, k) code are the n-bit windows of its sequence at the P = 2^k - 1
phases, so A is a count of window weights plus the zero word, read from
two copies of the sequence n mod P phases apart.  The binary MacWilliams
transform maps an enumerator to its dual's through the Krawtchouk
kernel; everything on that path is arbitrary-precision integer
arithmetic, so a non-integer or negative output is reported as an error
instead of being rounded away.

On top of the exact machinery sit the ensemble averages over all
maximal-period polynomials of a degree, taken over decimations of one
m-sequence, closed-form approximations of those averages built from
sparse-multiple counts (both primal ones through the same integer
kernel, rounded to float once from an exact rational), and a KL
divergence for comparing the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, inf, lcm, log
from typing import Iterable, Iterator

import numpy as np

from .construct import PrCode, m_sequence, sequence_chunks
from .errors import (
    InconsistentEnumeratorError,
    RecursionInconsistencyError,
    UnsupportedRangeError,
)
from .gf2 import BitPoly, berlekamp_massey, first_primitive

# exhaustive enumeration caps: one code, and a whole degree-k ensemble
ENUMERATOR_CAP = 24
ENSEMBLE_CAP = 16


@dataclass(frozen=True)
class WeightEnumerator:
    """Exact codeword counts by Hamming weight for one (n, dim) code."""

    n: int
    dim: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n + 1:
            raise ValueError(f"need {self.n + 1} counts, got {len(self.counts)}")
        if self.counts[0] != 1:
            raise InconsistentEnumeratorError("count at weight 0 must be 1")
        if any(c < 0 for c in self.counts):
            raise InconsistentEnumeratorError("counts must be nonnegative")
        if sum(self.counts) != 1 << self.dim:
            raise InconsistentEnumeratorError(
                f"counts must total 2^{self.dim} = {1 << self.dim}"
            )

    def min_nonzero_weight(self) -> int:
        """Smallest weight >= 1 with a codeword; the code's minimum distance."""
        for j in range(1, self.n + 1):
            if self.counts[j]:
                return j
        raise ValueError("code has no nonzero codeword")

    def as_distribution(self, label: str = "exact") -> "RealDistribution":
        return RealDistribution(
            n=self.n, values=tuple(float(c) for c in self.counts), label=label
        )


@dataclass(frozen=True)
class RealDistribution:
    """Real-valued weight profile indexed 0..n (averages, approximations)."""

    n: int
    values: tuple[float, ...]
    label: str

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise ValueError(f"need {self.n + 1} values, got {len(self.values)}")


# ---------------------------------------------------------------------------
# exact enumerators

def _window_counts(k: int, n: int, chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> list[int]:
    """A_0..A_n of the n-windows of one period-(2^k - 1) sequence.

    chunks yields bit-array pairs (s[t..t+c), s[t+r..t+r+c)) that together
    cover t = 0..P-1, with r = n mod P.  The window at phase t weighs
    n // P full periods of 2^(k-1) ones plus w(t), the weight of
    s[t..t+r), and w(t+1) - w(t) = s[t+r] - s[t].  Running sums of those
    steps give w(t+1) - w(0) for every t, which over a whole period is
    every phase once, since w(P) = w(0); w(0) is read off the first r bits.
    """
    laps, r = divmod(n, (1 << k) - 1)
    shifted = np.zeros(2 * r + 1, dtype=np.int64)  # phases by w(t) - w(0) + r
    level, first, t0 = r, 0, 0
    for head, tail in chunks:
        first += int(np.count_nonzero(head[:max(r - t0, 0)]))
        levels = np.cumsum(np.subtract(tail, head, dtype=np.int8))
        levels += level
        shifted += np.bincount(levels, minlength=2 * r + 1)
        level = int(levels[-1])
        t0 += len(head)
    counts = [0] * (n + 1)
    counts[0] = 1
    offset = (laps << (k - 1)) + first - r
    for i in np.flatnonzero(shifted):
        counts[offset + i] += int(shifted[i])
    return counts


def weight_enumerator_exact(code: PrCode) -> WeightEnumerator:
    """Exact weight distribution, counted over the windows of the code's sequence.

    The windows are those of code.poly's sequence, which are the nonzero
    codewords for every code that build_code returns.
    """
    if code.k > ENUMERATOR_CAP:
        raise UnsupportedRangeError(
            f"exhaustive enumeration supports k <= {ENUMERATOR_CAP}, got {code.k}"
        )
    r = code.n % ((1 << code.k) - 1)
    counts = _window_counts(code.k, code.n, sequence_chunks(code.poly, (0, r)))
    return WeightEnumerator(n=code.n, dim=code.k, counts=tuple(counts))


# ---------------------------------------------------------------------------
# Krawtchouk kernel and the MacWilliams transform

def krawtchouk(n: int, j: int, t: int) -> int:
    """K_j(t) = sum_l (-1)^l C(t,l) C(n-t,j-l), exact."""
    if not 0 <= j <= n:
        raise ValueError(f"j must be in [0, {n}], got {j}")
    if not 0 <= t <= n:
        raise ValueError(f"t must be in [0, {n}], got {t}")
    acc = 0
    for l in range(max(0, j - (n - t)), min(j, t) + 1):
        term = comb(t, l) * comb(n - t, j - l)
        acc += -term if l & 1 else term
    return acc


def _krawtchouk_table(n: int) -> list[list[int]]:
    """table[j][t] = K_j(t), row by row through the three-term recurrence
    (j+1) K_{j+1}(t) = (n-2t) K_j(t) - (n-j+1) K_{j-1}(t), started from
    K_{-1} = 0 and K_0 = 1 (so K_1(t) = n - 2t).  Every division is exact."""
    steps = [n - 2 * t for t in range(n + 1)]
    table = [[0] * (n + 1), [1] * (n + 1)]  # K_{-1}, K_0
    for j in range(n):
        table.append([(step * c - (n - j + 1) * p) // (j + 1)
                      for step, c, p in zip(steps, table[-1], table[-2])])
    return table[1:]


def _krawtchouk_sums(coeffs: list[int], n: int) -> list[int]:
    """[sum_t coeffs[t] K_j(t) for j = 0..n], exact; the one loop over the table."""
    terms = [(t, c) for t, c in enumerate(coeffs) if c]
    return [sum(c * row[t] for t, c in terms) for row in _krawtchouk_table(n)]


def _transform_counts(counts: list[int], n: int, dim: int) -> list[int]:
    """Raw transform: out[t] = 2^-dim * sum_j counts[j] K_t(j), exact."""
    scale = 1 << dim
    out = []
    for t, acc in enumerate(_krawtchouk_sums(counts, n)):
        if acc < 0 or acc % scale:
            raise InconsistentEnumeratorError(
                f"transform output at weight {t} is {acc}/{scale}, "
                "not a nonnegative integer; input was not a valid "
                "linear-code weight distribution"
            )
        out.append(acc // scale)
    return out


def macwilliams(a: WeightEnumerator) -> WeightEnumerator:
    """Weight distribution of the dual (n, n - dim) code, exact."""
    if a.dim > a.n:
        raise ValueError("dimension cannot exceed length")
    dual = _transform_counts(list(a.counts), a.n, a.dim)
    return WeightEnumerator(n=a.n, dim=a.n - a.dim, counts=tuple(dual))


# ---------------------------------------------------------------------------
# ensemble averages over all maximal-period polynomials of one degree
#
# Every degree-k m-sequence is, up to a shift, a decimation u_t = s_{d t}
# of one fixed m-sequence s by a unit d mod P, and d, 2d, 4d, ... give the
# same sequence.  Decimating by -d reverses time, which yields the
# reciprocal polynomial and the same multiset of windows, so one
# decimation per class {+-d 2^j} covers a reciprocal pair of codes.

def _pair_leaders(k: int) -> list[int]:
    """Smallest member of each class {+-d 2^j mod P} of units d mod P = 2^k - 1."""
    period = (1 << k) - 1
    seen = bytearray(period)
    leaders = []
    for d in range(1, period):
        if seen[d] or gcd(d, period) != 1:
            continue
        leaders.append(d)
        x = d
        for _ in range(k):
            seen[x] = seen[period - x] = 1
            x = 2 * x % period
    return leaders


def _pair_members(k: int, n: int) -> Iterator[tuple[list[int], WeightEnumerator]]:
    """One code of each reciprocal pair of degree k: the first 2k bits of
    its sequence and its length-n enumerator.  k = 2 has a single,
    self-reciprocal code."""
    if not 2 <= k <= ENSEMBLE_CAP:
        raise UnsupportedRangeError(
            f"ensemble enumeration supports 2 <= k <= {ENSEMBLE_CAP}, got {k}"
        )
    if n < k:
        raise ValueError(f"block length must be >= k = {k}, got {n}")
    base = m_sequence(first_primitive(k))
    period = len(base)
    r = n % period
    # d t mod P in 32 bits while (P - 1)^2 fits
    phases = np.arange(period, dtype=np.uint32 if period <= 0xFFFF else np.uint64)
    for d in _pair_leaders(k):
        u = base[phases * d % period]
        counts = _window_counts(k, n, [(u, np.roll(u, -r))])
        yield np.resize(u, 2 * k).tolist(), WeightEnumerator(n=n, dim=k, counts=tuple(counts))


def ensemble_enumerators(k: int, n: int) -> list[tuple[BitPoly, WeightEnumerator]]:
    """Exact enumerator for every degree-k maximal-period polynomial,
    ascending by mask."""
    out = []
    for head, enum in _pair_members(k, n):
        p = berlekamp_massey(head)
        out.extend((q, enum) for q in {p, p.reciprocal()})
    return sorted(out, key=lambda member: member[0].mask)


def average_of(enums: Iterable[WeightEnumerator]) -> tuple[RealDistribution, RealDistribution]:
    """Exact average primal and dual distributions of codes of one (n, dim).

    Counts are summed as integers, one enumerator at a time, and each
    average is rounded to float once.  The dual average is the transform
    of the summed primal counts, which by linearity equals the average of
    the per-code duals.
    """
    count, primal_sum = 0, None
    for e in enums:
        if primal_sum is None:
            n, dim, primal_sum = e.n, e.dim, list(e.counts)
        elif (e.n, e.dim) != (n, dim):
            raise ValueError("enumerators must share length and dimension")
        else:
            primal_sum = [a + b for a, b in zip(primal_sum, e.counts)]
        count += 1
    if primal_sum is None:
        raise ValueError("need at least one enumerator")
    dual_sum = _transform_counts(primal_sum, n, dim)
    primal = tuple(float(Fraction(s, count)) for s in primal_sum)
    dual = tuple(float(Fraction(s, count)) for s in dual_sum)
    return (
        RealDistribution(n=n, values=primal, label="exact-avg-primal"),
        RealDistribution(n=n, values=dual, label="exact-avg-dual"),
    )


def ensemble_average_exact(k: int, n: int) -> tuple[RealDistribution, RealDistribution]:
    """Exact average primal and dual weight distributions for degree k.

    Both codes of a reciprocal pair share one enumerator, so the average
    over one code per pair is, as an exact fraction, the average over all.
    """
    return average_of(enum for _, enum in _pair_members(k, n))


# ---------------------------------------------------------------------------
# closed-form approximations

def n_multiples(k: int, t: int) -> int:
    """Number of weight-t multiples (constant term 1) of degree <= 2^k - 2
    of a degree-k maximal-period polynomial.

    Computed by the exact recursion seeded with zero counts at t = 1, 2;
    the result is independent of which degree-k polynomial is chosen.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if t <= 2:
        return 0
    m = 1 << k
    prev2, prev1 = Fraction(0), Fraction(0)  # N at t-2, t-1
    value = Fraction(0)
    for s in range(3, t + 1):
        value = (
            comb(m - 2, s - 2) - prev1 - Fraction(s - 1, s - 2) * (m - s + 1) * prev2
        ) / (s - 1)
        prev2, prev1 = prev1, value
    if value.denominator != 1:
        raise RecursionInconsistencyError(
            f"count at t={t} is the non-integer {value}"
        )
    return int(value)


def _span_weighted_count(n: int, t: int, k: int) -> int:
    """Sum over degrees c of C(c-1, t-2) (n-c): weight-t windows grouped by
    the distance c between their first and last one, c >= max(k, t-1)."""
    if t < 2:
        return 0
    return sum(comb(c - 1, t - 2) * (n - c) for c in range(max(k, t - 1), n))


def avg_dual_approx(k: int, n: int) -> RealDistribution:
    """Closed-form estimate of the average dual weight distribution.

    Entry t (3 <= t <= n) is _span_weighted_count / (2^k - t); weights 1
    and 2 are exactly zero because the dual minimum weight is at least 3,
    and weight 0 is the single zero word.  The refined 1/(2^k - t)
    density is meaningless once t reaches 2^k (it hits a zero or
    negative denominator), so entries there fall back to the uniform
    1/2^k density, which matches the C(n,t)/2^k scale of the true
    average in that regime.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"n must be >= k, got n={n}, k={k}")
    values = [0.0] * (n + 1)
    values[0] = 1.0
    for t in range(3, n + 1):
        denom = (1 << k) - t if t < 1 << k else 1 << k
        values[t] = float(Fraction(_span_weighted_count(n, t, k), denom))
    return RealDistribution(n=n, values=tuple(values), label="approx-dual")


def avg_primal_approx(k: int, n: int, mode: str = "primary") -> RealDistribution:
    """Closed-form estimate of the average primal weight distribution.

    primary: transform of the dual estimate with its zero-weight term
    carried explicitly, 2^-(n-k) [K_j(0) + sum_t B_t K_j(t)], which keeps
    the total at 2^k.  When n >= 2^k the refined 1/(2^k - t) densities
    are undefined for large t, so the uniform 2^-k density is used for
    every t instead; both branches agree asymptotically for n << 2^k.

    literal: 2^-n sum_t D_t K_j(t) with no zero-weight term, kept as a
    diagnostic; its values total 0 and go negative at the edges.

    Both are exact integer kernel sums acc_j, rounded to float once: over
    L 2^(n-k) with L a common denominator of the densities, or over 2^n.
    """
    if mode not in ("primary", "literal"):
        raise ValueError(f"mode must be 'primary' or 'literal', got {mode!r}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"n must be >= k, got n={n}, k={k}")
    spans = [_span_weighted_count(n, t, k) for t in range(n + 1)]
    if mode == "literal":
        coeffs, denom = spans, 1 << n
        label = "approx-primal-literal"
    else:
        dens = [(1 << k) - t if n < 1 << k else 1 << k for t in range(3, n + 1)]
        common = lcm(*dens)
        coeffs = [common, 0, 0] + [spans[t] * (common // d) for t, d in enumerate(dens, 3)]
        denom = common << (n - k)
        label = "approx-primal"
    values = [float(Fraction(acc, denom)) for acc in _krawtchouk_sums(coeffs, n)]
    return RealDistribution(n=n, values=tuple(values), label=label)


# ---------------------------------------------------------------------------
# divergence

def kld(p: RealDistribution, q: RealDistribution) -> float:
    """KL divergence (natural log) between two weight profiles.

    Both are restricted to weights 3..n, clamped at zero, and normalized
    to unit mass before comparing.  Returns inf when q has no mass at a
    weight where p does.
    """
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    pv = [max(v, 0.0) for v in p.values[3:]]
    qv = [max(v, 0.0) for v in q.values[3:]]
    ps, qs = sum(pv), sum(qv)
    if ps <= 0 or qs <= 0:
        raise ValueError("both profiles need positive mass on weights >= 3")
    acc = 0.0
    for pi, qi in zip(pv, qv):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return inf
        pi /= ps
        qi /= qs
        acc += pi * log(pi / qi)
    return acc
