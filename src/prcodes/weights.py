"""Hamming weight distributions and their transforms.

Exact enumerators are integer vectors A_0..A_n, counted by one of two
kernels chosen by the length n.  Up to SPAN_MAX_N coordinates, A is the
histogram of popcounts over the GF(2) span of k generator rows packed
in 64-bit words, 2^k codewords of ceil(n/64) words each.  Longer codes
use that their nonzero codewords are the n-bit windows of the sequence
at the P = 2^k - 1 phases: A is a count of window weights plus the zero
word, read from two copies of the sequence n mod P phases apart, at a
cost in P that does not grow with n.  The binary MacWilliams
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
from math import comb, inf, lcm, log
from typing import Iterable, Iterator, Sequence

import numpy as np

from .construct import PrCode, m_sequence, sequence_chunks
from .errors import (
    ENSEMBLE_CAP,
    ENUMERATOR_CAP,
    InconsistentEnumeratorError,
    RecursionInconsistencyError,
    check_k,
)
from .gf2 import BitPoly, first_primitive, pair_leaders, pair_polynomials

# longest code counted over the span of its rows, at O(2^k n/64) word
# operations; longer ones count windows at O(P) whatever n is.  At n = 192
# the span took 2, 8, 29 and 94 ms at k = 18, 20, 22, 24 against 5, 14, 49
# and 117 ms for the windows; at n = 256 they break even at k = 24 (2-vCPU VM)
SPAN_MAX_N = 192
# rows whose codewords _span_counts builds once; the others are walked in
# Gray order, one XOR of a 2^SPAN_LOW_BITS-column block per step.  Of 11-16,
# 14 was fastest or within 10% of it at k = 22-24, n = 84-192 (2-vCPU VM)
SPAN_LOW_BITS = 14


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

def _window_weights(k: int, n: int, first: int,
                    chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[np.ndarray]:
    """Weights of the n-windows of one period-(2^k - 1) sequence, per chunk.

    chunks yields bit-array pairs (s[t..t+c), s[t+r..t+r+c)) that together
    cover t = 0..P-1 in order, with r = n mod P; for each, this yields the
    int64 weights of the windows at phases t+1..t+c (phase P is phase 0).
    The window at phase t weighs n // P full periods of 2^(k-1) ones plus
    w(t), the weight of s[t..t+r), and w(t+1) - w(t) = s[t+r] - s[t], so
    the weights are running sums of those steps from first = w(0).
    """
    weight = (n // ((1 << k) - 1) << (k - 1)) + first
    for head, tail in chunks:
        weights = np.cumsum(np.subtract(tail, head, dtype=np.int8))
        weights += weight
        weight = int(weights[-1])
        yield weights


def _window_counts(k: int, n: int, first: int,
                   chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """A_0..A_n, as int64, of the n-windows of one period-(2^k - 1) sequence,
    from _window_weights' chunks and first: every phase once, plus the zero
    word.  A window weighs lightest + 0..r, so each chunk is binned over
    r + 1 places."""
    laps, r = divmod(n, (1 << k) - 1)
    lightest = laps << (k - 1)
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = 1
    for weights in _window_weights(k, n, first, chunks):
        weights -= lightest
        counts[lightest:lightest + r + 1] += np.bincount(weights, minlength=r + 1)
    return counts


def _span_counts(rows: Sequence[int], n: int) -> np.ndarray:
    """A_0..A_n, as int64, of the GF(2) span of k linearly independent
    n-bit rows.

    The codewords of the low min(k, SPAN_LOW_BITS) rows are built once by
    XOR doubling, as ceil(n/64) planes of uint64 words, one column per
    codeword.  Each combination of the high rows, taken in Gray order so
    that one row changes per step, is XORed onto that block; the popcounts
    of the coset are summed over the planes, in the narrowest unsigned
    type that holds n, and binned.  The bits of a row past bit n are
    zero, so the sums are the codeword weights.
    """
    k, planes = len(rows), -(-n // 64)
    low = min(k, SPAN_LOW_BITS)
    weight = np.min_scalar_type(n)
    words = np.frombuffer(b"".join(r.to_bytes(8 * planes, "little") for r in rows),
                          dtype="<u8").reshape(k, planes)
    block = np.zeros((planes, 1 << low), dtype=np.uint64)
    for i in range(low):
        np.bitwise_xor(block[:, :1 << i], words[i, :, None], out=block[:, 1 << i:2 << i])
    counts = np.zeros(n + 1, dtype=np.int64)
    flip = np.zeros(planes, dtype=np.uint64)
    coset = np.empty_like(block)
    ones = np.empty(block.shape, dtype=np.uint8)
    for g in range(1 << (k - low)):
        if g:
            flip ^= words[low + (g & -g).bit_length() - 1]
        np.bitwise_xor(block, flip[:, None], out=coset)
        np.bitwise_count(coset, out=ones)
        counts += np.bincount(ones.sum(axis=0, dtype=weight), minlength=n + 1)
    return counts


def weight_enumerator_exact(code: PrCode) -> WeightEnumerator:
    """Exact weight distribution of a code that build_code returns.

    Up to SPAN_MAX_N coordinates it is counted over the span of
    code.rows; longer codes count the windows of code.poly's sequence at
    all 2^k - 1 phases, which are their nonzero codewords.
    """
    check_k("exhaustive enumeration", code.k, ENUMERATOR_CAP)
    if code.n <= SPAN_MAX_N:
        counts = _span_counts(code.rows, code.n)
    else:
        r = code.n % ((1 << code.k) - 1)
        first = (code.rows[0] & ((1 << r) - 1)).bit_count()  # row 0 is s_0..s_(n-1)
        counts = _window_counts(code.k, code.n, first, sequence_chunks(code.poly, (0, r)))
    return WeightEnumerator(n=code.n, dim=code.k, counts=tuple(counts.tolist()))


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
# One decimation per class of gf2.pair_leaders covers a reciprocal pair.

def _pair_members(k: int, n: int) -> Iterator[np.ndarray]:
    """Length-n counts A_0..A_n, as int64, of one code per reciprocal pair
    of degree k, in gf2.pair_leaders order (k = 2 has a single,
    self-reciprocal code)."""
    check_k("ensemble enumeration", k, ENSEMBLE_CAP, low=2)
    if n < k:
        raise ValueError(f"block length must be >= k = {k}, got {n}")
    base = m_sequence(first_primitive(k))
    period = len(base)
    if n <= SPAN_MAX_N:
        # the windows of u at phases 0..k-1 are independent, so they span its code
        steps, mask = np.arange(n + k - 1), (1 << n) - 1
        for d in pair_leaders(k):
            u = np.packbits(base[steps * d % period], bitorder="little")
            bits = int.from_bytes(u.tobytes(), "little")
            yield _span_counts([(bits >> j) & mask for j in range(k)], n)
        return
    r = n % period
    # d t mod P in 32 bits while (P - 1)^2 fits
    phases = np.arange(period, dtype=np.uint32 if period <= 0xFFFF else np.uint64)
    for d in pair_leaders(k):
        u = base[phases * d % period]
        yield _window_counts(k, n, int(np.count_nonzero(u[:r])), [(u, np.roll(u, -r))])


def ensemble_enumerators(k: int, n: int) -> list[tuple[BitPoly, WeightEnumerator]]:
    """Exact enumerator for every degree-k maximal-period polynomial,
    ascending by mask.  Leader d decimates construct's sequence (powers of
    1/x) and gf2's (powers of x), so both name one reciprocal pair."""
    members = list(_pair_members(k, n))  # its range checks run before any polynomial work
    out = []
    for p, counts in zip(pair_polynomials(k), members):
        enum = WeightEnumerator(n=n, dim=k, counts=tuple(counts.tolist()))
        out.extend((q, enum) for q in {p, p.reciprocal()})
    return sorted(out, key=lambda member: member[0].mask)


def ensemble_summed_counts(k: int, n: int) -> tuple[int, list[int]]:
    """(pairs, sums): the number of reciprocal pairs of degree k, and the
    counts of one code per pair summed per weight.  Both codes of a pair
    share one enumerator, so sums[j] / pairs is, as an exact fraction, the
    average A_j over all the codes.

    The pairs' counts are added as they stream, so memory stays O(n).  The
    sums must hold one zero word per pair and 2^k codewords per pair, or
    InconsistentEnumeratorError is raised.
    """
    pairs, total = 0, 0  # total becomes a new array at the first pair
    for counts in _pair_members(k, n):
        total += counts
        pairs += 1
    sums = total.tolist()
    if sums[0] != pairs or sum(sums) != pairs << k:
        raise InconsistentEnumeratorError(
            f"counts summed over {pairs} pairs hold {sums[0]} zero words and "
            f"{sum(sums)} codewords, not {pairs} and {pairs << k}"
        )
    return pairs, sums


def ensemble_average_exact(k: int, n: int) -> tuple[RealDistribution, RealDistribution]:
    """Exact average primal and dual weight distributions for degree k.

    The ensemble_summed_counts totals are divided by the pair count and
    rounded to float once.  The dual average is the transform of the
    summed primal counts, which by linearity equals the average of the
    per-code duals.
    """
    pairs, primal_sum = ensemble_summed_counts(k, n)
    dual_sum = _transform_counts(primal_sum, n, k)
    primal = tuple(float(Fraction(s, pairs)) for s in primal_sum)
    dual = tuple(float(Fraction(s, pairs)) for s in dual_sum)
    return (
        RealDistribution(n=n, values=primal, label="exact-avg-primal"),
        RealDistribution(n=n, values=dual, label="exact-avg-dual"),
    )


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

    primary: 2^-(n-k) [K_j(0) + sum_t B_t K_j(t)], which keeps the total
    at 2^k.  For n < 2^k, B_t is avg_dual_approx's entry t as an exact
    rational, and this is its transform.  For n >= 2^k every B_t uses
    the uniform 2^-k density, while avg_dual_approx keeps 1/(2^k - t)
    for t < 2^k, so the two are no longer a transform pair.

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
