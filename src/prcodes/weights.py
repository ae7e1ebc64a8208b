"""Hamming weight distributions and their transforms.

Exact enumerators are integer vectors A_0..A_n, counted by one of two
kernels chosen by the length n.  Up to SPAN_MAX_N coordinates, A is the
histogram of popcounts over the GF(2) span of k generator rows packed
in 64-bit words, 2^k codewords of ceil(n/64) words each:
construct.span_words builds the span of the low rows as one block, and
each high row XORed onto it in turn moves it to the next coset.  Longer
codes use that their nonzero codewords are the n-bit windows of the
sequence at the P = 2^k - 1 phases: A is a count of window weights plus
the zero word, read from one packed sequence a chunk of phases at a
time, at a cost in P that does not grow with n.  That window kernel,
_window_counts, serves only these enumerators past SPAN_MAX_N, of one
code or of each ensemble member; awgn lists its light codewords off
the span.

The binary MacWilliams transform maps an enumerator to its dual's
through the Krawtchouk sums sum_t c_t K_j(t), the coefficients of
sum_t c_t (1-z)^t (1+z)^(n-t).  Since (1-z)^t (1+z)^(n-t) =
sum_l C(t,l) (-2z)^l (1+z)^(n-l), two passes of Pascal steps compute
them, d_l = sum_t C(t,l) c_t and then sum_l (-2)^l d_l z^l (1+z)^(n-l),
with big-int additions and shifts alone.  Everything on that path is
arbitrary-precision integer arithmetic, so a non-integer or negative
output is reported as an error instead of being rounded away.

On top of the exact machinery sit the ensemble averages over all
maximal-period polynomials of a degree, one code per sequence of
gf2.decimations, the one walk of first_primitive(k)'s own m-sequence
(up to SPAN_MAX_N, the span kernel counts a stack of up to _PAIR_STACK
of those codes at once and adds their counts, with fewer low rows each,
so that the stack's low block still has at most 2^SPAN_LOW_BITS columns);
closed-form approximations of those averages built from the counts of
weight-t windows by the span of their ones (both primal ones through
the same integer kernel); and a KL divergence for comparing the two.
n_multiples, the number of weight-t multiples of a maximal-period
polynomial, is one closed-form count: the MacWilliams transform of the
simplex code, the dual of the Hamming code those multiples form, taken
at one weight.  Each average or approximation is an exact rational a/b
of ints, rounded to float once as a / b: CPython's int true division is
correctly rounded, so it is the double that float(Fraction(a, b))
gives, without reducing the fraction first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf, lcm, log, prod
from operator import add
from typing import Iterator

import numpy as np

from .construct import PrCode, packed_rows, span_words
from .errors import (
    ENSEMBLE_CAP,
    ENUMERATOR_CAP,
    InconsistentEnumeratorError,
    check_k,
)
from .gf2 import BitPoly, decimations, packed_sequence, pair_polynomials

# longest code counted over the span of its rows, at O(2^k n/64) word
# operations; longer ones count windows at O(P) whatever n is.  At n = 192
# the span took 2, 8, 29 and 94 ms at k = 18, 20, 22, 24 against 5, 14, 49
# and 117 ms for the windows; at n = 256 they break even at k = 24 (2-vCPU VM)
SPAN_MAX_N = 192
# rows whose codewords _span_counts builds into the low block of one code;
# each coset of the others is one XOR onto that 2^SPAN_LOW_BITS-column block.
# Of 11-16, 14 was fastest or within 10% of it at k = 22-24, n = 84-192
# (2-vCPU VM).  A stack of c codes takes SPAN_LOW_BITS - ceil(log2 c) low
# rows each, so its block stays at most as wide; blocks of 2^15 columns broke
# the memory bounds of the ensemble tests, and of 2^17 page-faulted and ran
# 10-20% slower at k = 13
SPAN_LOW_BITS = 14
# pairs ensemble_summed_counts counts as one stack of _span_counts.  Of
# 16-256, 64 was fastest or within 6% of it at k = 11-15, n = 40-192 (medians
# of 3-7 calls; k = 16 spread 15-25% from run to run): smaller stacks repeat
# the per-stack set-up more often at k = 11-12, larger ones leave each code's
# low block short at k = 13-15 (2-vCPU VM)
_PAIR_STACK = 64
# phases _window_counts weighs at a time, for the enumerators past SPAN_MAX_N:
# a few MB of working memory at any k
CHUNK = 1 << 16


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

    def as_distribution(self) -> "RealDistribution":
        return RealDistribution(n=self.n, values=tuple(float(c) for c in self.counts))


@dataclass(frozen=True)
class RealDistribution:
    """Real-valued weight profile indexed 0..n (averages, approximations)."""

    n: int
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise ValueError(f"need {self.n + 1} values, got {len(self.values)}")


# ---------------------------------------------------------------------------
# exact enumerators

def _unpack(packed: np.ndarray, start: int, count: int) -> np.ndarray:
    """Bits start..start+count-1 of a little-endian packed byte array."""
    skip = start & 7
    window = packed[start >> 3:(start + count + 7) >> 3]
    return np.unpackbits(window, count=skip + count, bitorder="little")[skip:]


def _window_counts(k: int, n: int, packed: np.ndarray) -> np.ndarray:
    """A_0..A_n, as int64, of the n-windows of one period-(2^k - 1)
    sequence: every phase once, plus the zero word.

    packed holds at least s_0..s_(P+r-1), little-endian, with P = 2^k - 1
    and r = n mod P.  The window at phase t weighs n // P full periods of
    2^(k-1) ones plus w(t), the weight of s[t..t+r), and w(t+1) - w(t) =
    s[t+r] - s[t].  So for t = 0..P-1 in consecutive chunks of at most
    CHUNK phases, this unpacks s[t..t+c) and s[t+r..t+r+c), and the w of
    the windows at phases t+1..t+c (phase P is phase 0) are running sums
    of their differences from w(t).  Each chunk's w are binned over the
    r + 1 weights from the lightest window's up.
    """
    period = (1 << k) - 1
    laps, r = divmod(n, period)
    lightest = laps << (k - 1)
    packed = packed.view(np.uint8)
    weight = int(np.count_nonzero(_unpack(packed, 0, r)))
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[0] = 1
    for t in range(0, period, CHUNK):
        count = min(CHUNK, period - t)
        steps = np.subtract(_unpack(packed, t + r, count), _unpack(packed, t, count), dtype=np.int8)
        weights = weight + np.cumsum(steps)
        weight = int(weights[-1])
        counts[lightest:lightest + r + 1] += np.bincount(weights, minlength=r + 1)
    return counts


def _span_counts(words: np.ndarray, n: int) -> np.ndarray:
    """A_0..A_n, as int64, of the GF(2) span of k linearly independent
    n-bit rows, given as (k, ceil(n/64)) words in packed_rows' layout.
    Leading axes are a stack of c codes, as span_words takes them, and the
    (n + 1) counts are those of all c codes added together; a single code
    is a stack of none.

    span_words builds the codewords of the low rows as one block, with
    max(1, SPAN_LOW_BITS - ceil(log2 c)) rows per code, so the stack's
    block has at most 2^SPAN_LOW_BITS columns; the other rows pick its
    cosets.  The cosets are walked in Gray-code order: step f XORs high
    row j, j the lowest set bit of f, onto the block in place.  The
    popcounts of a coset are summed over the planes, in the narrowest
    unsigned type that holds n, and binned once for the whole stack.  The
    bits of a row past bit n are zero, so the sums are the codeword
    weights.
    """
    low = max(1, SPAN_LOW_BITS - (prod(words.shape[:-2]) - 1).bit_length())
    block = span_words(words[..., :low, :])
    high = words[..., low:, :, None]
    weights = np.empty((*words.shape[:-2], block.shape[-1]), dtype=np.min_scalar_type(n))
    counts = np.zeros(n + 1, dtype=np.int64)
    ones = np.empty(block.shape, dtype=np.uint8)
    for f in range(1 << high.shape[-3]):
        if f:
            np.bitwise_xor(block, high[..., (f & -f).bit_length() - 1, :, :], out=block)
        np.bitwise_count(block, out=ones)
        ones.sum(axis=-2, dtype=weights.dtype, out=weights)
        counts += np.bincount(weights.ravel(), minlength=n + 1)
    return counts


def weight_enumerator_exact(code: PrCode) -> WeightEnumerator:
    """Exact weight distribution of a code that build_code returns.

    Up to SPAN_MAX_N coordinates it is counted over the span of
    code.rows; longer codes count the windows of code.poly's sequence at
    all P = 2^k - 1 phases, which are their nonzero codewords, from its
    first P + (n mod P) bits.
    """
    check_k("exhaustive enumeration", code.k, ENUMERATOR_CAP)
    if code.n <= SPAN_MAX_N:
        counts = _span_counts(packed_rows(code.rows, code.n), code.n)
    else:
        period = (1 << code.k) - 1
        packed = packed_sequence(code.poly, period + code.n % period)
        counts = _window_counts(code.k, code.n, packed)
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


def _krawtchouk_sums(coeffs: list[int], n: int) -> list[int]:
    """[sum_t coeffs[t] K_j(t) for j = 0..n], exact, from coeffs[0..n].

    The sums are the coefficients of out(z) = sum_t c_t (1-z)^t (1+z)^(n-t),
    and writing 1 - z = (1 + z) - 2z turns each term into
    sum_l C(t,l) (-2z)^l (1+z)^(n-l).  So out(z) = sum_l (-2)^l d_l z^l
    (1+z)^(n-l) with d_l = sum_t C(t,l) c_t, and two Horner passes of
    Pascal steps give it with additions and shifts alone, n(n+1)/2 big-int
    additions each: d(y) = sum_t c_t (1+y)^t, then out(z).
    """
    d = [coeffs[n]]
    for c in reversed(coeffs[:n]):  # d(y) <- d(y) (1 + y) + c_t
        d = [d[0] + c, *map(add, d[1:], d), d[-1]]
    out = [d[0]]
    for l in range(1, n + 1):  # out(z) <- out(z) (1 + z) + (-2)^l d_l z^l
        term = d[l] << l
        out = [out[0], *map(add, out[1:], out), out[-1] + (-term if l & 1 else term)]
    return out


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
# One sequence of gf2.decimations per reciprocal pair stands for both codes.

def _pair_members(k: int, n: int, group: int) -> Iterator[tuple[int, np.ndarray]]:
    """(pairs, counts) for each run of up to `group` pairs of
    gf2.decimations(k, .), in pair_leaders order, one sequence per
    reciprocal pair of degree k (k = 2 has a single, self-reciprocal
    code): counts is the (n + 1) int64 sum of the length-n counts
    A_0..A_n of the run's codes.  Up to SPAN_MAX_N, a run is counted as
    one stack of _span_counts; the window kernel counts one pair at a
    time, whatever the group."""
    check_k("ensemble enumeration", k, ENSEMBLE_CAP, low=2)
    if n < k:
        raise ValueError(f"block length must be >= k = {k}, got {n}")
    if n <= SPAN_MAX_N:
        # row j is u's window at phase j; those k are independent, so they
        # span its code.  np.take gathers the windows 2.5-4x faster than
        # u[:, phases] at 2-16 pairs
        phases = np.arange(k)[:, None] + np.arange(n)
        packed = np.zeros((group, k, 8 * -(-n // 64)), dtype=np.uint8)
        for u in decimations(k, n + k - 1, group):
            words = packed[:len(u)]
            words[..., :-(-n // 8)] = np.packbits(np.take(u, phases, axis=1), axis=-1,
                                                  bitorder="little")
            yield len(u), _span_counts(words.view("<u8"), n)
        return
    period = (1 << k) - 1
    for u in decimations(k, period + n % period):
        yield 1, _window_counts(k, n, np.packbits(u[0], bitorder="little"))


def ensemble_enumerators(k: int, n: int) -> list[tuple[BitPoly, WeightEnumerator]]:
    """Exact enumerator for every degree-k maximal-period polynomial,
    ascending by mask.  _pair_members counts each pair alone, and
    pair_polynomials names the polynomial of each sequence it counts; its
    reciprocal shares the counts."""
    # its range checks run before any polynomial work
    members = [counts.tolist() for _, counts in _pair_members(k, n, 1)]
    out = []
    for p, counts in zip(pair_polynomials(k), members):
        enum = WeightEnumerator(n=n, dim=k, counts=tuple(counts))
        out.extend((q, enum) for q in {p, p.reciprocal()})
    return sorted(out, key=lambda member: member[0].mask)


def ensemble_summed_counts(k: int, n: int) -> tuple[int, list[int]]:
    """(pairs, sums): the number of reciprocal pairs of degree k, and the
    counts of one code per pair summed per weight.  Both codes of a pair
    share one enumerator, so sums[j] / pairs is, as an exact fraction, the
    average A_j over all the codes.

    _pair_members sums each stack of _PAIR_STACK pairs as it counts them,
    and the stacks are added as they stream, so memory stays O(n).  The
    sums must hold one zero word per pair and 2^k codewords per pair, or
    InconsistentEnumeratorError is raised.
    """
    pairs, total = 0, 0  # total becomes a new array at the first run
    for run, counts in _pair_members(k, n, _PAIR_STACK):
        total += counts
        pairs += run
    sums = total.tolist()
    if sums[0] != pairs or sum(sums) != pairs << k:
        raise InconsistentEnumeratorError(
            f"counts summed over {pairs} pairs hold {sums[0]} zero words and "
            f"{sum(sums)} codewords, not {pairs} and {pairs << k}"
        )
    return pairs, sums


def _average(pairs: int, sums: list[int]) -> RealDistribution:
    """sums[j] / pairs at each weight j, each rounded to float once."""
    return RealDistribution(n=len(sums) - 1, values=tuple(s / pairs for s in sums))


def ensemble_average_primal(k: int, n: int) -> RealDistribution:
    """Exact average primal weight distribution for degree k: the
    ensemble_summed_counts totals divided by the pair count.  No dual is
    formed, so it holds at lengths where the dual average would pass the
    float range."""
    return _average(*ensemble_summed_counts(k, n))


def ensemble_average_exact(k: int, n: int) -> tuple[RealDistribution, RealDistribution]:
    """Exact average primal and dual weight distributions for degree k.

    The primal is ensemble_average_primal's.  The dual average is the
    transform of the summed primal counts, which by linearity equals the
    average of the per-code duals, rounded the same way.
    """
    pairs, primal_sum = ensemble_summed_counts(k, n)
    return _average(pairs, primal_sum), _average(pairs, _transform_counts(primal_sum, n, k))


# ---------------------------------------------------------------------------
# closed-form approximations

def n_multiples(k: int, t: int) -> int:
    """Number of weight-t multiples (constant term 1) of degree <= 2^k - 2
    of a degree-k maximal-period polynomial; the same for every such
    polynomial.

    Its multiples of degree <= P - 1, P = 2^k - 1, are the words of the
    cyclic Hamming code it generates, whose dual is the simplex code: 1
    word of weight 0 and P of weight 2^(k-1).  MacWilliams gives the
    Hamming code's A_t = 2^-k [C(P, t) + P K_t(2^(k-1))], and K_t(2^(k-1))
    is the z^t coefficient of (1-z)^(2^(k-1)) (1+z)^(2^(k-1)-1) = (1-z)
    (1-z^2)^(2^(k-1)-1), that is (-1)^ceil(t/2) C(2^(k-1)-1, floor(t/2)).
    By cyclic symmetry coordinate 0, the constant term, lies in t/P of the
    weight-t words, so the count is t A_t / P, which is 0 at t = 1, 2 and
    t > P.  A remainder or a negative count raises
    InconsistentEnumeratorError.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    period = (1 << k) - 1
    kraw = (-1) ** ((t + 1) // 2) * comb((1 << (k - 1)) - 1, t // 2)  # K_t(2^(k-1))
    count, rem = divmod(t * (comb(period, t) + period * kraw), period << k)
    if rem or count < 0:
        raise InconsistentEnumeratorError(
            f"count of weight-{t} multiples at k={k} is not a nonnegative integer"
        )
    return count


def _span_weighted_count(n: int, t: int, k: int) -> int:
    """Sum over degrees c of C(c-1, t-2) (n-c): weight-t windows grouped by
    the distance c between their first and last one, c0 <= c < n with
    c0 = max(k, t-1).  Writing n - c as a count of the m in c..n-1 and
    summing over c first by the hockey-stick identity leaves
    C(n,t) - C(c0,t) - (n-c0) C(c0-1,t-1), which is 0 at c0 = n."""
    if t < 2:
        return 0
    c0 = max(k, t - 1)
    return comb(n, t) - comb(c0, t) - (n - c0) * comb(c0 - 1, t - 1)


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
        values[t] = _span_weighted_count(n, t, k) / denom
    return RealDistribution(n=n, values=tuple(values))


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
    else:
        dens = [(1 << k) - t if n < 1 << k else 1 << k for t in range(3, n + 1)]
        common = lcm(*dens)
        coeffs = [common, 0, 0] + [spans[t] * (common // d) for t, d in enumerate(dens, 3)]
        denom = common << (n - k)
    values = [acc / denom for acc in _krawtchouk_sums(coeffs, n)]
    return RealDistribution(n=n, values=tuple(values))


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
