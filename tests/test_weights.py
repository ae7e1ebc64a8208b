"""Weight enumerators, the MacWilliams transform, ensemble averages,
closed-form approximations, and KL divergence."""

import functools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from util import (
    ref_avg_dual_approx,
    ref_avg_primal_approx,
    ref_lfsr_bits,
    ref_mul,
    ref_n_multiples,
    ref_weight_counts,
    tnomial_multiple_count,
)

import prcodes.weights
from prcodes.construct import PrCode, build_code, packed_rows
from prcodes.errors import InconsistentEnumeratorError, UnsupportedRangeError
from prcodes.gf2 import (
    BitPoly,
    enumerate_primitives,
    first_primitive,
    packed_sequence,
    pair_polynomials,
)
from prcodes.weights import (
    RealDistribution,
    WeightEnumerator,
    _krawtchouk_sums,
    _pair_members,
    _span_counts,
    _span_weighted_count,
    _window_counts,
    avg_dual_approx,
    avg_primal_approx,
    ensemble_average_exact,
    ensemble_average_primal,
    ensemble_enumerators,
    ensemble_summed_counts,
    kld,
    krawtchouk,
    macwilliams,
    n_multiples,
    weight_enumerator_exact,
)

P4 = BitPoly.parse("1+x+x^4")
P11 = BitPoly.parse("1+x^2+x^3+x^4+x^5+x^8+x^11")

# exhaustively recomputed enumerators for the four reference codes
GOLDEN_ROWS = [
    (P4, 20, {9: 2, 10: 4, 11: 6, 12: 3}),
    (P4, 32, {16: 3, 17: 8, 18: 4}),
    (P11, 20, {4: 8, 5: 29, 6: 73, 7: 171, 8: 249, 9: 306, 10: 362, 11: 326,
               12: 254, 13: 161, 14: 61, 15: 31, 16: 16}),
    (P11, 32, {9: 2, 10: 40, 11: 54, 12: 154, 13: 136, 14: 250, 15: 256,
               16: 289, 17: 258, 18: 172, 19: 214, 20: 98, 21: 84, 22: 18,
               23: 20, 24: 2}),
]

HAMMING_15_11 = {0: 1, 3: 35, 4: 105, 5: 168, 6: 280, 7: 435, 8: 435, 9: 280,
                 10: 168, 11: 105, 12: 35, 15: 1}


def nonzero(counts):
    return {j: c for j, c in enumerate(counts) if c}


def simplex_enumerator(k):
    n = 2**k - 1
    counts = [0] * (n + 1)
    counts[0] = 1
    counts[2 ** (k - 1)] = n
    return WeightEnumerator(n=n, dim=k, counts=tuple(counts))


# ---------------------------------------------------------------------------
# exact enumerators

@pytest.mark.parametrize("poly,n,expected", GOLDEN_ROWS)
def test_reference_enumerators(poly, n, expected):
    enum = weight_enumerator_exact(build_code(poly, n))
    assert nonzero(enum.counts) == {0: 1, **expected}
    assert sum(expected.values()) == 2**enum.dim - 1


def test_enumerator_validation():
    with pytest.raises(InconsistentEnumeratorError):
        WeightEnumerator(n=2, dim=1, counts=(2, 0, 0))  # weight-0 count not 1
    with pytest.raises(InconsistentEnumeratorError):
        WeightEnumerator(n=2, dim=1, counts=(1, 0, 0))  # wrong total
    with pytest.raises(InconsistentEnumeratorError):
        WeightEnumerator(n=2, dim=2, counts=(1, 4, -1))  # negative
    with pytest.raises(ValueError):
        WeightEnumerator(n=2, dim=1, counts=(1, 1))  # wrong length


def test_enumerator_cap():
    fake = PrCode(poly=P4, k=25, n=25, rows=tuple(1 << i for i in range(25)))
    with pytest.raises(UnsupportedRangeError):
        weight_enumerator_exact(fake)


def test_min_nonzero_weight():
    enum = weight_enumerator_exact(build_code(P4, 20))
    assert enum.min_nonzero_weight() == 9


@pytest.mark.parametrize("k", range(2, 11))
def test_enumerator_matches_brute_force(k):
    period = 2**k - 1
    polys = enumerate_primitives(k)
    for p in {polys[0], polys[-1]} if k <= 8 else {polys[-1]}:
        for n in sorted({k, 2 * k, period, period + 3, 3 << k}):
            enum = weight_enumerator_exact(build_code(p, n))
            assert list(enum.counts) == ref_weight_counts(p.mask, n), f"{p} n={n}"


def windows(p, n):
    """_window_counts' input for p's n-windows: the first P + (n mod P) bits
    of the sequence seeded with 1, 0, ..., 0, packed little-endian."""
    period = 2**p.degree - 1
    return np.packbits(ref_lfsr_bits(p.mask, 1, period + n % period), bitorder="little")


@pytest.mark.parametrize("chunk", [62, 63, 64, 126, 127, 128])
def test_enumerator_across_chunk_boundaries(monkeypatch, chunk):
    # periods 63, 127 and 255 against chunks just below, at and above
    # them, with windows close to the chunk size and longer than it
    monkeypatch.setattr(prcodes.weights, "CHUNK", chunk)
    for text in ("1+x+x^6", "1+x^3+x^7", "1+x^2+x^3+x^4+x^8"):
        p = BitPoly.parse(text)
        for n in sorted({chunk - 1, chunk, chunk + 1, 2 * chunk + 3, 300}):
            if n < p.degree:
                continue
            enum = weight_enumerator_exact(build_code(p, n))
            expected = ref_weight_counts(p.mask, n)
            assert list(enum.counts) == expected, f"{p} n={n}"
            # the window kernel directly, since short codes take the span kernel
            assert _window_counts(p.degree, n, windows(p, n)).tolist() == expected, f"{p} n={n}"


# window lengths around one, two and three 64-bit planes, the largest span
# length, and one and a little over one period
KERNEL_NS = (63, 64, 65, 127, 128, 129, 191, 192, 193)
_cached_ref_counts = functools.cache(ref_weight_counts)


def _kernel_cases(k):
    period = 2**k - 1
    p = enumerate_primitives(k)[-1]
    for n in sorted({k, *KERNEL_NS, period, period + 3}):
        if n >= k:
            yield p, n, _cached_ref_counts(p.mask, n)


@pytest.mark.parametrize("k", range(2, 11))
def test_span_and_window_kernels_match_brute_force(k):
    for p, n, expected in _kernel_cases(k):
        assert _span_counts(packed_rows(build_code(p, n).rows, n), n).tolist() == expected, f"{p} n={n}"
        assert _window_counts(k, n, windows(p, n)).tolist() == expected, f"{p} n={n}"


@pytest.mark.parametrize("low_bits", [2, 3])
@pytest.mark.parametrize("k", range(2, 11))
def test_span_kernel_high_block_matches_brute_force(monkeypatch, k, low_bits):
    # few low rows, so that several cosets are walked, in Gray-code order,
    # at small k
    monkeypatch.setattr(prcodes.weights, "SPAN_LOW_BITS", low_bits)
    for p, n, expected in _kernel_cases(k):
        assert _span_counts(packed_rows(build_code(p, n).rows, n), n).tolist() == expected, f"{p} n={n}"


def _sliding_counts(p, n):
    """Window weights at every phase of one period, by a plain sliding sum."""
    period = 2**p.degree - 1
    bits = ref_lfsr_bits(p.mask, 1, period + n)
    counts = [0] * (n + 1)
    counts[0] = 1
    weight = sum(bits[:n])
    for t in range(period):
        counts[weight] += 1
        weight += bits[t + n] - bits[t]
    return counts


@pytest.mark.parametrize("k,n", [(16, (1 << 16) - 2), (17, (1 << 16) + 1)])
def test_enumerator_at_default_chunk_size(k, n):
    # period 2^16 - 1 just below the default chunk, 2^17 - 1 just above
    p = first_primitive(k)
    enum = weight_enumerator_exact(build_code(p, n))
    assert list(enum.counts) == _sliding_counts(p, n)


# ---------------------------------------------------------------------------
# Krawtchouk kernel

def test_krawtchouk_constant_and_endpoints():
    for n in (5, 12, 20):
        for t in range(n + 1):
            assert krawtchouk(n, 0, t) == 1
        for j in range(n + 1):
            assert krawtchouk(n, j, 0) == math.comb(n, j)
    assert krawtchouk(20, 2, 0) == 190


def test_krawtchouk_linear_case():
    for t in range(21):
        assert krawtchouk(20, 1, t) == 20 - 2 * t
    assert krawtchouk(20, 1, 3) == 14


def test_krawtchouk_range_errors():
    with pytest.raises(ValueError):
        krawtchouk(10, 11, 0)
    with pytest.raises(ValueError):
        krawtchouk(10, 0, -1)


@pytest.mark.parametrize("n", [8, 15, 24])
def test_krawtchouk_orthogonality(n):
    K = [[krawtchouk(n, j, t) for t in range(n + 1)] for j in range(n + 1)]
    binom = [math.comb(n, t) for t in range(n + 1)]
    for j in range(n + 1):
        for l in range(j, n + 1):
            acc = sum(binom[t] * K[j][t] * K[l][t] for t in range(n + 1))
            expect = (1 << n) * binom[j] if j == l else 0
            assert acc == expect, f"n={n} j={j} l={l}"


def _assert_unit_sums_match_direct_formula(n):
    # the kernel's sums over the unit vector e_t are K_0(t)..K_n(t)
    for t in range(n + 1):
        unit = [int(i == t) for i in range(n + 1)]
        assert _krawtchouk_sums(unit, n) == [krawtchouk(n, j, t) for j in range(n + 1)], f"n={n} t={t}"


def test_krawtchouk_sums_of_unit_vectors_match_direct_formula():
    for n in range(65):
        _assert_unit_sums_match_direct_formula(n)


@pytest.mark.slow
def test_krawtchouk_sums_of_unit_vectors_match_direct_formula_long():
    for n in (125, 200):
        _assert_unit_sums_match_direct_formula(n)


@pytest.mark.parametrize("bits", [1, 22, 2000])
def test_krawtchouk_sums_of_dense_vectors_match_direct_sum(bits):
    # dense coefficients of either sign against sum_t c_t K_j(t), term by term
    rng = random.Random(bits)
    for n in range(41):
        coeffs = [rng.getrandbits(bits) * rng.choice((1, -1)) for _ in range(n + 1)]
        expected = [sum(c * krawtchouk(n, j, t) for t, c in enumerate(coeffs)) for j in range(n + 1)]
        assert _krawtchouk_sums(coeffs, n) == expected, f"n={n}"


# ---------------------------------------------------------------------------
# MacWilliams transform

def test_simplex_transforms_to_hamming():
    dual = macwilliams(simplex_enumerator(4))
    assert dual.dim == 11
    assert nonzero(dual.counts) == HAMMING_15_11


def test_transform_agrees_with_multiple_enumeration():
    # independent route: the dual consists of all products p*m of degree
    # below n, so count those weights directly
    n = 15
    counts = [0] * (n + 1)
    for m in range(1 << (n - 4)):
        counts[ref_mul(P4.mask, m).bit_count()] += 1
    assert tuple(counts) == macwilliams(weight_enumerator_exact(build_code(P4, n))).counts


def test_involution_on_built_codes():
    cases = []
    for k in range(2, 9):
        for p in enumerate_primitives(k)[:3]:
            for n in (k, 2 * k, min(3 * k, 24)):
                cases.append((p, n))
    cases += [(enumerate_primitives(9)[0], 18), (enumerate_primitives(10)[0], 30)]
    for p, n in cases:
        enum = weight_enumerator_exact(build_code(p, n))
        assert macwilliams(macwilliams(enum)) == enum


@pytest.mark.parametrize("k, n", [(12, 150), (16, 192)])
def test_involution_at_lengths_past_the_direct_oracle(k, n):
    enum = weight_enumerator_exact(build_code(first_primitive(k), n))
    dual = macwilliams(enum)
    assert dual.dim == n - k
    assert macwilliams(dual) == enum


def test_full_space_dual_is_trivial():
    full = WeightEnumerator(n=3, dim=3, counts=(1, 3, 3, 1))
    assert macwilliams(full).counts == (1, 0, 0, 0)


def test_transform_rejects_fake_enumerator():
    with pytest.raises(InconsistentEnumeratorError):
        macwilliams(WeightEnumerator(n=3, dim=2, counts=(1, 0, 0, 3)))


# ---------------------------------------------------------------------------
# ensemble averages

def test_ensemble_single_polynomial_degree2():
    primal, _ = ensemble_average_exact(2, 3)
    assert primal.values == (1.0, 0.0, 3.0, 0.0)


def test_ensemble_degree4_equals_reference_row():
    # both degree-4 generators are reciprocals, so the average equals
    # each code's own distribution
    primal, _ = ensemble_average_exact(4, 20)
    expected = weight_enumerator_exact(build_code(P4, 20)).counts
    assert primal.values == tuple(float(c) for c in expected)


def test_ensemble_total_mass():
    for k, n in [(3, 9), (5, 14), (8, 20)]:
        primal, dual = ensemble_average_exact(k, n)
        assert math.isclose(sum(primal.values), 2**k, rel_tol=1e-12)
        assert math.isclose(sum(dual.values), 2 ** (n - k), rel_tol=1e-12)


def test_ensemble_cap():
    with pytest.raises(UnsupportedRangeError):
        ensemble_average_exact(19, 20)


@pytest.mark.parametrize("k", range(2, 11))
def test_ensemble_enumerators_match_per_code(k):
    period = 2**k - 1
    polys = enumerate_primitives(k)
    # 191-193 straddle the largest length counted over the span of the rows
    spans = {191, 192, 193} if k >= 8 else set()
    for n in sorted({k, 2 * k, period, period + 3} | spans):
        # runs of one pair count the code of each pair_polynomials member
        # alone, in order
        members = [list(weight_enumerator_exact(build_code(p, n)).counts)
                   for p in pair_polynomials(k)]
        runs = list(_pair_members(k, n, 1))
        assert [run for run, _ in runs] == [1] * len(members), f"n={n}"
        assert [counts.tolist() for _, counts in runs] == members, f"n={n}"
        members = ensemble_enumerators(k, n)
        assert [p for p, _ in members] == polys
        pairs, sums = 0, [0] * (n + 1)
        for p, enum in members:
            assert enum == weight_enumerator_exact(build_code(p, n)), f"{p} n={n}"
            if p.mask <= p.reciprocal().mask:  # one code per reciprocal pair
                pairs += 1
                sums = [a + b for a, b in zip(sums, enum.counts)]
        assert ensemble_summed_counts(k, n) == (pairs, sums), f"n={n}"


def _stack_rule(codes):
    """Low rows _span_counts gives each of a stack of `codes` codes."""
    return max(1, prcodes.weights.SPAN_LOW_BITS - math.ceil(math.log2(codes)))


@pytest.mark.parametrize("k", [*range(2, 9), 10, 11, 12, 13, 14,
                               pytest.param(15, marks=pytest.mark.slow)])
def test_grouped_pair_members_match_single_codes(k):
    # ensemble_summed_counts has _pair_members count _PAIR_STACK = 64 pairs
    # per stack: all of them at k <= 10, the 315 of k = 13 as 4 stacks of
    # 64 and one of 59, the 756 of k = 14 as 11 and one of 52.  _span_counts
    # builds a stack of c codes from max(1, SPAN_LOW_BITS - ceil(log2 c))
    # low rows each, so the stack's low block never exceeds
    # 2^SPAN_LOW_BITS columns.  Each stack's counts are those _span_counts
    # gives each of its pair_polynomials codes alone, added, and for k <= 8
    # the brute-force counts of their recurrences, added
    polys = pair_polynomials(k)
    stack = prcodes.weights._PAIR_STACK
    real, real_span = prcodes.weights._span_counts, prcodes.weights.span_words
    full, last = divmod(len(polys), stack)
    sizes = [stack] * full + [last] * (last > 0)
    for n in sorted({2 * k, 64, 65, 128, 192}):
        stacks, blocks = [], []

        def recorded(words, length):
            stacks.append(words.shape[:-2])
            return real(words, length)

        def recorded_span(words):
            block = real_span(words)
            blocks.append(block.shape)
            return block

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(prcodes.weights, "_span_counts", recorded)
            patch.setattr(prcodes.weights, "span_words", recorded_span)
            runs = list(_pair_members(k, n, stack))
        assert stacks == [(c,) for c in sizes]
        planes = -(-n // 64)
        low = [min(k, _stack_rule(c)) for c in sizes]
        assert blocks == [(c, planes, 1 << b) for c, b in zip(sizes, low)]
        assert all(c << b <= 1 << prcodes.weights.SPAN_LOW_BITS for c, b in zip(sizes, low))
        assert [(c, counts.shape, counts.dtype) for c, counts in runs] == \
            [(c, (n + 1,), np.int64) for c in sizes]
        alone = [real(packed_rows(build_code(p, n).rows, n), n).tolist() for p in polys]
        added = [[sum(col) for col in zip(*alone[i:i + stack])] for i in range(0, len(polys), stack)]
        assert [counts.tolist() for _, counts in runs] == added, f"n={n}"
        if k <= 8:
            assert alone == [_cached_ref_counts(p.mask, n) for p in polys], f"n={n}"


@pytest.mark.parametrize("k", range(2, 9))
def test_summed_counts_match_rows_and_brute_force(k):
    # one code per pair, summed per weight: the span kernel's stacks, the
    # window kernel's single pairs past SPAN_MAX_N, the runs of one pair
    # each, and the brute-force counts of every pair_polynomials recurrence
    # all agree
    polys = pair_polynomials(k)
    for n in sorted({k, 2 * k + 5, 64, 65, 192, 193, 2**k + 4}):
        rows = [counts.tolist() for _, counts in _pair_members(k, n, 1)]
        sums = [sum(column) for column in zip(*rows)]
        assert ensemble_summed_counts(k, n) == (len(polys), sums), f"n={n}"
        ref = [sum(column) for column in zip(*(_cached_ref_counts(p.mask, n) for p in polys))]
        assert sums == ref, f"n={n}"


@pytest.mark.parametrize("k, n", [(15, 64), (16, 65), (16, 192)])
def test_span_counts_stack_above_the_low_block(k, n):
    # a stack of 3 codes with 12 low rows each, whose span needs several
    # cosets (8 at k = 15, 16 at k = 16): the stack's counts, added into
    # n + 1 bins, are the counts the window kernel reads off each code's
    # sequence, added, and so are those of each code counted alone
    polys = enumerate_primitives(k)[:3]
    words = np.stack([packed_rows(build_code(p, n).rows, n) for p in polys])
    got = _span_counts(words, n)
    assert got.shape == (n + 1,) and got.dtype == np.int64
    expected = [_window_counts(k, n, packed_sequence(p, 2**k - 1 + n)) for p in polys]
    for code, counts, p in zip(words, expected, polys):
        assert _span_counts(code, n).tolist() == counts.tolist(), f"{p} n={n}"
    assert got.tolist() == sum(expected).tolist()


def test_ensemble_validation():
    with pytest.raises(UnsupportedRangeError):
        ensemble_enumerators(1, 4)
    with pytest.raises(ValueError):
        ensemble_average_exact(5, 4)  # n < k


def test_ensemble_average_matches_members_average():
    members = ensemble_enumerators(6, 15)
    sums = [sum(column) for column in zip(*(enum.counts for _, enum in members))]
    dual_sums = [sum(column) for column in zip(*(macwilliams(enum).counts for _, enum in members))]
    primal, dual = ensemble_average_exact(6, 15)
    assert primal.values == tuple(float(Fraction(s, len(members))) for s in sums)
    assert dual.values == tuple(float(Fraction(s, len(members))) for s in dual_sums)
    assert ensemble_average_primal(6, 15) == primal


@pytest.mark.parametrize("summed", [ensemble_summed_counts, ensemble_average_exact,
                                    ensemble_average_primal], ids=["summed", "average", "primal"])
@pytest.mark.parametrize("n", [20, 300])
def test_ensemble_rejects_inconsistent_counts(monkeypatch, n, summed):
    # the first pair's counts gain a codeword: the summed totals no longer
    # hold 2^k codewords per pair (n = 300 takes the window kernel, and at
    # n = 20 the span kernel counts all 8 pairs as one stack)
    kernel = "_span_counts" if n <= prcodes.weights.SPAN_MAX_N else "_window_counts"
    real = getattr(prcodes.weights, kernel)
    first = iter([True])

    def corrupt(*args):
        counts = real(*args)
        if next(first, False):
            counts.reshape(-1, n + 1)[0, n // 2] += 1
        return counts

    monkeypatch.setattr(prcodes.weights, kernel, corrupt)
    with pytest.raises(InconsistentEnumeratorError):
        summed(8, n)
    assert next(first, None) is None  # the corruption ran


def test_ensemble_average_memory_is_flat_in_pairs():
    # the 1,024 pairs' counts are summed as they stream, not held: the peak
    # is one pair's working set, about 3.3 MiB, while 1,024 rows of 257
    # counts would add 2 MiB
    tracemalloc.start()
    try:
        ensemble_average_exact(16, 256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.slow
def test_ensemble_at_the_cap_stays_one_low_block():
    # k = 18, the largest degree ensemble_summed_counts takes: its 3,888
    # pairs stream through stacks of 64, and the peak stays at about
    # 0.65 MiB, near the 0.58 and 0.34 MiB of k = 10 and 13 below
    tracemalloc.start()
    try:
        ensemble_summed_counts(18, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20


@pytest.mark.parametrize("k, n, bound", [(10, 192, 1.0), (13, 64, 0.5)])
def test_ensemble_groups_stay_one_low_block(k, n, bound):
    # a stack of pairs holds at most 2^SPAN_LOW_BITS codeword columns in its
    # low block, walked coset by coset in place: peaks of about 0.58 MiB at
    # (10, 192) and 0.34 MiB at (13, 64).  Stacks of up to 2^15 columns take
    # 1.1 and 0.59 MiB and break these bounds (MiB)
    tracemalloc.start()
    try:
        ensemble_summed_counts(k, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * 2**20


def test_transform_commutes_with_averaging():
    # summing per-code duals must equal transforming the summed primals
    for k, n in [(3, 7), (4, 9), (5, 11), (8, 17)]:
        members = ensemble_enumerators(k, n)
        dual_sum = [0] * (n + 1)
        for _, enum in members:
            for j, c in enumerate(macwilliams(enum).counts):
                dual_sum[j] += c
        primal_sum = [0] * (n + 1)
        for _, enum in members:
            for j, c in enumerate(enum.counts):
                primal_sum[j] += c
        transformed = [
            sum(primal_sum[j] * krawtchouk(n, t, j) for j in range(n + 1)) >> k
            for t in range(n + 1)
        ]
        assert transformed == dual_sum


def test_dual_minimum_weight_at_least_three():
    # within the period only: beyond n = 2^k - 1 the dual picks up the
    # weight-2 words x^a (1 + x^(2^k - 1))
    for k in range(2, 11):
        for p in enumerate_primitives(k)[:4]:
            for n in {2 * k, min(2**k - 1, 24)}:
                if not k <= n <= 2**k - 1:
                    continue
                dual = macwilliams(weight_enumerator_exact(build_code(p, n)))
                assert dual.counts[1] == 0 and dual.counts[2] == 0


def test_dual_weight_two_appears_beyond_period():
    dual = macwilliams(weight_enumerator_exact(build_code(BitPoly.parse("1+x+x^2"), 4)))
    assert dual.counts[2] == 1


# ---------------------------------------------------------------------------
# moment identities

def _moment_cases():
    rng = random.Random(31)
    for k in range(2, 11):
        polys = enumerate_primitives(k)
        if len(polys) > 6:
            polys = rng.sample(polys, 6)
        for n in sorted({k, 2 * k, min(2**k - 1, 40), 40}):
            if n < k:
                continue
            for p in polys:
                yield k, n, weight_enumerator_exact(build_code(p, n))


def test_mean_weight_is_half_length():
    for k, n, enum in _moment_cases():
        total = sum(j * c for j, c in enumerate(enum.counts))
        assert 2 * total == (1 << k) * n, f"k={k} n={n}"


def test_variance_is_quarter_length_within_period():
    seen = 0
    for k, n, enum in _moment_cases():
        if n > 2**k - 1:
            continue
        second = sum(j * j * c for j, c in enumerate(enum.counts))
        assert 4 * second == (1 << k) * n * (n + 1), f"k={k} n={n}"
        seen += 1
    assert seen > 20


def test_variance_deviates_beyond_period():
    # wrapped coordinates break pairwise independence: k=4, n=20 has
    # variance 7.5, not n/4 = 5
    enum = weight_enumerator_exact(build_code(P4, 20))
    second = sum(j * j * c for j, c in enumerate(enum.counts)) / 16
    assert second - 10.0**2 == pytest.approx(7.5)


# ---------------------------------------------------------------------------
# sparse-multiple counts

def test_n_multiples_seeds_and_small_values():
    for k in (2, 4, 9):
        assert n_multiples(k, 1) == 0
        assert n_multiples(k, 2) == 0
    assert n_multiples(4, 3) == 7
    assert n_multiples(5, 3) == 15
    assert n_multiples(4, 4) == 28
    assert n_multiples(4, 5) == 56


def test_n_multiples_validation():
    with pytest.raises(ValueError):
        n_multiples(1, 3)
    with pytest.raises(ValueError):
        n_multiples(4, 0)


def test_n_multiples_matches_brute_force_degree4():
    for p in enumerate_primitives(4):
        for t in (3, 4, 5):
            assert tnomial_multiple_count(p.mask, 4, t) == n_multiples(4, t)


@pytest.mark.parametrize("k", range(2, 13))
def test_n_multiples_matches_recursion(k):
    top = (1 << k) + 2
    assert [n_multiples(k, t) for t in range(1, top + 1)] == ref_n_multiples(k, top)


@pytest.mark.parametrize("k", range(2, 10))
def test_n_multiples_cover_half_the_hamming_code(k):
    # coordinate 0 lies in half the 2^(P - k) words of the Hamming code
    assert sum(n_multiples(k, t) for t in range(1, 1 << k)) == 1 << ((1 << k) - k - 2)


@pytest.mark.parametrize("k, t", [(20, 1000), (24, 301)])
def test_n_multiples_large_matches_krawtchouk(k, t):
    # t A_t / P with A_t = 2^-k [C(P, t) + P K_t(2^(k-1))], the Krawtchouk
    # value summed term by term
    period = (1 << k) - 1
    numerator = t * (math.comb(period, t) + period * krawtchouk(period, t, 1 << (k - 1)))
    assert numerator % (period << k) == 0
    assert n_multiples(k, t) == numerator // (period << k)


# ---------------------------------------------------------------------------
# closed-form approximations

def test_dual_approx_example_value():
    # direct summation over spans: sum_{c=4}^{19} (c-1)(20-c) = 1088
    d = sum((c - 1) * (20 - c) for c in range(4, 20))
    assert d == 1088
    dist = avg_dual_approx(4, 20)
    assert dist.values[3] == float(Fraction(1088, 13))


def test_dual_approx_low_weights_forced():
    for k, n in [(4, 20), (8, 20), (10, 25)]:
        dist = avg_dual_approx(k, n)
        assert dist.values[0] == 1.0
        assert dist.values[1] == 0.0 and dist.values[2] == 0.0
        assert all(v >= 0 for v in dist.values)


def test_dual_approx_validation():
    with pytest.raises(ValueError):
        avg_dual_approx(4, 3)
    with pytest.raises(ValueError):
        avg_dual_approx(1, 5)


def test_primal_approx_total_mass():
    dist = avg_primal_approx(10, 25)
    assert sum(dist.values) == pytest.approx(2**10, rel=1e-9)
    small = avg_primal_approx(4, 20)  # n >= 2^k branch
    assert sum(small.values) == pytest.approx(2**4, rel=1e-9)


def test_primal_approx_literal_mode():
    dist = avg_primal_approx(10, 25, mode="literal")
    assert sum(dist.values) == pytest.approx(0.0, abs=1e-9)
    assert min(dist.values) < 0


def test_primal_approx_validation():
    with pytest.raises(ValueError):
        avg_primal_approx(10, 25, mode="bogus")
    with pytest.raises(ValueError):
        avg_primal_approx(10, 9)


PRIMAL_APPROX_GRID = sorted({
    (k, n)
    for k in range(2, 16)
    for n in (k, k + 1, 2 * k, 3 * k, 31, 48, 64, 2**k - 1, 2**k, 2**k + 3)
    if k <= n <= 130
})


def test_span_weighted_count_matches_direct_sum():
    # the closed form against the sum over c, for every t and every c0 =
    # max(k, t-1), including c0 = n, where the sum is empty
    for n in range(2, 81):
        for t in range(n + 1):
            tail = [0] * (n + 1)  # tail[c] sums the terms of c..n-1
            for c in range(n - 1, 0, -1):
                tail[c] = tail[c + 1] + (math.comb(c - 1, t - 2) * (n - c) if t >= 2 else 0)
            for k in range(2, n + 1):
                assert _span_weighted_count(n, t, k) == tail[max(k, t - 1)], (n, t, k)


def test_dual_approx_matches_fraction_reference():
    # a / b on ints rounds the exact rational once, as float(Fraction(a, b)) does
    for k, n in PRIMAL_APPROX_GRID:
        assert avg_dual_approx(k, n).values == ref_avg_dual_approx(k, n), (k, n)


@pytest.mark.parametrize("mode", ["primary", "literal"])
def test_primal_approx_matches_fraction_reference(mode):
    # one rounding from one exact rational: equal to the per-term Fraction sum bit for bit
    for k, n in PRIMAL_APPROX_GRID:
        assert avg_primal_approx(k, n, mode).values == ref_avg_primal_approx(k, n, mode), (k, n)


# ---------------------------------------------------------------------------
# divergence

def test_kld_identical_is_zero():
    dist = avg_dual_approx(8, 20)
    assert kld(dist, dist) == 0.0


def test_kld_reference_point():
    _, dual = ensemble_average_exact(8, 20)
    value = kld(dual, avg_dual_approx(8, 20))
    assert 6.17e-4 / 2 <= value <= 6.17e-4 * 2


def test_kld_infinite_when_support_missing():
    p = RealDistribution(n=4, values=(0, 0, 0, 1.0, 1.0))
    q = RealDistribution(n=4, values=(0, 0, 0, 1.0, 0.0))
    assert kld(p, q) == math.inf
    assert kld(q, p) < math.inf


def test_kld_validation():
    p = RealDistribution(n=4, values=(0, 0, 0, 1.0, 1.0))
    q = RealDistribution(n=5, values=(0, 0, 0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        kld(p, q)
    empty = RealDistribution(n=4, values=(1.0, 0, 0, 0.0, 0.0))
    with pytest.raises(ValueError):
        kld(empty, p)
