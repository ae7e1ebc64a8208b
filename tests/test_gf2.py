"""Binary-polynomial arithmetic, factoring, and maximal-order enumeration."""

import math
import random

import numpy as np
import pytest
from util import (
    ref_berlekamp_massey,
    ref_euler_phi,
    ref_factorize,
    ref_is_irreducible,
    ref_lfsr_bits,
    ref_mod,
    ref_mul,
    ref_order_of_x,
    ref_pair_leaders,
    ref_primitives,
    ref_reciprocal,
    ref_sqr,
)

from prcodes.errors import UnsupportedRangeError
from prcodes.gf2 import (
    BitPoly,
    _berlekamp_massey_rows,
    _family,
    _mod,
    _sqr,
    _xpow,
    decimations,
    enumerate_primitives,
    factorize,
    first_primitive,
    is_primitive,
    packed_sequence,
    pair_leaders,
    pair_polynomials,
)

ONE = BitPoly(1)


# ---------------------------------------------------------------------------
# parsing and formatting

def test_parse_hex_and_symbolic():
    assert BitPoly.parse("0x13").mask == 0x13
    assert BitPoly.parse("1+x+x^4").mask == 0x13
    assert BitPoly.parse("x^4 + x + 1").mask == 0x13
    assert BitPoly.parse(0x19).mask == 0x19
    assert BitPoly.parse("0x13").to_text() == "1+x+x^4"
    assert BitPoly.parse("1+x^3+x^4").to_hex() == "0x19"
    assert str(BitPoly(0)) == "0"
    assert BitPoly.parse("0x13").degree == 4
    assert BitPoly.parse("0x13").weight == 3


@pytest.mark.parametrize("bad", ["x^", "2x", "1+x+", "x**3", "x+x", "y+1", ""])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        BitPoly.parse(bad)


def test_parse_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(200):
        p = BitPoly(rng.randrange(1, 1 << 20))
        assert BitPoly.parse(p.to_text()) == p
        assert BitPoly.parse(p.to_hex()) == p


def test_reciprocal():
    assert BitPoly.parse("0x13").reciprocal() == BitPoly.parse("0x19")
    assert BitPoly.parse("1+x+x^2").reciprocal() == BitPoly.parse("1+x+x^2")
    # against the bit loop: the zero mask, masks with a zero constant term
    # (whose reversal drops in degree), and involution where both end
    # terms are set
    rng = random.Random(0x5EED)
    masks = [0, 1, 2, 0b110, 1 << 40, *(rng.randrange(1 << rng.randrange(1, 70))
                                        for _ in range(2000))]
    for mask in masks:
        assert BitPoly(mask).reciprocal().mask == ref_reciprocal(mask), hex(mask)
        if mask > 1:
            p = BitPoly(mask | 1)
            assert p.reciprocal().reciprocal() == p
    assert BitPoly(0b1100).reciprocal() == BitPoly(0b11)


def test_negative_mask_rejected():
    with pytest.raises(ValueError):
        BitPoly(-1)


# ---------------------------------------------------------------------------
# reduction, squaring and powers of x

def test_mod_sqr_and_xpow_match_schoolbook():
    # the raw arithmetic under is_primitive, against the schoolbook oracles:
    # x^e mod m by e single steps x -> x * x mod m, for every e up to a few
    # hundred and for the two powers is_primitive takes, e = 2^k and
    # e = (2^k - 1)/q
    rng = random.Random(0xC0DE)
    assert _sqr(0) == 0 and _sqr(1) == 1
    for _ in range(1000):
        k = rng.randrange(2, 17)
        m = (1 << k) | rng.randrange(1 << k) | 1
        a = rng.choice((0, rng.randrange(1 << 17)))
        assert _mod(a, m) == ref_mod(a, m)
        assert _sqr(a) == ref_mul(a, a) == ref_sqr(a)
    for _ in range(60):
        k = rng.randrange(2, 17)
        m = (1 << k) | rng.randrange(1 << k) | rng.randrange(2)
        order = (1 << k) - 1
        targets = {1 << k, *(order // q for q in factorize(order))}
        x = 1
        for e in range(max(400, *targets) + 1):
            if e <= 400 or e in targets:
                assert _xpow(e, m) == x, (hex(m), e)
            x = ref_mod(x << 1, m)


# ---------------------------------------------------------------------------
# factorization

def test_factorize_examples():
    assert factorize(15) == {3: 1, 5: 1}
    assert factorize(255) == {3: 1, 5: 1, 17: 1}
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}


def test_factorize_zero_rejected():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_against_trial_division():
    rng = random.Random(99)
    for _ in range(200):
        v = rng.randrange(2, 10**6)
        assert factorize(v) == ref_factorize(v)
    # products of two or three primes past the trial-division table take the
    # Miller-Rabin and rho path
    primes = [p for p in range(53, 10_008) if ref_factorize(p) == {p: 1}]
    for _ in range(200):
        v = math.prod(rng.choices(primes, k=rng.choice((2, 3))))
        assert factorize(v) == ref_factorize(v)


def test_factorize_large_inputs():
    m61 = (1 << 61) - 1
    assert factorize(m61) == {m61: 1}
    m31 = (1 << 31) - 1
    assert factorize(m31 * m31) == {m31: 2}
    for k in range(2, 65):
        v = (1 << k) - 1
        fac = factorize(v)
        assert math.prod(p**e for p, e in fac.items()) == v, f"k={k}"
        for p in fac:
            assert factorize(p) == {p: 1}, f"k={k}: {p}"
            if p < 1 << 32:
                assert ref_factorize(p) == {p: 1}, f"k={k}: {p} is not prime"


# ---------------------------------------------------------------------------
# primitivity

def test_primitive_known_generators():
    assert is_primitive(BitPoly.parse("1+x+x^4"))
    assert is_primitive(BitPoly.parse("1+x^2+x^3+x^5+x^8"))
    assert is_primitive(BitPoly.parse("1+x^2+x^3+x^4+x^5+x^8+x^11"))


def test_irreducible_but_not_primitive():
    p = BitPoly.parse("1+x+x^2+x^3+x^4")
    assert ref_is_irreducible(p.mask)
    assert not is_primitive(p)
    # x only has order 5, not 15, in the quotient ring
    assert ref_order_of_x(p.mask, 30) == 5


def test_is_primitive_rejects_bad_inputs():
    with pytest.raises(ValueError):
        is_primitive(BitPoly.parse("x^2+x"))  # constant term 0
    with pytest.raises(ValueError):
        is_primitive(BitPoly.parse("1+x"))  # degree 1


def test_is_primitive_refuses_degrees_past_the_factoring_cap():
    assert is_primitive(BitPoly.parse("1+x+x^3+x^4+x^64"))
    for text in ("1+x+x^65", "1+x+x^256"):
        with pytest.raises(UnsupportedRangeError):
            is_primitive(BitPoly.parse(text))


@pytest.mark.parametrize("k, count, first", [
    (20, 11, (0x100009, 0x100053, 0x100065)),
    (32, 6, (0x1000000AF, 0x1000000C5, 0x1000000F5)),
    (48, 4, (0x10000000000B7, 0x100000000017F, 0x10000000001A7)),
    (63, 5, (0x8000000000000003, 0x8000000000000021, 0x8000000000000033)),
    (64, 6, (0x1000000000000001B, 0x1000000000000001D, 0x100000000000000F5)),
])
def test_first_primitives_at_large_degrees(k, count, first):
    # the maximal-order polynomials among the first 256 candidates in mask
    # order, past the degrees that the enumeration checks
    found = [mask for mid in range(256)
             if is_primitive(BitPoly(mask := (1 << k) | mid << 1 | 1))]
    assert len(found) == count
    assert tuple(found[:3]) == first


def test_primitive_implies_irreducible():
    for k in range(2, 13):
        for p in enumerate_primitives(k):
            assert ref_is_irreducible(p.mask)


def test_order_oracle_agrees():
    # every enumerated degree-k polynomial gives x order 2^k - 1, and
    # rejected irreducibles give a strictly smaller order
    for k in (2, 3, 4, 5, 6):
        full = (1 << k) - 1
        prims = set(p.mask for p in enumerate_primitives(k))
        for mid in range(1 << (k - 1)):
            mask = (1 << k) | (mid << 1) | 1
            order = ref_order_of_x(mask, full)
            if mask in prims:
                assert order == full
            else:
                assert order != full


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_smallest_degrees():
    assert [p.mask for p in enumerate_primitives(2)] == [0b111]
    assert [p.to_hex() for p in enumerate_primitives(4)] == ["0x13", "0x19"]


def test_enumerate_counts_match_totient():
    for k in range(2, 13):
        count = len(enumerate_primitives(k))
        assert count == ref_euler_phi(2**k - 1) // k, f"k={k}"


@pytest.mark.slow
def test_enumerate_counts_match_totient_high():
    for k in range(13, 17):
        count = len(enumerate_primitives(k))
        assert count == ref_euler_phi(2**k - 1) // k, f"k={k}"


@pytest.mark.parametrize(
    "k", [*range(2, 15), *(pytest.param(k, marks=pytest.mark.slow) for k in (15, 16))]
)
def test_enumerate_matches_candidate_walk(k):
    assert enumerate_primitives(k) == ref_primitives(k)


@pytest.mark.slow
def test_enumerate_counts_match_totient_beyond_walk():
    for k in range(17, 21):
        count = len(enumerate_primitives(k))
        assert count == ref_euler_phi(2**k - 1) // k, f"k={k}"


def test_pair_leaders_match_brute_force():
    for k in range(2, 17):
        assert pair_leaders(k) == ref_pair_leaders(k), f"k={k}"


def test_pair_polynomials_one_per_reciprocal_pair():
    for k in range(2, 13):
        pairs = {frozenset((p.mask, p.reciprocal().mask)) for p in pair_polynomials(k)}
        assert len(pairs) == len(pair_leaders(k)), f"k={k}"


def test_enumerate_sorted_and_reciprocal_closed():
    for k in range(2, 11):
        polys = enumerate_primitives(k)
        masks = [p.mask for p in polys]
        assert masks == sorted(masks)
        as_set = set(masks)
        for p in polys:
            assert p.reciprocal().mask in as_set


def test_enumerate_cap():
    with pytest.raises(UnsupportedRangeError):
        enumerate_primitives(1)
    with pytest.raises(UnsupportedRangeError):
        enumerate_primitives(25)


def test_first_primitive_is_smallest():
    for k in range(2, 13):
        assert first_primitive(k) == enumerate_primitives(k)[0]
    with pytest.raises(UnsupportedRangeError):
        first_primitive(1)


# ---------------------------------------------------------------------------
# Berlekamp-Massey

def test_berlekamp_massey_recovers_every_primitive():
    rng = random.Random(19)
    for k in range(2, 11):
        for p in enumerate_primitives(k):
            state = rng.randrange(1, 1 << k)
            bits = ref_lfsr_bits(p.mask, state, 2 * k)
            assert ref_berlekamp_massey(bits) == p
            assert _berlekamp_massey_rows(np.array([bits], dtype=np.uint8)).tolist() == [p.mask]


def test_berlekamp_massey_short_inputs():
    assert ref_berlekamp_massey([]) == ONE
    assert ref_berlekamp_massey([0, 0, 0]) == ONE
    assert ref_berlekamp_massey([0, 0, 0, 1]) == BitPoly.parse("1+x^4")
    assert ref_berlekamp_massey([1, 1, 1, 1]) == BitPoly.parse("1+x")


# ---------------------------------------------------------------------------
# packed sequences

def _unpacked(words, length):
    assert words.dtype == np.dtype("<u8")
    assert len(words) == -(-length // 64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    assert not bits[length:].any(), "bits past the length must be zero"
    return bits[:length].tolist()


def test_packed_sequence_matches_bit_recurrence():
    # every primitive polynomial with k <= 10, at lengths P, P + r and
    # lengths that are not multiples of 8 or 64
    for k in range(2, 11):
        period = 2**k - 1
        lengths = sorted({1, 7, 63, 64, 65, 100, period, period + 1, period + 9,
                          2 * period - 1, 64 * k + 13})
        for p in enumerate_primitives(k):
            ref = ref_lfsr_bits(p.mask, 1, lengths[-1])
            for length in lengths:
                assert _unpacked(packed_sequence(p, length), length) == ref[:length], \
                    f"{p} length={length}"


def test_packed_sequence_short_periods():
    # k = 2 and 3: the 64 k seed bits already cover many periods
    for text in ("1+x+x^2", "1+x+x^3", "1+x^2+x^3"):
        p = BitPoly.parse(text)
        period = 2**p.degree - 1
        for length in (1, 2, period, period + 1, 64 * p.degree - 1,
                       64 * p.degree + 5, 1000, 4096):
            bits = _unpacked(packed_sequence(p, length), length)
            assert bits == ref_lfsr_bits(p.mask, 1, length), f"{p} length={length}"
            assert bits[period:] == bits[:max(length - period, 0)]


def test_packed_sequence_reciprocal_taps_give_constant_terms():
    # the sequence of f's reciprocal from the seed 1, 0, ..., 0 is s_i, the
    # constant term of x^i mod f: the two conventions name one sequence
    for k in range(2, 11):
        for f in enumerate_primitives(k)[:4]:
            period = 2**k - 1
            expected, x = [], 1
            for _ in range(period + 5):
                expected.append(x & 1)
                x = ref_mod(x << 1, f.mask)
            got = _unpacked(packed_sequence(f.reciprocal(), period + 5), period + 5)
            assert got == expected, f"f={f}"


def test_decimations_walk_first_primitive_sequence():
    # short walks and whole periods of s_(d t), one pair per row, in blocks
    # of 1, of 3 (which divides the 3, 9, 24 and 30 pairs of k = 5-7, 9 and
    # 10), of 7 (which divides no pair count here, so the last block is
    # short) and of every pair at once
    for k in range(2, 11):
        period = 2**k - 1
        s = ref_lfsr_bits(first_primitive(k).mask, 1, period)
        pairs = len(pair_leaders(k))
        for length in sorted({1, 2 * k, period - 1, period}):
            expected = [[s[d * t % period] for t in range(length)] for d in pair_leaders(k)]
            for group in (1, 3, 7, pairs, pairs + 1):
                blocks = list(decimations(k, length, group))
                assert [len(u) for u in blocks[:-1]] == [group] * (len(blocks) - 1)
                assert 1 <= len(blocks[-1]) <= group
                got = [u.tolist() for u in np.concatenate(blocks)]
                assert got == expected, (k, length, group)


def test_pair_polynomials_match_constant_term_decimation():
    # the list, element for element and in leader order, read off the
    # decimations of first_primitive(k)'s own sequence from the seed
    # 1, 0, ..., 0, stepped one bit at a time
    for k in range(2, 13):
        f = first_primitive(k)
        period = 2**k - 1
        s = ref_lfsr_bits(f.mask, 1, period)
        expected = [ref_berlekamp_massey([s[d * t % period] for t in range(2 * k)])
                    for d in pair_leaders(k)]
        assert pair_polynomials(k) == expected, f"k={k}"


def _berlekamp_massey_row_by_row(k):
    for block in decimations(k, 2 * k, 1000):
        expected = [ref_berlekamp_massey(u).mask for u in block.tolist()]
        assert _berlekamp_massey_rows(block).tolist() == expected, f"k={k}"


@pytest.mark.parametrize("k", range(2, 17))
def test_berlekamp_massey_rows_match_scalar_on_the_family(k):
    # every pair's first 2k bits, in blocks of 1000 (a short last block from
    # k = 14), read as ref_berlekamp_massey reads each row alone
    _berlekamp_massey_row_by_row(k)


@pytest.mark.slow
def test_berlekamp_massey_rows_match_scalar_on_the_family_k20():
    _berlekamp_massey_row_by_row(20)


def test_berlekamp_massey_rows_match_scalar_on_random_bits():
    # arbitrary rows, not only m-sequences, up to the 62 bits the uint64
    # masks hold, and the empty input
    rng = np.random.default_rng(7)
    for length in (0, 1, 2, 3, 9, 31, 48, 62):
        bits = (rng.random((400, length)) < rng.random((400, 1))).astype(np.uint8)
        expected = [ref_berlekamp_massey(u).mask for u in bits.tolist()]
        assert _berlekamp_massey_rows(bits).tolist() == expected, f"length={length}"


def test_family_base_is_read_only():
    # the cached sequence and leaders are shared by every later call
    packed, leaders = _family(9)
    assert _family(9)[0] is packed
    with pytest.raises(ValueError):
        packed[0] ^= 1
    with pytest.raises(ValueError):
        leaders[0] = 0
    assert leaders.tolist() == pair_leaders(9)


def test_decimations_yield_fresh_blocks():
    # a caller that edits a yielded block cannot change what a later call sees
    first = [u.copy() for u in decimations(10, 40, 7)]
    for u in decimations(10, 40, 7):
        u ^= 1
    assert all(np.array_equal(a, b) for a, b in zip(first, decimations(10, 40, 7)))
