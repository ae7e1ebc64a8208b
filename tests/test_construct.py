"""LFSR sequences, code construction, and disjointness."""

import functools
import random
import tracemalloc

import numpy as np
import pytest
from util import ref_int_to_bits, ref_lfsr_bits, rotate_mask

import prcodes.weights
from prcodes.construct import (
    PrCode,
    _share_nonzero_codeword,
    build_code,
    codeword_set,
    packed_rows,
    span_words,
    verify_disjoint,
)
from prcodes.errors import UnsupportedRangeError
from prcodes.gf2 import (
    BitPoly,
    enumerate_primitives,
    first_primitive,
    is_primitive,
    packed_sequence,
)
from prcodes.weights import _window_counts, weight_enumerator_exact

P4 = BitPoly.parse("1+x+x^4")


def seq_str(word, n):
    return "".join(map(str, ref_int_to_bits(word, n)))


def pack(bits):
    return sum(b << i for i, b in enumerate(bits))


# ---------------------------------------------------------------------------
# sequence generation: a message is the code's seed, coordinate 0 first

def test_sequence_degree4():
    word = build_code(P4, 15).encode(8)  # the seed 0, 0, 0, 1
    assert seq_str(word, 15) == "000111101011001"
    assert word.bit_count() == 8


def test_sequence_degree2():
    assert seq_str(build_code(BitPoly.parse("1+x+x^2"), 6).encode(2), 6) == "011011"


def test_sequence_zero_state():
    assert build_code(P4, 10).encode(0) == 0


# ---------------------------------------------------------------------------
# code construction

def test_build_identity_when_n_equals_k():
    code = build_code(P4, 4)
    assert code.rows == (1, 2, 4, 8)


def test_build_systematic_prefix():
    code = build_code(P4, 20)
    for i, row in enumerate(code.rows):
        assert row & 0xF == 1 << i


def test_build_full_period_all_weights_equal():
    code = build_code(P4, 15)
    weights = {bin(code.encode(m)).count("1") for m in range(1, 16)}
    assert weights == {8}


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_code(BitPoly.parse("1+x+x^2+x^3+x^4"), 15)  # not maximal period
    with pytest.raises(ValueError):
        build_code(P4, 3)  # n < k


def test_rows_match_bit_serial_recurrence():
    # row i is the recurrence seeded with e_i, stepped one bit at a time;
    # full periods are stepped up to k = 14, and n past the period to k = 8
    rng = random.Random(23)
    for k in range(2, 25):
        polys = []
        while len(polys) < (1 if k == 2 else 2):  # 1 + x + x^2 is the one at k = 2
            p = BitPoly(1 << k | rng.getrandbits(k - 1) << 1 | 1)
            if is_primitive(p) and p not in polys:
                polys.append(p)
        ns = {k, 63, 64, 65}
        if k <= 14:
            ns.add(2**k - 1)
        if k <= 8:
            ns.add(2**k + 5)
        for p in polys:
            for n in sorted(ns):
                rows = build_code(p, n).rows
                assert rows == tuple(pack(ref_lfsr_bits(p.mask, 1 << i, n)) for i in range(k)), (p, n)


def test_encode_matches_recurrence():
    rng = random.Random(7)
    for poly_text, n in [("1+x+x^4", 20), ("1+x^2+x^5", 17)]:
        p = BitPoly.parse(poly_text)
        code = build_code(p, n)
        for _ in range(40):
            m = rng.randrange(1 << code.k)
            assert code.encode(m) == pack(ref_lfsr_bits(p.mask, m, n))


def test_encode_linearity():
    rng = random.Random(11)
    code = build_code(BitPoly.parse("1+x^2+x^3+x^5+x^8"), 20)
    for _ in range(100):
        m1 = rng.randrange(1 << 8)
        m2 = rng.randrange(1 << 8)
        assert code.encode(m1 ^ m2) == code.encode(m1) ^ code.encode(m2)


def test_encode_range_checked():
    code = build_code(P4, 8)
    with pytest.raises(ValueError):
        code.encode(-1)
    with pytest.raises(ValueError):
        code.encode(16)


# ---------------------------------------------------------------------------
# codeword sets

def test_codeword_set_degree2():
    code = build_code(BitPoly.parse("1+x+x^2"), 3)
    # as bit strings c0 c1 c2: 000, 011, 101, 110
    assert codeword_set(code) == {0b000, 0b110, 0b101, 0b011}


def test_codeword_set_contains_zero_and_is_full_size():
    for poly_text, n in [("1+x+x^4", 15), ("1+x+x^3", 9)]:
        code = build_code(BitPoly.parse(poly_text), n)
        words = codeword_set(code)
        assert 0 in words
        assert len(words) == 1 << code.k


def test_codeword_set_matches_encode():
    code = build_code(BitPoly.parse("1+x+x^6"), 17)
    assert codeword_set(code) == {code.encode(m) for m in range(1 << code.k)}


@pytest.mark.parametrize("k", range(2, 11))
def test_span_words_columns_are_encodings(k):
    # column m, read back as an int across its planes, is the codeword of m
    for n in sorted({k, 63, 64, 65, 128, 129}):
        code = build_code(first_primitive(k), n)
        block = span_words(packed_rows(code.rows, n))
        assert block.shape == (-(-n // 64), 1 << k)
        got = [int.from_bytes(column.tobytes(), "little") for column in block.T]
        assert got == [code.encode(m) for m in range(1 << k)], f"n={n}"


@pytest.mark.parametrize("k, n", [(2, 4), (5, 64), (7, 65), (10, 129), (12, 192)])
def test_span_words_stack_is_one_block_per_code(k, n):
    # a (codes, rows, planes) stack of different codes' rows builds, code by
    # code, the block that span_words builds for that code alone; so do a
    # stack with two leading axes and the zero-row stack (one zero column
    # per code)
    polys = enumerate_primitives(k)[:6]
    words = np.stack([packed_rows(build_code(p, n).rows, n) for p in polys])
    planes = -(-n // 64)
    block = span_words(words)
    assert block.shape == (len(polys), planes, 1 << k)
    for code, rows in zip(block, words):
        assert np.array_equal(code, span_words(rows))
    pairs = words[:len(polys) // 2 * 2].reshape(-1, 2, k, planes)
    assert np.array_equal(span_words(pairs), block[:len(pairs) * 2].reshape(-1, 2, planes, 1 << k))
    none = span_words(words[:, :0])
    assert none.shape == (len(polys), planes, 1) and not none.any()


def test_codeword_set_cap():
    # 2^k Python ints take an 81 MB peak at k = 20, n = 64, so from k = 21
    # check_k refuses the code before any word is built
    for k in (21, 25):
        fake = PrCode(poly=P4, k=k, n=64, rows=tuple(1 << i for i in range(k)))
        tracemalloc.start()
        try:
            with pytest.raises(UnsupportedRangeError,
                               match=f"codeword_set supports 1 <= k <= 20, got {k}"):
                codeword_set(fake)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"k={k}: peak {peak / 2**20:.2f} MB"


# ---------------------------------------------------------------------------
# disjointness of different generators

def test_disjoint_degree4_pair():
    assert verify_disjoint(BitPoly.parse("0x13"), BitPoly.parse("0x19"), 8)


def test_disjoint_validation():
    with pytest.raises(ValueError):
        verify_disjoint(P4, P4, 8)
    with pytest.raises(ValueError):
        verify_disjoint(P4, BitPoly.parse("1+x^2+x^5"), 10)  # degree mismatch
    with pytest.raises(ValueError):
        verify_disjoint(BitPoly.parse("0x13"), BitPoly.parse("0x19"), 7)  # n < 2k


def test_disjoint_all_degree5_pairs():
    polys = enumerate_primitives(5)
    for i, p1 in enumerate(polys):
        for p2 in polys[i + 1:]:
            assert verify_disjoint(p1, p2, 10)


def test_shared_codeword_rank_test_matches_set_intersection():
    # n from k up, below 2k included: many of these pairs do share a word
    shared = 0
    for k in range(2, 8):
        polys = enumerate_primitives(k)
        for n in range(k, 2 * k + 3):
            codes = [build_code(p, n) for p in polys]
            sets = [codeword_set(c) for c in codes]
            for i in range(len(codes)):
                for j in range(i + 1, len(codes)):
                    expected = sets[i] & sets[j] != {0}
                    assert _share_nonzero_codeword(codes[i], codes[j]) == expected, (k, n, i, j)
                    shared += expected
    assert shared > 0


# ---------------------------------------------------------------------------
# sequence properties

def test_balance_at_full_period():
    rng = random.Random(5)
    for k in range(2, 9):
        n = 2**k - 1
        for p in enumerate_primitives(k)[:4]:
            for _ in range(5):
                state = rng.randrange(1, 1 << k)
                assert sum(ref_lfsr_bits(p.mask, state, n)) == 2 ** (k - 1)


def test_shift_closure_at_full_period():
    for k in (3, 4, 5):
        n = 2**k - 1
        for p in enumerate_primitives(k):
            words = codeword_set(build_code(p, n)) - {0}
            for w in words:
                assert rotate_mask(w, n, 1) in words


def test_no_zero_run_of_length_k():
    for k in range(3, 9):
        p = enumerate_primitives(k)[0]
        bits = ref_lfsr_bits(p.mask, 1, 2 * (2**k - 1))
        run = best = 0
        for b in bits:
            run = run + 1 if b == 0 else 0
            best = max(best, run)
        assert best <= k - 1


def _low_weight_counts(k, n):
    for p in enumerate_primitives(k)[:6]:
        counts = weight_enumerator_exact(build_code(p, n)).counts
        yield p, counts[1], counts[2]


def test_no_weight_one_or_two_words_beyond_double_length():
    # holds for k >= 3; k = 2 is a genuine boundary case (its balanced
    # codeword weight is 2 and n >= 2k already wraps the period 3), see
    # the companion test below
    for k in range(3, 11):
        for n in (2 * k, 2 * k + 1, 3 * k):
            for p, a1, a2 in _low_weight_counts(k, n):
                assert a1 == 0 and a2 == 0, f"k={k} n={n} p={p}"


def test_weight_two_words_exist_for_degree_two():
    code = build_code(BitPoly.parse("1+x+x^2"), 4)
    counts = weight_enumerator_exact(code).counts
    assert counts[1] == 0
    assert counts[2] == 1


@pytest.mark.slow
def test_no_weight_one_or_two_words_beyond_double_length_high():
    for k in (11, 12):
        for n in (2 * k, 2 * k + 1, 3 * k):
            for p, a1, a2 in _low_weight_counts(k, n):
                assert a1 == 0 and a2 == 0, f"k={k} n={n} p={p}"


# ---------------------------------------------------------------------------
# whole periods

def test_m_sequence_is_row_zero_period():
    # one period of the unpacked bits, from the seed 1, 0, ..., 0
    for k in range(2, 11):
        for p in enumerate_primitives(k)[:3]:
            period = 2**k - 1
            bits = np.unpackbits(packed_sequence(p, period).view(np.uint8), count=period,
                                 bitorder="little")
            assert bits.tolist() == ref_lfsr_bits(p.mask, 1, period)


@functools.cache
def _ref_window_weights(mask, n):
    """Weight of the n-window at phases 1..P of the sequence of mask seeded
    with 1, 0, ..., 0 (phase P is phase 0), summed bit by bit."""
    period = 2 ** (mask.bit_length() - 1) - 1
    bits = ref_lfsr_bits(mask, 1, period + n)
    return [sum(bits[t % period:t % period + n]) for t in range(1, period + 1)]


def _ref_window_counts(mask, n):
    """A_0..A_n of the code of mask at length n: the histogram of its
    windows' weights plus the zero word."""
    counts = [0] * (n + 1)
    for w in [0, *_ref_window_weights(mask, n)]:
        counts[w] += 1
    return counts


@pytest.mark.parametrize("chunk", [8, 63, 64, 1 << 16])
def test_sequence_chunks_offsets(monkeypatch, chunk):
    # _window_counts reads the chunks of one period at offsets 0 and
    # r = n mod P, here 0, 1, 5, 7, 64 and 126, from exactly P + r packed bits
    monkeypatch.setattr(prcodes.weights, "CHUNK", chunk)
    p = BitPoly.parse("1+x^3+x^7")
    period = 127
    for n in (7, 64, 126, 127, 128, 132, 191, 253, 259):
        bits = ref_lfsr_bits(p.mask, 1, period + n % period)
        got = _window_counts(p.degree, n, np.packbits(bits, bitorder="little"))
        assert got.dtype == np.int64
        assert got.tolist() == _ref_window_counts(p.mask, n), f"n={n}"


@pytest.mark.parametrize("chunk", [5, 8, 63, 64, 1 << 16])
def test_sequence_chunks_short_periods_and_far_offsets(monkeypatch, chunk):
    # k = 2 and 3 have periods shorter than a byte; r = n mod P lands on
    # every residue mod 8, on P - 1 and on 0, and n runs past two periods.
    # The sequence comes packed in bytes of exactly P + r bits, and in the
    # 64-bit words of packed_sequence
    monkeypatch.setattr(prcodes.weights, "CHUNK", chunk)
    for k in range(2, 9):
        for p in enumerate_primitives(k)[:2]:
            period = 2**k - 1
            for n in sorted({k, *range(period, period + 8), *range(9, 17),
                             2 * period - 1, 2 * period + 5, 3 * period}):
                bits = ref_lfsr_bits(p.mask, 1, period + n % period)
                expected = _ref_window_counts(p.mask, n)
                for packed in (np.packbits(bits, bitorder="little"),
                               packed_sequence(p, period + n % period)):
                    got = _window_counts(k, n, packed)
                    assert got.tolist() == expected, f"{p} n={n} {packed.dtype}"


@pytest.mark.parametrize("n", [120, 300])
def test_enumerator_memory_stays_flat(n):
    # a k = 22 period is 4 MB unpacked and 0.5 MB packed; n = 120 takes the
    # span kernel, and n = 300 the window kernel, which unpacks one chunk of
    # phases at a time; either peaks well below a whole unpacked period
    code = build_code(first_primitive(22), n)
    tracemalloc.start()
    try:
        weight_enumerator_exact(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, f"peak {peak / 2**20:.2f} MB"
