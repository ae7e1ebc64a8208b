"""LFSR sequences, code construction, and disjointness."""

import random

import numpy as np
import pytest
from util import ref_lfsr_bits, rotate_mask

import prcodes.construct
from prcodes.construct import (
    PrCode,
    _share_nonzero_codeword,
    bits_to_int,
    build_code,
    codeword_set,
    int_to_bits,
    lfsr_subsequence,
    m_sequence,
    sequence_chunks,
    verify_disjoint,
)
from prcodes.errors import UnsupportedRangeError
from prcodes.gf2 import BitPoly, enumerate_primitives
from prcodes.weights import weight_enumerator_exact

P4 = BitPoly.parse("1+x+x^4")


def seq_str(bits):
    return "".join(str(b) for b in bits)


# ---------------------------------------------------------------------------
# sequence generation

def test_sequence_degree4():
    assert seq_str(lfsr_subsequence(P4, "0001", 15)) == "000111101011001"
    assert sum(lfsr_subsequence(P4, "0001", 15)) == 8


def test_sequence_degree2():
    p = BitPoly.parse("1+x+x^2")
    assert seq_str(lfsr_subsequence(p, "01", 6)) == "011011"


def test_sequence_zero_state():
    assert lfsr_subsequence(P4, "0000", 10) == [0] * 10


def test_sequence_short_n_returns_prefix():
    assert lfsr_subsequence(P4, "1011", 2) == [1, 0]


def test_sequence_validation():
    with pytest.raises(ValueError):
        lfsr_subsequence(P4, "001", 10)  # wrong state length
    with pytest.raises(ValueError):
        lfsr_subsequence(P4, "0021", 10)  # not a bit
    with pytest.raises(ValueError):
        lfsr_subsequence(P4, "0001", 0)


def test_sequence_accepts_lists():
    assert lfsr_subsequence(P4, [0, 0, 0, 1], 15) == lfsr_subsequence(P4, "0001", 15)


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


def test_encode_matches_recurrence():
    rng = random.Random(7)
    for poly_text, n in [("1+x+x^4", 20), ("1+x^2+x^5", 17)]:
        p = BitPoly.parse(poly_text)
        code = build_code(p, n)
        for _ in range(40):
            m = rng.randrange(1 << code.k)
            expect = bits_to_int(lfsr_subsequence(p, int_to_bits(m, code.k), n))
            assert code.encode(m) == expect


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


def test_codeword_set_cap():
    fake = PrCode(poly=P4, k=25, n=25, rows=tuple(1 << i for i in range(25)))
    with pytest.raises(UnsupportedRangeError):
        codeword_set(fake)


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
                init = int_to_bits(rng.randrange(1, 1 << k), k)
                assert sum(lfsr_subsequence(p, init, n)) == 2 ** (k - 1)


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
        init = [1] + [0] * (k - 1)
        bits = lfsr_subsequence(p, init, 2 * (2**k - 1))
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
# serialization

def test_serialization_roundtrip():
    code = build_code(P4, 20)
    text = code.to_text()
    assert text.splitlines()[0] == "4 20 0x13"
    assert PrCode.from_text(text) == code


def test_serialization_row_count_checked():
    code = build_code(P4, 20)
    text = "\n".join(code.to_text().splitlines()[:-1])
    with pytest.raises(ValueError):
        PrCode.from_text(text)


@pytest.mark.parametrize("header, rows", [
    ("4 10 0x13", build_code(BitPoly.parse("0x19"), 10).rows),  # another polynomial's rows
    ("4 10 0x11", build_code(P4, 10).rows),  # 1 + x^4 is not maximal-period
    ("3 10 0x13", build_code(P4, 10).rows[:3]),  # 0x13 has degree 4, not k = 3
    ("4 3 0x13", tuple(r & 0b111 for r in build_code(P4, 10).rows)),  # n < k
])
def test_serialization_header_must_generate_rows(header, rows):
    text = "\n".join([header, *map(hex, rows)]) + "\n"
    with pytest.raises(ValueError):
        PrCode.from_text(text)


# ---------------------------------------------------------------------------
# whole periods

def test_m_sequence_is_row_zero_period():
    for k in range(2, 11):
        for p in enumerate_primitives(k)[:3]:
            period = 2**k - 1
            expected = lfsr_subsequence(p, [1] + [0] * (k - 1), period)
            assert m_sequence(p).tolist() == expected


@pytest.mark.parametrize("chunk", [8, 63, 64, 1 << 16])
def test_sequence_chunks_offsets(monkeypatch, chunk):
    monkeypatch.setattr(prcodes.construct, "CHUNK", chunk)
    p = BitPoly.parse("1+x^3+x^7")
    period = 127
    ref = ref_lfsr_bits(p.mask, 1, 2 * period)
    offsets = (0, 1, 64, 126, 127 + 5)
    parts = list(sequence_chunks(p, offsets))
    assert all(len(part) == len(offsets) for part in parts)
    assert all(len(bits) <= chunk for part in parts for bits in part)
    for i, o in enumerate(offsets):
        got = np.concatenate([part[i] for part in parts]).tolist()
        assert got == ref[o % period:o % period + period]
