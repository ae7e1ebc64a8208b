"""Linear codes built from windows of maximum-length LFSR sequences.

A degree-k connection polynomial p with p_0 = p_k = 1 drives the
recurrence c_t = sum_{i=1..k} p_i * c_{t-i} over GF(2).  Seeding the
register with each unit vector yields k sequences whose length-n
prefixes form the rows of a generator matrix; the 2^k - 1 nonzero
codewords are exactly the length-n windows of the period-(2^k - 1)
sequence at all phases.

Codewords and generator rows are packed into ints, bit i holding
coordinate i.  Every bit comes from gf2.packed_sequence, which packs
the sequence seeded with 1, 0, ..., 0 64 phases to a word: build_code
reads all k rows off its first n + k bits.

span_words is the one place a span of rows is built: from packed_rows'
64-bit words it doubles a block whose column m is the codeword of
message m, for one code or for a stack of codes at once.  codeword_set
reads its ints off that block, weights counts the popcounts of its
columns (a stack of ensemble codes per block), and awgn maps its bits to
BPSK symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CODEWORD_SET_CAP, check_k
from .gf2 import BitPoly, is_primitive, packed_sequence


@dataclass(frozen=True)
class PrCode:
    """An (n, k) linear code generated by LFSR subsequence rows.

    Row i of the generator matrix is the length-n sequence seeded with
    the i-th unit vector, so the first k columns form the identity and
    encoding a message reproduces the sequence seeded with it.
    """

    poly: BitPoly
    k: int
    n: int
    rows: tuple[int, ...]

    def encode(self, message: int) -> int:
        """Codeword mask for a k-bit message mask."""
        if not 0 <= message < (1 << self.k):
            raise ValueError(f"message must be in [0, 2^{self.k})")
        word = 0
        m = message
        while m:
            low = m & -m
            word ^= self.rows[low.bit_length() - 1]
            m ^= low
        return word


def build_code(p: BitPoly, n: int) -> PrCode:
    """Construct the (n, k) code for a maximal-period connection polynomial.

    n may exceed the sequence period 2^k - 1, in which case coordinates
    repeat; analyses that assume n <= 2^k - 1 must check that themselves.

    All k rows are read off one sequence s = R_0 of n + k bits from
    gf2.packed_sequence, R_i being the sequence seeded with e_i.  The
    left shift S of R_i starts from the k bits after its first: for
    i >= 1 they are e_{i-1} plus, at place k - 1, c_k = p_{k-i}; for
    i = 0 they are e_{k-1}, as c_k = p_k = 1.  By linearity
    S R_0 = R_{k-1} and S R_i = R_{i-1} + p_{k-i} R_{k-1}.  So with
    a_{-1} = 0, the steps a_j = S(a_{j-1} + p_j s) give a_j = R_{k-1-j}
    for j = 0..k-1: a_0 = S R_0 = R_{k-1}, and if a_{j-1} = R_{k-j}, then
    a_j = R_{k-j-1} + p_j R_{k-1} + p_j R_{k-1} = R_{k-1-j}; the last
    step returns R_0 itself.  On ints a shift is `>> 1`, and a_j keeps
    n + k - 1 - j >= n valid bits, of which the first n are row k-1-j.
    """
    if not is_primitive(p):
        raise ValueError(f"{p!r} does not generate a maximum-length sequence")
    k = p.degree
    if n < k:
        raise ValueError(f"block length must be >= k = {k}, got {n}")
    s = int.from_bytes(packed_sequence(p, n + k).tobytes(), "little")
    rows = [0] * k
    a = 0
    for j in range(k):
        a = (a ^ s if p.coeff(j) else a) >> 1
        rows[k - 1 - j] = a & ((1 << n) - 1)
    return PrCode(poly=p, k=k, n=n, rows=tuple(rows))


def packed_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """n-bit int rows as a (rows, ceil(n/64)) array of little-endian uint64
    words: word j of a row holds its bits 64 j .. 64 j + 63."""
    planes = -(-n // 64)
    return np.frombuffer(b"".join(r.to_bytes(8 * planes, "little") for r in rows),
                         dtype="<u8").reshape(len(rows), planes)


def span_words(words: np.ndarray) -> np.ndarray:
    """The GF(2) span of packed_rows' rows as a (planes, 2^rows) uint64
    block whose column m is the XOR of the rows picked by the bits of m,
    built by doubling: columns 2^i..2^(i+1)-1 are the first 2^i with row i
    added.  Leading axes are a stack of codes: (..., rows, planes) words
    give one (..., planes, 2^rows) block per code."""
    *stack, rows, planes = words.shape
    block = np.zeros((*stack, planes, 1 << rows), dtype="<u8")
    for i in range(rows):
        np.bitwise_xor(block[..., :1 << i], words[..., i, :, None],
                       out=block[..., 1 << i:2 << i])
    return block


def codeword_set(code: PrCode) -> set[int]:
    """All 2^k codeword masks, read off span_words' block of the generator rows."""
    check_k("codeword_set", code.k, CODEWORD_SET_CAP)
    block = span_words(packed_rows(code.rows, code.n))
    return {int.from_bytes(column.tobytes(), "little") for column in block.T}


def _share_nonzero_codeword(c1: PrCode, c2: PrCode) -> bool:
    """Whether two (n, k) codes whose generators both start with the k x k
    identity have a nonzero codeword in common.

    A common word u*G1 = v*G2 carries u and v in its first k bits, so
    u = v and u*(G1 + G2) = 0: it exists iff the k rows r1 ^ r2 are
    linearly dependent over GF(2).  Any n >= k is accepted.
    """
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    for r1, r2 in zip(c1.rows, c2.rows):
        v = r1 ^ r2
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if not v:
            return True
        pivots[v.bit_length()] = v
    return False


def verify_disjoint(p1: BitPoly, p2: BitPoly, n: int) -> bool:
    """Whether two codes share no nonzero codeword.

    Both polynomials must be distinct maximal-period generators of the
    same degree k (build_code rejects one that is not), and n must be at
    least 2k: below that, windows are short enough for two different
    recurrences to produce the same nonzero word, and the disjointness
    guarantee does not apply.
    """
    if p1 == p2:
        raise ValueError("connection polynomials must differ")
    k = p1.degree
    if p2.degree != k:
        raise ValueError("connection polynomials must have the same degree")
    if n < 2 * k:
        raise ValueError(f"disjointness requires n >= 2k = {2 * k}, got {n}")
    return not _share_nonzero_codeword(build_code(p1, n), build_code(p2, n))
