"""Linear codes built from windows of maximum-length LFSR sequences.

A degree-k connection polynomial p with p_0 = p_k = 1 drives the
recurrence c_t = sum_{i=1..k} p_i * c_{t-i} over GF(2).  Seeding the
register with each unit vector yields k sequences whose length-n
prefixes form the rows of a generator matrix; the 2^k - 1 nonzero
codewords are exactly the length-n windows of the period-(2^k - 1)
sequence at all phases.

Codewords and generator rows are packed into ints, bit i holding
coordinate i.  Whole periods are produced by sequence_chunks, which
advances an array of register states at once through byte lookup
tables of the linear map "clock the register m times".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import UnsupportedRangeError
from .gf2 import BitPoly, is_primitive

# codeword_set materializes 2^k packed words
CODEWORD_SET_CAP = 24
# phases per array yielded by sequence_chunks: a few MB of working memory at any k
CHUNK = 1 << 16


def bits_to_int(bits: Iterable[int]) -> int:
    """Pack bits (coordinate 0 first) into an int mask."""
    mask = 0
    for i, b in enumerate(bits):
        if b:
            mask |= 1 << i
    return mask


def int_to_bits(mask: int, length: int) -> list[int]:
    """Unpack the low `length` bits of a mask, coordinate 0 first."""
    return [(mask >> i) & 1 for i in range(length)]


def _parse_init(init: Sequence[int] | str, k: int) -> list[int]:
    if isinstance(init, str):
        bits = [int(ch) for ch in init]
    else:
        bits = [int(b) for b in init]
    if len(bits) != k:
        raise ValueError(f"initial state must have exactly {k} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("initial state bits must be 0 or 1")
    return bits


def lfsr_subsequence(p: BitPoly, init: Sequence[int] | str, n: int) -> list[int]:
    """First n bits of the recurrence driven by p from the given state.

    Bits 0..k-1 equal init; every later bit is the tap sum of the k
    preceding ones.  An all-zero state stays at zero forever.
    """
    k = p.degree
    if k < 1:
        raise ValueError("connection polynomial must have degree >= 1")
    if n < 1:
        raise ValueError("subsequence length must be >= 1")
    bits = _parse_init(init, k)
    taps = [i for i in range(1, k + 1) if p.coeff(i)]
    for t in range(k, n):
        b = 0
        for i in taps:
            b ^= bits[t - i]
        bits.append(b)
    return bits[:n]


# ---------------------------------------------------------------------------
# whole periods, many phases at a time
#
# The register state at phase t packs s_t..s_{t+k-1} into bits 0..k-1.
# Clocking it m times is a linear map on k-bit states, held as the images
# of the k unit states; maps for m = 2^j come from repeated squaring.

def _apply(cols: Sequence[int], state: int) -> int:
    out = 0
    for col in cols:
        if state & 1:
            out ^= col
        state >>= 1
    return out


class _Clock:
    """Maps that clock p's register by any number of steps."""

    def __init__(self, p: BitPoly):
        k = p.degree
        taps = sum(1 << (k - i) for i in range(1, k + 1) if p.coeff(i))
        # one clock shifts right and feeds the parity of the tapped bits in at the top
        one = tuple((1 << j >> 1) | ((taps >> j & 1) << (k - 1)) for j in range(k))
        self.k = k
        self.powers = [one]  # powers[j] clocks 2^j steps

    def map(self, steps: int) -> tuple[int, ...]:
        cols = tuple(1 << j for j in range(self.k))
        j = 0
        while steps >> j:
            if j == len(self.powers):
                sq = self.powers[-1]
                self.powers.append(tuple(_apply(sq, c) for c in sq))
            if steps >> j & 1:
                cols = tuple(_apply(self.powers[j], c) for c in cols)
            j += 1
        return cols

    def tables(self, steps: int) -> list[np.ndarray]:
        """Byte tables: clocking a state x gives XOR_b tables[b][byte b of x]."""
        cols = self.map(steps)
        out = []
        for lo in range(0, self.k, 8):
            table = [0]
            for col in cols[lo:lo + 8]:
                table += [v ^ col for v in table]
            out.append(np.array(table, dtype=np.uint32))
        return out


def _clock_states(tables: list[np.ndarray], states: np.ndarray) -> np.ndarray:
    out = tables[0][states & 0xFF]
    for b, table in enumerate(tables[1:], 1):
        out ^= table[states >> 8 * b & 0xFF]
    return out


def sequence_chunks(p: BitPoly, offsets: Sequence[int] = (0,)) -> Iterator[tuple[np.ndarray, ...]]:
    """One period of p's sequence, read from several phases in step.

    The sequence is the one seeded with 1, 0, ..., 0 (generator row 0).
    For t running over 0..P-1, P = 2^k - 1, in consecutive chunks of at
    most CHUNK phases, yields one uint8 array per offset o holding
    s_{o + t}; memory stays flat in k.  p must have maximal period.
    """
    clock = _Clock(p)
    period = (1 << p.degree) - 1
    size = min(CHUNK, period)
    states = np.ones(1, dtype=np.uint32)
    while len(states) < size:  # phases 0..2m-1 from phases 0..m-1
        states = np.concatenate([states, _clock_states(clock.tables(len(states)), states)])
    states = states[:size]
    streams = [_clock_states(clock.tables(o % period), states) for o in offsets]
    advance = clock.tables(size)
    for t0 in range(0, period, size):
        yield tuple((s[:period - t0] & 1).astype(np.uint8) for s in streams)
        if t0 + size < period:
            streams = [_clock_states(advance, s) for s in streams]


def m_sequence(p: BitPoly) -> np.ndarray:
    """One period s_0..s_{P-1} of p's sequence seeded with 1, 0, ..., 0."""
    return np.concatenate([bits for bits, in sequence_chunks(p)])


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

    def to_text(self) -> str:
        """Serialize as a "k n poly_hex" header plus one hex row per line."""
        lines = [f"{self.k} {self.n} {self.poly.to_hex()}"]
        lines.extend(hex(r) for r in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PrCode":
        """Parse to_text output; the header must name a maximal-period
        polynomial of degree k, and the rows must be the ones it generates."""
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("code text is empty")
        k_s, n_s, poly_hex = lines[0].split()
        k, n = int(k_s), int(n_s)
        rows = tuple(int(ln, 16) for ln in lines[1:])
        if len(rows) != k:
            raise ValueError(f"expected {k} generator rows, got {len(rows)}")
        code = build_code(BitPoly.parse(poly_hex), n)
        if (code.k, code.rows) != (k, rows):
            raise ValueError(f"header {lines[0]!r} does not generate the given rows")
        return code


def build_code(p: BitPoly, n: int) -> PrCode:
    """Construct the (n, k) code for a maximal-period connection polynomial.

    n may exceed the sequence period 2^k - 1, in which case coordinates
    repeat; analyses that assume n <= 2^k - 1 must check that themselves.
    """
    if not is_primitive(p):
        raise ValueError(f"{p!r} does not generate a maximum-length sequence")
    k = p.degree
    if n < k:
        raise ValueError(f"block length must be >= k = {k}, got {n}")
    rows = []
    for i in range(k):
        init = [0] * k
        init[i] = 1
        rows.append(bits_to_int(lfsr_subsequence(p, init, n)))
    return PrCode(poly=p, k=k, n=n, rows=tuple(rows))


def codeword_set(code: PrCode) -> set[int]:
    """All 2^k codeword masks, built by doubling over the generator rows."""
    if code.k > CODEWORD_SET_CAP:
        raise UnsupportedRangeError(
            f"codeword_set supports k <= {CODEWORD_SET_CAP}, got {code.k}"
        )
    words = [0]
    for row in code.rows:
        words += [w ^ row for w in words]
    return set(words)


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
    same degree k, and n must be at least 2k: below that, windows are
    short enough for two different recurrences to produce the same
    nonzero word, and the disjointness guarantee does not apply.
    """
    if p1 == p2:
        raise ValueError("connection polynomials must differ")
    k = p1.degree
    if p2.degree != k:
        raise ValueError("connection polynomials must have the same degree")
    if n < 2 * k:
        raise ValueError(f"disjointness requires n >= 2k = {2 * k}, got {n}")
    for p in (p1, p2):
        if not is_primitive(p):
            raise ValueError(f"{p!r} does not generate a maximum-length sequence")
    return not _share_nonzero_codeword(build_code(p1, n), build_code(p2, n))
