"""Arithmetic for binary polynomials packed into integer bitmasks.

Bit i of the mask holds the coefficient of x^i, so x^4 + x + 1 is the
integer 0b10011 = 0x13.  Two text formats are accepted and produced
everywhere in this package: hex masks ("0x13") and symbolic sums
("1+x+x^4").

Its only ring arithmetic is reduction, squaring and powers of x modulo p
(square and shift, with no general product).  With them the module tests
whether a polynomial generates a maximum-length recurrence (the
multiplicative order of x modulo p equals 2^deg(p) - 1), finds the
first such polynomial in mask order, generates a recurrence's bits
packed into 64-bit words, recovers the connection polynomials of many
recurrences from their bits at once (Berlekamp-Massey), and walks the
degree-k family: decimations yields one decimation of f's own
m-sequence, f = first_primitive(k), per reciprocal pair, a block of
pairs at a time, and pair_polynomials reads each one's polynomial off
its first 2k bits, a block of pairs per vectorized Berlekamp-Massey run;
enumerate_primitives lists the family by mask from those.  The sequence
and the pair leaders are built once per degree per process.

The generator rests on the Frobenius identity p(x)^(2^m) = p(x^(2^m))
over GF(2): a sequence that p's recurrence annihilates also satisfies
the recurrence with every tap spaced 2^m places apart.  With 2^m = 64 L,
a block of L words is the XOR of one block of L words per tap.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import ENUMERATION_CAP, PRIMITIVITY_CAP, check_k

_TERM_RE = re.compile(r"^(1|x|x\^(\d+))$")


# slots: enumerate_primitives(24) holds 276,480 of them, 11 MB less this way
@dataclass(frozen=True, order=True, slots=True)
class BitPoly:
    """A polynomial over GF(2) stored as an integer bitmask."""

    mask: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("polynomial mask must be nonnegative")

    @classmethod
    def parse(cls, text: str | int) -> "BitPoly":
        """Build from an int, a hex mask like "0x13", or "1+x+x^4"."""
        if isinstance(text, int):
            return cls(text)
        s = text.strip().replace(" ", "")
        if s.lower().startswith("0x"):
            return cls(int(s, 16))
        mask = 0
        for term in s.split("+"):
            m = _TERM_RE.match(term)
            if m is None:
                raise ValueError(f"cannot parse polynomial term {term!r}")
            if term == "1":
                bit = 1
            elif term == "x":
                bit = 2
            else:
                bit = 1 << int(m.group(2))
            if mask & bit:
                raise ValueError(f"repeated term {term!r} in polynomial")
            mask |= bit
        return cls(mask)

    @property
    def degree(self) -> int:
        """Highest set position; -1 for the zero polynomial."""
        return self.mask.bit_length() - 1

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def coeff(self, i: int) -> int:
        return (self.mask >> i) & 1

    def reciprocal(self) -> "BitPoly":
        """x^deg * p(1/x): the bit-reversed polynomial."""
        return BitPoly(int(f"{self.mask:b}"[::-1], 2))

    def to_hex(self) -> str:
        return hex(self.mask)

    def to_text(self) -> str:
        """Symbolic form in ascending powers, e.g. "1+x+x^4"."""
        if self.mask == 0:
            return "0"
        terms = []
        for i in range(self.mask.bit_length()):
            if (self.mask >> i) & 1:
                terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
        return "+".join(terms)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"BitPoly({self.to_hex()})"

    def __bool__(self):
        return bool(self.mask)


# ---------------------------------------------------------------------------
# raw mask arithmetic

def _mod(a: int, m: int) -> int:
    """Remainder of mask a modulo nonzero mask m."""
    dm = m.bit_length() - 1
    d = a.bit_length() - 1
    while d >= dm:
        a ^= m << (d - dm)
        d = a.bit_length() - 1
    return a


def _sqr(a: int) -> int:
    """Square of a mask: spreads every bit i to position 2i."""
    return int("0".join(f"{a:b}"), 2)


def _xpow(e: int, m: int) -> int:
    """x^e mod m over GF(2), m of degree >= 1: for each bit of e from the
    top, square, and where the bit is set multiply by x, a shift."""
    r, top = 1, 1 << (m.bit_length() - 1)
    for bit in f"{e:b}":
        r = _mod(_sqr(r), m)
        if bit == "1":
            r <<= 1
            if r & top:
                r ^= m
    return r


# ---------------------------------------------------------------------------
# integer factorization (needed for multiplicative-order tests)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _is_prime(v: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..37, valid for all
    v < 2^64.  v must be odd, above 47 and free of every prime up to 47, as
    factorize's cofactors are."""
    d = v - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES[:12]:
        x = pow(a, d, v)
        if x == 1 or x == v - 1:
            continue
        for _ in range(r - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def _pollard_rho(v: int) -> int:
    """A factor strictly between 1 and v of a composite v that, like
    factorize's cofactors, is odd and free of every prime up to 47;
    deterministic parameter sweep."""
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % v
            y = (y * y + c) % v
            y = (y * y + c) % v
            d = math.gcd(abs(x - y), v)
        if d != v:
            return d
    raise ArithmeticError(f"factor sweep exhausted for {v}")


def factorize(v: int) -> dict[int, int]:
    """Complete prime factorization of v >= 1 as {prime: multiplicity}."""
    if v < 1:
        raise ValueError("factorize requires v >= 1")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while v % p == 0:
            factors[p] = factors.get(p, 0) + 1
            v //= p
    # every m on the stack, and each part that rho splits it into, is odd,
    # above 47 and free of the primes up to 47: what _is_prime and rho need
    stack = [v] if v > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(factors.items()))


# ---------------------------------------------------------------------------
# maximal-order testing

def is_primitive(p: BitPoly) -> bool:
    """Whether p of degree k generates a maximum-length recurrence.

    True iff the order of x in GF(2)[x]/(p) is exactly 2^k - 1 (which
    forces p to be irreducible): x^(2^k) = x, and x^((2^k - 1)/q) != 1
    for each prime q dividing 2^k - 1 (Lidl & Niederreiter, Finite
    Fields, Thm. 3.18), both powers by _xpow.  The first check costs only
    k squarings and rejects most candidates, which are reducible.  A zero
    constant term cannot occur in a connection polynomial, so it is
    rejected as a caller bug.
    Degrees above errors.PRIMITIVITY_CAP are refused: 2^k - 1 would then
    be factored with no proven primality test and no time bound.
    """
    k = p.degree
    if k < 2:
        raise ValueError(f"connection polynomial must have degree >= 2, got {p!r}")
    if not p.mask & 1:
        raise ValueError(f"connection polynomial must have constant term 1, got {p!r}")
    check_k("primitivity test", k, PRIMITIVITY_CAP, low=2)
    order = (1 << k) - 1
    return _xpow(1 << k, p.mask) == 2 and all(
        _xpow(order // q, p.mask) != 1 for q in factorize(order))


def first_primitive(k: int) -> BitPoly:
    """The degree-k polynomial with maximal order of x and the smallest mask,
    found by testing candidates in mask order until one passes."""
    check_k("enumeration", k, ENUMERATION_CAP, low=2)
    return next(filter(is_primitive, map(BitPoly, range((1 << k) | 1, 2 << k, 2))))


# ---------------------------------------------------------------------------
# whole sequences, 64 phases per word

def packed_sequence(p: BitPoly, length: int) -> np.ndarray:
    """Bits s_0..s_{length-1} of c_t = sum_{i=1..k} p_i c_{t-i} from the
    seed 1, 0, ..., 0, packed little-endian: bit j of word w ('<u8') is
    s_{64 w + j}, and bits past `length` are zero.

    The first k words come from the bit recurrence, stepped only as far
    as `length` when that is shorter.  After that, with W
    words built and L the largest power of two with k L <= W, words
    W..W+L-1 are the XOR over the taps i of the words L i places back.
    """
    k = p.degree
    taps = [i for i in range(1, k + 1) if p.coeff(i)]
    feedback = sum(1 << (k - i) for i in taps)
    size = -(-length // 64)
    words = np.zeros(max(size, k), dtype="<u8")
    state, seed = 1, 0  # state bit j is s_{t+j}
    for t in range(min(64 * k, length)):
        seed |= (state & 1) << t
        state = state >> 1 | ((state & feedback).bit_count() & 1) << (k - 1)
    words[:k] = np.frombuffer(seed.to_bytes(8 * k, "little"), dtype="<u8")
    built = k
    while built < size:
        step = 1 << ((built // k).bit_length() - 1)
        end = min(built + step, size)
        block = words[built:end]
        for i in taps:
            np.bitwise_xor(block, words[built - step * i:end - step * i], out=block)
        built = end
    words = words[:size]
    if length % 64:
        words[-1] &= np.uint64((1 << length % 64) - 1)
    return words


# ---------------------------------------------------------------------------
# the degree-k family, by decimation
#
# Every degree-k m-sequence is, up to a shift, a decimation u_t = s_{d t}
# of one fixed m-sequence s by a unit d mod P, and d, 2d, 4d, ... give the
# same sequence.  Decimating by -d reverses time, which yields the
# reciprocal polynomial and the same multiset of windows, so one
# decimation per class {+-d 2^j} covers a reciprocal pair of codes.

def pair_leaders(k: int) -> list[int]:
    """Smallest member of each class {+-d 2^j mod P} of units d mod P = 2^k - 1.

    With each member m a class holds P - m and m 2^(k-1), which is m / 2
    mod P when m is even, so its least member is odd and below 2^(k-1): the
    ascending walk over those d alone still meets every class first at its
    least member."""
    period = (1 << k) - 1
    seen = bytearray(period)
    leaders = []
    for d in range(1, 1 << (k - 1), 2):
        if seen[d] or math.gcd(d, period) != 1:
            continue
        leaders.append(d)
        x = d
        for _ in range(k):
            seen[x] = seen[period - x] = 1
            x = 2 * x % period
    return leaders


@lru_cache(maxsize=8)
def _family(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(packed, leaders) for degree k, read-only, kept for the last 8
    degrees used so that each is built once per process: the first
    P = 2^k - 1 bits of first_primitive(k)'s sequence as packed_sequence
    gives them, and pair_leaders(k) as int64.  The bits stay packed, 3 MB
    in all at k = 24 where a byte per bit would take 17 MB, and
    decimations unpacks them for one walk at a time."""
    packed = packed_sequence(first_primitive(k), (1 << k) - 1).view(np.uint8)
    leaders = np.array(pair_leaders(k), dtype=np.int64)
    packed.flags.writeable = leaders.flags.writeable = False
    return packed, leaders


def decimations(k: int, length: int, group: int = 1) -> Iterator[np.ndarray]:
    """The degree-k family, one sequence per reciprocal pair, group pairs
    at a time: for each run of up to `group` pair_leaders d in order, a
    fresh (pairs, length) uint8 block whose rows are the bits s_{d t mod P},
    t < length, of s = one period of first_primitive(k)'s sequence seeded
    with 1, 0, ..., 0, from one gather.
    Each row is a shift of the sequence of the polynomial that
    Berlekamp-Massey reads off its first 2k bits."""
    packed, leaders = _family(k)
    period = (1 << k) - 1
    s = np.unpackbits(packed, count=period, bitorder="little")
    steps = np.arange(length, dtype=np.int64)
    for i in range(0, len(leaders), group):
        yield s[leaders[i:i + group, None] * steps % period]


def _berlekamp_massey_rows(bits: np.ndarray) -> np.ndarray:
    """Shortest connection polynomial of every row of a (rows, t) bit array
    at once, as uint64 masks c with c_0 = 1 and s_j = sum_{i>=1} c_i s_{j-i}
    wherever the row covers it: Berlekamp-Massey (Massey, IEEE T-IT 15,
    1969), each step a np.where over the rows.  For a sequence of maximal
    period from a degree-k polynomial, 2k bits determine it.  Every
    polynomial it holds stays below degree t + 1, so it is exact for t <= 62."""
    rows = len(bits)
    c, prev = np.ones(rows, dtype=np.uint64), np.ones(rows, dtype=np.uint64)
    length = np.zeros(rows, dtype=np.int64)
    shift = np.ones(rows, dtype=np.uint64)
    recent = np.zeros(rows, dtype=np.uint64)
    for t in range(bits.shape[1]):
        recent = recent << np.uint64(1) | bits[:, t]
        shift_prev = prev << shift
        odd = np.bitwise_count(c & recent) & 1 == 1
        grow = odd & (2 * length <= t)
        prev = np.where(grow, c, prev)
        c = np.where(odd, c ^ shift_prev, c)
        length = np.where(grow, t + 1 - length, length)
        shift = np.where(grow, 1, shift + np.uint64(1))
    return c


def pair_polynomials(k: int) -> list[BitPoly]:
    """One polynomial per reciprocal pair of degree k, in pair_leaders
    order: the one whose sequence decimations(k, .) yields, as
    Berlekamp-Massey reads it off its first 2k bits.  Blocks of 4096 pairs
    keep the int64 gather index to 1.5 MB at k = 24."""
    return [BitPoly(c) for block in decimations(k, 2 * k, 4096)
            for c in _berlekamp_massey_rows(block).tolist()]


def enumerate_primitives(k: int) -> list[BitPoly]:
    """All degree-k polynomials with maximal order of x, ascending by mask: the
    pair polynomials and their reciprocals, totient(2^k - 1) / k in all."""
    return sorted({q for p in pair_polynomials(k) for q in (p, p.reciprocal())},
                  key=lambda p: p.mask)
