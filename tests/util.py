"""Brute-force oracles for the test suite.

Deliberately naive, separate implementations of things the library
computes by smarter routes, so disagreements point at real bugs.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from prcodes.gf2 import BitPoly, is_primitive
from prcodes.weights import krawtchouk


def ref_mul(a: int, b: int) -> int:
    """Schoolbook carry-less product of two polynomial masks."""
    r = 0
    shift = 0
    while b >> shift:
        if (b >> shift) & 1:
            r ^= a << shift
        shift += 1
    return r


def ref_mod(a: int, m: int) -> int:
    """Long-division remainder of mask a modulo mask m."""
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def ref_order_of_x(mask: int, cap: int) -> int:
    """Multiplicative order of x modulo mask by literal stepping.

    Returns 0 if no power of x up to cap reaches 1.
    """
    val = ref_mod(2, mask)
    order = 1
    while val != 1:
        val = ref_mod(val << 1, mask)
        order += 1
        if order > cap:
            return 0
    return order


def ref_is_irreducible(mask: int) -> bool:
    """Trial division by every polynomial of degree 1..deg/2."""
    d = mask.bit_length() - 1
    if d <= 0:
        return False
    for cand in range(2, 1 << (d // 2 + 1)):
        if cand != mask and ref_mod(mask, cand) == 0:
            return False
    return True


def ref_primitives(k: int) -> list[BitPoly]:
    """Every degree-k candidate with both end terms, in mask order, kept
    when `is_primitive` holds."""
    candidates = (BitPoly((1 << k) | mid << 1 | 1) for mid in range(1 << (k - 1)))
    return [p for p in candidates if is_primitive(p)]


def ref_factorize(v: int) -> dict[int, int]:
    """Trial-division factorization."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= v:
        while v % d == 0:
            out[d] = out.get(d, 0) + 1
            v //= d
        d += 1
    if v > 1:
        out[v] = out.get(v, 0) + 1
    return out


def ref_euler_phi(v: int) -> int:
    """Euler's totient from the trial-division factorization."""
    phi = 1
    for p, e in ref_factorize(v).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def ref_int_to_bits(mask: int, length: int) -> list[int]:
    """The low `length` bits of a mask, coordinate 0 first."""
    return [(mask >> i) & 1 for i in range(length)]


def tnomial_multiple_count(p_mask: int, k: int, t: int) -> int:
    """Count weight-t masks with constant term 1 and degree <= 2^k - 2
    divisible by p, enumerating all exponent subsets."""
    top = (1 << k) - 2
    count = 0
    for exps in combinations(range(1, top + 1), t - 1):
        q = 1
        for e in exps:
            q |= 1 << e
        if ref_mod(q, p_mask) == 0:
            count += 1
    return count


def rotate_mask(mask: int, n: int, s: int) -> int:
    """Cyclic left rotation of an n-bit mask by s places."""
    s %= n
    full = (1 << n) - 1
    return ((mask << s) | (mask >> (n - s))) & full


def ref_lfsr_bits(p_mask: int, state: int, length: int) -> list[int]:
    """`length` bits of c_t = XOR_{i: p_i = 1} c_{t-i}, where bit i of
    `state` is c_i for i < k, shifted through a k-bit register."""
    k = p_mask.bit_length() - 1
    feedback = 0
    for i in range(1, k + 1):
        if (p_mask >> i) & 1:
            feedback |= 1 << (k - i)
    out = []
    for _ in range(length):
        out.append(state & 1)
        state = (state >> 1) | ((state & feedback).bit_count() & 1) << (k - 1)
    return out


def ref_berlekamp_massey(bits) -> BitPoly:
    """Shortest connection polynomial generating the given bits, one bit at
    a time: c with c_0 = 1 and s_t = sum_{i>=1} c_i s_{t-i} for every t
    covered by the input (Massey, IEEE T-IT 15, 1969)."""
    c, prev = 1, 1  # current and last-replaced connection polynomials
    length, shift = 0, 1
    recent = 0  # bit i holds s_{t-i}
    for t, bit in enumerate(bits):
        recent = recent << 1 | int(bit)
        shift_prev = prev << shift
        if (c & recent).bit_count() & 1:
            if 2 * length <= t:
                prev, c = c, c ^ shift_prev
                length, shift = t + 1 - length, 1
                continue
            c ^= shift_prev
        shift += 1
    return BitPoly(c)


def ref_weight_counts(p_mask: int, n: int) -> list[int]:
    """Counts by weight of the n-bit outputs of p's recurrence from every
    one of the 2^k initial states, the zero state included."""
    k = p_mask.bit_length() - 1
    counts = [0] * (n + 1)
    for state in range(1 << k):
        counts[sum(ref_lfsr_bits(p_mask, state, n))] += 1
    return counts


def ref_first_witness(k: int, n: int, d: int) -> int:
    """Smallest mask of a degree-k polynomial whose recurrence has period
    2^k - 1 and whose n-bit windows, at every phase, weigh at least d."""
    period = (1 << k) - 1
    for mask in range((1 << k) | 1, 1 << (k + 1), 2):
        if ref_order_of_x(mask, period) != period:
            continue
        bits = ref_lfsr_bits(mask, 1, period + n)
        weight = sum(bits[:n])
        lightest = weight
        for t in range(1, period):
            weight += bits[t + n - 1] - bits[t - 1]
            lightest = min(lightest, weight)
        if lightest >= d:
            return mask
    raise AssertionError(f"no degree-{k} polynomial reaches distance {d} at n={n}")


@lru_cache(maxsize=2)
def ref_codebook_signs(code) -> np.ndarray:
    """(2^k, n) BPSK symbols (bit 0 -> +1, bit 1 -> -1) of every codeword,
    row m for message m, one `encode` call per message.  Read-only, and
    cached: a k = 15 codebook takes about half a second to build."""
    signs = np.empty((1 << code.k, code.n))
    for m in range(1 << code.k):
        word = code.encode(m)
        signs[m] = [1.0 - 2.0 * ((word >> i) & 1) for i in range(code.n)]
    signs.flags.writeable = False
    return signs


def ref_fixed_w_certified(code, y) -> np.ndarray:
    """The certificate with one weight W for every row, by brute force over
    `ref_codebook_signs`: W is the largest weight with at most
    min(2^min(k, 10), 2^(k-4)) lighter nonzero codewords, and a row of y
    certifies when its W smallest entries, and its entries on each
    codeword lighter than W, sum to more than 4 nu / (1 - nu) sum|y|, nu =
    (n + 4) 2^-53."""
    words = ref_codebook_signs(code)[1:] < 0
    weights = np.count_nonzero(words, axis=1)
    budget = min(1 << min(code.k, 10), 1 << (code.k - 4))
    heavy = int(np.searchsorted(np.cumsum(np.bincount(weights)), budget, side="right"))
    least = np.partition(y, heavy - 1, axis=1)[:, :heavy].sum(axis=1)
    listed = (y @ words[weights < heavy].T).min(axis=1, initial=np.inf)
    nu = (y.shape[1] + 4) * 2.0 ** -53
    return np.minimum(least, listed) > 4 * nu / (1 - nu) * np.abs(y).sum(axis=1)


def ref_batches(code, ebno_db, max_trials, seed, zero_codeword_only=False):
    """(msgs, rx) of each batch of one point by the simulation contract:
    generator `default_rng(seed)`, batches of max(1, 2^22 // 2^k) trials
    up to max_trials, each drawn whole as its messages (none drawn when
    all are zero), then a (b, n) normal block, scaled and added to the
    `ref_codebook_signs` symbols."""
    signs = ref_codebook_signs(code)
    batch = max(1, (1 << 22) >> code.k)
    rng = np.random.default_rng(seed)
    sigma = float(np.sqrt(1.0 / (2.0 * (code.k / code.n) * 10.0 ** (ebno_db / 10.0))))
    for first in range(0, max_trials, batch):
        b = min(batch, max_trials - first)
        if zero_codeword_only:
            msgs = np.zeros(b, dtype=np.int64)
        else:
            msgs = rng.integers(0, 1 << code.k, size=b)
        yield msgs, signs[msgs] + sigma * rng.standard_normal((b, code.n))


def ref_wer_counts(code, ebno_db_points, max_trials, target_word_errors, seed,
                   zero_codeword_only=False) -> list[tuple[int, int]]:
    """(trials, word_errors) per SNR point by the simulation contract,
    decoding each `ref_batches` batch of generator seed ^ i, point i, with
    one product against the whole `ref_codebook_signs`, and stopping at
    the first batch boundary that meets the error target."""
    signs = ref_codebook_signs(code)
    out = []
    for idx, ebno_db in enumerate(ebno_db_points):
        trials = errors = 0
        for msgs, rx in ref_batches(code, ebno_db, max_trials, seed ^ idx, zero_codeword_only):
            errors += int(np.count_nonzero(np.argmax(rx @ signs.T, axis=1) != msgs))
            trials += len(msgs)
            if errors >= target_word_errors:
                break
        out.append((trials, errors))
    return out


def ref_span_counts(k: int, n: int) -> dict[int, int]:
    """{t: sum_c C(c-1, t-2) (n-c) over max(k, t-1) <= c < n} for t = 2..n,
    each summed term by term."""
    return {t: sum(comb(c - 1, t - 2) * (n - c) for c in range(max(k, t - 1), n))
            for t in range(2, n + 1)}


def ref_avg_dual_approx(k: int, n: int) -> tuple[float, ...]:
    """avg_dual_approx's values as one Fraction per entry: 1 at weight 0,
    0 at weights 1 and 2, and the span count over 2^k - t (over 2^k once
    t >= 2^k) at each t >= 3."""
    spans = ref_span_counts(k, n)
    values = [1.0, 0.0, 0.0]
    for t in range(3, n + 1):
        values.append(float(Fraction(spans[t], (1 << k) - t if t < 1 << k else 1 << k)))
    return tuple(values)


def ref_avg_primal_approx(k: int, n: int, mode: str) -> tuple[float, ...]:
    """avg_primal_approx's values as one Fraction sum per entry over a
    table of `krawtchouk`: primary 2^-(n-k) [K_j(0) + sum_{t>=3} B_t K_j(t)]
    with B_t the span count over 2^k - t (over 2^k when n >= 2^k);
    literal 2^-n sum_{t>=2} D_t K_j(t)."""
    K = [[krawtchouk(n, j, t) for t in range(n + 1)] for j in range(n + 1)]
    spans = ref_span_counts(k, n)
    values = []
    for j in range(n + 1):
        if mode == "literal":
            acc = Fraction(sum(spans[t] * K[j][t] for t in range(2, n + 1)), 1 << n)
        else:
            acc = Fraction(K[j][0])
            for t in range(3, n + 1):
                acc += Fraction(spans[t], (1 << k) - t if n < 1 << k else 1 << k) * K[j][t]
            acc /= 1 << (n - k)
        values.append(float(acc))
    return tuple(values)
