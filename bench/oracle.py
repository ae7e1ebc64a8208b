"""Reference computations for checking the package's outputs.

Nothing here imports prcodes.  The package enumerates codewords with a
Gray walk over messages; the oracle instead uses the fact that the
nonzero codewords of the (n, k) code are the n-bit windows of one
period of the m-sequence, so an enumerator is a bincount of window sums
taken from a prefix sum.  Ensemble sums come from decimations of one
m-sequence (one per cyclotomic coset of units mod 2^k - 1), not from a
polynomial search, and the MacWilliams transform uses the three-term
Krawtchouk recurrence rather than the package's binomial sums.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def _prime_factors(v: int) -> list[int]:
    out, p = [], 2
    while p * p <= v:
        if v % p == 0:
            out.append(p)
            while v % p == 0:
                v //= p
        p += 1
    if v > 1:
        out.append(v)
    return out


def euler_phi(v: int) -> int:
    phi = v
    for p in _prime_factors(v):
        phi = phi // p * (p - 1)
    return phi


def m_sequence(mask: int, length: int) -> np.ndarray:
    """First `length` bits of c_t = XOR_{i: p_i = 1} c_{t-i}, from state 1,0,...,0.

    The annihilator p(D) of the sequence also annihilates
    p(D)^(2^j) = p(D^(2^j)), so once k*B bits exist the next B bits are
    an XOR of earlier B-bit blocks.  B doubles whenever 2kB bits exist,
    which makes the cost a few thousand numpy operations even at k = 22.
    """
    k = mask.bit_length() - 1
    taps = [i for i in range(1, k + 1) if mask >> i & 1]
    s = np.zeros(max(length, k), dtype=np.uint8)
    s[0] = 1
    filled, block = k, 1
    while filled < length:
        end = min(filled + block, length)
        chunk = np.zeros(end - filled, dtype=np.uint8)
        for i in taps:
            chunk ^= s[filled - i * block:end - i * block]
        s[filled:end] = chunk
        filled = end
        if filled >= 2 * k * block:
            block *= 2
    return s[:length]


def is_maximal(mask: int) -> bool:
    """Whether the recurrence of `mask` has period exactly 2^k - 1.

    The state after t steps is bits t..t+k-1; the period divides P when
    state P equals state 0, and equals P when no P/q does for a prime q.
    """
    k = mask.bit_length() - 1
    if k < 2 or not mask & 1:
        return False
    period = (1 << k) - 1
    s = m_sequence(mask, period + k)
    start = s[:k]
    if not np.array_equal(s[period:period + k], start):
        return False
    return all(not np.array_equal(s[period // q:period // q + k], start)
               for q in _prime_factors(period))


def _window_weights(seq: np.ndarray, n: int) -> np.ndarray:
    """Weights of the n-windows at every phase of the periodic sequence."""
    period = seq.shape[-1]
    ext = seq[..., np.arange(period + n - 1) % period]
    prefix = np.zeros(ext.shape[:-1] + (ext.shape[-1] + 1,), dtype=np.int64)
    np.cumsum(ext, axis=-1, out=prefix[..., 1:])
    return prefix[..., n:n + period] - prefix[..., :period]


def enumerator(mask: int, n: int) -> list[int]:
    """Exact weight enumerator A_0..A_n of the (n, k) code of `mask`."""
    period = (1 << (mask.bit_length() - 1)) - 1
    counts = np.bincount(_window_weights(m_sequence(mask, period), n),
                         minlength=n + 1)
    counts[0] += 1
    return [int(c) for c in counts]


def first_maximal(k: int) -> int:
    """Smallest degree-k mask with a maximal-period recurrence."""
    for mid in range(1 << (k - 1)):
        mask = (1 << k) | 1 | mid << 1
        if is_maximal(mask):
            return mask
    raise ValueError(f"no maximal-period polynomial of degree {k}")


def coset_leaders(k: int) -> list[int]:
    """One unit d mod 2^k - 1 from each coset {d, 2d, 4d, ...}."""
    period = (1 << k) - 1
    seen = bytearray(period)
    leaders = []
    for d in range(1, period):
        if seen[d] or gcd(d, period) != 1:
            continue
        leaders.append(d)
        x = d
        for _ in range(k):
            seen[x] = 1
            x = x * 2 % period
    return leaders


def ensemble_sums(k: int, n: int) -> tuple[list[int], int]:
    """Summed enumerators over all maximal-period codes of degree k, and their count.

    Every degree-k m-sequence is a decimation u_t = s_{dt mod P} of one
    fixed m-sequence s, one per coset leader d, and the window-weight
    multiset does not depend on the phase.
    """
    period = (1 << k) - 1
    base = m_sequence(first_maximal(k), period)
    leaders = np.array(coset_leaders(k), dtype=np.int64)
    t = np.arange(period, dtype=np.int64)
    sums = np.zeros(n + 1, dtype=np.int64)
    rows = max(1, (1 << 20) // period)
    for lo in range(0, len(leaders), rows):
        decimated = base[np.outer(leaders[lo:lo + rows], t) % period]
        sums += np.bincount(_window_weights(decimated, n).ravel(), minlength=n + 1)
    sums[0] += len(leaders)
    return [int(s) for s in sums], len(leaders)


def krawtchouk_table(n: int) -> list[list[int]]:
    """K[j][t] for 0 <= j, t <= n by (j+1)K_{j+1} = (n-2t)K_j - (n-j+1)K_{j-1}."""
    table = [[1] * (n + 1), [n - 2 * t for t in range(n + 1)]]
    for j in range(1, n):
        prev, cur = table[j - 1], table[j]
        table.append([((n - 2 * t) * cur[t] - (n - j + 1) * prev[t]) // (j + 1)
                      for t in range(n + 1)])
    return table[:n + 1]


def macwilliams(counts: list[int], n: int, dim: int,
                table: list[list[int]] | None = None) -> list[int] | None:
    """Dual counts 2^-dim sum_j A_j K_t(j), or None when one is not a
    nonnegative integer (the input is no linear code's enumerator)."""
    table = table or krawtchouk_table(n)
    out = []
    for t in range(n + 1):
        acc = sum(a * table[t][j] for j, a in enumerate(counts) if a)
        if acc < 0 or acc % (1 << dim):
            return None
        out.append(acc >> dim)
    return out
