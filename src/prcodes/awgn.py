"""Monte Carlo word-error-rate measurement over binary-input AWGN.

Codewords are BPSK-mapped (bit 0 -> +1, bit 1 -> -1) at unit symbol
energy; the decoder finds the message whose codeword correlates best
with the received vector.  No codebook is stored: the symbols of message
m are ``low[m & (2^t - 1)] * high[m >> t]``, two +-1 tables spanning the
low t = min(k, LOW_BITS) message bits and the other k - t.  Trials are
decoded in tiles of at most TILE rows: a batch larger than TILE is cut
into near-equal tiles, and consecutive batches of at most TILE / 2
trials (k >= 12) are decoded stacked, as many whole batches as fit in
one tile.  At k <= LOW_BITS a tile is decided by one product against
low, the whole codebook.  For a code with n * 2^k <= 2048 whose tiles
can be sized as _piece_rows says (every k <= 6 code at n <= 32), the SNR
points of a run go to a pool of one thread per CPU, up to one per
point, and each point's tiles hold at most _piece_rows rows in place of
TILE, so that every product is under 2^19 multiply-adds, which OpenBLAS
computes on the calling thread; so the points' normal draws, which
release the GIL, run on every core.
With more than one high block (k > LOW_BITS),
the simulator knows each row's sent message m and first tries to
certify it against a list, made once per call, of every codeword
lighter than a weight W (at most min(2^t, 2^(k-4)) of them).  If y = rx
* s_m sums to more than a rounding slack over the support of each
listed codeword, and the W smallest y_i do too, m is the exact ML
message (the listed codewords checked exactly, as in ordered-statistics
decoding, Fossorier & Lin, IEEE T-IT 41(5), 1995; the rest bounded by
the least y_i, Taipale & Pursley, IEEE T-IT 37(1), 1991).  The share
certified grows with SNR and W: 75-89% of a tile at 3 dB and 94-99% at
4.5 dB for k = 11-15, n = 2k + 9, and 35%, 78% and 99% at 3, 4.5 and 6
dB for k = 15, n = 64.  The other rows are scored in float32 against
float32 copies of the tables, and a row whose float32 best beats its
runner-up by more than every rounding could close settles there as the
exact ML message.  At 0-6 dB on k = 11-15 codes 0-2 rows in 4096 did
not; each of those is decided by ml_decode's exact core, one row at a
time.  Decoder memory is, for each point running, two (min(T,
max_trials), n) float64 buffers allocated once per point, T the most rows
of a tile (TILE, or _piece_rows on a pool), the received
tile and, at k > LOW_BITS, y, and a batch's messages; per tile, the
list's (rows, L) scores (L <= 2^t) and the float32 stage's
(rows, 2^t) scores, cast rows and flips; and, per call, the list's L * n
* 8 bytes and the float32 tables' (2^t + 2^(k-t)) * n * 4.  No
2^k * n * 8 codebook is built.

Reproducibility contract: point index i of a run uses the generator
`numpy.random.default_rng(seed ^ i)`, draws trials in fixed batches of
``max(1, 2^22 // 2^k)`` (messages first, then the noise block), and
stops at the first batch boundary where the error target is met.  The
noise of a batch is drawn tile by tile, which gives the same stream.  A
stacked tile draws all its batches before decoding them; the stopping
rule is still applied batch by batch in order, and batches drawn past
the stop are discarded uncounted, which moves no counted trial since
each point owns its generator.  Points may run concurrently: each owns
its generator and buffers, and results are collected in point order, so
no point's stream or result depends on the others.  At k <= LOW_BITS
decisions rely on one GEMM fact: the float64 sum of one score does not
depend on how many rows the same call computes (a tile has at least the
rows of its batch, and tiles of a split batch keep at least half of T:
TILE / 2 rows, or on a pool more than 1200 / 2^k, away from BLAS's
separate thin-matrix kernels); with that, a config reproduces its
results bit-for-bit on any machine, and ties go to the lowest message.
At k > LOW_BITS every decision is the exact-arithmetic ML message, ties
to the lowest, and relies on no BLAS property: a certified row's test
holds however the list's sums are computed, a float32-settled row's by
the bounds in _decide_float32, and the rest are decided exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import fsum, inf
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .construct import PrCode, m_sequence
from .errors import DECODER_CAP, check_k
from .weights import _window_weights

# message bits spanned by the low table: scores are computed 2^LOW_BITS columns
# at a time (2^10-2^12 columns time within ~15% of each other at k = 13-15), and
# k <= LOW_BITS decodes in one block
LOW_BITS = 10
# trials decoded at a time: a batch streams through one (TILE, n) buffer, and
# 2^22 / 2^11 = TILE makes a batch at k >= 11 at most one tile, so k >= 12
# stacks TILE / batch whole batches in one; 1024-2048 rows cost 1.3-1.5x less
# per trial than whole batches of 2^16-2^19 at k = 3-6, and 1536-row tiles
# 1.4x less than 128-row batches at k = 15
TILE = 2048

_BATCH_BUDGET = 1 << 22


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: a code, its SNR grid, and stopping limits."""

    code: PrCode
    ebno_db_points: tuple[float, ...]
    max_trials: int = 10_000_000
    target_word_errors: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if self.target_word_errors < 1:
            raise ValueError("target_word_errors must be >= 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        for ebno_db in self.ebno_db_points:
            _noise_sigma(ebno_db, self.code.k, self.code.n)


@dataclass(frozen=True)
class SimResult:
    """Measured word error rate at one SNR point."""

    ebno_db: float
    trials: int
    word_errors: int
    wer: float
    seed: int


@lru_cache(maxsize=8)
def _sign_tables(code: PrCode) -> tuple[np.ndarray, np.ndarray]:
    """(low, high): BPSK symbols of every combination of the first t
    generator rows and of the remaining k - t, t = min(k, LOW_BITS).

    Row m of a table holds the symbols of the XOR of the rows picked by
    the bits of m, so message m is sent as low[m & (2^t - 1)] * high[m >> t].
    Cached for per-vector ml_decode calls; a pair holds (2^t + 2^(k-t))
    rows, at most 2^11 at DECODER_CAP, and is read-only.
    """
    t = min(code.k, LOW_BITS)
    nbytes = (code.n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in code.rows),
                           dtype=np.uint8).reshape(code.k, nbytes)
    rows = 1.0 - 2.0 * np.unpackbits(packed, axis=1, count=code.n, bitorder="little")

    def span(rows: np.ndarray) -> np.ndarray:
        table = np.ones((1 << len(rows), code.n))
        for j, row in enumerate(rows):
            table[1 << j:2 << j] = table[:1 << j] * row
        table.flags.writeable = False
        return table

    return span(rows[:t]), span(rows[t:])


def _symbols(low: np.ndarray, high: np.ndarray, m, out: np.ndarray | None = None):
    """BPSK symbols of message m (or a row per message of an array m, into
    `out` if given)."""
    return np.multiply(low[m & (len(low) - 1)], high[m >> (len(low).bit_length() - 1)], out=out)


def _decide(rx: np.ndarray, low: np.ndarray) -> np.ndarray:
    """ML message for each row of rx at k <= LOW_BITS, where low spans the
    whole codebook, by one product; ties break toward the lowest message."""
    return np.argmax(rx @ low.T, axis=1)


def _piece_rows(k: int, n: int) -> int | None:
    """Most rows of a tile, in place of TILE, when simulate_wer runs the
    points of a (k, n) code concurrently, or None where they run one after
    another.

    Points run concurrently only for n * 2^k <= 2048, and only if every
    tile's product can stay below 2^19 multiply-adds, which OpenBLAS 0.3
    computes on the calling thread (above that it wakes a worker thread,
    which spins on the core another point needs), while a tile of a split
    batch keeps more than 1200 / 2^k rows, clear of the thin kernels _tiles
    avoids.  The smallest tile of a split batch, ceil(R / most) near-equal
    tiles of R > most rows, has at least ceil(most / 2) rows (R = most + 1).
    A batch, 2^22 / 2^k trials, has more than `most` rows, so no tile
    stacks batches.
    """
    if n << k > 2048:
        return None
    most = ((1 << 19) - 1) // (n << k)
    return most if (most + 1) // 2 > 1200 >> k else None


def _light_codewords(code: PrCode) -> tuple[int, np.ndarray]:
    """(W, light): the largest weight W with at most min(2^t, 2^(k-4))
    nonzero codewords lighter than it, t = min(k, LOW_BITS), and those
    codewords, one 0/1 row each.  Their scores take no more room than one
    (rows, 2^t) block of message scores, and at most 2^(k-4) keeps their
    product small beside the decoding it saves (at k = 11, 1024 codewords
    made simulate_wer 5-25% slower than 128 at n = 31-100, 3-6 dB).

    The nonzero codewords are the n-windows of code.poly's sequence at its
    P = 2^k - 1 phases, so one pass of weights._window_weights over the
    period weighs them all, and the light ones are read off the sequence
    extended to P + n bits.  A row of light takes n * 8 bytes.
    """
    budget = min(1 << min(code.k, LOW_BITS), 1 << (code.k - 4))
    period = (1 << code.k) - 1
    r = code.n % period
    seq = np.resize(m_sequence(code.poly), period + code.n)
    weights, = _window_weights(code.k, code.n, int(np.count_nonzero(seq[:r])),
                               [(seq[:period], seq[r:r + period])])
    heavy = int(np.searchsorted(np.cumsum(np.bincount(weights)), budget, side="right"))
    phases = (np.flatnonzero(weights < heavy) + 1) % period  # weights[t] is phase t + 1
    return heavy, sliding_window_view(seq, code.n)[phases].astype(np.float64)


def _certified(y: np.ndarray, heavy: int, light: np.ndarray) -> np.ndarray:
    """Mask of the rows of y = rx * s, s the symbols of the message m sent
    in that row, where m is the exact ML message and has the strictly
    largest computed score of every message, however the scores are
    summed; overwrites y.

    light holds every nonzero codeword lighter than heavy, one 0/1 row
    each.  A codeword c != m differs from m's on the support D of a nonzero
    codeword, and S_m - S_c = 2 * sum_{i in D} y_i (y_i is rx_i with an
    exact sign flip).  If D is listed, that sum is a column of y @ light.T.
    Otherwise |D| >= heavy, and the sum is at least that of the max(heavy,
    N) smallest y_i, N of them negative: with N <= heavy that is the sum
    of the heavy smallest, and with N > heavy both are negative.  So S_m -
    S_c >= 2L for every c, L the smaller of the list's minimum and the sum
    of the heavy smallest y_i.  Every computed score, and every computed
    sum of at most n of the y_i, is within gamma_n * sum|rx| of its exact
    value, so the exact S_m beats every S_c, and the computed S_m every
    computed S_c, once L > gamma_n * sum|rx|, and a computed L above twice
    ml_decode's window, 4 nu / (1 - nu) times the computed sum|rx| with nu
    = (n + 4) u, proves that.
    """
    nu = (y.shape[1] + 4) * 2.0 ** -53
    least = (y @ light.T).min(axis=1, initial=np.inf)
    y.partition(heavy - 1, axis=1)
    np.minimum(least, y[:, :heavy].sum(axis=1), out=least)
    return least > 4 * nu / (1 - nu) * np.abs(y, out=y).sum(axis=1)


def _float32_slack(n: int) -> float:
    """B of _decide_float32 for rows of n coordinates: twice a float32
    score's error bound gamma_n(u) + u (u = 2^-24), plus _certified's
    slack 4 nu / (1 - nu) (nu = (n + 4) 2^-53, twice ml_decode's window).
    Infinite, so that nothing settles, from n = 2^20 on, where a (2^10, n)
    float64 table alone would take 8 GiB."""
    if n >= 1 << 20:
        return inf
    u, nu = 2.0 ** -24, (n + 4) * 2.0 ** -53
    return 2 * (n * u / (1 - n * u) + u) + 4 * nu / (1 - nu)


def _decide_float32(rx: np.ndarray, rows: np.ndarray, low32: np.ndarray,
                    high32: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(settled, decided) for the rows `rows` of rx, scored in float32
    against (low32, high32), float32 copies of the sign tables: decided[i]
    is the float32 ML message of rx[rows[i]], and where settled[i] holds,
    it is the exact ML message, however the product is summed.

    Each row x = float32(rx) is scored block by block and each block
    reduced to its maximum; then the winning block is scored once more
    for its best message c and the runner-up inside it, and the row's
    runner-up score r is the larger of that and the other blocks' maxima.
    A score sums n terms +-x_i, so in any order a computed float32 score is
    within gamma_n(u) A of its exact value, A = sum|x_i|, u = 2^-24; and x_i
    is within u |x_i| of rx_i, or within 2^-150 where rx_i underflows.  A
    row settles only if its float64 sum A' of |x_i| is at least n 2^-60
    and at most 2^64: then no cast or sum overflows, and underflow, even
    flushed to zero in the cast, the inputs or the sums, costs less than
    2^-63 A.  So every computed float32 score, in either pass, is within
    e A of the exact score S of rx, e = gamma_n(u) + u + 2^-63, and best -
    r > 2 e A leaves c the unique exact winner.  A float64 gap best - r
    above _float32_slack(n) * A' proves that bound with room for the
    rounding of the gap, of A' and of the product; the slack also covers
    twice float64's gamma_n(2^-53) (1 + e) A, so float64 would pick c too.
    """
    n, t = rx.shape[1], len(low32).bit_length() - 1
    index = np.arange(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        x = rx[rows].astype(np.float32)
        flipped = np.empty_like(x)
        magnitude = np.abs(x, out=flipped).sum(axis=1, dtype=np.float64)
        scores = np.empty((len(rows), 1 << t), dtype=np.float32)
        maxima = np.empty((len(rows), len(high32)), dtype=np.float32)
        for h, signs in enumerate(high32):
            np.matmul(np.multiply(x, signs, out=flipped), low32.T, out=scores)
            maxima[:, h] = scores[index, scores.argmax(axis=1)]
        block = maxima.argmax(axis=1)
        np.multiply(x, high32[block], out=flipped)
        arg = np.matmul(flipped, low32.T, out=scores).argmax(axis=1)
        best = scores[index, arg]
        scores[index, arg] = maxima[index, block] = -np.inf
        runner = np.maximum(scores[index, scores.argmax(axis=1)], maxima.max(axis=1))
        gap = np.subtract(best, runner, dtype=np.float64)
    settled = ((gap > _float32_slack(n) * magnitude)
               & (magnitude >= n * 2.0 ** -60) & (magnitude <= 2.0 ** 64))
    return settled, (block << t) + arg


def _decide_uncertified(rx: np.ndarray, y: np.ndarray, sent: np.ndarray,
                        listing: tuple[int, np.ndarray], low: np.ndarray, high: np.ndarray,
                        tables32: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The exact ML message of each row of a tile rx whose rows carry the
    messages `sent`, given y = rx * symbols(sent), listing = (W, the
    codewords lighter than W) and tables32, float32 copies of (low, high):
    a row that _certified settles keeps its sent message, the others are
    scored in float32 by _decide_float32, and the rows that neither
    settles are decided one at a time by _exact_ml.  Overwrites y and
    sent, and returns sent.
    """
    rows = np.flatnonzero(~_certified(y, *listing))
    if len(rows):
        settled, sent[rows] = _decide_float32(rx, rows, *tables32)
        for i in rows[~settled].tolist():
            sent[i] = _exact_ml(rx[i], low, high)
    return sent


def _tiles(b: int, most: int = TILE) -> Iterator[slice]:
    """Row slices of a batch of b trials: the whole batch if b <= most,
    else ceil(b / most) slices whose sizes differ by at most one, so each
    has at least most / 2 rows.  Thin products take other BLAS kernels whose
    sums can differ in the last bit (OpenBLAS 0.3.31 on an AVX-512 Xeon: one
    row, and rows * 2^t <= 1200 at n >= 32), so a batch is never cut into one."""
    m = -(-b // most)
    return (slice(b * i // m, b * (i + 1) // m) for i in range(m))


def _stacked_tiles(batch: int, max_trials: int, most: int) -> Iterator[list[tuple[int, slice]]]:
    """The tiles of at most `most` rows of one point's batches in draw
    order, each a list of (batch size, rows of that batch): as many whole
    consecutive batches as fit in `most` rows, or one _tiles(b, most) slice
    of a batch of b > most rows."""
    stack = max(1, most // batch)
    for first in range(0, max_trials, stack * batch):
        sizes = [min(batch, max_trials - s)
                 for s in range(first, min(max_trials, first + stack * batch), batch)]
        if stack == 1:
            yield from ([(sizes[0], rows)] for rows in _tiles(sizes[0], most))
        else:
            yield [(b, slice(0, b)) for b in sizes]


def _exact_ml(r: np.ndarray, low: np.ndarray, high: np.ndarray) -> int:
    """ml_decode's message for a finite received row r, given the code's
    sign tables."""
    scores = ((high * r) @ low.T).ravel()
    # gamma_(n+4) also covers the four roundings of the window and the gaps
    nu = (len(r) + 4) * 2.0 ** -53
    window = 2 * nu / (1 - nu) * fsum(np.abs(r))
    near = np.flatnonzero(scores[np.argmax(scores)] - scores <= window)
    best = int(near[0])
    best_symbols = _symbols(low, high, best)
    for m in near[1:].tolist():
        symbols = _symbols(low, high, m)
        differ = symbols != best_symbols
        if fsum(r[differ] * symbols[differ]) > 0:
            best, best_symbols = m, symbols
    return best


def ml_decode(code: PrCode, received) -> int:
    """Message whose codeword maximizes correlation with the received vector,
    in exact arithmetic; ties break toward the lowest message value.

    A float64 sum of n terms, in any order, is within gamma_n = n u / (1 - n u)
    (u = 2^-53) times their sum of magnitudes of the exact sum, so every
    score is within gamma_n * sum|r| of its exact value, and only messages
    scoring within twice that of the computed best can be the exact winner.
    Each of those, lowest first, is compared with the running winner by the
    sign of the `math.fsum` of r over the coordinates where the two codewords
    differ, which is exact.  So the result does not depend on the BLAS
    kernel or its summation order.  A vector with many equal top scores (the
    zero vector ties all 2^k) costs one O(n) comparison per tied message.
    A vector is refused unless fsum(|r|) <= 2^1022: then no score, and no
    difference of two scores, can overflow.
    """
    check_k("exhaustive decoding", code.k, DECODER_CAP)
    r = np.asarray(received, dtype=np.float64)
    if r.shape != (code.n,):
        raise ValueError(f"received vector must have length {code.n}")
    if not np.isfinite(r).all():
        raise ValueError("received vector must be finite")
    try:
        magnitude = fsum(np.abs(r))
    except OverflowError:
        magnitude = inf
    if magnitude > 2.0 ** 1022:
        raise ValueError("received vector's sum of magnitudes must be at most 2^1022")
    return _exact_ml(r, *_sign_tables(code))


def _noise_sigma(ebno_db: float, k: int, n: int) -> float:
    """Per-dimension noise std dev at unit symbol energy; a ValueError
    names the SNR point if it is not a positive finite float."""
    try:
        es_n0 = (k / n) * 10.0 ** (ebno_db / 10.0)
    except OverflowError:
        es_n0 = inf
    sigma = float(np.sqrt(1.0 / (2.0 * es_n0))) if es_n0 else inf
    if not 0 < sigma < inf:
        raise ValueError(f"Eb/N0 = {ebno_db} dB gives noise sigma {sigma} at k = {k}, n = {n}; "
                         "it must be a positive finite float")
    return sigma


def simulate_wer(cfg: SimConfig, *, zero_codeword_only: bool = False) -> list[SimResult]:
    """Measure WER at every configured SNR point.

    Each point draws uniform messages (or the zero message, for the
    linearity diagnostic), transmits over AWGN, ML-decodes, and counts
    message mismatches until target_word_errors or max_trials is hit.
    Where _piece_rows allows, the points run on one thread per CPU (at most
    one per point); each owns its generator and buffers.
    """
    code = cfg.code
    check_k("exhaustive decoding", code.k, DECODER_CAP)
    low, high = _sign_tables(code)
    size = 1 << code.k
    batch = max(1, _BATCH_BUDGET // size)
    if len(high) > 1:
        listing = _light_codewords(code)
        tables32 = (low.astype(np.float32), high.astype(np.float32))
    points = list(enumerate(cfg.ebno_db_points))
    cap = _piece_rows(code.k, code.n)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(points), cpus or 1) if cap else 1
    most = cap if workers > 1 else TILE
    rows = min(most, cfg.max_trials)

    def count(point: tuple[int, float]) -> tuple[int, int]:
        """(trials, word errors) of one point."""
        idx, ebno_db = point
        rng = np.random.default_rng(cfg.seed ^ idx)
        sigma = _noise_sigma(ebno_db, code.k, code.n)
        buf = np.empty((rows, code.n))
        ys = None if len(high) == 1 else np.empty((rows, code.n))
        trials = errors = wrong = 0
        for tile in _stacked_tiles(batch, cfg.max_trials, most):
            drawn, filled = [], 0
            for b, part in tile:
                if part.start == 0:
                    if zero_codeword_only:
                        msgs = np.zeros(b, dtype=np.int64)
                    else:
                        msgs = rng.integers(0, size, size=b)
                m = msgs[part]
                rx = buf[filled:filled + len(m)]
                rng.standard_normal(out=rx)
                rx *= sigma
                if ys is None:
                    rx += low[m]
                else:
                    # y = rx * s_m, with s_m written straight into its place
                    y = _symbols(low, high, m, ys[filled:filled + len(m)])
                    rx += y
                    y *= rx
                drawn.append((b, part, m))
                filled += len(m)
            if ys is None:
                decided = _decide(buf[:filled], low)
            else:
                sent = np.concatenate([m for _, _, m in drawn])
                decided = _decide_uncertified(buf[:filled], ys[:filled], sent, listing, low, high,
                                              tables32)
            filled = 0
            for b, part, m in drawn:
                wrong += int(np.count_nonzero(decided[filled:filled + len(m)] != m))
                filled += len(m)
                if part.stop == b:  # a batch boundary: apply the stopping rule
                    trials += b
                    errors += wrong
                    wrong = 0
                    if errors >= cfg.target_word_errors:
                        return trials, errors
        return trials, errors

    if workers > 1:
        # imported here: concurrent.futures takes about 9 ms to import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            counts = list(pool.map(count, points))
    else:
        counts = [count(point) for point in points]
    return [SimResult(ebno_db=ebno_db, trials=trials, word_errors=errors,
                      wer=errors / trials, seed=cfg.seed)
            for (_, ebno_db), (trials, errors) in zip(points, counts)]
