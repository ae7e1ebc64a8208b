"""Monte Carlo word-error-rate measurement over binary-input AWGN.

Codewords are BPSK-mapped (bit 0 -> +1, bit 1 -> -1) at unit symbol
energy; the decoder finds the message whose codeword correlates best
with the received vector.  No codebook is stored: the symbols of message
m are ``low[m & (2^t - 1)] * high[m >> t]``, two +-1 tables spanning the
low t = min(k, LOW_BITS) message bits and the other k - t.

simulate_wer chains three stages for each SNR point.  _draw yields
tiles of at most TILE rows: a batch larger than TILE is cut into
near-equal tiles, and consecutive batches of at most TILE / 2 trials
(k >= 12) are stacked, as many whole batches as fit in one tile.  The
decide stage, chosen once per call, is _decide at k <= LOW_BITS, one
product against low, the whole codebook, and _decide_uncertified above.
_tally applies the stopping rule to the tiles' error flags, one tile a
step, so a point is a generator that draws, decides and tallies a tile
each time it is stepped.  One runner, _run_pool, steps the points with
min(points, CPUs) workers where _piece_rows allows (every k <= 6 code at
n <= 32), and with one worker elsewhere.  The highest-SNR unfinished
point, which the stopping rule makes the longest, is always being
stepped.  One worker steps the points on the calling thread, one after
another, highest SNR first.  Several are threads that share the points
a tile at a time: the other threads step the other started points with
the fewest trials drawn, and at most workers + 1 points are in flight at
once.  Tiles there hold at most _piece_rows rows, each product under the
2^19 multiply-adds OpenBLAS computes on the calling thread, so the
points' normal draws, which release the GIL, run on every core.

With more than one high block (k > LOW_BITS), the decide stage first
tries to certify each row's sent message m as the exact ML message
against a list, made once per call, of every codeword lighter than a cap
(_certified, after Fossorier & Lin, IEEE T-IT 41(5), 1995, and Taipale
& Pursley, IEEE T-IT 37(1), 1991), each row against only the codewords
lighter than the weight its own sorted y proves: 88-96% of a tile
certify at 3 dB and 97-100% at 4.5 dB for k = 11-15, n = 2k + 9, and
80%, 98% and 100% at 3, 4.5 and 6 dB for k = 15, n = 64 (75-88%, 94-99%
and 35%, 78%, 98% with one weight for every row).  The other rows are
scored in float32 against float32 copies of the tables, and a row whose
float32 best beats its runner-up by more than every rounding could close
settles there as the exact ML message.  At 0-6 dB on k = 11-15 codes 0-2
rows in 4096 did not; each is decided by ml_decode's exact core, one row
at a time.  Decoder memory is, for each point in flight, the two (min(T,
max_trials), n) float64 buffers _draw allocates, T the most rows of a
tile (TILE, or _piece_rows on threads), for the received tile and, at
k > LOW_BITS, y, and a batch's messages; per tile, the certificate's
sorted copy of y and its scores of at most _CHUNK listed codewords, and
the float32 stage's (rows, 2^t) scores, cast rows and flips; and, per
call, the list's L * n bytes and L weights (L <= min(2^(k-2), 2^14))
and the float32 tables' (2^t + 2^(k-t)) * n * 4.  Making the list
takes 2^k int64 weights, one per message (8 MiB at k = 20), while it
runs.  No 2^k * n * 8 codebook is built, and n is refused past
DECODER_LENGTH_CAP, before any of it is allocated.

Reproducibility contract: point index i of a run uses the generator
`numpy.random.default_rng(seed ^ i)`, draws trials in fixed batches of
``max(1, 2^22 // 2^k)`` (messages first, then the noise block), and
stops at the first batch boundary where the error target is met.  The
noise of a batch is drawn tile by tile, which gives the same stream.  A
stacked tile is drawn whole before it is decided, and _tally discards
uncounted the batches drawn past the stop, which moves no counted trial
since each point owns its generator.  Points may run concurrently: each
owns its generator and buffers, and results are collected in point
order, so no point's stream or result depends on the others, on the
schedule or on the number of CPUs.  At k <= LOW_BITS decisions rely on
one GEMM fact: the float64 sum of one score does not depend on how many
rows the same call computes (a tile has at least the rows of its batch,
and tiles of a split batch keep at least half of T: TILE / 2 rows, or
on threads more than 1200 / 2^k, away from BLAS's separate thin-matrix
kernels); with that, a config reproduces its results bit-for-bit on any
machine, and ties go to the lowest message
(the tests replay the k <= LOW_BITS curves of the default fig4-pr and
fig5-pr targets and the simulate example, and every decision in them is
the exact ML message).
At k > LOW_BITS every decision is the exact-arithmetic ML message, ties
to the lowest, and relies on no BLAS property: a certified row's test
holds however the list's sums are computed, a float32-settled row's by
the bounds in _decide_float32, and the rest are decided exactly.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import fsum, inf
from typing import Generator, Iterable, Iterator

import numpy as np

from .bounds import es_n0
from .construct import PrCode, packed_rows, span_words
from .errors import DECODER_CAP, DECODER_LENGTH_CAP, check_k

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
# most listed codewords in one of _certified's products
_CHUNK = 512


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

    Row m of a table is 1 - 2 times the bits of column m of the rows'
    span_words block, the symbols of the XOR of the rows picked by the bits
    of m, so message m is sent as low[m & (2^t - 1)] * high[m >> t].
    Cached for per-vector ml_decode calls; a pair holds (2^t + 2^(k-t))
    rows, at most 2^11 at DECODER_CAP, and is read-only.  A code past
    DECODER_CAP or DECODER_LENGTH_CAP is refused here, before anything is
    built or cached.
    """
    check_k("exhaustive decoding", code.k, DECODER_CAP)
    check_k("exhaustive decoding", code.n, DECODER_LENGTH_CAP, name="n")
    packed = packed_rows(code.rows, code.n)

    def span(words: np.ndarray) -> np.ndarray:
        columns = np.ascontiguousarray(span_words(words).T).view(np.uint8)
        table = 1.0 - 2.0 * np.unpackbits(columns, axis=1, count=code.n, bitorder="little")
        table.flags.writeable = False
        return table

    return span(packed[:LOW_BITS]), span(packed[LOW_BITS:])


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


def _light_codewords(code: PrCode) -> tuple[int, np.ndarray, np.ndarray]:
    """(cap, light, weights): cap the largest weight with at most
    min(2^(k-2), 2^14) nonzero codewords lighter than it, light those
    codewords in ascending weight, one uint8 0/1 row each, and weights
    theirs.

    A row needs the list only below its own weight (_certified), so a
    long list costs only the rows that reach far into it.  Measured on the
    decide stage at k = 11-15, n = 32-64 and 3, 4.5 and 6 dB: 2^(k-1) and
    2^(k-2) codewords took the same time, within 5% summed over each
    degree's cases, but at k = 11, n = 64, 6 dB only 2^(k-2) kept level
    with a certificate of one weight for every row (2^(k-1) was 6%
    slower); 2^(k-4) was 10-50% slower at k = 11, 3 dB.  2^14 keeps the
    list under 1 MB at n = 64: at k = 20, 2^18 codewords took 16.8 MiB
    and raised the listing's traced peak from 19 to 29 MiB.

    Every message is weighed off the two span_words blocks that
    _sign_tables splits at LOW_BITS, one high coset at a time: message m's
    codeword is column m & (2^t - 1) of the low block XOR column m >> t of
    the high one, as in _symbols.  Only the light columns are unpacked
    into rows.  At k = 20 the listing takes 8 ms and a 9.1 MiB traced
    peak at n = 64, and 37 ms and 25 MiB at n = 1000 (2-vCPU VM).
    """
    budget = min(1 << (code.k - 2), 1 << 14)
    packed = packed_rows(code.rows, code.n)
    low, high = span_words(packed[:LOW_BITS]), span_words(packed[LOW_BITS:])
    weights = np.empty(1 << code.k, dtype=np.int64)
    for h, coset in enumerate(weights.reshape(high.shape[1], low.shape[1])):
        np.bitwise_count(low ^ high[:, h, None]).sum(axis=0, out=coset)
    # message 0 is the zero word, which the list leaves out
    cap = int(np.searchsorted(np.cumsum(np.bincount(weights[1:])), budget, side="right"))
    light = 1 + np.flatnonzero(weights[1:] < cap)
    light = light[np.argsort(weights[light], kind="stable")]
    columns = (low[:, light & (low.shape[1] - 1)] ^ high[:, light >> LOW_BITS]).T.copy()
    rows = np.unpackbits(columns.view(np.uint8), axis=1, count=code.n, bitorder="little")
    return cap, rows, weights[light]


def _certified(y: np.ndarray, cap: int, light: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mask of the rows of y = rx * s, s the symbols of the message m sent
    in that row, where m is the exact ML message and has the strictly
    largest computed score of every message, however the scores are
    summed.

    (cap, light, weights) is _light_codewords' list.  A codeword c != m
    differs from m's on the support D of a nonzero codeword, and S_m - S_c
    = 2 * sum_{i in D} y_i (y_i is rx_i with an exact sign flip).  Let p_j
    be the computed sum, left to right, of a row's j smallest y_i, and let
    the slack be 4 nu / (1 - nu) times the computed sum|rx|, nu = (n + 4)
    u, twice ml_decode's window: it exceeds 2 gamma_n * sum|rx| with its
    own rounding.  Rounding is monotone, so p_j falls while the terms are
    negative and rises afterwards, and the p_j above the slack (> 0) are
    those with j >= W_r, the row's own weight, 1 + the number of p_j at
    most the slack.  If |D| >= W_r, the sum over D is at least that of the
    |D| smallest y_i, whose computed value p_|D| is above the slack.  A
    lighter D is listed when W_r <= cap, and its sum is a column of light
    @ y.T.  So a row with W_r <= cap whose listed sums lighter than W_r
    are all above the slack has, for every c, a computed sum of at most n
    of the y_i above the slack, within gamma_n * sum|rx| of a lower bound
    on (S_m - S_c) / 2, which therefore exceeds gamma_n * sum|rx|.  Every
    computed score is within gamma_n * sum|rx| of its exact value, so the
    exact S_m beats every S_c, and the computed S_m every computed S_c.

    The listed codewords lighter than W_r are a prefix of the list, scored
    in the chunks of _chunks, each only on the rows that still need it and
    have not failed, so a row with W_r <= d_min, the lightest weight, needs
    no product.  A chunk's columns past a row's prefix are codewords too:
    they can only lower its minimum, so they never certify a row wrongly.
    """
    slack = 2 * _rounding_window(y.shape[1]) * np.abs(y).sum(axis=1)
    ordered = np.sort(y, axis=1)
    # W_r - 1 counts the p_j at most the slack; once every row's p_j is above
    # it, every row is past its least p_j, and no later p_j is at most it
    total, proven = np.zeros(len(y)), np.ones(len(y), dtype=np.int64)
    for column in ordered.T[:cap]:
        total += column
        under = total <= slack
        if not under.any():
            break
        proven += under
    certified = proven <= cap
    need = np.searchsorted(weights, proven)
    rows = np.flatnonzero(certified & (need > 0))
    for part in _chunks(len(light)):
        if not len(rows):
            break
        scores = light[part].astype(np.float64) @ y[rows].T
        certified[rows] = scores.min(axis=0) > slack[rows]
        rows = rows[certified[rows] & (need[rows] > part.stop)]
    return certified


def _rounding_window(n: int) -> float:
    """2 nu / (1 - nu), nu = (n + 4) 2^-53: ml_decode's window on its scores
    per unit of sum|r| over n coordinates.  gamma_(n+4) covers gamma_n and
    four roundings on top, and every factor of 2 applied to it is exact."""
    nu = (n + 4) * 2.0 ** -53
    return 2 * nu / (1 - nu)


def _chunks(size: int) -> Iterator[slice]:
    """Slices of _certified's list, in order: 64, 64, 128, 256, ...
    codewords, doubling up to _CHUNK, then _CHUNK each."""
    start = 0
    while start < size:
        stop = min(size, start + min(_CHUNK, max(start, 64)))
        yield slice(start, stop)
        start = stop


def _float32_slack(n: int) -> float:
    """B of _decide_float32 for rows of n coordinates: twice a float32
    score's error bound gamma_n(u) + u (u = 2^-24), plus _certified's
    slack 4 nu / (1 - nu) (nu = (n + 4) 2^-53, twice ml_decode's window)."""
    u = 2.0 ** -24
    return 2 * (n * u / (1 - n * u) + u) + 2 * _rounding_window(n)


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
                        listing: tuple[int, np.ndarray, np.ndarray], low: np.ndarray, high: np.ndarray,
                        tables32: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The exact ML message of each row of a tile rx whose rows carry the
    messages `sent`, given y = rx * symbols(sent), listing, the
    _light_codewords list, and tables32, float32 copies of (low, high):
    a row that _certified settles keeps its sent message, the others are
    scored in float32 by _decide_float32, and the rows that neither
    settles are decided one at a time by _exact_ml.  Returns a new array,
    leaving sent as it was.
    """
    decided = sent.copy()
    rows = np.flatnonzero(~_certified(y, *listing))
    if len(rows):
        settled, decided[rows] = _decide_float32(rx, rows, *tables32)
        for i in rows[~settled].tolist():
            decided[i] = _exact_ml(rx[i], low, high)
    return decided


def _tiles(b: int, most: int = TILE) -> Iterator[slice]:
    """Row slices of a batch of b trials: the whole batch if b <= most,
    else ceil(b / most) slices whose sizes differ by at most one, so each
    has at least most / 2 rows.  Thin products take other BLAS kernels whose
    sums can differ in the last bit (OpenBLAS 0.3.31 on an AVX-512 Xeon: one
    row, and rows * 2^t <= 1200 at n >= 32), so a batch is never cut into one."""
    m = -(-b // most)
    return (slice(b * i // m, b * (i + 1) // m) for i in range(m))


def _draw(rng: np.random.Generator, sigma: float, low: np.ndarray, high: np.ndarray,
          batch: int, max_trials: int, most: int, zero_codeword_only: bool) -> Iterator[tuple]:
    """The draw stage of a point: (start, rx, y, sent) per tile in draw
    order, start the tile's first trial, rx its received rows, y = rx *
    s_sent (None at k <= LOW_BITS) and sent its messages.  A tile is as
    many whole consecutive batches as fit in `most` rows, or a _tiles(b,
    most) slice of a batch of b > most; a batch's messages (uniform, or all
    zero) are drawn at its first row, then its noise part by part: the
    contract's stream.  rx and y are views of two (min(most, max_trials),
    n) buffers that the next tile overwrites."""
    size = len(low) * len(high)
    buf = np.empty((min(most, max_trials), low.shape[1]))
    ys = None if len(high) == 1 else np.empty_like(buf)
    span = max(1, most // batch) * batch
    for first in range(0, max_trials, span):
        for piece in _tiles(min(max_trials, first + span) - first, most):
            start, stop = first + piece.start, first + piece.stop
            sent = []
            for i in range(start, stop, batch):
                if i % batch == 0:
                    b = min(batch, max_trials - i)
                    msgs = np.zeros(b, np.int64) if zero_codeword_only else rng.integers(0, size, b)
                rows = slice(i - start, min(stop, i + batch) - start)
                sent.append(msgs[i % batch:i % batch + rows.stop - rows.start])
                rx = buf[rows]
                rng.standard_normal(out=rx)
                rx *= sigma
                # at k > LOW_BITS, y = rx * s_m, with s_m written straight into its place
                symbols = low[sent[-1]] if ys is None else _symbols(low, high, sent[-1], ys[rows])
                rx += symbols
                if ys is not None:
                    symbols *= rx
            yield (start, buf[:stop - start], None if ys is None else ys[:stop - start],
                   sent[0] if len(sent) == 1 else np.concatenate(sent))


def _tally(tiles: Iterable[tuple[int, np.ndarray]], batch: int, max_trials: int,
           target: int) -> Generator[int, None, tuple[int, int]]:
    """The tally stage of a point, one tile a step: reads (start, wrong) per
    tile in draw order, wrong[i] true if trial start + i was decided wrong,
    yields the trials drawn so far after each tile but the last, and returns
    (trials, word errors), stopping at the first batch boundary, a multiple
    of batch or max_trials, where the errors reach target; no later tile is
    read."""
    errors, end = 0, max_trials
    for start, wrong in tiles:
        count = int(np.count_nonzero(wrong))
        if errors < target <= errors + count:
            # the run ends with the batch of the row where the count reaches target
            row = start + int(np.searchsorted(np.cumsum(wrong), target - errors))
            end = min(max_trials, row - row % batch + batch)
            count = int(np.count_nonzero(wrong[:end - start]))
        errors += count
        if start + len(wrong) >= end:
            break
        yield start + len(wrong)
    return end, errors


def _run_pool(chains: list[Generator], order: list[int], workers: int) -> list[tuple[int, int]]:
    """The values the _tally generators `chains` return, in point order,
    stepped by `workers` workers, `order` the points by descending SNR.

    A step is one tile, and one worker at a time holds a point for a step.
    The first unfinished point in `order`, expected to run longest, goes
    to any worker that comes free while none holds it; the other workers
    step the free started point with the fewest trials drawn, or start the
    next point in `order` (none drawn) while at most `workers` points are
    started and unfinished, so at most workers + 1 hold buffers at once.
    One worker is the calling thread, which so steps each point to its end
    before it starts the next, in `order`; two or more are threads started
    here.  The first exception a step raises is raised here once every
    worker has ended.
    """
    cond = threading.Condition()
    counts, drawn = [None] * len(chains), [0] * len(chains)
    running, busy, failure = [], set(), []
    waiting = order[::-1]

    def take() -> int | None:
        """Under cond: the point to step next, or None once every point has
        finished or a step failed."""
        while not failure and (running or waiting):
            head = (running or waiting[-1:])[0]
            free = [i for i in running if i not in busy] + waiting[-1:] * (len(running) <= workers)
            point = min(free, key=lambda i: (i != head, drawn[i]), default=None)
            if point is None:
                cond.wait()
                continue
            if waiting and point == waiting[-1]:
                running.append(waiting.pop())
            busy.add(point)
            return point
        return None

    def work():
        try:
            with cond:
                point = take()
            while point is not None:
                try:
                    value, done = next(chains[point]), False
                except StopIteration as stop:
                    value, done = stop.value, True
                with cond:
                    busy.remove(point)
                    if done:
                        running.remove(point)
                        counts[point] = value
                    else:
                        drawn[point] = value
                    cond.notify_all()
                    point = take()
        except BaseException as exc:  # raised again by the calling thread
            with cond:
                failure.append(exc)
                cond.notify_all()

    threads = [threading.Thread(target=work) for _ in range(workers)] if workers > 1 else []
    for thread in threads:
        thread.start()
    if not threads:
        work()
    for thread in threads:
        thread.join()
    if failure:
        raise failure[0]
    return counts


def _exact_ml(r: np.ndarray, low: np.ndarray, high: np.ndarray) -> int:
    """ml_decode's message for a finite received row r, given the code's
    sign tables."""
    scores = ((high * r) @ low.T).ravel()
    window = _rounding_window(len(r)) * fsum(np.abs(r))
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
    difference of two scores, can overflow.  A code past DECODER_CAP or
    DECODER_LENGTH_CAP is refused before the vector is read.
    """
    low, high = _sign_tables(code)
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
    return _exact_ml(r, low, high)


def _noise_sigma(ebno_db: float, k: int, n: int) -> float:
    """Per-dimension noise std dev at unit symbol energy; bounds.es_n0
    refuses an SNR point that gives no positive finite one."""
    return float(np.sqrt(1.0 / (2.0 * es_n0(ebno_db, k, n))))


def simulate_wer(cfg: SimConfig, *, zero_codeword_only: bool = False) -> list[SimResult]:
    """Measure WER at every configured SNR point.

    Each point draws uniform messages (or the zero message, for the
    linearity diagnostic), transmits over AWGN, ML-decodes, and counts
    message mismatches until target_word_errors or max_trials is hit.
    _run_pool steps the points, highest SNR first: where _piece_rows
    allows, min(points, CPUs) threads share them a tile at a time, with at
    most one point more in flight than threads; elsewhere the calling
    thread steps them one after another.  Each point owns its generator and
    buffers, so no count depends on the schedule or the number of CPUs.
    """
    code = cfg.code
    low, high = _sign_tables(code)
    batch = max(1, _BATCH_BUDGET >> code.k)
    if len(high) == 1:
        decide = lambda rx, y, sent: _decide(rx, low)
    else:
        listing = _light_codewords(code)
        tables32 = (low.astype(np.float32), high.astype(np.float32))
        decide = lambda rx, y, sent: _decide_uncertified(
            rx, y, sent, listing, low, high, tables32)
    cap = _piece_rows(code.k, code.n)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    points = cfg.ebno_db_points
    workers = min(len(points), cpus or 1) if cap else 1
    most = cap if workers > 1 else TILE

    def chain(idx: int) -> Generator[int, None, tuple[int, int]]:
        """Point idx's tiles drawn, decided and tallied, one a step."""
        tiles = _draw(np.random.default_rng(cfg.seed ^ idx), _noise_sigma(points[idx], code.k, code.n),
                      low, high, batch, cfg.max_trials, most, zero_codeword_only)
        return _tally(((start, decide(rx, y, sent) != sent) for start, rx, y, sent in tiles),
                      batch, cfg.max_trials, cfg.target_word_errors)

    chains = [chain(idx) for idx in range(len(points))]
    counts = _run_pool(chains, sorted(range(len(points)), key=points.__getitem__, reverse=True), workers)
    return [SimResult(ebno_db=ebno_db, trials=trials, word_errors=errors,
                      wer=errors / trials, seed=cfg.seed)
            for ebno_db, (trials, errors) in zip(points, counts)]
