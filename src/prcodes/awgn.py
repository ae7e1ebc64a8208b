"""Monte Carlo word-error-rate measurement over binary-input AWGN.

Codewords are BPSK-mapped (bit 0 -> +1, bit 1 -> -1) at unit symbol
energy; the decoder exhaustively correlates the received vector against
every codeword.  No codebook is stored: the symbols of message m are
``low[m & (2^t - 1)] * high[m >> t]``, two +-1 tables spanning the low
t = min(k, LOW_BITS) message bits and the other k - t, so the scores of
messages h*2^t .. (h+1)*2^t - 1 are ``(rx * high[h]) @ low.T`` and the
argmax is merged block by block.  A batch is decoded in tiles of at most
TILE trials through one reused buffer, so decoder memory is about
TILE * (n + 2^t) * 8 bytes plus the batch's b message integers, not
b * 2^t * 8 or 2^k * n * 8.

Reproducibility contract: point index i of a run uses the generator
`numpy.random.default_rng(seed ^ i)`, draws trials in fixed batches of
``max(1, 2^22 // 2^k)`` (messages first, then the noise block), and
stops at the first batch boundary where the error target is met.  The
noise of a batch is drawn tile by tile, which gives the same stream.
Decisions rely on the float64 GEMM sum of one score not depending on
how many columns the same call computes, nor on how many rows it
computes (tiles of a split batch keep at least TILE / 2 rows, away from
BLAS's separate thin-matrix kernels), and on flipping signs by +-1
being exact; with that, a config reproduces its results bit-for-bit on
any machine, and ties go to the lowest message.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from typing import Iterator

import numpy as np

from .construct import PrCode
from .errors import DECODER_CAP, check_k

# message bits spanned by the low table: scores are computed 2^LOW_BITS columns
# at a time (2^10-2^12 columns time within ~15% of each other at k = 13-15), and
# k <= LOW_BITS decodes in one block
LOW_BITS = 10
# trials decoded at a time: a batch streams through one (TILE, n) buffer, and
# 2^22 / 2^11 = TILE leaves every batch at k >= 11 one tile; 1024-2048 rows
# cost 1.3-1.5x less per trial than whole batches of 2^16-2^19 at k = 3-6
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
        if not all(isfinite(x) for x in self.ebno_db_points):
            raise ValueError("ebno_db_points must be finite")


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


def _score_blocks(rx: np.ndarray, low: np.ndarray,
                  high: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(offset, scores) per high block: scores[i, j] is the correlation
    of rx[i] with the codeword of message offset + j."""
    yield 0, rx @ low.T
    for h in range(1, len(high)):
        yield h * len(low), (rx * high[h]) @ low.T


def _decide(rx: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """ML message for each row of rx; ties break toward the lowest message."""
    blocks = _score_blocks(rx, low, high)
    _, scores = next(blocks)
    arg = np.argmax(scores, axis=1)
    if len(high) == 1:
        return arg
    best = np.take_along_axis(scores, arg[:, None], axis=1)[:, 0]
    for offset, scores in blocks:
        block_arg = np.argmax(scores, axis=1)
        block_best = np.take_along_axis(scores, block_arg[:, None], axis=1)[:, 0]
        better = block_best > best
        arg[better] = block_arg[better] + offset
        best[better] = block_best[better]
    return arg


def _tiles(b: int) -> Iterator[slice]:
    """Row slices of a batch of b trials: the whole batch if b <= TILE,
    else ceil(b / TILE) slices whose sizes differ by at most one, so each
    has at least TILE / 2 rows.  Thin products take other BLAS kernels whose
    sums can differ in the last bit (OpenBLAS 0.3.31 on an AVX-512 Xeon: one
    row, and rows * 2^t <= 1200 at n >= 32), so a batch is never cut into one."""
    m = -(-b // TILE)
    return (slice(b * i // m, b * (i + 1) // m) for i in range(m))


def ml_decode(code: PrCode, received) -> int:
    """Message whose codeword maximizes correlation with the received vector.

    Ties break toward the lowest message value.  The vector is scored as a
    1-row product, which BLAS sends to another kernel than simulate_wer's
    tiles, so a vector whose top scores tie to the last bit may decode to
    another message here than it would inside simulate_wer.
    """
    check_k("exhaustive decoding", code.k, DECODER_CAP)
    r = np.asarray(received, dtype=np.float64)
    if r.shape != (code.n,):
        raise ValueError(f"received vector must have length {code.n}")
    return int(_decide(r[None, :], *_sign_tables(code))[0])


def _noise_sigma(ebno_db: float, k: int, n: int) -> float:
    """Per-dimension noise std dev at unit symbol energy."""
    es_n0 = (k / n) * 10.0 ** (ebno_db / 10.0)
    return float(np.sqrt(1.0 / (2.0 * es_n0)))


def simulate_wer(cfg: SimConfig, *, zero_codeword_only: bool = False) -> list[SimResult]:
    """Measure WER at every configured SNR point.

    Each point draws uniform messages (or the zero message, for the
    linearity diagnostic), transmits over AWGN, ML-decodes, and counts
    message mismatches until target_word_errors or max_trials is hit.
    """
    code = cfg.code
    check_k("exhaustive decoding", code.k, DECODER_CAP)
    low, high = _sign_tables(code)
    t = len(low).bit_length() - 1
    size = 1 << code.k
    batch = max(1, _BATCH_BUDGET // size)
    buf = np.empty((min(batch, TILE, cfg.max_trials), code.n))
    results = []
    for idx, ebno_db in enumerate(cfg.ebno_db_points):
        rng = np.random.default_rng(cfg.seed ^ idx)
        sigma = _noise_sigma(ebno_db, code.k, code.n)
        trials = 0
        errors = 0
        while trials < cfg.max_trials and errors < cfg.target_word_errors:
            b = min(batch, cfg.max_trials - trials)
            if zero_codeword_only:
                msgs = np.zeros(b, dtype=np.int64)
            else:
                msgs = rng.integers(0, size, size=b)
            for rows in _tiles(b):
                m = msgs[rows]
                rx = buf[:len(m)]
                rng.standard_normal(out=rx)
                rx *= sigma
                if len(high) == 1:
                    rx += low[m]
                else:
                    rx += low[m & (len(low) - 1)] * high[m >> t]
                errors += int(np.count_nonzero(_decide(rx, low, high) != m))
            trials += b
        results.append(
            SimResult(
                ebno_db=ebno_db,
                trials=trials,
                word_errors=errors,
                wer=errors / trials,
                seed=cfg.seed,
            )
        )
    return results
