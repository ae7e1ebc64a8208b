"""Monte Carlo word-error-rate measurement over binary-input AWGN.

Codewords are BPSK-mapped (bit 0 -> +1, bit 1 -> -1) at unit symbol
energy; the decoder exhaustively correlates the received vector against
every codeword, so the message cap keeps the 2^k codebook in memory.

Reproducibility contract: point index i of a run uses the generator
`numpy.random.default_rng(seed ^ i)`, draws trials in fixed batches of
``max(1, 2^22 // 2^k)`` (messages first, then the noise block), and
stops at the first batch boundary where the error target is met, so a
config reproduces its results bit-for-bit on any machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite

import numpy as np

from .construct import PrCode, int_to_bits
from .errors import UnsupportedRangeError

# exhaustive correlation decoding materializes a 2^k x n codebook
DECODER_CAP = 20

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
def _codebook_signs(code: PrCode) -> np.ndarray:
    """(2^k, n) matrix of BPSK symbols for every codeword."""
    k, n = code.k, code.n
    signs = np.empty((1 << k, n), dtype=np.float64)
    for m in range(1 << k):
        bits = np.array(int_to_bits(code.encode(m), n), dtype=np.float64)
        signs[m] = 1.0 - 2.0 * bits
    return signs


def ml_decode(code: PrCode, received) -> int:
    """Message whose codeword maximizes correlation with the received vector.

    Ties break toward the lowest message value.
    """
    if code.k > DECODER_CAP:
        raise UnsupportedRangeError(
            f"exhaustive decoding supports k <= {DECODER_CAP}, got {code.k}"
        )
    r = np.asarray(received, dtype=np.float64)
    if r.shape != (code.n,):
        raise ValueError(f"received vector must have length {code.n}")
    scores = _codebook_signs(code) @ r
    return int(np.argmax(scores))


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
    if code.k > DECODER_CAP:
        raise UnsupportedRangeError(
            f"exhaustive decoding supports k <= {DECODER_CAP}, got {code.k}"
        )
    signs = _codebook_signs(code)
    size = 1 << code.k
    batch = max(1, _BATCH_BUDGET // size)
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
            rx = signs[msgs] + sigma * rng.standard_normal((b, code.n))
            decisions = np.argmax(rx @ signs.T, axis=1)
            errors += int(np.count_nonzero(decisions != msgs))
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
