"""ML decoding and Monte Carlo WER measurement."""

import copy
import json
import math
import os
import random
import sys
import threading
import warnings
from fractions import Fraction
from itertools import combinations

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from util import (
    ref_batches,
    ref_codebook_signs,
    ref_fixed_w_certified,
    ref_int_to_bits,
    ref_wer_counts,
)

from prcodes import awgn
from prcodes.awgn import (
    DECODER_CAP,
    LOW_BITS,
    TILE,
    SimConfig,
    SimResult,
    _certified,
    _chunks,
    _decide,
    _decide_float32,
    _decide_uncertified,
    _draw,
    _exact_ml,
    _float32_slack,
    _light_codewords,
    _noise_sigma,
    _piece_rows,
    _sign_tables,
    _symbols,
    _tally,
    _tiles,
    ml_decode,
    simulate_wer,
)
from prcodes.cli import run
from prcodes.construct import PrCode, build_code
from prcodes.errors import DECODER_LENGTH_CAP, UnsupportedRangeError
from prcodes.gf2 import BitPoly, first_primitive, packed_sequence
from prcodes.weights import weight_enumerator_exact

P4 = BitPoly.parse("1+x+x^4")


def bpsk(word, n):
    return np.array([1.0 - 2.0 * b for b in ref_int_to_bits(word, n)])


@pytest.fixture(scope="module")
def code20():
    return build_code(P4, 20)


# ---------------------------------------------------------------------------
# decoder

def test_decode_noiseless_roundtrip(code20):
    for m in range(16):
        assert ml_decode(code20, bpsk(code20.encode(m), 20)) == m


def test_decode_all_plus_one_is_zero(code20):
    assert ml_decode(code20, np.ones(20)) == 0


def test_decode_tie_breaks_to_lowest_message(code20):
    # the zero vector correlates equally with every codeword
    assert ml_decode(code20, np.zeros(20)) == 0


def test_decode_corrects_two_flips(code20):
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randrange(16)
        word = code20.encode(m)
        i, j = rng.sample(range(20), 2)
        rx = bpsk(word ^ (1 << i) ^ (1 << j), 20)
        assert ml_decode(code20, rx) == m


def test_decode_corrects_up_to_four_flips(code20):
    # minimum distance 9 corrects any pattern of weight <= 4
    rng = random.Random(17)
    msgs = [rng.randrange(16) for _ in range(10)]
    for m in msgs:
        word = code20.encode(m)
        for w in (1, 2, 3, 4):
            for pos in combinations(range(20), w):
                flip = 0
                for i in pos:
                    flip |= 1 << i
                assert ml_decode(code20, bpsk(word ^ flip, 20)) == m


def test_decode_validation(code20):
    with pytest.raises(ValueError):
        ml_decode(code20, np.ones(19))
    fake = PrCode(poly=P4, k=21, n=21, rows=tuple(1 << i for i in range(21)))
    long = build_code(P4, DECODER_LENGTH_CAP + 1)
    for code, match in [(fake, None), (long, f"n <= {DECODER_LENGTH_CAP}")]:
        # the code's size is refused before the vector's length or values are read
        nan = np.ones(code.n)
        nan[0] = np.nan
        for received in (np.ones(code.n), np.ones(code.n - 1), nan):
            with pytest.raises(UnsupportedRangeError, match=match):
                ml_decode(code, received)


def tables32(code):
    low, high = _sign_tables(code)
    return low.astype(np.float32), high.astype(np.float32)


def decide_high_k(code, rx, sent):
    """_decide_uncertified's messages for the rows of rx, sent as `sent`."""
    low, high = _sign_tables(code)
    return _decide_uncertified(rx, rx * _symbols(low, high, sent), sent,
                               _light_codewords(code), low, high, tables32(code))


def ref_decide(code, rx):
    """Float64 argmax of rx against the brute-force codebook, 64 rows at a time."""
    ref = ref_codebook_signs(code)
    return np.concatenate([np.argmax(part @ ref.T, axis=1)
                           for part in np.split(rx, range(64, len(rx), 64))])


@pytest.mark.parametrize("k", [2, 5, 9, 10, 11, 12, 14])
def test_decide_matches_reference_codebook(k):
    # n > 2^k - 1 repeats coordinates; b = 1 is the ml_decode shape.  Above
    # LOW_BITS the rows are pure noise, so few certify, and the float32 and
    # exact tiers decide the rest
    rng = np.random.default_rng(k)
    for n in sorted({k, 2 * k, 33, 64, 100, 130}):
        code = build_code(first_primitive(k), n)
        low, high = _sign_tables(code)
        assert np.array_equal(_symbols(low, high, np.arange(1 << k)), ref_codebook_signs(code))
        for b in (1, 2, 3, 5, 17, 128, 1000):
            rx = rng.standard_normal((b, n))
            if k <= LOW_BITS:
                decided = _decide(rx, low)
            else:
                decided = decide_high_k(code, rx, rng.integers(0, 1 << k, size=b))
            assert np.array_equal(decided, ref_decide(code, rx)), (n, b)


@pytest.mark.parametrize("k", [3, 10, 11, 15])
def test_sign_tables_are_codebook_rows(k):
    # low holds messages 0..2^t - 1 and high the messages h 2^t, across
    # one, two and three 64-bit planes of the packed rows
    for n in (63, 64, 65, 129):
        code = build_code(first_primitive(k), n)
        low, high = _sign_tables(code)
        ref = ref_codebook_signs(code)
        assert np.array_equal(low, ref[:len(low)]), n
        assert np.array_equal(high, ref[::len(low)]), n
        assert not low.flags.writeable and not high.flags.writeable


def lone_tie(ref, lo_block, same_block=False):
    """(lo, hi, rx): two messages whose codewords' midpoint rx ties them
    alone at the top score; hi is in a later block of 2^LOW_BITS than lo
    if the code has one, or in lo's block if same_block."""
    lo = (lo_block << LOW_BITS) + 5
    end = (lo_block + 1) << LOW_BITS
    if same_block or len(ref) <= 1 << LOW_BITS:
        his = range(lo + 1, min(end, len(ref)))
    else:
        his = range(end, len(ref))
    for hi in his:
        rx = (ref[lo] + ref[hi]) / 2
        scores = ref @ rx
        if set(np.flatnonzero(scores == scores.max())) == {lo, hi}:
            return lo, hi, rx
    pytest.fail("no pair of codewords ties alone")


@pytest.mark.parametrize("k, lo_block", [(11, 0), (12, 1)])
def test_tie_across_high_blocks_breaks_to_lowest_message(k, lo_block):
    code = build_code(first_primitive(k), 2 * k + 1)
    ref = ref_codebook_signs(code)
    lo, hi, rx = lone_tie(ref, lo_block)
    assert ml_decode(code, rx) == lo
    sent = np.array([hi, lo, hi])
    assert list(decide_high_k(code, np.stack([rx, -rx, rx]), sent)) == [
        lo, int(np.argmax(ref @ -rx)), lo]


@pytest.mark.parametrize("k, lo_block", [(4, 0), (11, 0), (12, 1)])
@pytest.mark.parametrize("sign", [1, -1])
def test_near_tie_decodes_to_exact_winner(k, lo_block, sign):
    # nudging the lone tie by 2^-60 on one coordinate where the two codewords
    # differ moves their exact scores 2^-59 apart; every float64 sum of the
    # +-1 and 0 terms loses the nudge, so the computed scores still tie
    code = build_code(first_primitive(k), 2 * k + 1)
    ref = ref_codebook_signs(code)
    lo, hi, rx = lone_tie(ref, lo_block)
    j = int(np.flatnonzero(ref[lo] != ref[hi])[0])
    rx[j] += sign * 2.0 ** -60 * ref[hi][j]
    exact = [sum(Fraction(x) * int(s) for x, s in zip(rx, row)) for row in ref]
    winner = max(range(len(ref)), key=lambda m: (exact[m], -m))
    assert winner == (hi if sign > 0 else lo)
    computed = ref @ rx
    assert computed[lo] == computed[hi] and np.argmax(computed) == lo
    assert ml_decode(code, rx) == winner


def test_decode_rejects_non_finite(code20):
    for bad in (math.nan, math.inf):
        rx = np.ones(20)
        rx[3] = bad
        with pytest.raises(ValueError):
            ml_decode(code20, rx)


def test_decode_refuses_overflowing_magnitude(code20):
    # sum|r| above 2^1022 could overflow a score or a difference of two
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sum of magnitudes"):
            ml_decode(code20, np.full(20, 1e308))
        edge = np.zeros(20)
        edge[:2] = 2.0 ** 1021
        assert ml_decode(code20, edge) == ml_decode(code20, np.sign(edge))
        edge[2] = -2.0 ** 970  # one unit in the last place of 2^1022
        with pytest.raises(ValueError, match="sum of magnitudes"):
            ml_decode(code20, edge)


def test_decode_at_cap_needs_no_codebook():
    # a (2^20, 64) float64 codebook alone would take 512 MB
    code = build_code(BitPoly.parse("1+x^3+x^20"), 64)
    assert code.k == DECODER_CAP
    cfg = SimConfig(code=code, ebno_db_points=(4.0,), max_trials=16, seed=3)
    tracemalloc.start()
    try:
        (res,) = simulate_wer(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.trials == 16
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# simulation

def test_config_validation(code20):
    with pytest.raises(ValueError):
        SimConfig(code=code20, ebno_db_points=(3.0,), max_trials=0)
    with pytest.raises(ValueError):
        SimConfig(code=code20, ebno_db_points=(3.0,), target_word_errors=0)
    with pytest.raises(ValueError):
        SimConfig(code=code20, ebno_db_points=(3.0,), seed=-1)
    with pytest.raises(ValueError):
        SimConfig(code=code20, ebno_db_points=(3.0,), seed=1 << 64)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -3100.0, -3240.0, 3090.0])
def test_config_rejects_non_finite_snr(code20, bad):
    # -3100 dB gives sigma = inf, -3240 dB Es/N0 = 0 and 3090 dB an overflow
    with pytest.raises(ValueError, match=f"Eb/N0 = {bad} dB"):
        SimConfig(code=code20, ebno_db_points=(3.0, bad))


def test_simulate_noiseless_limit(code20):
    cfg = SimConfig(code=code20, ebno_db_points=(200.0,), max_trials=5000,
                    target_word_errors=1, seed=42)
    (res,) = simulate_wer(cfg)
    assert res.word_errors == 0
    assert res.wer == 0.0
    assert res.trials == 5000


def test_simulate_deterministic(code20):
    cfg = SimConfig(code=code20, ebno_db_points=(2.0, 4.0), max_trials=30000,
                    target_word_errors=150, seed=777)
    first = simulate_wer(cfg)
    second = simulate_wer(cfg)
    assert first == second
    other = simulate_wer(
        SimConfig(code=code20, ebno_db_points=(2.0, 4.0), max_trials=30000,
                  target_word_errors=150, seed=778)
    )
    assert other != first


def test_simulate_result_bookkeeping(code20):
    cfg = SimConfig(code=code20, ebno_db_points=(3.0,), max_trials=20000,
                    target_word_errors=50, seed=5)
    (res,) = simulate_wer(cfg)
    assert isinstance(res, SimResult)
    assert res.seed == 5
    assert res.ebno_db == 3.0
    assert res.wer == res.word_errors / res.trials
    assert 0.0 <= res.wer <= 1.0
    assert res.word_errors >= 50 or res.trials == 20000


def test_wer_monotone_in_snr(code20):
    cfg = SimConfig(code=code20, ebno_db_points=(1.0, 2.0, 3.0, 4.0, 5.0),
                    max_trials=400_000, target_word_errors=500, seed=9)
    results = simulate_wer(cfg)
    for a, b in zip(results, results[1:]):
        half_a = 3 * math.sqrt(max(a.wer * (1 - a.wer), 1e-12) / a.trials)
        half_b = 3 * math.sqrt(max(b.wer * (1 - b.wer), 1e-12) / b.trials)
        assert b.wer <= a.wer + half_a + half_b


def test_zero_codeword_conditioning_matches_uniform(code20):
    # by linearity the conditional and unconditional error rates agree
    points = (2.0, 3.0, 4.0)
    cfg = SimConfig(code=code20, ebno_db_points=points, max_trials=300_000,
                    target_word_errors=600, seed=2024)
    uncond = simulate_wer(cfg)
    cond = simulate_wer(cfg, zero_codeword_only=True)
    for u, c in zip(uncond, cond):
        se = math.sqrt(
            u.wer * (1 - u.wer) / u.trials + c.wer * (1 - c.wer) / c.trials
        )
        assert abs(u.wer - c.wer) <= 3.5 * se, f"at {u.ebno_db} dB"


@pytest.mark.parametrize("k", [11, 12])
@pytest.mark.parametrize("max_trials, target, zero_only", [
    (2 * 2048 + 300, 10**6, False),  # a short last batch
    (50_000, 3, False),  # stops at the first batch boundary past the target
    (3000, 10**6, True),
])
def test_simulate_matches_reference_loop(k, max_trials, target, zero_only):
    code = build_code(first_primitive(k), 2 * k + 9)
    points = (0.0, 2.5)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=max_trials,
                    target_word_errors=target, seed=k * 1000 + 7)
    got = [(r.trials, r.word_errors)
           for r in simulate_wer(cfg, zero_codeword_only=zero_only)]
    assert got == ref_wer_counts(code, points, max_trials, target, cfg.seed, zero_only)
    assert any(errors for _, errors in got)


@pytest.mark.parametrize("k", [3, 4, 6, 9, 10])
@pytest.mark.parametrize("extra, target, zero_only", [
    (3 * TILE + 300, 10**6, False),  # a short last batch, cut into uneven tiles
    (TILE + 1, 10**6, False),  # a last batch one row past a tile
    (3 * TILE + 300, 3, False),  # stops at the first batch boundary past the target
    (3 * TILE + 300, 10**6, True),
])
def test_tiled_simulate_matches_reference_loop(k, extra, target, zero_only):
    # a batch spans many tiles; the reference decodes it with one product
    code = build_code(first_primitive(k), 2 * k + 9)
    batch = (1 << 22) >> k
    assert batch > TILE
    points = (1.0,)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=batch + extra,
                    target_word_errors=target, seed=k * 1000 + 11)
    got = [(r.trials, r.word_errors)
           for r in simulate_wer(cfg, zero_codeword_only=zero_only)]
    assert got == ref_wer_counts(code, points, cfg.max_trials, target, cfg.seed, zero_only)
    assert got[0][1]
    if target == 3:
        assert got[0][0] == batch


@pytest.mark.parametrize("k", [12, 13, 15])
@pytest.mark.parametrize("case", ["ragged", "below-a-batch", "stop-first-of-tile",
                                  "stop-inside-tile", "zero-codeword", "tile-batch-1"])
def test_stacked_simulate_matches_reference_loop(k, case):
    # TILE // batch whole batches share a tile; the reference decodes each alone
    code = build_code(first_primitive(k), 2 * k + 9)
    batch = (1 << 22) >> k
    stack = TILE // batch
    assert stack > 1
    seed = k * 1000 + 13
    max_trials, target, stop = {
        "ragged": (TILE + 3 * batch + 77, 10**6, None),
        "below-a-batch": (batch // 2 + 3, 10**6, None),
        "stop-first-of-tile": (3 * TILE, None, stack),
        "stop-inside-tile": (3 * TILE, None, stack + stack // 2),
        "zero-codeword": (TILE + 3 * batch + 77, 10**6, None),
        "tile-batch-1": (TILE + batch + 1, 10**6, None),
    }[case]
    points = (0.0,) if stop else (0.0, 2.5)
    if stop:
        # one error past the first `stop` batches stops at the end of batch `stop`
        (_, before), = ref_wer_counts(code, points, stop * batch, 10**6, seed)
        target = before + 1
    zero_only = case == "zero-codeword"
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=max_trials,
                    target_word_errors=target, seed=seed)
    got = [(r.trials, r.word_errors)
           for r in simulate_wer(cfg, zero_codeword_only=zero_only)]
    assert got == ref_wer_counts(code, points, max_trials, target, seed, zero_only)
    assert all(errors for _, errors in got)
    if stop:
        assert got[0][0] == (stop + 1) * batch


def draw_tiles(code, ebno_db, max_trials, most, seed, zero_only):
    """Copies of (start, rx, y, sent) of each tile the draw stage yields
    for one point."""
    low, high = _sign_tables(code)
    batch = max(1, (1 << 22) >> code.k)
    tiles = _draw(np.random.default_rng(seed), _noise_sigma(ebno_db, code.k, code.n), low, high,
                  batch, max_trials, most, zero_only)
    return [(start, rx.copy(), None if y is None else y.copy(), sent.copy())
            for start, rx, y, sent in tiles]


@pytest.mark.parametrize("k, n, most", [(4, 20, TILE), (4, 20, _piece_rows(4, 20)),
                                        (11, 31, TILE), (13, 35, TILE)],
                         ids=["4-split", "4-split-pooled", "11-one-tile", "13-stacked"])
@pytest.mark.parametrize("zero_only", [False, True])
def test_draw_stage_yields_the_contract_stream(k, n, most, zero_only):
    # the tiles' rows, in order, are each whole batch drawn as messages then
    # one (b, n) noise block; the last batch is ragged
    code = build_code(first_primitive(k), n)
    batch = (1 << 22) >> k
    max_trials = {4: batch + TILE + 300, 11: 2 * batch + 300, 13: 3 * TILE + batch + 77}[k]
    tiles = draw_tiles(code, 1.0, max_trials, most, k * 100 + n, zero_only)
    sizes = [len(rx) for _, rx, *_ in tiles]
    assert [start for start, *_ in tiles] == np.cumsum([0] + sizes[:-1]).tolist()
    assert sum(sizes) == max_trials and max(sizes) <= most
    if k == 4:
        # a batch is cut into near-equal tiles of at most `most` rows
        assert sizes == [s.stop - s.start for b in (batch, TILE + 300) for s in _tiles(b, most)]
    else:
        # a tile is one batch at k = 11, or TILE / batch whole batches at k = 13
        assert sizes[:-1] == [max(batch, TILE)] * (len(tiles) - 1)
    rx = np.concatenate([rx for _, rx, *_ in tiles])
    sent = np.concatenate([sent for *_, sent in tiles])
    ref = list(ref_batches(code, 1.0, max_trials, k * 100 + n, zero_only))
    assert len(ref[-1][0]) < batch
    assert np.array_equal(sent, np.concatenate([msgs for msgs, _ in ref]))
    assert np.array_equal(rx, np.concatenate([r for _, r in ref]))
    assert zero_only == (not sent.any())
    low, high = _sign_tables(code)
    for _, rx, y, sent in tiles:
        # y = rx * s_sent where the decide stage certifies rows, and None below
        assert (y is None) == (k <= LOW_BITS)
        assert y is None or np.array_equal(y, rx * _symbols(low, high, sent))


def drain(steps):
    """(yielded, returned): what a generator yields, in order, and what it
    returns."""
    yielded = []
    while True:
        try:
            yielded.append(next(steps))
        except StopIteration as stop:
            return yielded, stop.value


def contract_tally(wrong, batch, target):
    """(trials, errors) by the stopping rule over the error flags of a
    point's trials, one batch at a time."""
    errors = 0
    for first in range(0, len(wrong), batch):
        errors += int(np.count_nonzero(wrong[first:first + batch]))
        if errors >= target:
            return min(first + batch, len(wrong)), errors
    return len(wrong), errors


@pytest.mark.parametrize("batch, rows", [(1000, 300), (1000, 1000), (100, 400), (100, 250)],
                         ids=["split", "one-batch", "stacked", "stacked-uneven"])
def test_tally_stage_stops_at_the_first_batch_boundary(batch, rows):
    # synthetic flags; tiles cut each batch into pieces of at most `rows`, or
    # hold rows // batch whole batches, and the last batch is ragged
    max_trials = 7 * batch + 37
    wrong = np.random.default_rng(batch + rows).random(max_trials) < 0.01
    span = max(1, rows // batch) * batch
    bounds = [first + s.start for first in range(0, max_trials, span)
              for s in _tiles(min(span, max_trials - first), rows)] + [max_trials]
    tiles = [(lo, wrong[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    total = int(np.count_nonzero(wrong))
    mid_tile = 0
    for target in range(1, total + 2):
        read = []
        steps, got = drain(_tally((read.append(lo) or (lo, w) for lo, w in tiles),
                                  batch, max_trials, target))
        assert got == contract_tally(wrong, batch, target), target
        # no tile past the one holding the stop is read
        assert read == [lo for lo, _ in tiles if lo < got[0]], target
        # one tile a step, each step but the last yielding the trials drawn so far
        assert steps == bounds[1:len(read)], target
        mid_tile += got[0] not in bounds
    # every target past the last error runs to max_trials, a ragged batch's end
    assert drain(_tally(iter(tiles), batch, max_trials, total + 1))[1] == (max_trials, total)
    # stacked tiles stop inside a tile, split batches only at a tile's end
    assert (mid_tile > 0) == (rows > batch)


@pytest.mark.parametrize("k", [11, 13])
def test_decide_uncertified_leaves_sent_intact(k):
    code = build_code(first_primitive(k), 2 * k + 9)
    low, high = _sign_tables(code)
    rng = np.random.default_rng(k)
    sent = rng.integers(0, 1 << k, size=256)
    rx = _symbols(low, high, sent) + 1.5 * rng.standard_normal((256, code.n))
    kept = sent.copy()
    decided = _decide_uncertified(rx, rx * _symbols(low, high, sent), sent, _light_codewords(code),
                                  low, high, tables32(code))
    assert np.array_equal(sent, kept)
    assert (decided != sent).any()
    assert np.array_equal(decided, ref_decide(code, rx))


def window_rows(rx, low):
    """Rows of rx whose float64 top-two gap against low is within 4 nu /
    (1 - nu) sum|r|, nu = (n + 4) 2^-53, twice ml_decode's window; outside
    it every score is within half the gap of its exact value, so the
    float64 winner is the exact one."""
    nu = (rx.shape[1] + 4) * 2.0 ** -53
    top = np.partition(rx @ low.T, -2, axis=1)[:, -2:]
    return np.flatnonzero(top[:, 1] - top[:, 0] <= 4 * nu / (1 - nu) * np.abs(rx).sum(axis=1))


def replay_exactly(code, points, max_trials, target, seed, most):
    """(counts, flagged): simulate_wer's (trials, word errors) per point,
    replayed through the draw, decide and tally stages with tiles of at
    most `most` rows, asserting that each _decide result is the exact ML
    message: _exact_ml's for the `flagged` rows in window_rows, and proven
    by the gap for the rest."""
    low, high = _sign_tables(code)
    assert len(high) == 1
    batch = (1 << 22) >> code.k
    flagged = 0

    def decide(rx):
        nonlocal flagged
        decided = _decide(rx, low)
        near = window_rows(rx, low)
        flagged += len(near)
        assert [_exact_ml(rx[i], low, high) for i in near] == decided[near].tolist()
        return decided

    counts = []
    for idx, ebno_db in enumerate(points):
        tiles = _draw(np.random.default_rng(seed ^ idx), _noise_sigma(ebno_db, code.k, code.n),
                      low, high, batch, max_trials, most, False)
        counts.append(drain(_tally(((start, decide(rx) != sent) for start, rx, _, sent in tiles),
                                   batch, max_trials, target))[1])
    return counts, flagged


@pytest.mark.parametrize("most", [TILE, _piece_rows(4, 20)], ids=["tile", "pooled"])
def test_replay_simulate_artifact_decides_exactly(tmp_path, most):
    # the `simulate` artifact case: its CSV's counts are exact ML decisions
    assert run(["simulate", "--poly", "0x13", "--n", "20", "--ebno-list", "2,3", "--seed", "11",
                "--max-trials", "20000", "--target-errors", "50", "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "wer_0x13_n20_seed11.csv") as f:
        artifact = [(int(row[1]), int(row[2])) for row in
                    (line.split(",") for line in f.read().splitlines()[2:])]
    code = build_code(BitPoly.parse("0x13"), 20)
    counts, flagged = replay_exactly(code, (2.0, 3.0), 20000, 50, 11, most)
    assert counts == artifact
    print(f"replay: {flagged} of {sum(t for t, _ in counts)} rows in the rounding window")
    # the window holds a tie and a near-tie that float64 sees (a 2^-45 gap, exact
    # on these sums), and not a clear winner
    ref = ref_codebook_signs(code)
    lo, hi, tie = lone_tie(ref, 0)
    rows = np.stack([tie, toward(ref, lo, hi, tie, 2.0 ** -46), toward(ref, lo, hi, tie, 0.5)])
    assert window_rows(rows, _sign_tables(code)[0]).tolist() == [0, 1]


def row_weight(y):
    """W_r of each row of y: 1 + the number of prefix sums of the row's
    sorted entries, summed left to right, at most _certified's slack."""
    nu = (y.shape[1] + 4) * 2.0 ** -53
    slack = 4 * nu / (1 - nu) * np.abs(y).sum(axis=1)
    return 1 + np.count_nonzero(np.cumsum(np.sort(y, axis=1), axis=1) <= slack[:, None], axis=1)


@pytest.mark.slow
@pytest.mark.parametrize("target", ["fig4-pr", "fig5-pr"])
def test_replay_wer_targets_decide_exactly(tmp_path, target):
    # every k <= 10 curve of the default target: its CSV's counts are exact ML
    # decisions; the k = 11 curve of fig5-pr is exact by construction
    assert run(["reproduce", target, "--outdir", str(tmp_path)]) == 0
    replayed = 0
    for path in sorted(tmp_path.glob("*_wer_*.csv")):
        lines = path.read_text().splitlines()
        manifest = json.loads(lines[0].removeprefix("# manifest: "))
        params = manifest["params"]
        code = build_code(BitPoly(int(params["poly"], 16)), params["n"])
        if code.k > LOW_BITS:
            continue
        artifact = [(int(row[1]), int(row[2])) for row in (line.split(",") for line in lines[2:])]
        counts, flagged = replay_exactly(code, tuple(params["ebno_list"]), params["max_trials"],
                                         params["target_errors"], manifest["seed"], TILE)
        assert counts == artifact, path.name
        replayed += 1
        print(f"replay {path.name}: {flagged} of {sum(t for t, _ in counts)} rows "
              "in the rounding window")
    assert replayed == {"fig4-pr": 4, "fig5-pr": 4}[target]


def codebook_words(code):
    """(words, weights): row x of words is the 0/1 codeword of message x,
    by brute force over the codebook, and weights[x] is its weight."""
    words = ref_codebook_signs(code) < 0
    return words, np.count_nonzero(words, axis=1)


def assert_listing(code, cap, light, light_weights):
    """cap is the largest weight with at most min(2^(k-2), 2^14) lighter
    nonzero codewords, light is each of those once, as uint8 0/1 rows in
    ascending weight, and light_weights their weights."""
    words, weights = codebook_words(code)
    words, weights = words[1:], weights[1:]
    budget = min(1 << (code.k - 2), 1 << 14)
    assert np.count_nonzero(weights < cap) <= budget < np.count_nonzero(weights <= cap)
    assert light.dtype == np.uint8 and light.shape == (len(light_weights), code.n)
    assert set(np.unique(light).tolist()) <= {0, 1}
    assert light_weights.tolist() == np.count_nonzero(light, axis=1).tolist()
    assert np.all(np.diff(light_weights) >= 0)
    assert sorted(row.tobytes() for row in light.astype(bool)) == \
        sorted(row.tobytes() for row in words[weights < cap])


@pytest.mark.parametrize("k, n", [*((k, n) for k in range(11, 16) for n in (20, 33, 48, 64, 100)),
                                  (11, 2045), (11, 2047), (11, 2100)])
def test_light_codewords_match_the_codebook(k, n):
    # n = 2^k - 1 is the simplex code, whose 2047 words all weigh 1024 and
    # leave the list empty; at n = 2^k - 3 exactly 2^(k-2) = 512 words, the
    # windows that leave out a 1, 1 pair, weigh 1022 and the rest more, so the
    # budget is met with equality (the zero word must not count); n = 2100 >
    # 2^k - 1 repeats coordinates
    code = build_code(first_primitive(k), n)
    listing = _light_codewords(code)
    assert_listing(code, *listing)
    cap, light, light_weights = listing
    words, weights = codebook_words(code)
    words, weights = words[1:], weights[1:]
    # the list's lightest word, or the cap when it is empty, is the minimum distance
    d_min = weight_enumerator_exact(code).min_nonzero_weight()
    assert min(light_weights.tolist(), default=cap) == d_min == weights.min()
    if n == 2047:
        assert len(light) == 0 and cap == 1024
    if n == 2045:
        assert len(light) == 512 and cap == 1023
    # a certified row's y = rx * s_m sums to more than 0 over every codeword
    rng = np.random.default_rng(k * 1000 + n)
    y = 1.0 + rng.standard_normal((3, 128, n)) * np.array([0.3, 0.6, 1.0])[:, None, None]
    y = y.reshape(-1, n)
    certified = _certified(y.copy(), *listing)
    assert certified.any()
    assert ((y[certified] @ words.T).min(axis=1) > 0).all()


@pytest.mark.slow
@pytest.mark.parametrize("k", [18, 20])
def test_light_codewords_match_the_windows_at_large_k(k):
    # the nonzero codewords are the n-windows of code.poly's sequence at its
    # P phases: cap and the list, as a multiset of (weight, word), read off
    # one period of those windows
    n = 64
    code = build_code(first_primitive(k), n)
    cap, light, light_weights = _light_codewords(code)
    period = (1 << k) - 1
    seq = np.unpackbits(packed_sequence(code.poly, period + n).view(np.uint8), count=period + n,
                        bitorder="little")
    windows = sliding_window_view(seq, n)[:period]
    weights = windows.sum(axis=1)
    budget = min(1 << (k - 2), 1 << 14)
    assert np.count_nonzero(weights < cap) <= budget < np.count_nonzero(weights <= cap)
    assert light.dtype == np.uint8 and light_weights.dtype == np.int64
    assert light_weights.tolist() == np.count_nonzero(light, axis=1).tolist()
    assert np.all(np.diff(light_weights) >= 0)
    got = sorted(zip(light_weights.tolist(), (row.tobytes() for row in light)))
    assert got == sorted(zip(weights[weights < cap].tolist(),
                             (row.tobytes() for row in windows[weights < cap])))


@pytest.mark.parametrize("k", [11, 12, 13, 14, 15])
def test_certified_rows_decode_to_their_sent_message(k):
    # a certified row's sent message is the float64 decision and the exact one
    code = build_code(first_primitive(k), 2 * k + 9)
    d_min = weight_enumerator_exact(code).min_nonzero_weight()
    listing = _light_codewords(code)
    low, high = _sign_tables(code)
    nu = (code.n + 4) * 2.0 ** -53
    rng = np.random.default_rng(k)
    shares, correct = [], []
    for ebno_db in (0.0, 2.0, 4.0, 6.0, 8.0):
        sigma = math.sqrt(code.n / (2 * code.k) * 10 ** (-ebno_db / 10))
        sent = rng.integers(0, 1 << k, size=512)
        symbols = _symbols(low, high, sent)
        rx = symbols + sigma * rng.standard_normal(symbols.shape)
        y = rx * symbols
        # the minimum-distance test alone: the d_min smallest y_i against the slack
        by_distance = (np.partition(y, d_min - 1, axis=1)[:, :d_min].sum(axis=1)
                       > 4 * nu / (1 - nu) * np.abs(y).sum(axis=1))
        certified = _certified(y, *listing)
        decided = ref_decide(code, rx)
        assert np.array_equal(decided[certified], sent[certified]), ebno_db
        for i in np.flatnonzero(certified)[:3]:
            assert ml_decode(code, rx[i]) == sent[i], (ebno_db, i)
        assert not (by_distance & ~certified).any(), ebno_db
        shares.append(np.count_nonzero(certified) / len(sent))
        correct.append(np.count_nonzero(decided == sent) / len(sent))
    # a certified row is decoded correctly, so no share passes the share of
    # correct decisions; and the certified share grows with the SNR
    assert all(share <= right for share, right in zip(shares, correct)), (shares, correct)
    assert shares == sorted(shares) and shares[0] < shares[-1], shares


def mixed_tile(code, ebnos, rows, seed):
    """y = rx * s_sent for `rows` rows at each SNR of ebnos, stacked."""
    low, high = _sign_tables(code)
    rng = np.random.default_rng(seed)
    ys = []
    for ebno_db in ebnos:
        sent = rng.integers(0, 1 << code.k, size=rows)
        symbols = _symbols(low, high, sent)
        ys.append((symbols + _noise_sigma(ebno_db, code.k, code.n) * rng.standard_normal(symbols.shape))
                  * symbols)
    return np.concatenate(ys)


@pytest.mark.parametrize("k", [11, 12, 13, 14, 15])
def test_certificate_certifies_every_row_the_fixed_weight_one_did(k):
    # a row's own W_r is at most the fixed W whenever the fixed test passes,
    # and the cap is at least that W, so no row is lost
    for n in (2 * k + 9, 64):
        code = build_code(first_primitive(k), n)
        y = mixed_tile(code, (0.0, 2.0, 4.0, 6.0), 256, k * 100 + n)
        fixed = ref_fixed_w_certified(code, y)
        certified = _certified(y.copy(), *_light_codewords(code))
        assert not (fixed & ~certified).any(), n
        assert np.count_nonzero(certified) > np.count_nonzero(fixed), n


@pytest.mark.parametrize("k, n", [(11, 33), (11, 48), (12, 33), (12, 48)])
def test_certified_rows_beat_every_codeword(k, n):
    # brute force: a certified row's y sums to more than 0 over every
    # nonzero codeword, also where the row's prefix of the list ends in the
    # list's last chunk
    code = build_code(first_primitive(k), n)
    listing = _light_codewords(code)
    cap, light, light_weights = listing
    words = (ref_codebook_signs(code)[1:] < 0).astype(np.float64)
    y = mixed_tile(code, (1.0, 2.0, 3.0, 4.0, 5.0), 512, k * 100 + n)
    certified = _certified(y.copy(), *listing)
    assert ((y[certified] @ words.T).min(axis=1) > 0).all()
    need = np.searchsorted(light_weights, row_weight(y))
    last = list(_chunks(len(light)))[-1]
    assert last.start > 0 and np.count_nonzero(certified & (need > last.start)) > 0


class Gathers(np.ndarray):
    """An array that records each integer index array that picks its rows."""

    log: list = []

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.dtype.kind == "i" and self.ndim == 2:
            Gathers.log.append(key.copy())
        return super().__getitem__(key)


@pytest.mark.parametrize("k, n", [(11, 33), (13, 48)])
def test_certificate_products_only_rows_that_need_the_list(monkeypatch, k, n):
    # a row with W_r <= d_min is certified with no product, a row with W_r
    # above the cap is never certified, and each chunk is scored only on
    # the rows that still need it and have not failed
    code = build_code(first_primitive(k), n)
    listing = _light_codewords(code)
    cap, light, light_weights = listing
    d_min = int(light_weights[0])
    # the last row fails on a weight-d_min codeword, in the first chunk, and
    # its own W_r is the cap, so it would need every chunk
    _, _, D = neighbour(code, "min")
    failing = np.ones(n)
    failing[D] = -2.0 ** -10
    failing[np.setdiff1d(np.arange(n), D)[:cap - 1 - len(D)]] = -2.0 ** -10
    y = np.concatenate([mixed_tile(code, (-2.0, 3.0, 9.0), 512, k * 100 + n), failing[None]])
    own = row_weight(y)
    need = np.searchsorted(light_weights, own)
    assert own[-1] == cap and np.searchsorted(light_weights, d_min, side="right") <= 64
    monkeypatch.setattr(Gathers, "log", [])
    certified = _certified(y.copy().view(Gathers), *listing)
    assert np.count_nonzero(own <= d_min) > 0 and np.count_nonzero(own > cap) > 0
    assert certified[own <= d_min].all() and not certified[own > cap].any()
    gathers = Gathers.log
    assert gathers[0].tolist() == np.flatnonzero((d_min < own) & (own <= cap)).tolist()
    for before, after, part in zip(gathers, gathers[1:], _chunks(len(light))):
        # the rows of a chunk are rows of the one before that need more; every
        # such row certified in the end is among them, and a failed one is not
        kept = [i for i in before.tolist() if need[i] > part.stop]
        assert set(after.tolist()) <= set(kept)
        assert [i for i in kept if certified[i]] == [i for i in after.tolist() if certified[i]]
        assert len(y) - 1 not in after
    assert not certified[-1] and 1 < len(gathers) <= len(list(_chunks(len(light))))


def neighbour(code, case):
    """(m, c, D): the message m = 2^k - 1 and a message c < m whose codeword
    differs from m's on the support D of a nonzero codeword, by brute force
    over the codebook.  D weighs d_min ("min"); more than d_min and less
    than the cap and 2 d_min, so that it is listed and holds no other
    codeword ("heavier"); or the most a listed codeword weighs that holds
    no other listed codeword ("at-W")."""
    words, weights = codebook_words(code)
    d_min = int(weights[1:].min())
    cap = _light_codewords(code)[0]
    if case == "min":
        fits = weights == d_min
    elif case == "heavier":
        fits = (d_min < weights) & (weights < min(cap, 2 * d_min))
    else:
        listed = (0 < weights) & (weights < cap)
        support = words[listed].astype(np.int64)
        # D_j is inside D_i when they share all |D_j| coordinates
        alone = (support @ support.T == support.sum(axis=1)).sum(axis=1) == 1
        fits = np.zeros_like(listed)
        fits[np.flatnonzero(listed)[alone]] = True
        fits &= weights == weights[fits].max()
    x = int(np.flatnonzero(fits)[0])
    m = (1 << code.k) - 1
    return m, m ^ x, np.flatnonzero(words[x])


@pytest.mark.parametrize("k", [11, 12])
@pytest.mark.parametrize("case", ["beaten", "beaten-heavier", "beaten-at-W", "tie", "near-tie",
                                  "inside-slack", "outside-slack"])
def test_certification_bound(k, case):
    # rx equals m's symbols off D; on D, y = rx * s_m is 0 but for one
    # coordinate j, where it is the case's value (all of D when beaten).
    # D weighs d_min, but for a listed heavier codeword and, at "at-W", the
    # heaviest listed one that holds no other
    code = build_code(first_primitive(k), 2 * k + 9)
    m, c, D = neighbour(code, {"beaten-heavier": "heavier", "beaten-at-W": "at-W"}.get(case, "min"))
    listing = _light_codewords(code)
    d_min = weight_enumerator_exact(code).min_nonzero_weight()
    if case in ("beaten-heavier", "beaten-at-W"):
        assert d_min < len(D) < listing[0]
    else:
        assert len(D) == d_min
    low, high = _sign_tables(code)
    s = _symbols(low, high, m)
    nu = (code.n + 4) * 2.0 ** -53
    slack = 4 * nu / (1 - nu) * (code.n - len(D))
    y = np.ones(code.n)
    y[D] = 0.0
    y[D[0]] = {"tie": 0.0, "near-tie": 2.0 ** -60, "inside-slack": slack / 2,
               "outside-slack": 2 * slack}.get(case, -2.0 ** -10)
    if case.startswith("beaten"):
        # c wins by 2 |D| 2^-10.  The row's own weight W_r is |D| + 1: its
        # |D| + 1 smallest y_i sum to > 0, and only D's own listed codeword,
        # the heaviest its prefix of the list holds at "at-W", sees it
        y[D] = y[D[0]]
        assert row_weight(y[None]).tolist() == [len(D) + 1]
    rx = y * s
    certified = _certified((rx * s)[None], *listing)[0]
    assert certified == (case == "outside-slack")
    # on a tie, and in the near-tie that float64 cannot see, the lower c wins
    # in float64; exactly, m wins by any positive margin
    decided = int(ref_decide(code, rx[None])[0])
    assert decided == (m if case in ("inside-slack", "outside-slack") else c)
    assert ml_decode(code, rx) == (c if case == "tie" or case.startswith("beaten") else m)


@pytest.mark.parametrize("n", [1, 2, 20, 33, 64, 100, 2100, 1 << 16, (1 << 20) - 1])
def test_float32_slack_covers_every_rounding(n):
    # _decide_float32 settles a row when the float64 gap g' of its float32
    # scores exceeds fl(B A'), A' the float64 sum of |x_i|.  g' <= g (1 + v),
    # A' >= A (1 - gamma_(n-1)(v)) and fl(B A') >= B A' (1 - v), so g exceeds
    # B (1 - gamma_(n-1)(v)) (1 - v) / (1 + v) A, which must cover twice each
    # score's float32 error e A (for the exact winner) plus twice a float64
    # score's gamma_n(v) (1 + e) A (so that float64 would pick it too)
    u, v = Fraction(1, 1 << 24), Fraction(1, 1 << 53)

    def gamma(m, w):
        return m * w / (1 - m * w)

    e = gamma(n, u) + u + Fraction(1, 1 << 63)
    need = 2 * (e + gamma(n, v) * (1 + e))
    assert Fraction(_float32_slack(n)) * (1 - gamma(n - 1, v)) * (1 - v) / (1 + v) > need


@pytest.mark.parametrize("k, n", [*((k, n) for k in range(11, 16) for n in (20, 33, 48, 64)),
                                  (11, 2100)])
def test_float32_settled_rows_match_decide_and_ml_decode(k, n):
    # rows that _decide_float32 settles, from a shuffled subset of a tile as
    # _certified leaves it, are the float64 reference's messages and the
    # exact ML messages; n = 2100 > 2^k - 1 repeats coordinates
    code = build_code(first_primitive(k), n)
    low, high = _sign_tables(code)
    rng = np.random.default_rng(k * 1000 + n)
    for ebno_db in (0.0, 3.0, 6.0):
        sigma = math.sqrt(n / (2 * k) * 10 ** (-ebno_db / 10))
        sent = rng.integers(0, 1 << k, size=512)
        rx = _symbols(low, high, sent) + sigma * rng.standard_normal((512, n))
        full = ref_decide(code, rx)
        rows = np.sort(rng.choice(512, 384, replace=False))
        settled, decided = _decide_float32(rx, rows, *tables32(code))
        assert np.array_equal(decided[settled], full[rows[settled]]), ebno_db
        for i in rng.choice(np.flatnonzero(settled), 6, replace=False):
            assert ml_decode(code, rx[rows[i]]) == decided[i], (ebno_db, i)
        # nearly every row settles, so the exact fallback is rare
        assert np.count_nonzero(settled) >= 0.95 * len(rows), ebno_db


def toward(ref, lo, hi, rx, move):
    """rx with the first coordinate where the codewords of lo and hi
    differ set to `move` toward hi's symbol."""
    rx = rx.copy()
    j = int(np.flatnonzero(ref[lo] != ref[hi])[0])
    rx[j] = move * ref[hi][j]
    return rx


@pytest.mark.parametrize("k", [11, 12])
def test_float32_settles_only_rows_it_can_prove(k):
    # ties and near-ties float32 cannot resolve, and rows outside float32's
    # normal range, must fall back to the exact decision
    code = build_code(first_primitive(k), 2 * k + 1)
    ref = ref_codebook_signs(code)
    low, high = _sign_tables(code)
    rng = np.random.default_rng(k)
    lo, hi, across = lone_tie(ref, 0)
    assert lo >> LOW_BITS != hi >> LOW_BITS
    lo_in, hi_in, inside = lone_tie(ref, 0, same_block=True)
    assert lo_in >> LOW_BITS == hi_in >> LOW_BITS
    total = np.abs(across).sum()

    def window(fraction):
        # a move whose exact float32 gap, twice the move, is about `fraction`
        # of the window B * sum|x|; on a 2^-18 grid, every float32 partial
        # sum of the +-1, 0 and move terms is exact
        return round(fraction * _float32_slack(code.n) * total / 2 * 2**18) / 2**18

    clean = _symbols(low, high, rng.integers(0, 1 << k, size=2)) + 0.3 * rng.standard_normal((2, code.n))
    cases = {
        "tie-across-blocks": across,
        "tie-in-block": inside,
        "zero": np.zeros(code.n),
        # 2^-30 sum|rx| is below float32's resolution but not float64's
        "near-tie": toward(ref, lo, hi, across, 2.0 ** -30 * total),
        "inside-window": toward(ref, lo, hi, across, window(0.5)),
        "overflow": 1e39 * clean[0],
        "subnormal": 1e-40 * clean[1],
        "outside-window": toward(ref, lo, hi, across, window(2.0)),
    }
    names = list(cases)
    tile = np.concatenate([np.stack(list(cases.values())),
                           _symbols(low, high, rng.integers(0, 1 << k, size=120))
                           + rng.standard_normal((120, code.n))])
    full = np.argmax(tile @ ref.T, axis=1)
    # float64 sees every move toward hi
    assert [full[names.index(c)] for c in ("near-tie", "inside-window", "outside-window")] == [hi] * 3
    settled, decided = _decide_float32(tile, np.arange(len(tile)), *tables32(code))
    assert dict(zip(names, settled.tolist())) == {c: c == "outside-window" for c in names}
    assert np.array_equal(decided[settled], full[settled])
    # through the tile path: certify against the sent messages, settle in
    # float32, decide the rest exactly
    decided = decide_high_k(code, tile, rng.integers(0, 1 << k, size=len(tile)))
    assert np.array_equal(decided, full)
    assert decided[:len(names)].tolist() == [ml_decode(code, rx) for rx in cases.values()]


@pytest.mark.parametrize("k", [11, 13])
@pytest.mark.parametrize("ebno_db", [0.0, 3.0])
def test_uncertified_tiles_decide_every_row_exactly(monkeypatch, k, ebno_db):
    # every row of a 512-row tile, whichever tier settles it, is ml_decode's
    code = build_code(first_primitive(k), 2 * k + 9)
    low, high = _sign_tables(code)
    rng = np.random.default_rng(k * 10 + int(ebno_db))
    sigma = math.sqrt(code.n / (2 * k) * 10 ** (-ebno_db / 10))
    sent = rng.integers(0, 1 << k, size=512)
    rx = _symbols(low, high, sent) + sigma * rng.standard_normal((512, code.n))
    certified, stage = spy(monkeypatch, "_certified"), spy(monkeypatch, "_decide_float32")
    decided = decide_high_k(code, rx, sent)
    assert decided.tolist() == [ml_decode(code, r) for r in rx]
    # both proven tiers take part
    (_, mask), = certified
    (_, (settled, _)), = stage
    assert mask.any() and settled.any()


def spy(monkeypatch, name):
    """(arguments, a copy of the result) of each call simulate_wer makes to
    awgn.<name> from now on."""
    calls = []
    real = getattr(awgn, name)

    def wrapper(*args):
        result = real(*args)
        calls.append((args, copy.deepcopy(result)))
        return result

    monkeypatch.setattr(awgn, name, wrapper)
    return calls


@pytest.mark.parametrize("case", ["all-certified", "padded", "fallback"])
def test_simulate_certified_tiles_match_reference_loop(monkeypatch, case):
    code = build_code(first_primitive(12), 33)
    ebno_db, max_trials = {"all-certified": (12.0, 2 * TILE + 300),
                           "padded": (5.0, 200), "fallback": (5.0, 200)}[case]
    cfg = SimConfig(code=code, ebno_db_points=(ebno_db,), max_trials=max_trials,
                    target_word_errors=10**6, seed=41)
    if case == "fallback":
        # the first two rows of each tile are swapped for tie rows, which
        # neither the certificate nor float32 can settle; their decisions
        # are checked, then swapped back for the rows' exact ML messages
        ref = ref_codebook_signs(code)
        lo, hi, across = lone_tie(ref, 0)
        lo_in, _, inside = lone_tie(ref, 0, same_block=True)
        ties = np.stack([across, inside])
        real = awgn._decide_uncertified

        def injected(rx, y, sent, listing, low, high, tables):
            kept = rx[:2].copy()
            rx[:2] = ties
            np.multiply(ties, _symbols(low, high, sent[:2]), out=y[:2])
            decided = real(rx, y, sent, listing, low, high, tables)
            assert decided[:2].tolist() == [lo, lo_in]
            decided[:2] = np.argmax(kept @ ref.T, axis=1)
            return decided

        monkeypatch.setattr(awgn, "_decide_uncertified", injected)
    certified, stage = spy(monkeypatch, "_certified"), spy(monkeypatch, "_decide_float32")
    exact = spy(monkeypatch, "_exact_ml")
    got = [(r.trials, r.word_errors) for r in simulate_wer(cfg)]
    assert got == ref_wer_counts(code, (ebno_db,), max_trials, 10**6, cfg.seed)
    # each tile is certified against the cap and every codeword lighter than it
    for (_, *listing), _ in certified:
        assert_listing(code, *listing)
    # the float32 stage scores exactly the rows the certificate leaves
    assert [rows.tolist() for (_, rows, *_), _ in stage] == \
        [np.flatnonzero(~mask).tolist() for _, mask in certified if not mask.all()]
    if case == "all-certified":
        assert len(certified) == 3 and stage == [] and exact == []
    elif case == "padded":
        # every row the certificate leaves settles in float32
        assert len(stage) == 1 and stage[0][1][0].all() and exact == [] and got[0][1]
    else:
        # exactly the two tie rows reach the exact decision, one at a time
        (_, rows, *_), (settled, _) = stage[0]
        assert rows[:2].tolist() == [0, 1] and not settled[:2].any() and settled[2:].all()
        assert [(r.tolist(), m) for (r, *_), m in exact] == [
            (across.tolist(), lo), (inside.tolist(), lo_in)]
        assert got[0][1]


def test_tiles_cover_a_batch_in_near_equal_slices():
    for b in [*range(1, 40), *range(TILE - 3, TILE + 4), *range(2 * TILE - 2, 2 * TILE + 3),
              3 * TILE + 300, 10 * TILE + 1, 200_000, 1 << 19]:
        tiles = list(_tiles(b))
        assert tiles[0].start == 0 and tiles[-1].stop == b, b
        assert all(a.stop == c.start for a, c in zip(tiles, tiles[1:])), b
        sizes = {s.stop - s.start for s in tiles}
        assert len(tiles) == -(-b // TILE), b
        assert max(sizes) - min(sizes) <= 1, b
        # no thin tile: a split batch keeps at least TILE / 2 rows a tile
        assert len(tiles) == 1 or min(sizes) >= TILE // 2, b


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 9, 10])
def test_scores_do_not_depend_on_tile_rows(k):
    # simulate_wer decodes tile by tile what the contract defines per batch
    rng = np.random.default_rng(50 + k)
    for n in sorted({k, 20, 64}):
        code = build_code(first_primitive(k), n)
        low, _ = _sign_tables(code)
        for b in (2047, 2048, 2049, 4097, 5000):
            rx = rng.standard_normal((b, n))
            tiles = list(_tiles(b))
            assert np.array_equal(rx @ low.T, np.concatenate([rx[s] @ low.T for s in tiles])), (n, b)
            assert np.array_equal(_decide(rx, low),
                                  np.concatenate([_decide(rx[s], low) for s in tiles])), (n, b)
        # simulate_wer decodes consecutive batches of up to TILE / 2 rows stacked
        rx = rng.standard_normal((TILE, n))
        stacked = _decide(rx, low)
        for b in (4, 128, 512, 1024):
            alone = [_decide(rx[i:i + b], low) for i in range(0, TILE, b)]
            assert np.array_equal(stacked, np.concatenate(alone)), (n, b)
    # with its points on a pool, simulate_wer caps the tiles of a code with
    # n * 2^k <= 2048 at _piece_rows rows: each product stays below 2^19
    # multiply-adds, and each tile of a split batch keeps more than 1200 / 2^k
    # rows, unless no cap keeps both; none is pooled above k = 8
    pooled = [n for n in range(k, (2048 >> k) + 1) if _piece_rows(k, n)]
    assert all(_piece_rows(k, n) is None for n in range(max(k, (2048 >> k) + 1), 2100))
    assert bool(pooled) == (k <= 8)
    for n in range(k, (2048 >> k) + 1):
        most = _piece_rows(k, n)
        fewest = ((1 << 19) - 1) // (n << k)  # the most rows a tile may have
        if most is None:
            assert (fewest + 1) // 2 << k <= 1200, n  # R = fewest + 1 needs a thin tile
            continue
        assert most == fewest < (1 << 22) >> k, n  # a batch never stacks
        # every batch size R: sizes R // m and ceil(R / m) of m = ceil(R / most) tiles
        r = np.arange(1, 4 * most + 1)
        m = -(-r // most)
        assert (-(-r // m) * (n << k) < 1 << 19).all(), n
        assert ((m == 1) | (r // m << k > 1200)).all(), n
        code = build_code(first_primitive(k), n)
        low, _ = _sign_tables(code)
        for b in sorted({TILE, most + 1}):
            rx = rng.standard_normal((b, n))
            tiles = list(_tiles(b, most))
            assert np.array_equal(rx @ low.T, np.concatenate([rx[s] @ low.T for s in tiles])), \
                (n, b)
            assert np.array_equal(_decide(rx, low),
                                  np.concatenate([_decide(rx[s], low) for s in tiles])), (n, b)


@pytest.mark.parametrize("k, n, points", [(3, 20, (4.0,)), (4, 32, (4.0,)), (4, 32, (4.0, 5.0)),
                                          (4, 32, (4.0, 5.0, 6.0, 3.0, 2.0))],
                         ids=["3-20", "4-32", "4-32-two-points", "4-32-five-points"])
def test_simulate_memory_is_tile_sized(monkeypatch, k, n, points):
    # whole-batch noise, symbol and score arrays would take 63 and 99 MiB.
    # A point holds its (most, n) buffer and a batch of 200,000 messages
    # (1.5 MiB) while it runs; on two CPUs the pool holds at most three
    # points at once.  The rest, up to two tiles' scores and flags at once,
    # stays under 2 MiB: the five-point peak is 6.6 MiB, and the 4-32
    # points' buffers and messages alone take 5.3 MiB for three points and
    # 8.9 MiB for five
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code = build_code(first_primitive(k), n)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=200_000,
                    target_word_errors=10**6, seed=3)
    workers = min(len(points), 2)
    most = _piece_rows(k, n) if workers > 1 else TILE
    # numpy imports numpy.random on first use; its module objects are not decoder memory
    np.random.default_rng()
    tracemalloc.start()
    try:
        results = simulate_wer(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [res.trials for res in results] == [200_000] * len(points)
    in_flight = min(len(points), workers + 1)
    assert peak < in_flight * (cfg.max_trials + most * n) * 8 + 2 * 2**20


POOLED = [(k, n) for k in range(2, 7) for n in sorted({k, 20, 32})] + [(2, 218), (3, 217)]


def decide_threads(monkeypatch, cpus):
    """Claim `cpus` CPUs, and record (rows, thread) of each _decide product."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    calls = []
    real = awgn._decide

    def wrapper(rx, low):
        calls.append((len(rx), threading.get_ident()))
        return real(rx, low)

    monkeypatch.setattr(awgn, "_decide", wrapper)
    return calls


@pytest.mark.parametrize("k, n", POOLED)
@pytest.mark.parametrize("max_trials, zero_only", [
    (3 * TILE + 300, False),  # a short batch, cut into tiles of at most _piece_rows rows
    (TILE - 300, False),  # one tile below TILE
    (700, False),
    (3 * TILE + 300, True),
])
def test_pooled_simulate_matches_reference_loop(monkeypatch, k, n, max_trials, zero_only):
    assert n == k or n << k <= 2048
    most = _piece_rows(k, n)
    assert most
    calls = decide_threads(monkeypatch, 2)
    code = build_code(first_primitive(k), n)
    points = (0.0, 2.0, 4.0)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=max_trials,
                    target_word_errors=10**6, seed=k * 1000 + n)
    got = [(r.trials, r.word_errors)
           for r in simulate_wer(cfg, zero_codeword_only=zero_only)]
    assert got == ref_wer_counts(code, points, max_trials, 10**6, cfg.seed, zero_only)
    assert got[0][1]
    # every product is one tile: below 2^19 multiply-adds, and clear of the thin kernels
    rows = sorted(r for r, _ in calls)
    assert rows == sorted([s.stop - s.start for s in _tiles(max_trials, most)] * len(points))
    assert rows[-1] <= most and rows[0] << k > 1200
    assert threading.get_ident() not in {thread for _, thread in calls}  # decided on the pool


@pytest.mark.parametrize("k, n", [(5, 20), (6, 32)])
def test_pooled_simulate_stops_early(monkeypatch, k, n):
    # three points stop at the end of their first batch, and one runs to
    # max_trials, two batches and a short one
    calls = decide_threads(monkeypatch, 2)
    code = build_code(first_primitive(k), n)
    batch = (1 << 22) >> k
    points = (0.0, 5.0, 6.0, 12.0)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=2 * batch + 777,
                    target_word_errors=3, seed=k * 1000 + n + 1)
    got = [(r.trials, r.word_errors) for r in simulate_wer(cfg)]
    assert got == ref_wer_counts(code, points, cfg.max_trials, 3, cfg.seed)
    assert [trials for trials, _ in got] == [batch] * 3 + [cfg.max_trials]
    assert threading.get_ident() not in {thread for _, thread in calls}


def test_pooled_simulate_with_more_workers_than_cores(monkeypatch):
    # six workers on the machine's cores, switching threads often: each point
    # still gets its own generator and buffers
    calls = decide_threads(monkeypatch, 6)
    code = build_code(first_primitive(4), 32)
    points = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=3 * TILE + 300,
                    target_word_errors=10**6, seed=41)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = [(r.trials, r.word_errors) for r in simulate_wer(cfg)]
    finally:
        sys.setswitchinterval(interval)
    assert got == ref_wer_counts(code, points, cfg.max_trials, 10**6, cfg.seed)
    assert threading.get_ident() not in {thread for _, thread in calls}


@pytest.mark.parametrize("cpus", [1, 2, 3, 6])
def test_pool_shares_unsorted_points_and_caps_those_in_flight(monkeypatch, cpus):
    # six unsorted points that stop after one, two and three batches and at
    # max_trials, stepped a tile at a time by up to six workers; at most
    # workers + 1 points have a _draw running, and so buffers, at once.  One
    # worker runs one point at a time on the calling thread, highest SNR first
    calls = decide_threads(monkeypatch, cpus)
    live, peak, lock, sigmas = 0, 0, threading.Lock(), []
    real = awgn._draw

    def counted(*args):
        nonlocal live, peak
        with lock:
            live += 1
            peak = max(peak, live)
            sigmas.append(args[1])
        try:
            yield from real(*args)
        finally:
            with lock:
                live -= 1

    monkeypatch.setattr(awgn, "_draw", counted)
    code = build_code(first_primitive(6), 20)
    batch = (1 << 22) >> code.k
    points = (7.0, 5.5, 8.0, 6.0, 7.5, 6.5)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=3 * batch + 777,
                    target_word_errors=10, seed=1)
    got = [(r.trials, r.word_errors) for r in simulate_wer(cfg)]
    assert got == ref_wer_counts(code, points, cfg.max_trials, 10, cfg.seed)
    assert {trials for trials, _ in got} == {batch, 2 * batch, 3 * batch, cfg.max_trials}
    workers = min(len(points), cpus)
    if workers == 1:
        assert live == 0 and peak == 1
        assert {thread for _, thread in calls} == {threading.get_ident()}
        assert len(sigmas) == len(points) and sigmas == sorted(sigmas)
        return
    assert live == 0 and peak == min(len(points), workers + 1)
    assert threading.get_ident() not in {thread for _, thread in calls}


@pytest.mark.parametrize("cpus", [2, 6])
def test_pool_raises_a_failed_step_after_every_worker_ends(monkeypatch, cpus):
    # six points of seven tiles each; the eleventh tile decided fails, and
    # the workers stop after the steps they hold
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    decided = iter(range(10**6))
    real = awgn._decide

    def failing(rx, low):
        if next(decided) == 10:
            raise RuntimeError("decide failed")
        return real(rx, low)

    monkeypatch.setattr(awgn, "_decide", failing)
    code = build_code(first_primitive(4), 32)
    cfg = SimConfig(code=code, ebno_db_points=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                    max_trials=3 * TILE + 300, target_word_errors=10**6, seed=2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="decide failed"):
        simulate_wer(cfg)
    assert threading.active_count() == before
    assert next(decided) < 6 * 7


@pytest.mark.slow
def test_fig4_curves_do_not_depend_on_the_cpu_count(monkeypatch, tmp_path):
    # the default fig4-pr grid, whose k = 4 and 6 codes take the pool on two
    # CPUs and run one point after another on one
    trees = []
    for cpus in (1, 2):
        with monkeypatch.context() as patch:
            calls = decide_threads(patch, cpus)
            outdir = tmp_path / str(cpus)
            assert run(["reproduce", "fig4-pr", "--outdir", str(outdir)]) == 0
        trees.append({path.name: path.read_bytes() for path in outdir.iterdir()})
        assert ({thread for _, thread in calls} != {threading.get_ident()}) == (cpus > 1)
    assert trees[0] == trees[1]


@pytest.mark.parametrize("k, n, points", [(4, 32, (1.0,)), (7, 20, (1.0, 2.0)),
                                          (9, 9, (1.0, 2.0)), (4, 32, (1.0, 2.0))])
def test_simulate_pools_only_several_points_of_small_codes(monkeypatch, k, n, points):
    # one point, or a code that _piece_rows leaves serial, keeps tiles of up to TILE rows
    calls = decide_threads(monkeypatch, 2)
    code = build_code(first_primitive(k), n)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=TILE + 1,
                    target_word_errors=10**6, seed=5)
    simulate_wer(cfg)
    pooled = len(points) > 1 and _piece_rows(k, n) is not None
    most = _piece_rows(k, n) if pooled else TILE
    assert sorted(r for r, _ in calls) == sorted(
        [s.stop - s.start for s in _tiles(TILE + 1, most)] * len(points))
    assert (threading.get_ident() in {thread for _, thread in calls}) != pooled


@pytest.mark.parametrize("ebno_db", [0.0, 4.0])
def test_simulate_memory_is_buffer_sized_at_high_k(ebno_db):
    # two (TILE, n) float64 buffers, rx and y = rx * s_m, live for the call
    # (2 MiB).  Per tile, the certificate's sorted copy of y (1 MiB), its
    # gathered rows and its scores of at most 512 listed codewords (8 MiB)
    # are freed before the float32 stage, whose (rows, 2^t) scores, cast
    # rows and flips take at most 8.5 MiB; at 0 dB most rows reach that
    # stage.  The list adds 7,179 * 64 bytes (459 KB) and its weights (57
    # KB), and the float32 sign tables (1024 + 32) * 64 * 4 (264 KB); the
    # traced peak is 11.8 MiB at 0 dB and 10.6 MiB at 4 dB.  A score array
    # per high block, kept alive, would add 16 MiB
    code = build_code(first_primitive(15), 64)
    low, _ = _sign_tables(code)
    cfg = SimConfig(code=code, ebno_db_points=(ebno_db,), max_trials=4096,
                    target_word_errors=10**6, seed=3)
    # numpy imports numpy.random on first use, as an earlier test in the suite
    # does; its module objects (0.55 MB) are not decoder memory
    np.random.default_rng()
    tracemalloc.start()
    try:
        (res,) = simulate_wer(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.trials == 4096
    assert peak < TILE * (len(low) + 2 * code.n) * 8 + 2**20


@pytest.mark.slow
@pytest.mark.parametrize("k", [12, 13, 14, 15])
@pytest.mark.parametrize("n", [32, 48, 64])
def test_simulate_matches_reference_at_highk_shapes(k, n):
    code = build_code(first_primitive(k), n)
    points = (3.0, 4.5, 6.0)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=1536,
                    target_word_errors=100, seed=k * 100 + n)
    got = [(r.trials, r.word_errors) for r in simulate_wer(cfg)]
    assert got == ref_wer_counts(code, points, 1536, 100, cfg.seed)


@pytest.mark.slow
@pytest.mark.parametrize("k, n", [(12, 64), (13, 32), (14, 48), (15, 64), (11, 2100)])
def test_simulate_matches_reference_at_low_snr(monkeypatch, k, n):
    # at 0 dB the certificate leaves most rows, so most are scored in
    # float32; at (13, 32) it certifies more than half there, so -1 dB
    ebno_db = -1.0 if (k, n) == (13, 32) else 0.0
    code = build_code(first_primitive(k), n)
    cfg = SimConfig(code=code, ebno_db_points=(ebno_db,), max_trials=3000,
                    target_word_errors=10**6, seed=k * 100 + n + 1)
    stage = spy(monkeypatch, "_decide_float32")
    got = [(r.trials, r.word_errors) for r in simulate_wer(cfg)]
    assert got == ref_wer_counts(code, (ebno_db,), 3000, 10**6, cfg.seed)
    assert sum(len(rows) for (_, rows, *_), _ in stage) > 3000 / 2


@pytest.mark.slow
@pytest.mark.parametrize("k, n", [(4, 32), (3, 20), (5, 32), (6, 20)])
def test_simulate_matches_reference_at_benchmark_shapes(k, n):
    code = build_code(first_primitive(k), n)
    points = (0.0, 1.5, 3.0, 4.5, 6.0)
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=200_000,
                    target_word_errors=100, seed=k * 100 + n)
    got = [(r.trials, r.word_errors) for r in simulate_wer(cfg)]
    assert got == ref_wer_counts(code, points, 200_000, 100, cfg.seed)


def test_simulate_cap():
    fake = PrCode(poly=P4, k=21, n=21, rows=tuple(1 << i for i in range(21)))
    for code in (fake, build_code(P4, DECODER_LENGTH_CAP + 1)):
        cfg = SimConfig(code=code, ebno_db_points=(3.0,), max_trials=10,
                        target_word_errors=1, seed=1)
        with pytest.raises(UnsupportedRangeError):
            simulate_wer(cfg)
