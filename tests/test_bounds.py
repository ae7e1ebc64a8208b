"""Distance bounds, witness search, and the union bound."""

import math

import pytest
from util import ref_first_witness

from prcodes.bounds import (
    DminReport,
    dmin_bound,
    dmin_bound_exact,
    ebno_db_to_gamma,
    gv_distance,
    qfunc,
    union_bound,
    verify_existence,
)
from prcodes.construct import build_code
from prcodes.errors import UnsupportedRangeError
from prcodes.gf2 import BitPoly
from prcodes.weights import (
    RealDistribution,
    WeightEnumerator,
    ensemble_average_exact,
    ensemble_enumerators,
    ensemble_summed_counts,
    weight_enumerator_exact,
)

# reference enumerators for standard Reed-Muller codes, used purely as
# external weight-profile fixtures for the bound evaluators
RM_20_4 = {0: 1, 8: 3, 10: 8, 12: 3, 20: 1}
RM_32_11 = {0: 1, 10: 64, 12: 240, 14: 448, 16: 542, 18: 448, 20: 240,
            22: 64, 32: 1}


def dist_from_counts(n, counts):
    values = [0.0] * (n + 1)
    for j, c in counts.items():
        values[j] = float(c)
    return RealDistribution(n=n, values=tuple(values))


# ---------------------------------------------------------------------------
# distance bound from a weight profile

def test_dmin_bound_simplex_cases():
    abar, _ = ensemble_average_exact(4, 15)
    assert dmin_bound(abar) == 7
    abar, _ = ensemble_average_exact(3, 7)
    assert dmin_bound(abar) == 3


def test_dmin_bound_empty_tail_reaches_n():
    dist = dist_from_counts(12, {0: 1, 2: 0.5})
    assert dmin_bound(dist) == 12


def test_dmin_bound_floor():
    dist = dist_from_counts(10, {3: 5.0})
    assert dmin_bound(dist) == 2


def test_dmin_bound_monotone_in_added_mass():
    base = dist_from_counts(16, {5: 0.4, 9: 0.5, 11: 2.0})
    d0 = dmin_bound(base)
    for j in range(3, 17):
        bumped = list(base.values)
        bumped[j] += 0.3
        d1 = dmin_bound(RealDistribution(n=16, values=tuple(bumped)))
        assert d1 <= d0


# ---------------------------------------------------------------------------
# classical existence bound

def test_gv_examples():
    assert gv_distance(20, 4) == 8
    for k in (2, 5, 9):
        assert gv_distance(k + 1, k) == 2


def test_gv_validation():
    with pytest.raises(ValueError):
        gv_distance(4, 4)


def test_gv_close_to_profile_bound():
    abar, _ = ensemble_average_exact(8, 20)
    assert abs(gv_distance(20, 8) - dmin_bound(abar)) <= 1


# ---------------------------------------------------------------------------
# witness search

def test_existence_small_cases():
    for k, n in [(4, 8), (8, 20)]:
        rep = verify_existence(k, n)
        assert rep.witness_poly is not None
        assert rep.witness_d >= rep.dmin_bound
        code_d = weight_enumerator_exact(
            build_code(rep.witness_poly, n)
        ).min_nonzero_weight()
        assert code_d == rep.witness_d


def test_existence_validation():
    with pytest.raises(ValueError):
        verify_existence(4, 7)  # n < 2k
    with pytest.raises(UnsupportedRangeError):
        verify_existence(19, 38)


def test_existence_never_fails_in_guaranteed_regime():
    for k in range(4, 9):
        for n in range(2 * k, 3 * k + 1, 2):
            rep = verify_existence(k, n)
            assert rep.witness_d >= rep.dmin_bound
    for k in (9, 10):
        for n in (2 * k, 2 * k + 4, 3 * k):
            rep = verify_existence(k, n)
            assert rep.witness_d >= rep.dmin_bound


@pytest.mark.parametrize("k", range(4, 11))
def test_existence_witness_matches_ascending_scan(k):
    # 65 takes a second plane of the span kernel and 193 the window kernel
    for n in sorted({2 * k, 2 * k + 3, 3 * k, 4 * k} | {m for m in (65, 193) if m >= 2 * k}):
        rep = verify_existence(k, n)
        assert rep.witness_poly.mask == ref_first_witness(k, n, rep.dmin_bound)


def test_bound_matches_exact_integer_threshold():
    # the float cumulative sum of the average against 1 gives the same d as
    # the integer test sum_{j=3..d} sum_j <= count on the exact member sums
    checked = 0
    for k in range(3, 11):
        for n in range(2 * k, min(2**k, 64)):
            members = ensemble_enumerators(k, n)
            count = len(members)
            exact = 2
            acc = 0
            for d in range(3, n + 1):
                acc += sum(enum.counts[d] for _, enum in members)
                if acc <= count:
                    exact = d
            abar, _ = ensemble_average_exact(k, n)
            assert dmin_bound(abar) == exact, f"k={k} n={n}"
            checked += 1
    assert checked == 272


def test_integer_bound_matches_exact_threshold():
    # the integer decision that verify_existence and `dmin` use, against
    # the same oracle on the same 272 points
    checked = 0
    for k in range(3, 11):
        for n in range(2 * k, min(2**k, 64)):
            members = ensemble_enumerators(k, n)
            count = len(members)
            exact = 2
            acc = 0
            for d in range(3, n + 1):
                acc += sum(enum.counts[d] for _, enum in members)
                if acc <= count:
                    exact = d
            sums = [sum(enum.counts[j] for _, enum in members) for j in range(n + 1)]
            assert dmin_bound_exact(count, sums) == exact, f"k={k} n={n}"
            pairs, pair_sums = ensemble_summed_counts(k, n)
            assert dmin_bound_exact(pairs, pair_sums) == exact, f"k={k} n={n}"
            assert verify_existence(k, n).dmin_bound == exact, f"k={k} n={n}"
            checked += 1
    assert checked == 272


def test_integer_bound_is_exact_where_floats_round_up():
    # mass 9/28 + 18/28 + 1/28 is exactly 1, but the float running sum
    # rounds to 1.0000000000000002
    sums = [28, 0, 0, 9, 18, 1, 5]
    assert dmin_bound_exact(28, sums) == 5
    profile = RealDistribution(n=6, values=tuple(s / 28 for s in sums))
    assert dmin_bound(profile) == 4


def test_integer_bound_floor_and_empty_tail():
    assert dmin_bound_exact(3, [3, 0, 0, 4, 0]) == 2
    assert dmin_bound_exact(3, [3, 0, 0, 0, 0, 3]) == 5
    assert dmin_bound_exact(1, [1, 0, 0]) == 2


def test_report_validation():
    with pytest.raises(ValueError):
        DminReport(k=4, n=8, dmin_bound=5, gv_d=5,
                   witness_poly=BitPoly.parse("0x13"), witness_d=4)


# ---------------------------------------------------------------------------
# union bound

def test_union_bound_zero_profile():
    dist = dist_from_counts(10, {})
    dist = RealDistribution(n=10, values=(0.0,) * 11)
    assert union_bound(dist, 1, 10, 1.0) == 0.0


def test_union_bound_simplex_single_term():
    counts = [0.0] * 16
    counts[8] = 15.0
    dist = RealDistribution(n=15, values=tuple(counts))
    value = union_bound(dist, 8, 15, 1.0)
    expect = (8 / 15) * 15 * qfunc(math.sqrt(8.0))
    assert value == pytest.approx(expect, rel=1e-12)
    assert value == pytest.approx(0.0187, abs=2e-4)


def test_union_bound_vanishes_at_high_snr():
    for poly_text, n in [("1+x+x^4", 20), ("1+x^2+x^3+x^4+x^5+x^8+x^11", 32)]:
        enum = weight_enumerator_exact(build_code(BitPoly.parse(poly_text), n))
        dist = enum.as_distribution()
        d = enum.min_nonzero_weight()
        assert union_bound(dist, d, n, 100.0) < 1e-12


def test_union_bound_monotone():
    enum = weight_enumerator_exact(build_code(BitPoly.parse("0x13"), 20))
    dist = enum.as_distribution()
    values = [union_bound(dist, 9, 20, g) for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    bumped = list(dist.values)
    bumped[10] += 1.0
    more = RealDistribution(n=20, values=tuple(bumped))
    assert union_bound(more, 9, 20, 1.0) > union_bound(dist, 9, 20, 1.0)


def test_union_bound_unweighted_variant_larger():
    enum = weight_enumerator_exact(build_code(BitPoly.parse("0x13"), 20))
    dist = enum.as_distribution()
    w = union_bound(dist, 9, 20, 1.0)
    u = union_bound(dist, 9, 20, 1.0, weighted=False)
    assert u > w


def test_union_bound_validation():
    dist = RealDistribution(n=10, values=(0.0,) * 11)
    with pytest.raises(ValueError):
        union_bound(dist, 1, 10, 0.0)
    with pytest.raises(ValueError):
        union_bound(dist, 0, 10, 1.0)
    with pytest.raises(ValueError):
        union_bound(dist, 1, 11, 1.0)


def test_gamma_conversion():
    # at rate 1/5 and 6.99 dB, Es/N0 is 1.0 and gamma is 2.0
    db = 10 * math.log10(5.0)
    assert ebno_db_to_gamma(db, 4, 20) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -3100.0, -3240.0, 3090.0])
def test_gamma_rejects_unrepresentable_snr(bad):
    # -3100 dB leaves gamma subnormal, so its noise variance 1/gamma is inf;
    # -3240 dB gives gamma = 0 and 3090 dB overflows
    with pytest.raises(ValueError, match=f"Eb/N0 = {bad} dB"):
        ebno_db_to_gamma(bad, 4, 20)
    assert 0 < ebno_db_to_gamma(-3000.0, 4, 20) and ebno_db_to_gamma(3000.0, 4, 20) < math.inf


def test_gamma_refuses_zero_block_length():
    # k/n is undefined at n = 0 and no code rate at n < 0: either is refused
    # by name before the division, whatever the SNR point
    for db in (3.0, math.nan):
        with pytest.raises(ValueError, match="block length n = 0"):
            ebno_db_to_gamma(db, 4, 0)
        for n in (-1, -20):
            with pytest.raises(ValueError, match=f"block length n = {n} must be at least 1"):
                ebno_db_to_gamma(db, 4, n)


# ---------------------------------------------------------------------------
# external fixture profiles through the same evaluators

@pytest.mark.parametrize("n,k,counts", [(20, 4, RM_20_4), (32, 11, RM_32_11)])
def test_external_reference_profiles(n, k, counts):
    enum = WeightEnumerator(
        n=n, dim=k,
        counts=tuple(counts.get(j, 0) for j in range(n + 1)),
    )
    dist = enum.as_distribution()
    d = dmin_bound(dist)
    assert 2 <= d < enum.min_nonzero_weight()
    gamma = ebno_db_to_gamma(4.0, k, n)
    value = union_bound(dist, enum.min_nonzero_weight(), n, gamma)
    assert 0.0 < value < 1.0
