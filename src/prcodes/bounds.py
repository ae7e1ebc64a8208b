"""Minimum-distance bounds and the union bound on word error rate.

The distance bound is the largest d whose average mass over weights
3..d stays at or below 1.  dmin_bound reads it off a real-valued
profile (a closed form); dmin_bound_exact decides it in integers from
the summed counts of an exact ensemble and their code count.  Because
codes built from different maximal-period polynomials of one degree
share no nonzero codeword once n >= 2k, some polynomial of that degree
must reach the bound; verify_existence decides the bound from the
ensemble's summed counts and then counts the codes one at a time, in
mask order (gf2.enumerate_primitives, the family the ensemble count has
just walked), until one reaches it.

The union bound sums pairwise error probabilities Q(sqrt(i*gamma))
weighted by the profile, where gamma = 2 Es/N0 so that a weight-i
competitor contributes Q(sqrt(2 i (k/n) Eb/N0)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, erfc, inf, sqrt
from typing import Sequence

from .construct import build_code
from .errors import TheoremViolationError
from .gf2 import BitPoly, enumerate_primitives
from .weights import RealDistribution, ensemble_summed_counts, weight_enumerator_exact


@dataclass(frozen=True)
class DminReport:
    """Distance-bound evaluation at one (k, n), with a witness code."""

    k: int
    n: int
    dmin_bound: int
    gv_d: int
    witness_poly: BitPoly
    witness_d: int

    def __post_init__(self):
        if self.witness_d < self.dmin_bound:
            raise ValueError("witness distance below the bound it certifies")


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * erfc(x / sqrt(2.0))


def es_n0(ebno_db: float, k: int, n: int) -> float:
    """Symbol SNR Es/N0 = (k/n) Eb/N0 of an Eb/N0 point in dB.

    A ValueError names a block length n < 1, for which k/n is no code
    rate, and otherwise the SNR point unless gamma = 2 Es/N0 and the noise
    variance 1/gamma are both positive finite floats."""
    if n < 1:
        raise ValueError(f"block length n = {n} must be at least 1 for Es/N0 = (k/n) Eb/N0")
    try:
        es = (k / n) * 10.0 ** (ebno_db / 10.0)
    except OverflowError:
        es = inf
    if not (0 < 2 * es < inf and 1 / (2 * es) < inf):
        raise ValueError(f"Eb/N0 = {ebno_db} dB gives Es/N0 {es} at k = {k}, n = {n}; "
                         "2 Es/N0 and its inverse must be positive finite floats")
    return es


def ebno_db_to_gamma(ebno_db: float, k: int, n: int) -> float:
    """Pairwise-error SNR scale gamma = 2 Es/N0; es_n0 refuses a bad point."""
    return 2 * es_n0(ebno_db, k, n)


def dmin_bound(abar: RealDistribution) -> int:
    """Largest d with the profile's mass over weights 3..d at most 1.

    The empty sum below weight 3 counts as zero, so the result is at
    least 2; a profile with total mass <= 1 above weight 2 yields n.
    Accumulation is plain left-to-right with no epsilon slack.
    """
    return dmin_bound_exact(1.0, abar.values)


def dmin_bound_exact(count: int, sums: Sequence[int]) -> int:
    """dmin_bound of the average profile sums / count, decided in integers:
    the largest d with sum_{j=3..d} sums[j] <= count, at least 2.  Given
    float masses and a limit, the sum runs left to right from an exact
    0 + sums[3]."""
    best = 2
    acc = 0
    for d in range(3, len(sums)):
        acc += sums[d]
        if acc <= count:
            best = d
    return best


def gv_distance(n: int, k: int) -> int:
    """Largest d with sum_{i<=d-2} C(n-1, i) < 2^(n-k)."""
    if not n > k >= 1:
        raise ValueError(f"need n > k >= 1, got n={n}, k={k}")
    bound = 1 << (n - k)
    acc = 0
    best = 1
    for d in range(2, n + 1):
        acc += comb(n - 1, d - 2)
        if acc < bound:
            best = d
        else:
            break
    return best


def verify_existence(k: int, n: int) -> DminReport:
    """Exhaustively confirm some degree-k code meets the distance bound.

    Decides the bound from ensemble_summed_counts, then walks the
    maximal-period polynomials in mask order, as enumerate_primitives
    lists them off the degree's family that the count has just cached,
    and reports the first whose exact minimum distance reaches it.
    Failure to find one would contradict the disjointness-based counting
    argument, so it raises instead of returning an incomplete report.
    """
    if n < 2 * k:
        raise ValueError(f"existence argument requires n >= 2k = {2 * k}, got {n}")
    d = dmin_bound_exact(*ensemble_summed_counts(k, n))
    gv = gv_distance(n, k)
    for poly in enumerate_primitives(k):
        wd = weight_enumerator_exact(build_code(poly, n)).min_nonzero_weight()
        if wd >= d:
            return DminReport(
                k=k, n=n, dmin_bound=d, gv_d=gv, witness_poly=poly, witness_d=wd
            )
    raise TheoremViolationError(
        f"no degree-{k} code at n={n} reaches the distance bound {d}"
    )


def union_bound(
    abar: RealDistribution,
    d_min: int,
    n: int,
    gamma: float,
    *,
    weighted: bool = True,
) -> float:
    """Union-bound word error estimate sum_i (i/n) A_i Q(sqrt(i gamma)).

    weighted=False drops the i/n prefactor, giving the plain sum of
    pairwise error probabilities: a guaranteed upper bound for a single
    code's ML word error rate when A is its exact distribution and d_min
    is at most the code's minimum nonzero weight, so that no codeword's
    term is skipped.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if d_min < 1:
        raise ValueError(f"d_min must be >= 1, got {d_min}")
    if abar.n != n:
        raise ValueError(f"profile length {abar.n} does not match n={n}")
    acc = 0.0
    for i in range(d_min, n + 1):
        a = abar.values[i]
        if a <= 0.0:
            continue
        term = a * qfunc(sqrt(i * gamma))
        if weighted:
            term *= i / n
        acc += term
    return acc
