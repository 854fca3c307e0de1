"""Checks of the ``counting`` suite: the H(2) permutation oracle against
|C_d|, and the |S_{m,m}| distribution rules."""

from __future__ import annotations

from fractions import Fraction

from .. import Locus, counting
from ..arith import divisors, sigma
from ..verify import _check


@_check("permutation oracle equals cd_count(H2, d), d = 1..8", "counting")
def _oracle_vs_cd():
    for d in range(1, 9):
        got = counting.h2_permutation_oracle(d)
        want = counting.cd_count(Locus.H2, d)
        if got != want:
            raise AssertionError((d, got, want))
    return "exact equality through d = 8"


@_check("commutator convention invariance, d <= 6", "counting")
def _commutator_convention():
    for d in range(1, 7):
        if counting.h2_permutation_oracle(d) != counting.h2_permutation_oracle(
            d, commutator="vh"
        ):
            raise AssertionError(d)
    return "h v h^-1 v^-1 vs v h v^-1 h^-1"


@_check("smm/cd consistency, d <= 200", "counting")
def _smm_cd_consistency():
    # the weight sigma(d/m) counts the index-d/m sublattices, which the arith
    # check of hermite_sublattices ties back for every index n <= 200
    for locus in (Locus.H2, Locus.P4):
        totals = {m: counting.smm(locus, m).total for m in range(1, 201)}
        for d in range(1, 201):
            direct = counting.cd_count(locus, d)
            recomposed = sum(
                (sigma(1, d // m) * totals[m] for m in divisors(d)), Fraction(0)
            )
            if direct != recomposed:
                raise AssertionError((locus, d))
    return "sigma-weighted recomposition"


@_check("gothic leading smm totals are nonnegative, m <= 5000", "counting")
def _gothic_leading_nonneg():
    for m in range(1, 5001):
        if not counting.smm(Locus.G, m, "leading").total >= 0:
            raise AssertionError(m)
    return "no negative weighted counts"


@_check("P3 second component appears iff m = 2 mod 4, with (m/2)^2 = 1 mod 8", "counting")
def _p3_gating():
    for m in range(1, 501):
        cover = counting.smm(Locus.P3, m)
        has_second = any(comp == 2 for _, _, comp, _ in cover.contributions)
        if has_second != (m % 4 == 2):
            raise AssertionError(m)
        if has_second:
            if not ((m // 2) % 2 == 1 and ((m // 2) ** 2) % 8 == 1):
                raise AssertionError(m)
    return "component gating matches the discriminant residue"
