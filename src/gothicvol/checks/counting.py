"""Checks of the ``counting`` suite: the H(2) permutation oracle against
|C_d|, and the |S_{m,m}| distribution rules."""

from __future__ import annotations

from .. import Locus, counting, volume
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
    # cd_count sums sigma(d/m) counting.smm(m) over m | d; the direct path's
    # raw sums build |S_{m,m}| from whole tables and weight it by the sigma
    # prefix sums, so each degree's difference is |C_d| by another route
    for locus in Locus:
        totals = volume.smm_totals(locus, 200)
        raw = [volume.direct_raw_sum(totals, D) for D in range(201)]
        for d in range(1, 201):
            if counting.cd_count(locus, d) != raw[d] - raw[d - 1]:
                raise AssertionError((locus.value, d))
    return "cd_count equals the per-degree differences of direct_raw_sum"


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
