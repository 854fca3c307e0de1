"""Checks of the ``counting`` suite: the H(2) permutation oracle against
|C_d|, and the |S_{m,m}| distribution rules."""

from __future__ import annotations

from .. import SURROGATES, Locus, counting, euler, volume
from ..verify import _check


@_check("permutation oracle equals cd_count(H2, d), d = 1..15")
def _oracle_vs_cd():
    # the top d keeps the check under 0.01 s in process on 2 cores: 7 ms to
    # d = 15, 11 ms to d = 16
    for d in range(1, 16):
        got = counting.h2_permutation_oracle(d)
        want = counting.cd_count(Locus.H2, d)
        if got != want:
            raise AssertionError((d, got, want))
    return "exact equality through d = 15"


@_check("smm/cd consistency, d <= 200")
def _smm_cd_consistency():
    # cd_count sums sigma(d/m) counting.smm(m) over m | d, each smm total
    # taken once per m; the direct path's raw sums build |S_{m,m}| from whole
    # tables and weight it by the sigma prefix sums, so each degree's
    # difference is |C_d| by another route
    tables = {(locus, s): volume.smm_totals(locus, 200, s)
              for locus, offered in SURROGATES.items() for s in offered}
    for locus in Locus:
        totals = tables[locus, "main_term"]
        raw = [volume.direct_raw_sum(totals, D) for D in range(201)]
        smm = [None] + [counting.smm(locus, m).total for m in range(1, 201)]
        for d in range(1, 201):
            if counting.cd_count(locus, d, smm_total=smm.__getitem__) != raw[d] - raw[d - 1]:
                raise AssertionError((locus.value, d))
    # the loop above pins main_term (cd_count's m = d term has weight 1): tie the rest
    for (locus, s), totals in tables.items():
        if s == "main_term":
            continue
        L, t = totals.denominator, totals.numerators
        for m in range(1, 201):
            x = counting.smm(locus, m, s).total
            if x.numerator * L != t[m] * x.denominator:
                raise AssertionError((locus.value, s, m))
    return "cd_count equals the per-degree differences of direct_raw_sum, smm the tables"


@_check("gothic leading smm totals are nonnegative, m <= 5000")
def _gothic_leading_nonneg():
    # the whole table; the check above ties it to counting.smm
    t = volume.smm_totals(Locus.G, 5000, "leading").numerators
    for m in range(1, 5001):
        if not t[m] >= 0:
            raise AssertionError(m)
    return "no negative weighted counts"


@_check("P3 second component appears iff m = 2 mod 4, with (m/2)^2 = 1 mod 8")
def _p3_gating():
    for m in range(1, 501):
        cover = counting.smm(Locus.P3, m)
        has_second = any(comp == 2 for _, _, comp, _ in cover.contributions)
        if has_second != (m % 4 == 2):
            raise AssertionError(m)
        if m % 2 == 0:
            # and exactly where chi_W4's own rule defines W^2_{(m/2)^2}(4)
            try:
                euler.chi_W4((m // 2) ** 2, 2, "main_term")
                defined = True
            except ValueError:
                defined = False
            if has_second != defined:
                raise AssertionError(m)
    return "component gating matches the discriminant residue"
