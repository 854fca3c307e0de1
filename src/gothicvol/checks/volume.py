"""Checks of the ``volume`` suite: S_k sums, direct against closed paths, the
estimators and the AEZ conversion."""

from __future__ import annotations

from fractions import Fraction

from .. import Locus, arith, volume
from ..arith import divisors, sl2_order_table
from ..verify import _check


@_check("(sigma * a)(d) = sigma_3(d) termwise and S_1 at 10^5", "volume")
def _s1_identity():
    N = 10**5
    atab = sl2_order_table(N)
    sig = arith.sigma_table(N)
    # sigma_3 by a divisor sieve, independent of the multiplicative tables
    sig3 = [0] * (N + 1)
    for q in range(1, N + 1):
        sig3[q::q] = map((q**3).__add__, sig3[q::q])
    for d in range(1, N + 1):
        if sum(sig[d // m] * atab[m] for m in divisors(d)) != sig3[d]:
            raise AssertionError(d)
    if volume.sk_sum(1, N) != sum(sig3):
        raise AssertionError(("S_1", N))
    return "prefix sums of sigma_3 match S_1"


@_check("S_k asymptotics: ratio in [0.99, 1.01] at 10^5, O(1/D) deviation", "volume")
def _sk_asymptotics():
    N = 10**5
    for k in (1, 2, 3, 6):
        c = volume.sk_asymptotic_constant(k).to_float()
        ratio = volume.sk_sum(k, N) / (c * N**4)
        if not 0.99 <= ratio <= 1.01:
            raise AssertionError((k, ratio))
        # measured dev * D stays below ~5 for all four k; assert the O(1/D)
        # envelope, and halving up to the envelope floor (the raw deviations
        # oscillate through zero once they reach ~1e-5, so strict halving
        # is not a property of the partial sums there)
        for D in (1000, 2000, 5000, 10000, 25000, 50000, 10**6, 10**9):
            dev1 = abs(volume.sk_sum(k, D) / (c * D**4) - 1)
            dev2 = abs(volume.sk_sum(k, 2 * D) / (c * (2 * D) ** 4) - 1)
            if not dev1 <= 8.0 / D:
                raise AssertionError((k, D, dev1))
            if not dev2 <= max(dev1, 8.0 / (2 * D)):
                raise AssertionError((k, D, dev1, dev2))
    return "all four k inside the 8/D envelope"


@_check("P4 direct equals closed at every D <= 2000; P3 and gothic too", "volume")
def _direct_vs_closed():
    Dmax = 2000
    s1 = volume.sk_prefix(1, Dmax)
    s2 = volume.sk_prefix(2, Dmax)
    p4 = volume.direct_prefix(Locus.P4, Dmax)
    p3 = volume.direct_prefix(Locus.P3, Dmax)
    for D in range(1, Dmax + 1):
        # the table route is the oracle for the hyperbola route of sk_sum
        if s1[D] != volume.sk_sum(1, D):
            raise AssertionError(("S_1", D))
        if s2[D] != volume.sk_sum(2, D):
            raise AssertionError(("S_2", D))
        if p4[D] != Fraction(7, 12) * s1[D // 2]:
            raise AssertionError(("P4", D))
        closed_p3 = (
            Fraction(5, 24) * s1[D]
            + Fraction(5, 48) * s2[D]
            + Fraction(5, 24) * (s1[D // 2] - s2[D // 2])
        )
        if p3[D] != closed_p3:
            raise AssertionError(("P3", D))
    # gothic leading: agreement up to floor-boundary terms, bounded by D^3
    totals = volume.smm_totals(Locus.G, Dmax, "leading")
    for D in (500, 1000, 1500, 2000):
        gap = abs(volume.direct_raw_sum(totals, D) - volume.closed_raw_sum(Locus.G, D))
        if not gap <= D**3:
            raise AssertionError((D, gap))
    return "P4/P3 exact at every D; gothic gap within O(D^3)"


@_check("gothic closed summands match their exact limits within 2% at D = 4000", "volume")
def _gothic_summands():
    D = 4000
    details = []
    for r in (1, 2, 3, 6):
        got = float(volume.gothic_closed_summand(r, D // r)) / D**4
        want = volume.GOTHIC_SUMMAND_LIMITS[r].to_float()
        rel = abs(got - want) / want
        if not rel <= 0.02:
            raise AssertionError((r, rel))
        details.append(f"r={r}: {rel:.4f}")
    total = sum(
        (volume.GOTHIC_SUMMAND_LIMITS[r] for r in (2, 3, 6)),
        volume.GOTHIC_SUMMAND_LIMITS[1],
    )
    if not (total.coeff == Fraction(13, 31104) and total.pi_power == 4):
        raise AssertionError(total)
    return "; ".join(details)


@_check("volume estimators inside the acceptance tolerances", "volume")
def _estimator_errors():
    h2 = volume.volume_estimate(Locus.H2, 4000)
    if not h2.relative_error <= 0.01:
        raise AssertionError(h2.relative_error)
    p3 = volume.volume_estimate(Locus.P3, 4000)
    p4 = volume.volume_estimate(Locus.P4, 4000)
    if not (p3.relative_error <= 0.02 and p4.relative_error <= 0.02):
        raise AssertionError((p3.relative_error, p4.relative_error))
    g = volume.volume_estimate(Locus.G, 2000, "direct", "main")
    if not (g.relative_error <= 0.05 and g.extrapolated_relative_error <= 0.01):
        raise AssertionError((g.relative_error, g.extrapolated_relative_error))
    return (
        f"H2 {h2.relative_error:.2e}, P3 {p3.relative_error:.2e}, "
        f"P4 {p4.relative_error:.2e}, G {g.relative_error:.2e}"
        f" (extrap {g.extrapolated_relative_error:.2e})"
    )


@_check("AEZ conversion constants are reproduced exactly", "volume")
def _aez_constants():
    p3 = volume.convert_convention(Locus.P3)
    p4 = volume.convert_convention(Locus.P4)
    if (p3.coeff, p3.pi_power) != (Fraction(5, 9), 4):
        raise AssertionError(p3)
    if (p4.coeff, p4.pi_power) != (Fraction(28, 135), 4):
        raise AssertionError(p4)
    if not (2**4 * 2**3 * 6 == 768 and Fraction(5, 6912) * 768 == Fraction(5, 9)):
        raise AssertionError("P3 factor chain")
    return "5 pi^4/9 and 28 pi^4/135 from the factor chains"
