"""Checks of the ``volume`` suite: S_k sums, direct against closed paths, the
estimators and the AEZ conversion."""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .. import Locus, arith, euler, volume, zagier
from ..verify import _check

# The oracle for volume.CLOSED_TERMS: rows (coeff, k, r), the terms coeff *
# S_k(D // r).  Gothic component r weights h = m/r, g = gcd(6, h) prime to r,
# by 6 kappa'(g); inclusion-exclusion over k | 6 gives the coefficients of S_k.
_ROWS = {
    Locus.H2: ((Fraction(3, 8), 1, 1),),
    Locus.P3: ((Fraction(5, 24), 1, 1), (Fraction(5, 48), 2, 1),
               (Fraction(5, 24), 1, 2), (Fraction(-5, 24), 2, 2)),
    Locus.P4: ((Fraction(7, 12), 1, 2),),
    Locus.G: tuple(
        (sum(arith.moebius(k // g) * 6 * euler.KAPPA_PRIME[g]
             for g in (1, 2, 3, 6) if k % g == 0 and gcd(g, r) == 1), k, r)
        for r in (1, 2, 3, 6) for k in (1, 2, 3, 6)),
}


def _rows_limit(rows) -> arith.PiQuantity:
    """The exact limit of sum coeff * S_k(D // r) / D^4: sum coeff c_k / r^4."""
    return sum((volume.sk_asymptotic_constant(k) * (c / r**4) for c, k, r in rows),
               arith.PiQuantity(Fraction(0), 4))


@_check("S_1(10^5) equals the sum of sigma_3(n), n <= 10^5")
def _s1_identity():
    # (sigma * a) = sigma_3 termwise is the arith suite's; here the
    # hyperbola route against the plain sum_{q<=N} q^3 floor(N/q)
    N = 10**5
    if volume.sk_sum(1, N) != sum(q**3 * (N // q) for q in range(1, N + 1)):
        raise AssertionError(("S_1", N))
    return "S_1 equals the prefix sum of sigma_3"


@_check("S_k asymptotics: ratio in [0.99, 1.01] at 10^5, O(1/D) deviation")
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


@_check("P4 direct equals closed at every D <= 2000; P3 and gothic too")
def _direct_vs_closed():
    Dmax = 2000
    S = {k: volume.sk_prefix(k, Dmax) for k in (1, 2, 3, 6)}
    # T(D) = sum_{n<=D} n sigma(n), since sum_{ab=n} a^2 b = n sigma(n)
    T = list(accumulate(n * s for n, s in enumerate(arith.sigma_table(Dmax))))
    for D in range(1, Dmax + 1):
        # the table routes are the oracles for the hyperbola routes
        if any(S[k][D] != volume.sk_sum(k, D) for k in S) or T[D] != volume.t_sum(D):
            raise AssertionError(("S_k or T", D))
    ssig = arith.sigma_prefix(Dmax)
    for locus, surrogate in ((Locus.P4, "main"), (Locus.P3, "main"),
                             (Locus.G, "leading"), (Locus.H2, "main")):
        # the rows and the terms through the table routes, over one denominator L
        rows, terms = _ROWS[locus], volume.CLOSED_TERMS[locus]
        L = lcm(*(row[0].denominator for row in rows + terms))
        scaled = [(int(c * L), k, r) for c, k, r in rows]
        scaled_terms = [(int(c * L), m) for c, m in terms]
        direct = volume.direct_prefix(locus, Dmax, surrogate)
        spots, at_spots = [1, 2, 3, 5, 6, 7, Dmax], []
        for D in range(1, Dmax + 1):
            num = sum(n * S[k][D // r] for n, k, r in scaled)
            # the terms read Sigma3 = S_1; the g_k tails of the rows cancel
            if sum(n * S[1][D // m] for n, m in scaled_terms) != num:
                raise AssertionError((locus.value, "terms", D))
            closed = Fraction(num, L)
            gap = 0
            if locus is Locus.H2:  # closed also counts m = 1 (-6 chi = -3/8), direct m >= 3
                closed -= Fraction(3, 4) * T[D]
                gap = Fraction(3, 8) * ssig[D]
            if direct[D] - closed != gap:
                raise AssertionError((locus.value, D))
            if D in spots:
                at_spots.append(closed)
        if volume.closed_raw_sum(locus, spots) != at_spots:
            raise AssertionError((locus.value, "closed_raw_sum"))
    return "P3, P4 and gothic leading equal at every D; H(2) apart by its m = 1 term"


@_check("volume_estimate direct equals closed at the D = 4000 checkpoints")
def _estimate_direct_vs_closed():
    # the production direct path (smm_totals, direct_raw_sum) past the
    # D <= 2000 range of the check above, through volume_estimate itself
    for locus, surrogate in ((Locus.P3, "main"), (Locus.P4, "main"),
                             (Locus.G, "leading"), (Locus.H2, "main")):
        direct = volume.volume_estimate(locus, 4000, "direct", surrogate).series_exact
        closed = volume.volume_estimate(locus, 4000, "closed", surrogate).series_exact
        for (Dc, got), (_, want) in zip(direct, closed):
            if locus is Locus.H2:
                # closed also counts m = 1 (-6 chi = -3/8), direct m >= 3; its
                # weight sum_{e<=Dc} sigma(e) is the plain sum_{q<=Dc} q floor(Dc/q)
                want += Fraction(3, 8) * sum(q * (Dc // q) for q in range(1, Dc + 1))
            if got != want:
                raise AssertionError((locus.value, Dc))
    return "P3, P4 and gothic leading equal at D = 500..4000; H(2) apart by its m = 1 term"


@_check("gothic closed summands match their exact limits within 2% at D = 4000")
def _gothic_summands():
    # kappa'(g) from the X_{d^2}(b_r) ratio and the e(d^2, 6) constant
    for g in (1, 2, 3, 6):
        want = euler.X_BR_RATIO[g] / 48 - zagier.kappa(g) / (180 * euler.c_D(g * g))
        if euler.KAPPA_PRIME[g] != want:
            raise AssertionError(("kappa'", g))
    # the kappa'-derived rows and the production terms give the paper's volumes
    for locus in Locus:
        limits = (_rows_limit(_ROWS[locus]), volume.closed_limit(volume.CLOSED_TERMS[locus]))
        if limits != (volume.volume_exact(locus),) * 2:
            raise AssertionError(("limit", locus.value, limits))
    D = 4000
    details = []
    for r in (1, 2, 3, 6):
        part = [row for row in _ROWS[Locus.G] if row[2] == r]
        got = float(sum(c * volume.sk_sum(k, D // r) for c, k, _ in part)) / D**4
        want = _rows_limit(part).to_float()
        rel = abs(got - want) / want
        if not rel <= 0.02:
            raise AssertionError((r, rel))
        details.append(f"r={r}: {rel:.4f}")
    return "; ".join(details)


@_check("volume estimators inside the acceptance tolerances")
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


@_check("AEZ conversion constants are reproduced exactly")
def _aez_constants():
    p3 = volume.convert_convention(Locus.P3)
    p4 = volume.convert_convention(Locus.P4)
    if (p3.coeff, p3.pi_power) != (Fraction(5, 9), 4):
        raise AssertionError(p3)
    if (p4.coeff, p4.pi_power) != (Fraction(28, 135), 4):
        raise AssertionError(p4)
    return "5 pi^4/9 and 28 pi^4/135 from the factor chains"
