"""Checks of the ``zagier`` suite: Gauss sums, local Euler factors and the
ebar_1 / ebar_6 identities."""

from __future__ import annotations

import math

from .. import arith, zagier
from ..arith import moebius_table, nu, sl2_order_table
from ..verify import _check


@_check("gauss sums vanish beyond r = nu_p(d^2) + 2, p <= 50, d <= 200")
def _gamma_truncation():
    ps = [p for p in range(2, 51) if arith.is_prime(p)]
    for p in ps:
        for d in range(1, 201):
            v = 2 * nu(p, d)
            for r in range(v + 3, v + 8):
                if zagier.gauss_gamma(p, r, d) != 0:
                    raise AssertionError((p, r, d))
    return "five extra prime-power levels all zero"


@_check("euler factor reduction rules from P_1")
def _euler_factor_reduction():
    for d in range(1, 101):
        p1_2 = zagier.euler_factor(1, 2, d)
        g2 = zagier.gauss_gamma(2, 1, d)
        for k in (2, 6):
            if zagier.euler_factor(k, 2, d) != 4 * p1_2 - 3 - 3 * g2:
                raise AssertionError((k, d))
        p1_3 = zagier.euler_factor(1, 3, d)
        for k in (3, 6):
            if zagier.euler_factor(k, 3, d) != 9 * p1_3 - 8:
                raise AssertionError((k, d))
    return "p = 2 and p = 3 rules, d <= 100"


@_check("ebar_1 divisor sum equals Euler product with zeta tail, d <= 500")
def _ebar1_routes():
    for d in range(1, 501):
        if zagier.ebar1_exact(d) != zagier.ebar1_via_euler_product(d):
            raise AssertionError(d)
    return "both exact routes equal"


@_check("(12/5) moebius-sum of ebar_1(m^2) equals a(d), d <= 2000")
def _ebar1_quadruple_convolution():
    # on the integer scale E = (12/5) ebar_1: sum_{m|d} mu(d/m) E(m) = a(d)
    N = 2000
    s = arith.dirichlet_convolve(moebius_table(N), zagier.ebar1_five_twelfths(N), N)
    atab = sl2_order_table(N)
    for d in range(1, N + 1):
        if s[d] != atab[d]:
            raise AssertionError(d)
    return "exact quadruple-convolution identity"


@_check("e*_6(d^2) Euler product equals the four-term e*_1 combination, d <= 500")
def _estar6_routes():
    # the product of P_6(p, d^2) over p | 6d with the 15/pi^2 tail, against
    # estar6's combination of e*_1 at d, d_2, d_3, d_6 (each e*_1 built once)
    N = 500
    e1 = [None] + [zagier.estar1(d) for d in range(1, N + 1)]
    for d in range(1, N + 1):
        if zagier.estar_euler_product(6, d) != zagier.estar6(d, e1.__getitem__):
            raise AssertionError(d)
    return "exact at every d"


@_check("moebius-summed ebar_6 equals kappa(d) a(d)/60 exactly, d <= 2000")
def _ebar6_kappa():
    # The raw ratio ebar_6(d^2) * 60 / a(d) tends to kappa(d) only along
    # d coprime to 6; in the other classes it converges to a factorisation-
    # dependent constant (deviations up to ~30%).  The main-term statement
    # behind the e(d^2, 6) asymptotics is the moebius-summed one, and that
    # turns out to be an exact identity, checked here at every d the table
    # holds.  All on the integer scale e6 = 60 ebar_6.
    N = 2000
    e6 = zagier.ebar6_sixtieths(zagier.ebar1_five_twelfths(N))
    atab = sl2_order_table(N)
    s = arith.dirichlet_convolve(moebius_table(N), e6, N)
    for d in range(1, N + 1):
        kap = zagier.kappa(d)
        if s[d] * kap.denominator != kap.numerator * atab[d]:
            raise AssertionError(d)
    # the coprime-to-6 raw ratio ebar_6 * 30 / a(d) = e6 / (2 a(d)) does
    # approach 1: within 10% for d >= 500
    for d in range(500, N + 1):
        if math.gcd(6, d) == 1:
            if not 5 * abs(e6[d] - 2 * atab[d]) < atab[d]:
                raise AssertionError(d)
    return "exact identity in all classes; (6,d)=1 raw ratio within 10%"
