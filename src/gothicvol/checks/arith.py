"""Checks of the ``arith`` suite: a(d), sigma, Moebius inversion and the
Hermite sublattices."""

from __future__ import annotations

import math
from fractions import Fraction

from .. import arith
from ..arith import hermite_sublattices, moebius, nu, sigma, sl2_order_table
from ..verify import _check


@_check("(sigma * a)(n) = sigma_3(n) for n <= 10^5")
def _sigma_conv_identity():
    N = 10**5
    conv = arith.dirichlet_convolve(arith.sigma_table(N), sl2_order_table(N), N)
    # sigma_3 by a divisor sieve, independent of the multiplicative tables
    sig3 = [0] * (N + 1)
    for q in range(1, N + 1):
        sig3[q::q] = map((q**3).__add__, sig3[q::q])
    if conv != sig3:
        raise AssertionError(next(n for n in range(1, N + 1) if conv[n] != sig3[n]))
    return f"dirichlet_convolve of sigma_table and sl2_order_table at N = {N}"


@_check("sl2_order multiplicative on coprime pairs up to 500")
def _sl2_multiplicative():
    atab = sl2_order_table(500 * 500)
    small = sl2_order_table(500)
    for m in range(1, 501):
        for n in range(m, 501):
            if math.gcd(m, n) == 1:
                if atab[m * n] != small[m] * small[n]:
                    raise AssertionError((m, n))
    return "all coprime pairs m,n <= 500"


@_check("moebius inversion roundtrip at N = 2000")
def _moebius_roundtrip():
    N = 2000
    # deterministic pseudo-random exact rationals
    f = [Fraction(0)] + [
        Fraction((n * 2654435761) % 2001 - 1000, n % 7 + 1) for n in range(1, N + 1)
    ]
    one = [Fraction(0)] + [Fraction(1)] * N
    g = arith.dirichlet_convolve(f, one, N)  # g(n) = sum_{m|n} f(m)
    mu = [Fraction(0)] + [Fraction(moebius(n)) for n in range(1, N + 1)]
    back = arith.dirichlet_convolve(g, mu, N)
    if back[1:] != f[1:]:
        raise AssertionError("g * mu differs from f")
    return "g = f * 1, then g * mu recovers f exactly"


@_check("hermite_sublattices: sigma(n) forms, each of index n, n <= 200")
def _hermite_count():
    for n in range(1, 201):
        forms = hermite_sublattices(n)
        if len(forms) != sigma(1, n):
            raise AssertionError(n)
        if len(set(forms)) != len(forms):
            raise AssertionError(n)
        for a, s, c in forms:
            if not (a * c == n and 0 <= s < a and c > 0):
                raise AssertionError((n, a, s, c))
    return "count sigma(n) and determinant a*c = n"


@_check("a(d) = p^(3v-2)(p^2-1) a(d_p) for all p | d, d <= 2000")
def _a_recursion():
    atab = sl2_order_table(2000)
    for d in range(2, 2001):
        for p, _ in arith.factorize(d):
            dp = arith.coprime_part(d, p)
            v = nu(p, d)
            if atab[d] != p ** (3 * v - 2) * (p * p - 1) * atab[dp]:
                raise AssertionError((d, p))
    return "recursion at every prime of every d <= 2000"
