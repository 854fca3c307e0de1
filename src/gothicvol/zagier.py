"""Gauss sums at prime powers, finite Euler factors and the coefficients
e*_k(d^2), ebar_k(d^2) for square arguments.

The Gauss sums gamma_{p^r}(d^2) follow the prime-power case tables

    p = 2:  1 if r = 0;  2^(r/2) if r even and nu_2(d^2) = r - 2;
            2^((r-1)/2) if r odd and nu_2(d^2) >= r - 1;  0 otherwise.
    p odd:  1 if r = 0;  p^(r/2-1)(p-1) if r even and nu_p(d^2) >= r;
            p^((r-1)/2) if r odd and nu_p(d^2) = r - 1;  0 otherwise.

They vanish for r > nu_p(d^2) + 2, so the local Euler factors

    P_k(p, n) = 1 + sum_{j>=1} gcd(p^j, 2k)^2 / p^(2j) * gamma_{p^j}(n)

are finite exact rational sums.  The infinite product e*_k(d^2) = prod_p P_k
is never truncated numerically: the tail over primes not dividing 2kd equals
prod (1 + p^-2) there, which is rewritten exactly as zeta(2)/zeta(4) = 15/pi^2
divided by the finitely many explicit factors.  e*_k is therefore carried as
a PiQuantity (rational times pi^-2), while

    ebar_k(d^2) = pi^2/(72 k^2) * d^3 * e*_k(d^2)

is an exact rational (the pi powers cancel).  This is the Euler-product route,
estar_euler_product(k, d), the one e*_k of the module.

ebar_1 also has the independent divisor-sum form
(5/12) d^3 sum_{ac | d} mu(a) / (c^3 a^2), the divisor-sum route.  Its inner
c-sum closes to sigma_3, so with the denominators cleared it is an integer:

    E(d) = (12/5) ebar_1(d^2) = sum_{a | d} mu(a) a sigma_3(d/a),
    60 ebar_6(d^2) = 25 E(d) - 15 (d/d_2)^3 E(d_2) - 20 (d/d_3)^3 E(d_3)
                     + 12 (d/d_6)^3 E(d_6).

The divisor-sum route works on these integers: per d in ebar1_exact and
ebar6_exact, which build one Fraction at the end, and for every d <= N at
once in the tables ebar1_five_twelfths (one Dirichlet-product sieve of
mu(a) a with sigma_3, never a closed form at prime powers) and
ebar6_sixtieths.  The four (coefficient, m) pairs of the ebar_6 reduction
are stated once, in _ebar6_sixtieths_at, which both ebar_6 forms read.  Both
routes are exposed and must agree exactly: the verify suite crosses the e*_1
and e*_6 products with the ebar_1 and ebar_6 tables.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .arith import (
    PiQuantity,
    coprime_part,
    dirichlet_convolve,
    divisors,
    factorize,
    is_prime,
    is_squarefree,
    moebius,
    moebius_table,
    nu,
    sigma,
    sl2_order_table,
)

def _gamma(p: int, r: int, v: int) -> int:
    """gamma_{p^r}(d^2) for a prime p and r >= 1, given v = nu_p(d^2)."""
    if p == 2:
        if r % 2 == 0:
            return 2 ** (r // 2) if v == r - 2 else 0
        return 2 ** ((r - 1) // 2) if v >= r - 1 else 0
    if r % 2 == 0:
        return p ** (r // 2 - 1) * (p - 1) if v >= r else 0
    return p ** ((r - 1) // 2) if v == r - 1 else 0


def gauss_gamma(p: int, r: int, d: int) -> int:
    """gamma_{p^r}(d^2) for a square argument, an integer, by the case tables."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if r < 0 or d < 1:
        raise ValueError("need r >= 0 and d >= 1")
    if r == 0:
        return 1
    return _gamma(p, r, 2 * nu(p, d))


def _euler_factor_ints(k: int, p: int, d: int) -> tuple[int, int]:
    """(N, p^(2J)) with P_k(p, d^2) = N / p^(2J), for a prime p and a
    squarefree k; J = nu_p(d^2) + 2 because all later Gauss sums vanish."""
    v = 2 * nu(p, d)
    J = v + 2
    total = p ** (2 * J)
    for j in range(1, J + 1):
        g = _gamma(p, j, v)
        if g:
            w = math.gcd(p**j, 2 * k)
            total += w * w * g * p ** (2 * (J - j))
    return total, p ** (2 * J)


def euler_factor(k: int, p: int, d: int) -> Fraction:
    """The local factor P_k(p, d^2), exact:

        P_k(p, d^2) = 1 + sum_j gcd(p^j, 2k)^2 p^(-2j) gamma_{p^j}(d^2).

    The sum stops at J = nu_p(d^2) + 2 because all later Gauss sums vanish;
    the Gauss sums are integers, so the sum is one numerator over p^(2J).
    """
    if not is_squarefree(k):
        raise ValueError(f"k = {k} must be squarefree")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Fraction(*_euler_factor_ints(k, p, d))


def estar_euler_product(k: int, d: int) -> PiQuantity:
    """e*_k(d^2) = prod_p P_k(p, d^2) as an exact rational times pi^-2.

    For p not dividing 2kd the factor is 1 + p^-2, so the product over those
    p is 15/pi^2 divided by the factors 1 + p^-2 at p | 2kd.  The local
    factors are multiplied as integer numerators and denominators, and the
    product is one Fraction.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not is_squarefree(k):
        raise ValueError(f"k = {k} must be squarefree")
    num, den = 15, 1  # zeta(2)/zeta(4) = 15/pi^2
    for p, _ in factorize(2 * k * d):
        # the factor, divided by 1 + p^-2 = (p^2 + 1)/p^2
        fnum, fden = _euler_factor_ints(k, p, d)
        num *= fnum * p * p
        den *= fden * (p * p + 1)
    return PiQuantity(Fraction(num, den), -2)


def _ebar1_five_twelfths_at(d: int) -> int:
    """E(d) = (12/5) ebar_1(d^2) = sum_{a|d} mu(a) a sigma_3(d/a), for d >= 1."""
    return sum(mu * a * sigma(3, d // a) for a in divisors(d) if (mu := moebius(a)))


def _ebar6_sixtieths_at(d: int, e1) -> int:
    """60 ebar_6(d^2) from E = (12/5) ebar_1, the callable ``e1``: the four
    pairs (c, m) of 25/36 e*_6(d^2) = sum c e*_1(m^2), m = d, d_2, d_3, d_6,
    each term weighed by (d/m)^3, as ebar_k = pi^2 d^3 e*_k / (72 k^2)."""
    return sum(c * (d // m) ** 3 * e1(m) for c, m in (
        (25, d), (-15, coprime_part(d, 2)), (-20, coprime_part(d, 3)), (12, coprime_part(d, 6))))


def ebar1_five_twelfths(N: int) -> tuple[int, ...]:
    """E(d) = (12/5) ebar_1(d^2) for 0 <= d <= N (entry 0 is 0), read-only.

    One Dirichlet-product sieve of mu(a) a with sigma_3, where sigma_3 is
    itself a divisor sieve: no value comes from a closed form at prime powers.
    """
    if N < 0:
        raise ValueError(f"a table needs N >= 0, got {N}")
    sigma3 = [0] * (N + 1)
    for q in range(1, N + 1):
        sigma3[q::q] = map((q**3).__add__, sigma3[q::q])
    mu = moebius_table(N)
    return tuple(dirichlet_convolve([m * a for a, m in enumerate(mu)], sigma3, N))


def ebar6_sixtieths(e1: tuple[int, ...]) -> tuple[int, ...]:
    """60 ebar_6(d^2) for 0 <= d < len(e1) (entry 0 is 0), read-only, from the
    table ``e1 = ebar1_five_twelfths(N)``."""
    return (0, *(_ebar6_sixtieths_at(d, e1.__getitem__) for d in range(1, len(e1))))


def ebar1_exact(d: int) -> Fraction:
    """ebar_1(d^2) = (5/12) d^3 sum_{a,c >= 1, ac | d} mu(a) / (c^3 a^2), exact.

    Evaluated as (5/12) sum_{a|d} mu(a) a sigma_3(d/a): the c-sum is sigma_3.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return Fraction(5 * _ebar1_five_twelfths_at(d), 12)


def ebar1_via_euler_product(d: int) -> Fraction:
    """ebar_1(d^2) through pi^2/72 * d^3 * e*_1(d^2); the pi powers cancel."""
    return (PiQuantity(Fraction(d**3, 72), 2) * estar_euler_product(1, d)).as_rational()


def ebar6_exact(d: int) -> Fraction:
    """ebar_6(d^2) as the exact four-term ebar_1 combination.

    ebar_6(d^2) = ebar_1(d^2) - 3/5 (d/d_2)^3 ebar_1(d_2^2)
                  - 4/5 (d/d_3)^3 ebar_1(d_3^2) + 12/25 (d/d_6)^3 ebar_1(d_6^2)
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return Fraction(_ebar6_sixtieths_at(d, _ebar1_five_twelfths_at), 60)


# The stated reach of ``zagier --what ebar``: at 200000 the request takes
# 6.8-7.9 s and 178 MB cold on 2 cores, most of it in the Fractions and the
# JSON of the rows (the two tables take 1.5 s).  Larger d_max is refused
# before any table is built.
EBAR_MAX_D = 200000


def ebar_rows(d_max: int) -> list[tuple[int, Fraction, Fraction]]:
    """(d, ebar_1(d^2), ebar_6(d^2)) for 1 <= d <= d_max, from the tables."""
    if d_max < 1:
        raise ValueError(f"need dmax >= 1, got {d_max}")
    if d_max > EBAR_MAX_D:
        raise ValueError(f"d_max = {d_max} is beyond the ebar-rows bound {EBAR_MAX_D}")
    e1 = ebar1_five_twelfths(d_max)
    e6 = ebar6_sixtieths(e1)
    return [(d, Fraction(5 * e1[d], 12), Fraction(e6[d], 60)) for d in range(1, d_max + 1)]


_KAPPA = {1: Fraction(2), 2: Fraction(3, 2), 3: Fraction(4, 3), 6: Fraction(1)}


def kappa(d: int) -> Fraction:
    """Leading constant of e(d^2, 6) / (a(d)/60), by the class of gcd(6, d)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return _KAPPA[math.gcd(6, d)]


class AsymptoticReport(namedtuple("AsymptoticReport", (
        "d_max", "delta1", "delta6", "delta1_upper_max", "delta1_lower_max", "delta1_ratio",
        "delta6_upper_max", "delta6_lower_max", "delta6_ratio"))):
    """Scaled deviations of e(d^2, k) from its main term, for k = 1 and 6.

    delta1[d] = |e(d^2,1) - (5/12) a(d)| / d^(5/2)
    delta6[d] = |e(d^2,6) - kappa(d) a(d) / 60| / d^(5/2)

    with the half-range maxima max over (d_max/2, d_max] and the previous
    half-range (d_max/4, d_max/2], plus their ratio.  An immutable tuple,
    unhashable because the delta lists are lists; they are left out of the
    repr.
    """

    __slots__ = ()

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self)
                          if name not in ("delta1", "delta6"))
        return f"AsymptoticReport({shown})"


def asymptotic_check_e(d_max: int) -> AsymptoticReport:
    """Deviation report for e(d^2, 1) and e(d^2, 6), d <= d_max.

    e(d^2, 1) is Besge's closed form, e(d^2, 6) is read from euler's store
    of the level-6 convolution route, which refuses d_max beyond its reach
    euler.E_SQUARE_MAX_D before any table is built.
    """
    if d_max < 24:
        raise ValueError("d_max must be >= 24")
    from .euler import precompute_e_square
    from .qforms import e1_square_twelfths

    e6 = precompute_e_square(d_max)
    e1 = e1_square_twelfths(d_max)
    atab = sl2_order_table(d_max)
    # kappa(d) = kn / kd by d mod 6, and e6[d] = 12 e(d^2, 6); each deviation
    # is one int / int division, correctly rounded as float(Fraction) is
    kappas = [(k.numerator, k.denominator) for k in map(kappa, (6, 1, 2, 3, 4, 5))]
    delta1 = [0.0] * (d_max + 1)
    delta6 = [0.0] * (d_max + 1)
    for d in range(1, d_max + 1):
        a = atab[d]
        kn, kd = kappas[d % 6]
        scale = float(d) ** 2.5
        delta1[d] = abs(e1[d] - 5 * a) / 12 / scale
        delta6[d] = abs(5 * kd * e6[d] - kn * a) / (60 * kd) / scale
    half, quarter = d_max // 2, d_max // 4
    up1 = max(delta1[half + 1 :])
    lo1 = max(delta1[quarter + 1 : half + 1])
    up6 = max(delta6[half + 1 :])
    lo6 = max(delta6[quarter + 1 : half + 1])
    return AsymptoticReport(
        d_max=d_max,
        delta1=delta1,
        delta6=delta6,
        delta1_upper_max=up1,
        delta1_lower_max=lo1,
        delta1_ratio=up1 / lo1 if lo1 else float("inf"),
        delta6_upper_max=up6,
        delta6_lower_max=lo6,
        delta6_ratio=up6 / lo6 if lo6 else float("inf"),
    )
