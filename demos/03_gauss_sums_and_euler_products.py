"""
Gauss sums, local Euler factors and exact main terms
====================================================

For square arguments the Gauss sums gamma_{p^r}(d^2) vanish beyond
r = nu_p(d^2) + 2, so the Euler product of e*_1(d^2) has finite exact local
factors, with the tail over primes away from 2d folded into
zeta(2)/zeta(4) = 15/pi^2.  The resulting main terms

    ebar_1(d^2) = pi^2/72 d^3 e*_1(d^2)   (an exact rational)

satisfy two beautiful exact identities:
    (12/5) sum_{m|d} mu(d/m) ebar_1(m^2)       = a(d)
    60     sum_{m|d} mu(d/m) ebar_6(m^2)       = kappa(d) a(d),
with kappa = 2, 3/2, 4/3, 1 by gcd(6, d), which is why e(d^2, 1) grows like
(5/12) a(d) and e(d^2, 6) like kappa(d) a(d)/60.
"""

from fractions import Fraction

from gothicvol.arith import divisors, moebius, sl2_order
from gothicvol.zagier import (
    asymptotic_check_e,
    ebar1_exact,
    ebar1_via_euler_product,
    ebar6_exact,
    estar1,
    euler_factor,
    gauss_gamma,
    kappa,
)

print("gamma_{2^r}(1) for r = 0..4:", [str(gauss_gamma(2, r, 1)) for r in range(5)])
print("local factor P_1(2, 1) =", euler_factor(1, 2, 1))
print("local factor P_1(3, 1) =", euler_factor(1, 3, 1))
print("e*_1(1) =", estar1(1), " ->  ebar_1(1) =", ebar1_exact(1))
print()

print("two exact routes to ebar_1(d^2):")
for d in (1, 2, 6, 12, 30):
    a = ebar1_exact(d)
    b = ebar1_via_euler_product(d)
    print(f"   d={d:3d}: divisor sum {a} == euler product {b}: {a == b}")
print()

print("the moebius-summed main terms (exact identities):")
for d in (4, 6, 9, 35):
    s1 = sum((moebius(d // m) * ebar1_exact(m) for m in divisors(d)), Fraction(0))
    s6 = sum((moebius(d // m) * ebar6_exact(m) for m in divisors(d)), Fraction(0))
    print(
        f"   d={d:3d}: (12/5)*sum = {Fraction(12,5)*s1} = a(d) = {sl2_order(d)};"
        f"  60*sum = {60*s6} = kappa*a = {kappa(d)*sl2_order(d)}"
    )
print()

print("deviations |e(d^2,k) - main term| / d^(5/2) shrink (d <= 400):")
rep = asymptotic_check_e(400)
print(f"   k=1: max on (200,400] = {rep.delta1_upper_max:.4f}, "
      f"on (100,200] = {rep.delta1_lower_max:.4f}")
print(f"   k=6: max on (200,400] = {rep.delta6_upper_max:.4f}, "
      f"on (100,200] = {rep.delta6_lower_max:.4f}")
