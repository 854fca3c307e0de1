"""
Prototypes and the modular-form cross-check
===========================================

The counts e(D, k) = sum of a over prototypes [a, b, c] with a > 0 > c,
D = b^2 - 4kac and gcd(f, b, c0) = 1 carry the Euler characteristics of the
relevant curve families.  An entirely independent route to the same numbers
goes through the q-expansion of F_k = G2(2k tau) theta(tau): its coefficient
at q^D equals the sum of e(D/m^2, k) over m dividing the conductor.  The two
routes must agree at every discriminant -- the library's primary anti-bug
oracle.
"""

from gothicvol.prototypes import conductor, e_value, enumerate_prototypes
from gothicvol.qforms import check_e_and_a, ek_coeff, fk_expansion

print("prototypes for D = 5, k = 1:")
for a, b, c in enumerate_prototypes(5, 1):
    print("   ", [a, b, c])
print("e(5,1) =", e_value(5, 1))
print()

print("prototypes for D = 33, k = 1 (a-weighted count e(33,1) =", e_value(33, 1), "):")
for a, b, c in enumerate_prototypes(33, 1):
    print("   ", [a, b, c])
print()

# the q-expansion of F_1 around q = e^(pi i tau)
fk = fk_expansion(1, 40)
print("F_1 coefficients e_1(n), n = 0..12:")
print("  ", [str(c) for c in fk[:13]])
print()

# e_k(D) = sum_{m | f} e(D/m^2, k): at D = 45 the conductor is 3, so the
# coefficient aggregates two prototype counts
f = conductor(45)
print(f"D = 45 decomposes as f^2 D0 = {f}^2 * {45 // f**2}")
print("e_1(45) =", ek_coeff(1, 45), "= e(45,1) + e(5,1) =", e_value(45, 1), "+", e_value(5, 1))
print()

print("cross-check over all valid D <= 60, k in {1, 6}:")
ok = all(
    check_e_and_a(D, k) for D in range(4, 61) if D % 4 in (0, 1) for k in (1, 6)
)
print("   all consistent:", ok)
