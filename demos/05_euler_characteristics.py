"""
The Euler-characteristic zoo
============================

Orbifold Euler characteristics of the Hilbert modular surfaces X_D and
X_{d^2}(b_r), the reducible locus R, and the Weierstrass / Prym / gothic
Teichmueller curve families.  Non-square discriminants have unconditional
formulas; square discriminants (the arithmetic curves carrying square-tiled
surfaces) get typed surrogate modes:

    main_term -- the boundary-free lower bound of the sandwich
    leading   -- the kappa' a(d) leading term
    remark    -- main_term plus a simulation-backed O(1/d) correction (r = 1)
"""

from gothicvol.euler import (
    chi_G,
    chi_R,
    chi_W2,
    chi_W4,
    chi_W6,
    chi_X_br,
    chi_X_nonsquare,
    chi_X_square,
    chi_boundary_gap,
    is_empty,
)

print("Hilbert modular surfaces:")
for d in (2, 3, 5, 6):
    print(f"   chi(X_{d*d:3d}) = {chi_X_square(d)}   chi(X(b_r)) = {chi_X_br(d, 1)}")
for D in (5, 8, 12):
    print(f"   chi(X_{D}) = {chi_X_nonsquare(D)}  (non-square)")
print()

print("genus-2 Weierstrass curves (exact in both branches):")
for D in (5, 8, 9, 16, 25):
    print(f"   chi(W_{D}(2)) = {chi_W2(D)}")
print()

print("Prym curves in genus 3 and 4:")
print("   chi(W_13(4)):", "empty" if is_empty("w4", 13) else chi_W4(13, 1))
print("   chi(W_17^1(4)) =", chi_W4(17, 1), " (two components, equal chi)")
print("   chi(W_8(6))  =", chi_W6(8))
print()

print("gothic curves, non-square discriminants:")
for D in (8, 12, 33, 73):
    print(f"   chi(G_{D}^1) =", "empty" if is_empty("g", D) else chi_G(D, 1))
print()

print("square discriminant surrogates at d = 5 (D = 25):")
print("   main_term:", chi_G(25, 1, "main_term"))
print("   leading:  ", chi_G(25, 1, "leading"))
print("   remark:   ", chi_G(25, 1, "remark"))
print("   sandwich width (9/d) chi(X(b_1)):", chi_boundary_gap(5, 1))
print()

print("reducible locus: chi(R_25^r) =", chi_R(25, "main_term"),
      "  chi(R_12^r) =", chi_R(12))
