"""
Masur-Veech volumes from lattice points
=======================================

The finale: vol = lim (1/D^4) sum_{d<=D} |C_d| for the four loci, against
their exact values

    H(2): pi^4/960   P3: 5 pi^4/6912   P4: 7 pi^4/69120   gothic: 13 pi^4/31104.

All sums are exact integers/rationals; floats appear only in the final
division.  The raw estimator converges like 1/D, so the Richardson
extrapolation 2 V(D) - V(D/2) sharpens the confirmation by an order of
magnitude.  The closed path evaluates the same partial sums for H(2), the
Prym loci and the leading-order gothic count as at most four terms
coeff * Sigma3(D // m), m | 6, each in O(sqrt D) exact steps, so the 1/D law
can be followed out to D = 10^9.  The AEZ-normalised volumes of the quadratic-differential strata
under the Prym double covers come out exactly from the conversion chains.
"""

from gothicvol.counting import Locus
from gothicvol.volume import (
    CLOSED_TERMS,
    closed_limit,
    convert_convention,
    sigma3_sum,
    volume_estimate,
    volume_exact,
)

D = 800  # raise to 2000+ for the full acceptance-level run
for locus in (Locus.H2, Locus.P3, Locus.P4, Locus.G):
    est = volume_estimate(locus, D, "direct", "main")
    print(f"{locus.value:6s}: exact {volume_exact(locus)} = {est.exact_target.to_float():.8f}")
    for Dc, v in est.series:
        print(f"         D = {Dc:5d}: estimate {v:.8f}")
    print(f"         Richardson: {est.extrapolated:.8f} "
          f"(raw rel err {est.relative_error:.2e}, "
          f"extrapolated {est.extrapolated_relative_error:.2e})")
    print()

print("closed terms coeff * Sigma3(D // m) vs their exact limits at D =", D, ":")
for locus in (Locus.H2, Locus.P3, Locus.P4, Locus.G):
    for c, m in CLOSED_TERMS[locus]:
        got = float(c * sigma3_sum(D // m)) / D**4
        want = closed_limit([(c, m)])
        print(f"   {locus.value:6s} {str(c):>6s} * Sigma3(D // {m}): "
              f"{got:.3e} -> {want} = {want.to_float():.3e}")
    if locus is Locus.H2:
        print("          - (3/4) T(D), T(D) = O(D^3)")
    print(f"          sum of the limits: {closed_limit(CLOSED_TERMS[locus])}")
print()

print("closed path (exact Sigma3 and T sums by the hyperbola method) at large D:")
for locus in (Locus.H2, Locus.P3, Locus.P4, Locus.G):
    for Dbig in (10**6, 10**9):
        est = volume_estimate(locus, Dbig, "closed")
        print(f"   {locus.value:6s} D = 10^{len(str(Dbig)) - 1}: "
              f"raw rel err {est.relative_error:.2e}, "
              f"Richardson {est.extrapolated_relative_error:.2e}")
print()

print("AEZ conversion (lattice index * area disintegration * pole numbering):")
print("   vol_AEZ(Q(-1^3, 3)) =", convert_convention(Locus.P3), "= 16 * 8 * 6 * vol(P3)")
print("   vol_AEZ(Q(-1, 5))   =", convert_convention(Locus.P4), "= 256 * 8 * vol(P4)")
