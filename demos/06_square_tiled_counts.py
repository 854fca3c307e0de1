"""
Counting square-tiled surfaces without exhibiting them
======================================================

|S_{m,m}| -- the number of minimal torus covers of degree and area m in a
locus -- equals -6 chi(C) summed over the Teichmueller curves the covers
live on, and the discriminant of each curve is pinned down by m through the
polarisation computation.  |C_d| = sum_{m|d} sigma(d/m) |S_{m,m}| then
counts all degree-d torus covers.

For the minimal stratum in genus 2 there is a completely independent check:
count pairs of permutations (h, v) with transitive action and commutator a
single 3-cycle, weighted by 1/d!.  Frobenius' formula gives that count as a
sum over partitions: on n letters, transitive or not, it is the sum over
lambda |- n of (the squared contents of lambda's boxes - n(n-1)/2), and
multiplying by prod_k (1 - q^k) removes the torus components.  The two
computations must agree exactly; the verify suite checks d = 1..15.
"""

from gothicvol.counting import Locus, cd_count, h2_permutation_oracle, smm

print("|S_{m,m}| by locus, m = 1..12:")
for locus in Locus:
    row = [smm(locus, m).total for m in range(1, 13)]
    print(f"   {locus.value:6s}: {[str(x) for x in row]}")
print()

print("gothic |S_{m,m}| splits by component (m = 6 hits all four):")
for fam, D, r, cnt in smm(Locus.G, 6).contributions:
    print(f"   component r = {r}: curve of discriminant {D}, contributes {cnt}")
print()

print("|C_d| for the genus-2 stratum, d = 1..10:")
print("  ", [str(cd_count(Locus.H2, d)) for d in range(1, 11)])
print()

print("the permutation-pair oracle vs the Euler-characteristic route:")
for d in range(1, 21):
    a = h2_permutation_oracle(d)
    b = cd_count(Locus.H2, d)
    print(f"   d = {d}: oracle {a} == counts {b}: {a == b}")
