"""Square-tiled surface counts from Euler characteristics, and the independent
permutation-pair oracle for the minimal stratum in genus 2.

A minimal torus cover of degree and area m on an arithmetic Teichmueller
curve contributes to |S_{m,m}|, which equals -6 chi(C) of the curve.  Which
curves meet degree m is stated once, in euler._PLACEMENT: for each locus a
family (W(2) for H(2), W(4) for P3, W(6) for P4, G for the gothic locus) and
its components, each meeting m = r h at D = h^2 where it exists.

cd_count(locus, d) = sum_{m|d} sigma(d/m) |S_{m,m}| then counts all torus
covers of degree d (minimal or not), the quantity whose partial sums give the
Masur-Veech volume.  smm is the scalar route, one m at a time through the
euler.chi_* values; volume.smm_totals builds the same totals as one integer
table, its curves from euler._curve_counts placed by the same table.

The genus-2 oracle counts pairs (h, v) of permutations of d letters with
<h, v> transitive and commutator h v h^-1 v^-1 a single 3-cycle, weighted by
1/d! -- i.e. square-tiled surfaces in H(2) counted with weight 1/|Aut|.  It
must agree exactly with cd_count(H2, d), and it uses no Euler characteristic.
By Frobenius' formula for commutators the weighted count of such pairs on n
letters, transitive or not, is A_n = sum over lambda |- n of (sum of the
squared contents of lambda's boxes - n(n-1)/2), the central character of the
3-cycle class; every orbit but the 3-cycle's is a torus cover, counted by
p(n), so the transitive count is the coefficient of q^d in
(sum_n A_n q^n) prod_k (1 - q^k) (Eskin-Okounkov, Invent. Math. 145 (2001)).
It runs in pure Python: neither numpy nor ``euler`` is loaded.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from fractions import Fraction
from math import gcd, lcm

from . import Locus, arith, surrogate_mode


class CoverCount(namedtuple("CoverCount", ("m", "contributions", "total"))):
    """|S_{m,m}| split by contributing curve: an immutable, hashable tuple
    (m, contributions, total), whose contributions are (family, D, component,
    count) tuples and whose total is a Fraction."""

    __slots__ = ()


def sts_count(chi: Fraction) -> Fraction:
    """Number of minimal torus covers of degree and area m on a curve: -6 chi."""
    if chi.numerator > 0:
        raise ValueError("Teichmueller curves have chi <= 0")
    return Fraction(-6 * chi.numerator, chi.denominator)


@cache
def _euler():
    """The ``euler`` module, imported on the first ``smm`` call, so the
    permutation oracle runs without it.  ``verify`` calls ``smm`` thousands of
    times, and a cached call costs about a ninth of an import statement (35
    against 330 ns): without the cache ``verify --suite counting`` takes 6-9%
    more CPU (Python 3.11 on a 2-core Xeon, 41 alternated fresh runs)."""
    from . import euler

    return euler


def smm(locus: Locus, m: int, mode: str = "main_term") -> CoverCount:
    """|S_{m,m}(locus)| as curve contributions, one per component that
    euler._PLACEMENT places at degree m.

    ``mode`` is a surrogate the locus offers (SURROGATES): main_term, or for
    the gothic locus also leading / remark; H(2) values are exact under the
    main_term label, P3/P4 use their main-term formulas.  So the P3/P4
    values are surrogates, not square-tiled counts: smm(P3, 1) is 5/24,
    though a surface in H(4) needs at least 5 squares.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    mode = surrogate_mode(mode, locus)
    euler = _euler()
    family, components = euler._PLACEMENT[locus]
    parts: list[tuple[str, int, int | None, Fraction]] = []
    for component, r, q in components:
        h = m // r  # the component meets m = r h at the h prime to q
        if h * r != m or q > 1 and gcd(h, q) > 1:
            continue
        D = h * h
        if family == "g":
            # the remark correction is known for r = 1 only, and at d = 2
            # it exceeds the main term (the one chi > 0 artifact of the
            # conjectural formula); fall back to the sandwich lower bound
            fallback = mode == "remark" and (component != 1 or h == 2)
            chi = euler.chi_G(D, component, "main_term" if fallback else mode)
        elif family == "w4":
            chi = euler.chi_W4(D, component, mode)
        elif family == "w6":
            chi = euler.chi_W6(D, mode)
        elif m > 2:
            chi = euler.chi_W2(D)
        else:
            continue
        parts.append((family.upper(), D, component, sts_count(chi)))
    if len(parts) == 1:
        # most calls have one part; the lcm form below costs one more
        # Fraction per call, 8-9% of verify --suite counting's CPU, measured
        # as in _euler
        total = parts[0][3]
    else:
        counts = [part[3] for part in parts]
        den = lcm(*(c.denominator for c in counts))
        total = Fraction(sum(c.numerator * (den // c.denominator) for c in counts), den)
    return CoverCount(m, tuple(parts), total)


def cd_count(locus: Locus, d: int, mode: str = "main_term", smm_total=None) -> Fraction:
    """|C_d| = sum_{m|d} sigma(d/m) |S_{m,m}|: all torus covers of degree d.

    For P3/P4 this sums smm's main-term surrogates, so it is not a
    square-tiled count either: cd_count(P4, 2) is 7/12, though a surface in
    H(6) needs at least 7 squares.  The divisors m and their weights
    sigma(d/m) come from one factorisation of d.  ``smm_total(m)`` gives
    |S_{m,m}| at each m | d; it defaults to smm(locus, m, mode).total, and a
    caller that sums many d, as the verify smm/cd check does, hands in the
    totals it took once per m, and ``mode`` goes unread.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if smm_total is None:
        def smm_total(m):
            return smm(locus, m, mode).total
    # the m = d term first: by default it refuses a surrogate the locus
    # lacks, and for the gothic locus a d beyond the e(d^2, 6) store, before
    # d is factorised
    top = smm_total(d)
    # (m, sigma(d/m)) for each m | d, with sigma(p^j) = (p^(j+1) - 1)/(p - 1)
    pairs = [(1, 1)]
    for p, e in arith.factorize(d):
        pairs = [(m * p ** (e - j), w * ((p ** (j + 1) - 1) // (p - 1)))
                 for m, w in pairs for j in range(e + 1)]
    # the terms as ints over the least common denominator, as in smm
    terms = [(w, top if m == d else smm_total(m)) for m, w in pairs]
    den = lcm(*(t.denominator for _, t in terms))
    return Fraction(sum(w * t.numerator * (den // t.denominator) for w, t in terms), den)


# ---------------------------------------------------------------------------
# Permutation-pair oracle for H(2)
# ---------------------------------------------------------------------------

def _partitions(n: int, largest: int | None = None):
    """Integer partitions of n as non-increasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def h2_permutation_oracle(d: int) -> Fraction:
    """Weighted count of degree-d square-tiled surfaces in H(2), from scratch:
    the pairs (h, v) in S_d x S_d with <h, v> transitive whose commutator is a
    3-cycle, over d!, by the character sum of the module docstring."""
    # the reach by the 15 s / 800 MB cold rule on 2 cores: d = 50 took 8.3-9.4 s
    # in 16 MB, d = 52 11.8 s and d = 55 21 s
    if not 1 <= d <= 50:
        raise ValueError("oracle is cost-guarded to 1 <= d <= 50")
    a = [0] * (d + 1)  # A_n; no pair on n < 3 letters has a 3-cycle commutator
    for n in range(3, d + 1):
        for part in _partitions(n):
            # row i of length l holds the contents -i, ..., l - 1 - i
            a[n] += sum(l * (l - 1) * (2 * l - 1) // 6 - i * l * (l - 1) + l * i * i
                        for i, l in enumerate(part)) - n * (n - 1) // 2
    phi = [1] + [0] * d  # prod_k (1 - q^k) through q^d
    for k in range(1, d + 1):
        for n in range(d, k - 1, -1):
            phi[n] -= phi[n - k]
    return Fraction(sum(a[n] * phi[d - n] for n in range(3, d + 1)))
