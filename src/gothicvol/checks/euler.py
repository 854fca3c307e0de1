"""Checks of the ``euler`` suite: chi(X_{d^2}), W_{m^2}(2) integrality, the non-square
curves and the gothic values at squares, with ``ideals`` ruling the components.

The two non-square checks read e(D, k) off the F_k coefficients (qforms.fk_ints),
Moebius-inverted over the conductor, and hand it to euler._nonsquare_chi; the
prototype walk of prototypes.e_sums is tied to the same coefficients by the
qforms suite's e_and_a check, at every D <= 4000."""

from __future__ import annotations

import math

from .. import arith, euler, ideals, prototypes, qforms
from ..arith import moebius_table
from ..verify import _check


@_check("chi(X_{d^2}) = a(d)/72 against the mu-sum definition, d <= 5000")
def _chi_x_square():
    # 72 chi(X_{d^2}) against the integer d * sum_{r|d} mu(r) (d/r)^2
    N = 5000
    squares = [n * n for n in range(N + 1)]
    mu_sum = arith.dirichlet_convolve(moebius_table(N), squares, N)
    for d in range(1, N + 1):
        x = euler.chi_X_square(d)
        if 72 * x.numerator != d * mu_sum[d] * x.denominator:
            raise AssertionError(d)
    return "both formulas agree"


@_check("-6 chi(W_{m^2}(2)) is a nonnegative integer, zero iff m = 2, m <= 2000")
def _w2_integrality():
    for m in range(2, 2001):
        # -6 chi = -6 n / q with chi = n / q in lowest terms
        x = euler.chi_W2(m * m)
        n, q = x.numerator, x.denominator
        if not (6 * n % q == 0 and n <= 0):
            raise AssertionError(m)
        if (n == 0) != (m == 2):
            raise AssertionError(m)
    return "orbifold counts are honest integers"


def _nonsquare_sums(lo: int, hi: int, *ks: int):
    """(D, f, e(D, k) for each k in ks) at every non-square discriminant D in
    [lo, hi], by increasing D, from one F_k table per k: the Moebius
    inversion over the conductor f of the qforms suite's identity,
    e(D, k) = sum_{m | f} mu(m) e_k(D/m^2), where every D/m^2 is a
    non-square, so e_k(D/m^2) is an entry of qforms.fk_ints."""
    tables = [qforms.fk_ints(k, hi) for k in ks]
    mu = moebius_table(math.isqrt(hi))
    for D in range(lo, hi + 1):
        if D % 4 > 1 or math.isqrt(D) ** 2 == D:
            continue
        f = prototypes.conductor(D)
        terms = [(mu[m], D // (m * m)) for m in range(1, f + 1) if f % m == 0 and mu[m]]
        yield (D, f, *(sum(s * t[n] for s, n in terms) for t in tables))


@_check("gothic non-square 6 chi(G_D) is an integer, < 0 exactly on the residue set, D <= 2000")
def _gothic_residues():
    # a = n, c = -1 makes every k = 6 row a prototype, so e(D, 6) = 0 iff no
    # |b| < sqrt(D) has b^2 = D (mod 24); at D = 12 the root b = 6 exceeds
    # sqrt(12).  chi < 0 on a curve, 0 on an empty one, and 6 chi(G_D) is an
    # integer at every non-square D <= 20000 (measured, not a theorem)
    for D, f, e1, e6 in _nonsquare_sums(5, 2000, 1, 6):
        empty = euler.is_empty("g", D)
        if D != 12 and empty != (e6 == 0):
            raise AssertionError(("e(D, 6)", D))
        x = euler._nonsquare_chi("g", D, f, e1, e6)
        if 6 % x.denominator or not (x.numerator == 0 if empty else x.numerator < 0):
            raise AssertionError(D)
    return "emptiness scan"


@_check("2 chi(W_D(2)), 6 chi(W_D(4)) and 3 chi(W_D(6)) are integers, non-square D in (8, 2000]")
def _w_denominators():
    # W_D(2), D > 8, has orbifold points of order 2 only (Mukamel); the other
    # two bounds are measured at every non-square D <= 20000
    for D, f, e1 in _nonsquare_sums(9, 2000, 1):
        for family, s in (("w2", 2), ("w4", 6), ("w6", 3)):
            if s % euler._nonsquare_chi(family, D, f, e1, None).denominator:
                raise AssertionError((family, D))
    return "orbifold denominators of W_D(2), W_D(4), W_D(6)"


@_check("main_term vs leading gap, scaled by d^(5/2), half-range check, d <= 2000")
def _main_vs_leading():
    dmax = 2000
    # the integer tables -6 L chi(G_{d^2}); the remark check and the counting
    # suite tie them to chi_G.  |main - lead| = |Gl Lm - Gm Ll| / (6 Lm Ll),
    # and an int true division rounds as float() of the Fraction does
    Lm, main = euler._curve_counts("g", dmax, "main_term")
    Ll, lead = euler._curve_counts("g", dmax, "leading")
    den = 6 * Lm * Ll
    gaps = [0.0] * (dmax + 1)
    for d in range(1, dmax + 1):
        gaps[d] = abs(lead[d] * Lm - main[d] * Ll) / den / float(d) ** 2.5
    hi = max(gaps[dmax // 2 + 1 :])
    lo = max(gaps[dmax // 4 + 1 : dmax // 2 + 1])
    if not hi <= lo:
        raise AssertionError((hi, lo))
    return f"max gap {max(gaps):.4f}, upper half {hi:.4f} <= lower half {lo:.4f}"


@_check("components offered by chi_G(d^2, r) equal component_list(d), d <= 200")
def _chi_g_components():
    for d in range(2, 201):
        offered = []
        for r in (1, 2, 3, 6):
            try:
                euler.chi_G(d * d, r, "main_term")
                offered.append(r)
            except ValueError:
                pass
        if offered != ideals.component_list(d):
            raise AssertionError(d)
    return "validation mirrors the ideal classes"


@_check("remark values sit inside the boundary sandwich, d <= 500")
def _remark_sandwich():
    # main_term chi_G against the integer table the gap check reads
    L, table = euler._curve_counts("g", 500, "main_term")
    for d in range(2, 501):
        main = euler.chi_G(d * d, 1, "main_term")
        if -6 * L * main.numerator != table[d] * main.denominator:
            raise AssertionError(d)
        remark = euler.chi_G(d * d, 1, "remark")
        gap = euler.chi_boundary_gap(d, 1)
        if not main <= remark <= main + gap:
            raise AssertionError(d)
    return "main <= remark <= main + (9/d) chi(X(b_r))"
