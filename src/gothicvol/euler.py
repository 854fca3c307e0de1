"""Euler characteristics of Hilbert modular surfaces, the reducible locus and
the Weierstrass / Prym / gothic Teichmueller curve families.

All values are orbifold Euler characteristics, exact rationals.  The core
formulas:

    chi(X_{d^2})        = a(d) / 72
    chi(X_D)            = e(D, 1) / 30                     (D not a square)
    chi(X_{d^2}(b_r))   = ratio * chi(X_{d^2}),  ratio in {1, 3/2, 4/3, 2}
                          by gcd(6, d) in {1, 2, 3, 6}
    chi(R_D^r)          = -e(D, 6) / (6 c_D),  c_D = #{b mod 12 : b^2 = D mod 24}
                          the number of ideals of norm 6; G_D is empty iff c_D = 0
    chi(W_D(2))         = -(9/2) chi(X_D)                  (D > 4 non-square)
    chi(W_{d^2}(2))     = -d^2 (d-2)/16 * sum_{r|d} mu(r)/r^2 = -(d-2) J_2(d)/16
    chi(W_D^j(4))       = -(5/2) chi(X_D) if f odd, -(15/4) chi(X_D) if f even
    chi(W_D(6))         = -7 chi(X_D)
    chi(G_D^j)          = -(3/2, 9/4, 2, 3 by gcd(6,f)) chi(X_D) - 2 chi(R^j)

For square discriminants the curve formulas (other than genus 2) are not
unconditional: the Baily-Borel boundary contributes an unknown correction of
relative size O(1/d).  Those values are therefore typed by a ``mode``, and
check_mode refuses a mode missing from its family's gothicvol.FAMILY_MODES:

    exact      -- unconditional formula (non-square D; X, X(b_r), W(2) at squares)
    main_term  -- the boundary-free lower bound of the square-discriminant
                  sandwich, adopted as surrogate (default in volume sums)
    leading    -- the pure a(d) leading term with the kappa' constants
                  {13/720, 13/480, 13/540, 13/360} by gcd(6, d)
    remark     -- main_term plus the simulation-backed (2,6,3,9)/d correction
                  (gothic component r = 1 only; never used by default)

The d = 1 degenerate discriminant is allowed in surrogate modes through the
value chain chi(X_1) = 1/72, e(1, k) = -1/12, so that the closed S_k forms of
the volume estimators match the direct sums term by term.

At a square D = d^2, chi(R_D) and chi(G_D) read e(d^2, 6) from one
self-growing tuple of 12 e(d^2, 6), which precompute_e_square grows and
hands out; k = 6 is the only weight any formula asks for at a square.  It
refuses d > E_SQUARE_MAX_D before any build.  Every chi_* at a square D
builds one Fraction from integers: a(d), 12 e(d^2, 6) and the small
constants above.  At a non-square D, every chi_* hands the sums of
prototypes.e_sums, imported where read, to _nonsquare_chi, the only
statement of those formulas, which the verify checks read too.  _curve_counts
gives the W(2), W(4), W(6) and gothic values at every D = h^2, h <= N, as
one table of integers -6 L chi: the only statement of those table formulas,
which volume.smm_totals and the verify scans read.  Beside it, _PLACEMENT
states which curve components meet each degree of |S_{m,m}|: the one
placement, which counting.smm and volume.smm_totals read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import FAMILY_MODES, Locus
from .arith import _validate_discriminant, jordan2, jordan2_table, sl2_order, sl2_order_table

# chi(X_{d^2}(b_r)) / chi(X_{d^2}) by gcd(6, d); also the gothic coefficient
# -chi coefficient table is 3/2 times this.
X_BR_RATIO = {1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(4, 3), 6: Fraction(2)}

# -chi(G_{d^2}^r) ~ KAPPA_PRIME[gcd(6,d)] * a(d)
KAPPA_PRIME = {
    1: Fraction(13, 720),
    2: Fraction(13, 480),
    3: Fraction(13, 540),
    6: Fraction(13, 360),
}

# Remark correction coefficients (r = 1), by gcd(6, d)
REMARK_COEFF = {1: 2, 2: 6, 3: 3, 6: 9}

# c_D, the number of ideals of norm 6 in O_D, by D mod 24: the number of
# b mod 12 with b^2 = D (mod 24).  G_D is empty exactly where it is 0.
_NORM6 = tuple(sum((b * b - r) % 24 == 0 for b in range(12)) for r in range(24))


def _is_square(D: int) -> int | None:
    r = math.isqrt(max(D, 0))
    return r if r * r == D else None


def is_empty(family: str, D: int) -> bool:
    """Whether the curve family, named as by ``chi --family``, is empty at D.

    W_4(2) ("w2") is empty, W_D(4) ("w4") when D = 5 mod 8 and G_D ("g") when
    O_D has no ideal of norm 6 (c_D = 0), which no square is.  No other curve
    is ever empty.  The chi_* functions give an empty curve chi = 0.
    """
    if family == "w2":
        return D == 4  # no 2-square surface lies in H(2)
    if family == "w4":
        return D % 8 == 5
    if family == "g":
        return _NORM6[D % 24] == 0
    return False


def check_mode(family: str, D: int, mode: str) -> int | None:
    """Refuse a D that is no discriminant and a mode that ``family`` does not
    offer at D; return d for a square D = d^2, None for a non-square D."""
    _validate_discriminant(D)
    d = _is_square(D)
    offered = ("exact",) if d is None else FAMILY_MODES[family]
    if mode not in offered:
        if d is None:
            raise ValueError("non-square discriminants use mode='exact'")
        if len(offered) == 1:
            raise ValueError(f"square discriminants require mode={offered[0]!r}")
        raise ValueError("square discriminants have no unconditional formula; "
                         f"pick mode in {{{', '.join(map(repr, offered))}}}")
    return d


# ---------------------------------------------------------------------------
# Hilbert modular surfaces
# ---------------------------------------------------------------------------

def chi_X_square(d: int) -> Fraction:
    """chi(X_{d^2}) = a(d)/72; d = 1 gives the non-standard value 1/72."""
    if d < 1:
        raise ValueError("need d >= 1")
    return Fraction(sl2_order(d), 72)


E_SQUARE_MAX_D = 250000  # the reach of the e(d^2, 6) table, the direct path's DIRECT_MAX_D

# 12 e(d^2, 6) for 0 <= d < len(_E6_TWELFTHS), from qforms.e6_square_twelfths
_E6_TWELFTHS: tuple[int, ...] = ()


def precompute_e_square(dmax: int) -> tuple[int, ...]:
    """The table of 12 e(d^2, 6), grown to cover dmax.

    A build covers max(dmax, twice the last one), so rising lookups pay for
    O(log) builds of a geometric series; no build exceeds E_SQUARE_MAX_D, and
    dmax beyond it is refused first.
    """
    global _E6_TWELFTHS
    if dmax > E_SQUARE_MAX_D:
        raise ValueError(f"d = {dmax} is beyond the e(d^2, k) bound {E_SQUARE_MAX_D}")
    if len(_E6_TWELFTHS) <= dmax:
        from .qforms import e6_square_twelfths

        size = min(max(dmax, 2 * (len(_E6_TWELFTHS) - 1)), E_SQUARE_MAX_D)
        _E6_TWELFTHS = e6_square_twelfths(size)
    return _E6_TWELFTHS


def chi_X_nonsquare(D: int) -> Fraction:
    """chi(X_D) = e(D, 1)/30 for a non-square discriminant D > 4."""
    if check_mode("x", D, "exact") is not None:
        raise ValueError(f"D = {D} is a square; use chi_X_square")
    return chi_X(D)


def chi_X(D: int) -> Fraction:
    """chi(X_D), dispatching on squareness."""
    d = check_mode("x", D, "exact")
    if d is not None:
        return chi_X_square(d)
    from .prototypes import e_sums

    return _nonsquare_chi("x", D, *e_sums(D, 1), None)


def _check_component(D: int, d: int | None, r: int) -> None:
    """Refuse an r that names no component of G_D, or of R_D^r, which has the
    same ones: one per ideal of norm 6.  At a square D = d^2 they are the r
    dividing 6/(6, d), sigma_0(6/(d, 6)) = c_{d^2} of them, and d = 1 accepts
    any r | 6; at a non-square D (d None) they are 1, ..., c_D, and an empty
    G_D accepts component 1 only."""
    if d is None:
        if not 1 <= r <= max(_NORM6[D % 24], 1):
            raise ValueError(f"component index {r} out of range for D = {D}")
    elif r < 1 or (6 // math.gcd(6, d)) % r:
        raise ValueError(f"r = {r} does not name a component for d = {d}")


def chi_X_br(d: int, r: int) -> Fraction:
    """chi(X_{d^2}(b_r)): the (1,6)-polarised surface, independent of r.

    r must name a component (r | 6/(6, d), which is ideals.component_list(d)).
    """
    _check_component(d * d, d, r)
    if d < 1:
        raise ValueError("need d >= 1")
    ratio = X_BR_RATIO[math.gcd(6, d)]
    return Fraction(ratio.numerator * sl2_order(d), 72 * ratio.denominator)


# ---------------------------------------------------------------------------
# Reducible locus
# ---------------------------------------------------------------------------

def c_D(D: int) -> int:
    """Number of ideals of norm 6 in O_D, the b mod 12 with b^2 = D (mod 24);
    refused where there is none (G_D empty)."""
    _validate_discriminant(D)
    c = _NORM6[D % 24]
    if not c:
        raise ValueError(f"c_D undefined: D = {D} is outside the gothic residue table")
    return c


def chi_R(D: int, mode: str = "exact", r: int = 1) -> Fraction:
    """chi(R_D^r) = -e(D, 6) / (6 c_D), the same for each component r, which
    are those of G_D; square D is a main-term surrogate, -E / (72 c_D) with
    E = 12 e(d^2, 6)."""
    d = check_mode("r", D, mode)
    _check_component(D, d, r)
    if d is not None:
        return Fraction(-precompute_e_square(d)[d], 72 * _NORM6[D % 24])
    from .prototypes import e_sums

    f, e6 = e_sums(D, 6)  # e(D, 6) before c_D's refusal
    return _nonsquare_chi("r", D, f, None, e6)


# ---------------------------------------------------------------------------
# Teichmueller curve families
# ---------------------------------------------------------------------------

def chi_W2(D: int) -> Fraction:
    """chi(W_D(2)); exact in both the square and non-square branch."""
    d = check_mode("w2", D, "exact")
    if d is not None:
        if d < 2:
            raise ValueError("W_1(2) is undefined")
        # d^2 sum_{r|d} mu(r)/r^2 = J_2(d)
        return Fraction(-(d - 2) * jordan2(d), 16)
    from .prototypes import e_sums

    return _nonsquare_chi("w2", D, *e_sums(D, 1), None)


def chi_W4(D: int, j: int = 1, mode: str = "exact") -> Fraction:
    """chi(W_D^j(4)): empty (0) if D = 5 mod 8, one component if D = 0,4 mod 8,
    two if D = 1 mod 8, both of _nonsquare_chi's value at a non-square D.
    Square discriminants require mode='main_term'; at D = d^2 the conductor is
    d and chi(X_D) = a(d)/72: -5 a(d)/144 (d odd) or -5 a(d)/96 (d even)."""
    d = check_mode("w4", D, mode)
    if j == 2 and D % 8 != 1:
        raise ValueError(f"W_D(4) has a single component for D = {D}")
    if j not in (1, 2):
        raise ValueError("component j must be 1 or 2")
    if d is not None:
        return Fraction(-5 * sl2_order(d), 144 if d % 2 else 96)
    if is_empty("w4", D):
        return Fraction(0)
    from .prototypes import e_sums

    return _nonsquare_chi("w4", D, *e_sums(D, 1), None)


def chi_W6(D: int, mode: str = "exact") -> Fraction:
    """chi(W_D(6)) = -7 chi(X_D); irreducible.  Squares are main-term,
    -7 a(d)/72 at D = d^2."""
    d = check_mode("w6", D, mode)
    if d is not None:
        return Fraction(-7 * sl2_order(d), 72)
    from .prototypes import e_sums

    return _nonsquare_chi("w6", D, *e_sums(D, 1), None)


def chi_G(D: int, r: int = 1, mode: str = "exact") -> Fraction:
    """chi(G_D^r) per the four-case formula, 0 where G_D is empty; at a square
    D in one of the surrogates FAMILY_MODES["g"] (remark: r = 1 only).

    The value is one numerator over one denominator, _nonsquare_chi's at a
    non-square D.  At D = d^2 (E = 12 e(d^2, 6), a = a(d), ratio =
    X_BR_RATIO[gcd(6, d)]), main_term -(3/2) chi(X_{d^2}(b_r)) - 2 chi(R_D) =
    -ratio a/48 + E/(36 c_D) and remark adds (REMARK_COEFF/d) chi(X_{d^2}(b_1))
    = REMARK_COEFF ratio a/(72 d).  An empty G_D accepts component 1 only.
    """
    d = check_mode("g", D, mode)
    _check_component(D, d, r)
    if d is None:
        if is_empty("g", D):
            return Fraction(0)
        from .prototypes import e_sums

        return _nonsquare_chi("g", D, *e_sums(D, 1, 6))
    g6 = math.gcd(6, d)
    if mode == "leading":
        kappa = KAPPA_PRIME[g6]
        return Fraction(-kappa.numerator * sl2_order(d), kappa.denominator)
    # the store refuses d beyond its reach before sl2_order factorises d
    e12 = precompute_e_square(d)[d]
    a = sl2_order(d)
    rn, rd = X_BR_RATIO[g6].as_integer_ratio()
    c = _NORM6[D % 24]
    num = 4 * rd * e12 - 3 * c * rn * a  # over 144 rd c
    if mode != "remark":
        return Fraction(num, 144 * rd * c)
    if r != 1:
        raise ValueError("the remark formula is stated for r = 1 only")
    return Fraction(d * num + 2 * c * REMARK_COEFF[g6] * rn * a, 144 * rd * c * d)


def _nonsquare_chi(family: str, D: int, f: int, e1: int | None, e6: int | None) -> Fraction:
    """chi of component 1 of ``family`` (as ``chi --family`` names it) at a
    non-square D from the conductor f, e1 = e(D, 1) and e6 = e(D, 6), None
    where unread: the one statement of the non-square formulas above."""
    if is_empty(family, D):
        return Fraction(0)
    if family == "r":  # c_D refuses an empty G_D
        return Fraction(-e6, 6 * c_D(D))
    if family == "g":  # -(3/2) ratio e1/30 + e6/(3 c) over one denominator
        c = _NORM6[D % 24]
        rn, rd = X_BR_RATIO[math.gcd(6, f)].as_integer_ratio()
        return Fraction(20 * rd * e6 - 3 * c * rn * e1, 60 * rd * c)
    num, den = {"x": (1, 1), "w2": (-9, 2), "w6": (-7, 1),
                "w4": (-5, 2) if f % 2 else (-15, 4)}[family]
    return Fraction(num * e1, 30 * den)  # num/den times chi(X_D) = e1/30


# Which curves meet degree m of |S_{m,m}| in each locus: its family, as
# ``chi --family`` names it, and each component as (component, r, q), None for
# an irreducible family.  At D = h^2 it meets m = r h and exists at the h prime
# to q: W^2_{h^2}(4) at odd h, gothic r where _check_component accepts it.
_PLACEMENT = {Locus.H2: ("w2", ((None, 1, 1),)),
              Locus.P3: ("w4", ((1, 1, 1), (2, 2, 2))),
              Locus.P4: ("w6", ((None, 2, 1),)),
              Locus.G: ("g", ((1, 1, 1), (2, 2, 2), (3, 3, 3), (6, 6, 6)))}


def _by_residue(L: int, coeff) -> tuple[int, ...]:
    """L * coeff(gcd(6, h)) indexed by h mod 6; each must be an integer."""
    out = []
    for g in (math.gcd(6, h) for h in range(6)):
        x = L * Fraction(coeff(g))
        if x.denominator != 1:
            raise ArithmeticError(f"{L} * {coeff(g)} is not an integer")
        out.append(x.numerator)
    return tuple(out)


def _curve_counts(family: str, h_max: int, mode: str) -> tuple[int, list[int]]:
    """(L, C) with C[h] = -6 L chi of the family's component 1 at D = h^2,
    1 <= h <= h_max (C[0] = 0): chi_W2, chi_W4, chi_W6 and chi_G (r = 1, in
    ``mode``) as one integer table, which volume.smm_totals distributes.
    With g = gcd(6, h), ratio = X_BR_RATIO[g] and c = _NORM6[g^2 mod 24]:

        w2: 3 (h - 2) J_2(h)/8, and 0 at h = 1 (W_1(2) is undefined);
        w4: 5 a(h)/24 (h odd) or 5 a(h)/16 (h even);
        w6: 7 a(h)/12;
        g:  leading 6 kappa'(g) a(h); main_term (ratio/8) a(h) - (2/c) e(h^2, 6);
            remark adds -6 (REMARK_COEFF/h) chi(X_{h^2}(b_1)) = -(REMARK_COEFF
            ratio/12) J_2(h) except at h = 2, as a(h)/h = J_2(h).

    e(h^2, 6) is read from precompute_e_square, the store chi_G reads.
    """
    if family == "w2":
        jtab = jordan2_table(h_max)
        return 8, [3 * (h - 2) * jtab[h] if h > 2 else 0 for h in range(h_max + 1)]
    atab = sl2_order_table(h_max)
    if family != "g" or mode == "leading":
        L, coeff = {"w4": (48, lambda g: Fraction(5, 24 if g % 2 else 16)),
                    "w6": (12, lambda g: Fraction(7, 12)),
                    "g": (720, lambda g: 6 * KAPPA_PRIME[g])}[family]
        ca = _by_residue(L, coeff)
        return L, [ca[h % 6] * atab[h] for h in range(h_max + 1)]
    L = 48
    ca = _by_residue(L, lambda g: X_BR_RATIO[g] / 8)
    # e(h^2, 6) = e12[h] / 12
    ce = _by_residue(L, lambda g: Fraction(-2, 12 * _NORM6[g * g % 24]))
    e12 = precompute_e_square(h_max)
    C = [0] + [ca[h % 6] * atab[h] + ce[h % 6] * e12[h] for h in range(1, h_max + 1)]
    if mode == "remark":
        jtab = jordan2_table(h_max)
        cj = _by_residue(L, lambda g: -REMARK_COEFF[g] * X_BR_RATIO[g] / 12)
        C[1:] = (x + cj[h % 6] * jtab[h] if h != 2 else x for h, x in enumerate(C[1:], 1))
    return L, C


def chi_boundary_gap(d: int, r: int) -> Fraction:
    """Width (9/d) chi(X_{d^2}(b_r)) of the square-discriminant sandwich.

    9 is the largest remark coefficient, so the remark values sit inside the
    sandwich by construction while main_term values still face a real
    assertion.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    return Fraction(max(REMARK_COEFF.values()), d) * chi_X_br(d, r)
