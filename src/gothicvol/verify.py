"""Consolidated cross-oracle verification suite.

Every invariant stated for the library's modules, at its full stated range,
as a registry of named checks keyed by name.  ``run_check(name)`` runs one
check and times it; ``run_suite`` runs a suite (or all of them) in
registration order and stops loudly at the first violation.  The CLI
subcommand ``verify`` runs every check fresh; the test suite runs each one
once per session and names the checks its acceptance criteria rest on.

Each check imports the library modules it calls, so a suite loads only what
its checks run: ``verify --suite ideals`` loads ``arith`` and ``ideals`` and
nothing else of the library.

The checks are deliberately redundant with independent routes: prototype
enumeration against modular-form coefficients, divisor-sum formulas against
Euler products, Euler-characteristic counts against brute-force permutation
pairs, closed asymptotic forms against direct summation.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from fractions import Fraction

from . import Locus, arith
from .arith import (
    divisors,
    hermite_sublattices,
    moebius,
    moebius_table,
    nu,
    sigma,
    sl2_order_table,
)


class CheckResult:
    """The outcome of one check; two results are equal when all fields are."""

    __slots__ = ("name", "suite", "ok", "elapsed_s", "detail")

    def __init__(self, name: str, suite: str, ok: bool, elapsed_s: float, detail: str = ""):
        self.name = name
        self.suite = suite
        self.ok = ok
        self.elapsed_s = elapsed_s
        self.detail = detail

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, name) for name in self.__slots__]
                == [getattr(other, name) for name in self.__slots__])

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"CheckResult({shown})"


# check name -> (suite, body); a body raises on a violation and may return a detail
_CHECKS: dict[str, tuple[str, Callable[[], str | None]]] = {}


def _check(name: str, suite: str):
    if name in _CHECKS:
        raise ValueError(f"duplicate check name {name!r}")

    def deco(fn):
        _CHECKS[name] = (suite, fn)
        return fn

    return deco


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------

@_check("sl2_order multiplicative on coprime pairs up to 500", "arith")
def _sl2_multiplicative():
    atab = sl2_order_table(500 * 500)
    small = sl2_order_table(500)
    for m in range(1, 501):
        for n in range(m, 501):
            if math.gcd(m, n) == 1:
                if atab[m * n] != small[m] * small[n]:
                    raise AssertionError((m, n))
    return "all coprime pairs m,n <= 500"


@_check("(sigma * a)(n) = sigma_3(n) for n <= 10^4", "arith")
def _sigma_conv_identity():
    N = 10**4
    atab = sl2_order_table(N)
    f = [0] + [sigma(1, n) for n in range(1, N + 1)]
    conv = arith.dirichlet_convolve(f, atab, N)
    for n in range(1, N + 1):
        if conv[n] != sigma(3, n):
            raise AssertionError(n)
    return f"dirichlet_convolve at N = {N}"


@_check("moebius inversion roundtrip at N = 2000", "arith")
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


@_check("hermite_sublattices: sigma(n) forms, each of index n, n <= 200", "arith")
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


@_check("a(d) = p^(3v-2)(p^2-1) a(d_p) for all p | d, d <= 2000", "arith")
def _a_recursion():
    atab = sl2_order_table(2000)
    for d in range(2, 2001):
        for p, _ in arith.factorize(d):
            dp = arith.coprime_part(d, p)
            v = nu(p, d)
            if atab[d] != p ** (3 * v - 2) * (p * p - 1) * atab[dp]:
                raise AssertionError((d, p))
    return "recursion at every prime of every d <= 2000"


# ---------------------------------------------------------------------------
# prototypes
# ---------------------------------------------------------------------------

@_check("prototype invariants and b -> -b parity, D <= 5000, k in {1,6}", "prototypes")
def _prototype_invariants():
    from . import prototypes

    # c = c0^2 c' is decomposed, and c' tested squarefree, once per distinct c
    c0_of: dict[int, int] = {}
    checked = 0
    for D in range(4, 5001):
        if D % 4 in (2, 3):
            continue
        f = prototypes.conductor_decompose(D).f
        for k in (1, 6):
            protos = prototypes.enumerate_prototypes(D, k)
            for a, b, c in protos:
                if not a > 0 > c:
                    raise AssertionError((D, k, (a, b, c)))
                if b * b - 4 * k * a * c != D:
                    raise AssertionError((D, k, (a, b, c)))
                c0 = c0_of.get(c)
                if c0 is None:
                    c0, cp = arith.squarefree_decompose(c)
                    if not (c0 * c0 * cp == c and arith.is_squarefree(abs(cp))):
                        raise AssertionError((D, k, (a, b, c)))
                    c0_of[c] = c0
                if math.gcd(math.gcd(f, abs(b)), c0) != 1:
                    raise AssertionError((D, k, (a, b, c)))
            if sum(b > 0 for _, b, _ in protos) != sum(b < 0 for _, b, _ in protos):
                raise AssertionError((D, k))
            checked += len(protos)
    return f"{checked} prototypes re-verified"


@_check("fundamental non-square D <= 1000: e(D,1) equals e_1(D)", "prototypes")
def _fundamental_matches_qexp():
    from . import prototypes, qforms

    for D in range(5, 1001):
        if D % 4 in (2, 3) or math.isqrt(D) ** 2 == D:
            continue
        if prototypes.conductor_decompose(D).f != 1:
            continue
        e = prototypes.e_value(D, 1)
        if e != qforms.ek_coeff(1, D):
            raise AssertionError(D)
        if not (e / 30).denominator <= 30:
            raise AssertionError(D)
    return "single-term Moebius inversion at conductor 1"


# ---------------------------------------------------------------------------
# qforms
# ---------------------------------------------------------------------------

@_check("F_k series product equals divisor-sum e_k(n), n <= 4000, k in {1,6}", "qforms")
def _product_vs_direct():
    from . import qforms

    N = 4000
    for k in (1, 6):
        fk = qforms.fk_expansion(k, N)
        for n in range(N + 1):
            if fk.coeff(n) != qforms.ek_coeff(k, n):
                raise AssertionError((k, n))
    return "Cauchy product vs divisor sums, both k"


@_check("e_k(D) = sum_{m|f} e(D/m^2, k), all valid D <= 4000, k in {1,6}", "qforms")
def _e_and_a():
    from . import qforms

    for D in range(4, 4001):
        if D % 4 in (2, 3):
            continue
        for k in (1, 6):
            if not qforms.check_e_and_a(D, k):
                raise AssertionError((D, k))
    return "prototype counts against modular-form coefficients"


@_check("empty residue class gives zero coefficient, k = 6, n <= 1000", "qforms")
def _empty_class_zero():
    from . import qforms

    for n in range(1001):
        bs = [b for b in range(-math.isqrt(n), math.isqrt(n) + 1) if (n - b * b) % 24 == 0]
        if not bs:
            if qforms.ek_coeff(6, n) != 0:
                raise AssertionError(n)
    return "scanned n <= 1000"


@_check("e(d^2, k) in twelfths equals the square tables, d <= 4000, k in {1,6}", "qforms")
def _e_square_routes():
    from . import qforms

    # k = 6: level-6 convolution sums against the D^2/24 sigma-sieve route;
    # k = 1: Besge's closed form 5 a(d) - 6 J_2(d) against the level-1 sums
    dmax = 4000
    new = qforms.e_square_twelfths(6, dmax)
    old = qforms.e_square_table(6, dmax)
    for d in range(1, dmax + 1):
        if Fraction(new[d], 12) != old[d]:
            raise AssertionError((6, d))
    if qforms.e_square_twelfths(1, dmax) != qforms.e1_convolution_twelfths(dmax):
        raise AssertionError((1, dmax))
    return "convolution route (k = 6) and Besge (k = 1) exact at every d"


# ---------------------------------------------------------------------------
# zagier
# ---------------------------------------------------------------------------

@_check("gauss sums vanish beyond r = nu_p(d^2) + 2, p <= 50, d <= 200", "zagier")
def _gamma_truncation():
    from . import zagier

    ps = [p for p in range(2, 51) if arith.is_prime(p)]
    for p in ps:
        for d in range(1, 201):
            v = 2 * nu(p, d)
            for r in range(v + 3, v + 8):
                if zagier.gauss_gamma(p, r, d) != 0:
                    raise AssertionError((p, r, d))
    return "five extra prime-power levels all zero"


@_check("euler factor reduction rules from P_1", "zagier")
def _euler_factor_reduction():
    from . import zagier

    for d in range(1, 101):
        p1_2 = zagier.euler_factor(1, 2, d)
        g2 = zagier.gauss_gamma(2, 1, d)
        for k in (2, 6):
            if zagier.euler_factor(k, 2, d) != 4 * p1_2 - 3 - 3 * g2:
                raise AssertionError((k, d))
        p1_3 = zagier.euler_factor(1, 3, d)
        for k in (3, 6):
            if zagier.euler_factor(k, 3, d) != 9 * p1_3 - 8:
                raise AssertionError((k, d))
    return "p = 2 and p = 3 rules, d <= 100"


@_check("ebar_1 divisor sum equals Euler product with zeta tail, d <= 500", "zagier")
def _ebar1_routes():
    from . import zagier

    for d in range(1, 501):
        if zagier.ebar1_exact(d) != zagier.ebar1_via_euler_product(d):
            raise AssertionError(d)
    return "both exact routes equal"


@_check("(12/5) moebius-sum of ebar_1(m^2) equals a(d), d <= 2000", "zagier")
def _ebar1_quadruple_convolution():
    from . import zagier

    # on the integer scale E = (12/5) ebar_1: sum_{m|d} mu(d/m) E(m) = a(d)
    N = 2000
    s = arith.dirichlet_convolve(moebius_table(N), zagier.ebar1_five_twelfths(N), N)
    atab = sl2_order_table(N)
    for d in range(1, N + 1):
        if s[d] != atab[d]:
            raise AssertionError(d)
    return "exact quadruple-convolution identity"


@_check("e*_6(d^2) Euler product equals the four-term e*_1 combination, d <= 500", "zagier")
def _estar6_routes():
    from . import zagier

    # the product of P_6(p, d^2) over p | 6d with the 15/pi^2 tail, against
    # estar6's combination of e*_1 at d, d_2, d_3, d_6 (each e*_1 built once)
    N = 500
    e1 = [None] + [zagier.estar1(d) for d in range(1, N + 1)]
    for d in range(1, N + 1):
        if zagier.estar_euler_product(6, d) != zagier.estar6(d, e1.__getitem__):
            raise AssertionError(d)
    return "exact at every d"


@_check("moebius-summed ebar_6 equals kappa(d) a(d)/60 exactly, d <= 1000", "zagier")
def _ebar6_kappa():
    from . import zagier

    # The raw ratio ebar_6(d^2) * 60 / a(d) tends to kappa(d) only along
    # d coprime to 6; in the other classes it converges to a factorisation-
    # dependent constant (deviations up to ~30%).  The main-term statement
    # behind the e(d^2, 6) asymptotics is the moebius-summed one, and that
    # turns out to be an exact identity, checked here for every d <= 1000.
    # All on the integer scale e6 = 60 ebar_6.
    e6 = zagier.ebar6_sixtieths(zagier.ebar1_five_twelfths(2000))
    atab = sl2_order_table(2000)
    N = 1000
    s = arith.dirichlet_convolve(moebius_table(N), e6, N)
    for d in range(1, N + 1):
        kap = zagier.kappa(d)
        if s[d] * kap.denominator != kap.numerator * atab[d]:
            raise AssertionError(d)
    # the coprime-to-6 raw ratio ebar_6 * 30 / a(d) = e6 / (2 a(d)) does
    # approach 1: within 10% for d >= 500
    for d in range(500, 2001):
        if math.gcd(6, d) == 1:
            if not 5 * abs(e6[d] - 2 * atab[d]) < atab[d]:
                raise AssertionError(d)
    return "exact identity in all classes; (6,d)=1 raw ratio within 10%"


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def _lattice_hnf(gens) -> tuple:
    """HNF of the lattice spanned by two QuadPairs (for brute-force equality)."""
    a, b = (gens[0].a1, gens[0].a2), (gens[1].a1, gens[1].a2)
    rows = [list(a), list(b)]
    # integer row reduction to upper triangular
    while rows[1][0]:
        if rows[0][0] == 0 or (rows[1][0] and abs(rows[1][0]) < abs(rows[0][0])):
            rows[0], rows[1] = rows[1], rows[0]
        q = rows[1][0] // rows[0][0]
        rows[1] = [x - q * y for x, y in zip(rows[1], rows[0])]
    if rows[0][0] < 0:
        rows[0] = [-x for x in rows[0]]
    if rows[1][1] < 0:
        rows[1] = [-x for x in rows[1]]
    if rows[1][1]:
        rows[0][1] %= rows[1][1]
    return tuple(rows[0]), tuple(rows[1])


@_check("ideal bases: membership and index 6 in the order, d <= 200, r | 6", "ideals")
def _ideal_bases():
    from . import ideals

    for d in range(2, 201):
        for r in (1, 2, 3, 6):
            spec = ideals.ideal_basis(d, 6, r)
            for g in spec.basis:
                if not ideals.ideal_membership(spec, g):
                    raise AssertionError((d, r))
            if spec.index_in_order() != 6:
                raise AssertionError((d, r))
    return "all divisors r of 6"


@_check("ideal_equal matches brute-force lattice equality, d <= 100", "ideals")
def _ideal_equal_brute():
    from . import ideals

    for d in range(2, 101):
        rs = (1, 2, 3, 6)
        hnfs = {r: _lattice_hnf(ideals.ideal_basis(d, 6, r).basis) for r in rs}
        for r in rs:
            for s in rs:
                if ideals.ideal_equal(d, 6, r, s) != (hnfs[r] == hnfs[s]):
                    raise AssertionError((d, r, s))
    return "lcm criterion vs HNF comparison"


@_check("galois conjugation swaps b_r and b_{6/r}, d <= 100", "ideals")
def _galois_swap():
    from . import ideals

    for d in range(2, 101):
        for r in (1, 2, 3, 6):
            src = ideals.ideal_basis(d, 6, r)
            dst = ideals.ideal_basis(d, 6, ideals.galois_conjugate(r, 6))
            for g in src.basis:
                if not ideals.ideal_membership(dst, g.conjugate()):
                    raise AssertionError((d, r))
            for g in dst.basis:
                if not ideals.ideal_membership(src, g.conjugate()):
                    raise AssertionError((d, r))
    return "membership of conjugated generators both ways"


@_check("class_count = sigma_0(6/(d,6)) = deduplicated ideal count, d <= 500", "ideals")
def _class_count_dedup():
    from . import ideals

    for d in range(2, 501):
        distinct = []
        for r in (1, 2, 3, 6):
            if not any(ideals.ideal_equal(d, 6, r, s) for s in distinct):
                distinct.append(r)
        if ideals.class_count(d, 6) != len(distinct):
            raise AssertionError(d)
        if sorted(distinct) != ideals.component_list(d):
            raise AssertionError(d)
    return "dedup by ideal_equal matches the sigma_0 rule"


@_check("trace pairing has symplectic type (1,6), d <= 200", "ideals")
def _symplectic_type():
    from . import ideals

    for d in range(2, 201):
        for r in ideals.component_list(d):
            M = ideals.gram_matrix(d, 6, r)
            if not all(M[i][j] == -M[j][i] for i in range(4) for j in range(4)):
                raise AssertionError((d, r))
            if ideals.symplectic_divisors(M) != (1, 6):
                raise AssertionError((d, r))
    return "congruence reduction on every component"


@_check("polarization restriction = (lcm(d,r), lcm(d,6/r)), d <= 500", "ideals")
def _polarization():
    from . import ideals

    for d in range(2, 501):
        for r in ideals.component_list(d):
            got = ideals.polarization_restriction(d, 6, r)
            if got != (math.lcm(d, r), math.lcm(d, 6 // r)):
                raise AssertionError((d, r, got))
    return "eigenform sublattice pairing on every component"


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------

@_check("chi(X_{d^2}) = a(d)/72 against the mu-sum definition, d <= 5000", "euler")
def _chi_x_square():
    from . import euler

    # 72 chi(X_{d^2}) against the integer d * sum_{r|d} mu(r) (d/r)^2
    N = 5000
    squares = [n * n for n in range(N + 1)]
    mu_sum = arith.dirichlet_convolve(moebius_table(N), squares, N)
    for d in range(1, N + 1):
        if 72 * euler.chi_X_square(d) != d * mu_sum[d]:
            raise AssertionError(d)
    return "both formulas agree"


@_check("-6 chi(W_{m^2}(2)) is a nonnegative integer, zero iff m = 2, m <= 2000", "euler")
def _w2_integrality():
    from . import euler

    for m in range(2, 2001):
        v = -6 * euler.chi_W2(m * m)
        if not (v.denominator == 1 and v >= 0):
            raise AssertionError(m)
        if (v == 0) != (m == 2):
            raise AssertionError(m)
    return "orbifold counts are honest integers"


@_check("gothic non-square non-emptiness exactly on the residue set, D <= 2000", "euler")
def _gothic_residues():
    from . import euler

    for D in range(5, 2001):
        if D % 4 in (2, 3) or math.isqrt(D) ** 2 == D:
            continue
        # a curve has chi < 0, and an empty one chi = 0
        chi = euler.chi_G(D, 1, "exact")
        if not (chi < 0 if D % 24 in euler.GOTHIC_RESIDUES else chi == 0):
            raise AssertionError(D)
    return "emptiness scan"


@_check("main_term vs leading gap, scaled by d^(5/2), half-range check, d <= 2000", "euler")
def _main_vs_leading():
    from . import euler

    dmax = 2000
    gaps = [0.0] * (dmax + 1)
    for d in range(1, dmax + 1):
        main = euler.chi_G(d * d, 1, "main_term")
        lead = euler.chi_G(d * d, 1, "leading")
        gaps[d] = float(abs(main - lead)) / float(d) ** 2.5
    hi = max(gaps[dmax // 2 + 1 :])
    lo = max(gaps[dmax // 4 + 1 : dmax // 2 + 1])
    if not hi <= lo:
        raise AssertionError((hi, lo))
    return f"max gap {max(gaps):.4f}, upper half {hi:.4f} <= lower half {lo:.4f}"


@_check("components offered by chi_G(d^2, r) equal component_list(d), d <= 200", "euler")
def _chi_g_components():
    from . import euler, ideals

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


@_check("remark values sit inside the boundary sandwich, d <= 500", "euler")
def _remark_sandwich():
    from . import euler

    for d in range(2, 501):
        main = euler.chi_G(d * d, 1, "main_term")
        remark = euler.chi_G(d * d, 1, "remark")
        gap = euler.chi_boundary_gap(d, 1)
        if not main <= remark <= main + gap:
            raise AssertionError(d)
    return "main <= remark <= main + (9/d) chi(X(b_r))"


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@_check("permutation oracle equals cd_count(H2, d), d = 1..8", "counting")
def _oracle_vs_cd():
    from . import counting

    for d in range(1, 9):
        got = counting.h2_permutation_oracle(d)
        want = counting.cd_count(Locus.H2, d)
        if got != want:
            raise AssertionError((d, got, want))
    return "exact equality through d = 8"


@_check("commutator convention invariance, d <= 6", "counting")
def _commutator_convention():
    from . import counting

    for d in range(1, 7):
        if counting.h2_permutation_oracle(d) != counting.h2_permutation_oracle(
            d, commutator="vh"
        ):
            raise AssertionError(d)
    return "h v h^-1 v^-1 vs v h v^-1 h^-1"


@_check("smm/cd consistency and hermite tie-back, d <= 200", "counting")
def _smm_cd_consistency():
    from . import counting

    # the weight sigma(d/m) counts the index-d/m sublattices; every such
    # index is some n <= 200, so each n is tied back once
    for n in range(1, 201):
        if len(hermite_sublattices(n)) != sigma(1, n):
            raise AssertionError(n)
    for locus in (Locus.H2, Locus.P4):
        totals = {m: counting.smm(locus, m).total for m in range(1, 201)}
        for d in range(1, 201):
            direct = counting.cd_count(locus, d)
            recomposed = sum(
                (sigma(1, d // m) * totals[m] for m in divisors(d)), Fraction(0)
            )
            if direct != recomposed:
                raise AssertionError((locus, d))
    return "sigma-weighted recomposition and HNF counts"


@_check("gothic leading smm totals are nonnegative, m <= 5000", "counting")
def _gothic_leading_nonneg():
    from . import counting

    for m in range(1, 5001):
        if not counting.smm(Locus.G, m, "leading").total >= 0:
            raise AssertionError(m)
    return "no negative weighted counts"


@_check("P3 second component appears iff m = 2 mod 4, with (m/2)^2 = 1 mod 8", "counting")
def _p3_gating():
    from . import counting

    for m in range(1, 501):
        cover = counting.smm(Locus.P3, m)
        has_second = any(comp == 2 for _, _, comp, _ in cover.contributions)
        if has_second != (m % 4 == 2):
            raise AssertionError(m)
        if has_second:
            if not ((m // 2) % 2 == 1 and ((m // 2) ** 2) % 8 == 1):
                raise AssertionError(m)
    return "component gating matches the discriminant residue"


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

@_check("(sigma * a)(d) = sigma_3(d) termwise and S_1 at 10^5", "volume")
def _s1_identity():
    from . import volume

    N = 10**5
    atab = sl2_order_table(N)
    sig = arith.sigma_table(N)
    # sigma_3 by a divisor sieve, independent of the multiplicative tables
    sig3 = [0] * (N + 1)
    for q in range(1, N + 1):
        sig3[q::q] = map((q**3).__add__, sig3[q::q])
    for d in range(1, N + 1):
        if sum(sig[d // m] * atab[m] for m in divisors(d)) != sig3[d]:
            raise AssertionError(d)
    if volume.sk_sum(1, N) != sum(sig3):
        raise AssertionError(("S_1", N))
    return "prefix sums of sigma_3 match S_1"


@_check("S_k asymptotics: ratio in [0.99, 1.01] at 10^5, O(1/D) deviation", "volume")
def _sk_asymptotics():
    from . import volume

    N = 10**5
    for k in (1, 2, 3, 6):
        c = volume.sk_asymptotic_constant(k).to_float()
        ratio = volume.sk_sum(k, N) / (c * N**4)
        if not 0.99 <= ratio <= 1.01:
            raise AssertionError((k, ratio))
        # measured dev * D stays below ~5 for all four k; assert the O(1/D)
        # envelope, and halving up to the envelope floor (the raw deviations
        # oscillate through zero once they reach ~1e-5, so strict halving
        # is not a property of the partial sums there)
        for D in (1000, 2000, 5000, 10000, 25000, 50000, 10**6, 10**9):
            dev1 = abs(volume.sk_sum(k, D) / (c * D**4) - 1)
            dev2 = abs(volume.sk_sum(k, 2 * D) / (c * (2 * D) ** 4) - 1)
            if not dev1 <= 8.0 / D:
                raise AssertionError((k, D, dev1))
            if not dev2 <= max(dev1, 8.0 / (2 * D)):
                raise AssertionError((k, D, dev1, dev2))
    return "all four k inside the 8/D envelope"


@_check("P4 direct equals closed at every D <= 2000; P3 and gothic too", "volume")
def _direct_vs_closed():
    from . import volume

    Dmax = 2000
    s1 = volume.sk_prefix(1, Dmax)
    s2 = volume.sk_prefix(2, Dmax)
    p4 = volume.direct_prefix(Locus.P4, Dmax)
    p3 = volume.direct_prefix(Locus.P3, Dmax)
    for D in range(1, Dmax + 1):
        # the table route is the oracle for the hyperbola route of sk_sum
        if s1[D] != volume.sk_sum(1, D):
            raise AssertionError(("S_1", D))
        if s2[D] != volume.sk_sum(2, D):
            raise AssertionError(("S_2", D))
        if p4[D] != Fraction(7, 12) * s1[D // 2]:
            raise AssertionError(("P4", D))
        closed_p3 = (
            Fraction(5, 24) * s1[D]
            + Fraction(5, 48) * s2[D]
            + Fraction(5, 24) * (s1[D // 2] - s2[D // 2])
        )
        if p3[D] != closed_p3:
            raise AssertionError(("P3", D))
    # gothic leading: agreement up to floor-boundary terms, bounded by D^3
    totals = volume.smm_totals(Locus.G, Dmax, "leading")
    for D in (500, 1000, 1500, 2000):
        gap = abs(volume.direct_raw_sum(totals, D) - volume.closed_raw_sum(Locus.G, D))
        if not gap <= D**3:
            raise AssertionError((D, gap))
    return "P4/P3 exact at every D; gothic gap within O(D^3)"


@_check("gothic closed summands match their exact limits within 2% at D = 4000", "volume")
def _gothic_summands():
    from . import volume

    D = 4000
    details = []
    for r in (1, 2, 3, 6):
        got = float(volume.gothic_closed_summand(r, D // r)) / D**4
        want = volume.GOTHIC_SUMMAND_LIMITS[r].to_float()
        rel = abs(got - want) / want
        if not rel <= 0.02:
            raise AssertionError((r, rel))
        details.append(f"r={r}: {rel:.4f}")
    total = sum(
        (volume.GOTHIC_SUMMAND_LIMITS[r] for r in (2, 3, 6)),
        volume.GOTHIC_SUMMAND_LIMITS[1],
    )
    if not (total.coeff == Fraction(13, 31104) and total.pi_power == 4):
        raise AssertionError(total)
    return "; ".join(details)


@_check("volume estimators inside the acceptance tolerances", "volume")
def _estimator_errors():
    from . import volume

    h2 = volume.volume_estimate(Locus.H2, 4000)
    if not h2.relative_error <= 0.01:
        raise AssertionError(h2.relative_error)
    p3 = volume.volume_estimate(Locus.P3, 4000)
    p4 = volume.volume_estimate(Locus.P4, 4000)
    if not (p3.relative_error <= 0.02 and p4.relative_error <= 0.02):
        raise AssertionError((p3.relative_error, p4.relative_error))
    g = volume.volume_estimate(Locus.G, 2000, "direct", "main")
    if not (g.relative_error <= 0.05 and g.extrapolated_relative_error <= 0.01):
        raise AssertionError((g.relative_error, g.extrapolated_relative_error))
    return (
        f"H2 {h2.relative_error:.2e}, P3 {p3.relative_error:.2e}, "
        f"P4 {p4.relative_error:.2e}, G {g.relative_error:.2e}"
        f" (extrap {g.extrapolated_relative_error:.2e})"
    )


@_check("AEZ conversion constants are reproduced exactly", "volume")
def _aez_constants():
    from . import volume

    p3 = volume.convert_convention(Locus.P3)
    p4 = volume.convert_convention(Locus.P4)
    if (p3.coeff, p3.pi_power) != (Fraction(5, 9), 4):
        raise AssertionError(p3)
    if (p4.coeff, p4.pi_power) != (Fraction(28, 135), 4):
        raise AssertionError(p4)
    if not (2**4 * 2**3 * 6 == 768 and Fraction(5, 6912) * 768 == Fraction(5, 9)):
        raise AssertionError("P3 factor chain")
    return "5 pi^4/9 and 28 pi^4/135 from the factor chains"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITES = ("all", *dict.fromkeys(suite for suite, _ in _CHECKS.values()))


def run_check(name: str) -> CheckResult:
    """Run the named check once and time it.

    A violation (AssertionError) is a FAIL at the place the check names; any
    other exception is a FAIL too, with a detail that starts with its type.
    """
    suite, fn = _CHECKS[name]
    t0 = time.perf_counter()
    try:
        detail = fn() or ""
        ok = True
    except AssertionError as exc:
        detail = f"FAILED at {exc.args[0] if exc.args else '?'}"
        ok = False
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    return CheckResult(name, suite, ok, time.perf_counter() - t0, detail)


def run_suite(
    suite: str = "all", report=print, stop_on_failure: bool = True
) -> list[CheckResult]:
    """Run the named suite (or all), reporting one line per check.

    Stops at the first violation unless told otherwise; the returned list
    carries per-check status and timings.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    results = []
    for name, (group, _) in _CHECKS.items():
        if suite != "all" and group != suite:
            continue
        r = run_check(name)
        results.append(r)
        if report:
            status = "PASS" if r.ok else "FAIL"
            report(f"[{status}] ({group}) {name} [{r.elapsed_s:.2f}s] {r.detail}")
        if not r.ok and stop_on_failure:
            break
    return results
