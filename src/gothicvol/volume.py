"""Masur-Veech volume estimators from lattice-point counts.

The volume of the area-1 locus is the limit of (1/D^4) sum_{d<=D} |C_d|,
where |C_d| = sum_{m|d} sigma(d/m) |S_{m,m}| counts torus covers of degree d.
Two evaluation paths are implemented:

    direct -- sum the cover counts exactly: the totals L |S_{m,m}| are
              Python ints over one denominator L per locus and surrogate,
              the curve counts -6 L chi at D = h^2 of euler._curve_counts
              placed at the degrees each curve meets, and one
              dot product with the sigma prefix sums gives the raw sum;
              floats only in the final division by D^4.  Every table
              has D + 1 entries, and numpy is never loaded.  D is
              refused beyond DIRECT_MAX_D;
    closed -- at most four terms coeff * Sigma3(D // m), m | 6, per locus
              (CLOSED_TERMS); H(2) adds -(3/4) T(D), T the Jordan-totient
              analogue.

The closed path needs no sieve table.  Since (sigma * a) = sigma_3, the
restricted sums S_k(D) = sum_{d<=D} sum_{m|d, k|m} sigma(d/m) a(m) are

    S_k(D) = sum_{n | k^inf, n <= D} g_k(n) Sigma3(floor(D/n)),
    Sigma3(x) = sum_{q<=x} q^3 floor(x/q),

with g_k multiplicative, g_k(p^j) = (p^2 - 1) p^(j+2e-2) for p^e || k and
j >= e (zero for j < e).  In each locus's rows coeff * S_k(D // r), the
verify oracle (checks/volume.py), the g_k tails cancel outside m = r n | 6,
which leaves CLOSED_TERMS.  T(D) = sum_{ab<=D} a^2 b (J_2 * sigma = Id_2 * Id);
Sigma3 and T are exact hyperbola sums, O(sqrt D) steps each, to D = 10^12.

Both paths have a table oracle, each the running sum of one Dirichlet product
(arith.dirichlet_convolve) with a sigma list of its own, one scalar sigma per
n: sk_prefix, a(m) [k | m] with sigma, for sk_sum; direct_prefix, the
counting.smm totals with sigma, for smm_totals and direct_raw_sum.

Sigma3(x) ~ pi^4 x^4/360 and T(D) = O(D^3), so the terms give each volume
exactly, as (pi^4/360) sum coeff / m^4 (closed_limit), and S_k(D) ~ c_k D^4
(sk_asymptotic_constant).  The raw estimator's error is O(1/D) relative, so
it also reports the Richardson extrapolation 2 V(D) - V(D/2).

Exact targets: vol H(2) = pi^4/960, P3 = 5 pi^4/6912, P4 = 7 pi^4/69120,
gothic = 13 pi^4/31104.  The AEZ quadratic-differential normalisation differs
by the factor chains 2^4 * 2^3 * 3! (P3) and 2^8 * 2^3 (P4), giving
5 pi^4/9 and 28 pi^4/135.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm
from operator import add, mul

from . import Locus, surrogate_mode
from .arith import (
    PiQuantity,
    dirichlet_convolve,
    factorize,
    sigma,
    sigma_prefix,
    sl2_order_table,
)


class VolumeEstimate(namedtuple("VolumeEstimate", (
        "locus", "D", "mode", "surrogate", "value", "extrapolated", "exact_target",
        "relative_error", "extrapolated_relative_error", "series", "series_exact"))):
    """A volume estimate at D: its value, the extrapolation, the exact target
    and the checkpoint series, as float (``series``) and exact raw sums
    (``series_exact``, left out of the repr); an immutable tuple, unhashable
    because the series are lists."""

    __slots__ = ()

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"VolumeEstimate({shown})"


# The stated reach of the closed path.  Cold at 10^12 on 2 cores (3-4 runs
# each, the benchmark's reference job at 1.05-1.3 times its nominal time),
# the slowest request, H(2) volume, takes 2.7-2.8 s; gothic 1.4-2.2 s, P3
# 1.0-1.6 s, P4 0.9-1.1 s, sk --k 6 1.3-1.6 s.  Larger D is refused before
# any work rather than left to run for minutes.
CLOSED_MAX_D = 10**12

# The stated reach of the direct path: the largest D whose slowest request,
# gothic main or remark, stays within 15 s and 800 MB cold on 2 cores.
# Measured at 250000: 7.8-11.4 s and 147 MB in 5 runs, about three quarters
# of it the Kronecker products of e(d^2, 6).  Larger D is refused before any
# work.
DIRECT_MAX_D = 250000


def _check_closed_bound(D: int) -> None:
    if D > CLOSED_MAX_D:
        raise ValueError(f"D = {D} is beyond the closed-path bound {CLOSED_MAX_D}")


def sigma3_sum(x: int) -> int:
    """Sigma3(x) = sum_{j<=x} sigma_3(j) = sum_{q<=x} q^3 floor(x/q), exact.

    Dirichlet hyperbola method with s = isqrt(x), in O(sqrt x) steps:
    Sigma3(x) = sum_{d<=s} F3(x//d) + sum_{q<=s} q^3 (x//q) - s F3(s),
    where F3(n) = t^2 with t = n(n+1)/2 is the Faulhaber sum of cubes.  x is
    refused below 0 and beyond CLOSED_MAX_D.
    """
    if x < 0:
        raise ValueError("need x >= 0")
    _check_closed_bound(x)
    s = isqrt(x)
    t = s * (s + 1) // 2
    total = -s * t * t
    for q in range(1, s + 1):
        y = x // q
        t = y * (y + 1) // 2
        total += t * t + q * q * q * y
    return total


def _gk_terms(k: int, D: int) -> list[tuple[int, int]]:
    """(n, g_k(n)) for every n | k^inf with n <= D.

    g_k = a_k * a^(-1), where a_k(m) = a(m) [k | m], is multiplicative and
    supported on n | k^inf: for p^e || k it is g_k(p^j) = (p^2 - 1) p^(j+2e-2)
    when j >= e and 0 when j < e.  Only k itself is factorised.
    """
    terms = [(1, 1)]
    for p, e in factorize(k):
        grown = []
        for n, g in terms:
            m = n * p**e
            gm = g * (p * p - 1) * p ** (3 * e - 2)
            while m <= D:
                grown.append((m, gm))
                m *= p
                gm *= p
        terms = grown
    return terms


def sk_sum(k: int, D: int) -> int:
    """S_k(D) = sum_{d<=D} sum_{m|d, (m,k)=k} sigma(d/m) a(m), exact.

    Since (sigma * a) = sigma_3, the restricted convolution factors as
    S_k(D) = sum_{n | k^inf, n <= D} g_k(n) Sigma3(floor(D/n)), with g_k from
    _gk_terms and each Sigma3 by the hyperbola method: about O(sqrt D)
    Python-int steps, no tables.  D is refused beyond CLOSED_MAX_D.
    """
    if D < 1 or k < 1:
        raise ValueError("need k, D >= 1")
    _check_closed_bound(D)
    if k > D:  # no multiple of k is <= D; skip factorising a huge k
        return 0
    return sum(g * sigma3_sum(D // n) for n, g in _gk_terms(k, D))


def t_sum(D: int) -> int:
    """T(D) = sum_{d<=D} sum_{m|d} sigma(d/m) J_2(m), the genus-2 correction.

    J_2 * sigma = (J_2 * 1) * Id = Id_2 * Id, so T(D) = sum_{ab<=D} a^2 b, by
    the hyperbola method with s = isqrt(D):
    T(D) = sum_{a<=s} a^2 F1(D//a) + sum_{b<=s} b F2(D//b) - F2(s) F1(s),
    with the Faulhaber sums F1(n) = t = n(n+1)/2 and F2(n) = t(2n+1)/3.
    """
    if D < 0:
        raise ValueError("need D >= 0")
    _check_closed_bound(D)
    s = isqrt(D)
    t = s * (s + 1) // 2
    total = -(t * (2 * s + 1) // 3) * t
    for q in range(1, s + 1):
        y = D // q
        t = y * (y + 1) // 2
        total += q * (q * t + t * (2 * y + 1) // 3)
    return total


def _sigma_list(N: int) -> list[int]:
    """sigma(n) for 0 <= n <= N (entry 0 = 0), one scalar arith.sigma per n:
    the oracles' own sigma, apart from the sigma_table the direct path reads."""
    return [0] + [sigma(1, n) for n in range(1, N + 1)]


def sk_prefix(k: int, Dmax: int) -> list[int]:
    """S_k(D) for every D <= Dmax (entry 0 = 0): the running sum of the
    Dirichlet product of a(m) [k | m] with sigma.

    The table route from the a(m) sieve table and _sigma_list, kept as the
    independent oracle for sk_sum.
    """
    ak = [x if m % k == 0 else 0 for m, x in enumerate(sl2_order_table(Dmax))]
    return list(accumulate(dirichlet_convolve(ak, _sigma_list(Dmax), Dmax)))


def sk_asymptotic_constant(k: int) -> PiQuantity:
    """c_k = lim S_k(D)/D^4 = pi^4/360 prod_{p^e || k} (p+1)/((p^2+p+1) p^(e-1)):
    Sigma3(x) ~ pi^4 x^4/360, and g_k(p^j)/p^(4j) summed over j >= e."""
    if k < 1:
        raise ValueError("need k >= 1")
    coeff = Fraction(1, 360)
    for p, e in factorize(k):
        coeff *= Fraction(p + 1, (p * p + p + 1) * p ** (e - 1))
    return PiQuantity(coeff, 4)


def volume_exact(locus: Locus) -> PiQuantity:
    """The exact Masur-Veech volume of the locus."""
    return {
        Locus.H2: PiQuantity(Fraction(1, 960), 4),
        Locus.P3: PiQuantity(Fraction(5, 6912), 4),
        Locus.P4: PiQuantity(Fraction(7, 69120), 4),
        Locus.G: PiQuantity(Fraction(13, 31104), 4),
    }[locus]


def convert_convention(locus: Locus) -> PiQuantity:
    """AEZ-normalised volume of the quadratic-differential stratum under the
    Prym double cover: lattice index, area disintegration and pole numbering.

    vol_AEZ(Q(-1^3, 3)) = 2^4 * 2^3 * 3! * vol(P3) = 5 pi^4 / 9
    vol_AEZ(Q(-1, 5))   = 2^8 * 2^3      * vol(P4) = 28 pi^4 / 135
    """
    if locus is Locus.P3:
        return volume_exact(locus) * (2**4 * 2**3 * 6)
    if locus is Locus.P4:
        return volume_exact(locus) * (2**8 * 2**3)
    raise ValueError("the AEZ conversion applies to P3 and P4 only")


# ---------------------------------------------------------------------------
# Direct path
# ---------------------------------------------------------------------------

class SmmTotals(namedtuple("SmmTotals", ("numerators", "denominator"))):
    """|S_{m,m}| = numerators[m] / denominator for 0 <= m <= mmax (entry 0 is 0);
    an immutable, hashable tuple (numerators, denominator)."""

    __slots__ = ()


def smm_totals(locus: Locus, mmax: int, surrogate: str = "main_term") -> SmmTotals:
    """|S_{m,m}| for 1 <= m <= mmax as Python ints over one denominator L.

    euler._curve_counts gives the locus's curves as -6 L chi at every D = h^2,
    h <= mmax (refusing mmax past euler.E_SQUARE_MAX_D where it reads
    e(h^2, 6)), and each component that euler._PLACEMENT names is added at
    the degrees m = r h it meets, one slice of h at a time.
    """
    mode = surrogate_mode(surrogate, locus)
    if mmax < 1:
        raise ValueError(f"need mmax >= 1, got {mmax}")
    from .euler import _PLACEMENT, _curve_counts

    family, ((_, r, _), *others) = _PLACEMENT[locus]
    L, curve = _curve_counts(family, mmax, mode)
    # the first component exists at every h and lands on zeros: a copy
    t = list(curve) if r == 1 else [0] * (mmax + 1)
    if r > 1:
        t[r::r] = curve[1 : mmax // r + 1]
    if mode == "remark":
        # the remark term is stated for component 1 only
        curve = _curve_counts(family, mmax, "main_term")[1]
    for _, r, q in others:
        # the h <= mmax // r prime to q, one residue a mod q at a time
        for a in range(1, q + 1):
            if gcd(a, q) == 1:
                t[r * a :: r * q] = map(add, t[r * a :: r * q], curve[a : mmax // r + 1 : q])
    return SmmTotals(tuple(t), L)


def direct_raw_sum(totals: SmmTotals, D: int) -> Fraction:
    """sum_{d<=D} |C_d| = sum_{m<=D} |S_{m,m}| * (sum_{e<=D/m} sigma(e)).

    The prefix sums come from one sigma_prefix(mmax), which every D up to
    the end of ``totals`` shares; the sum is one Python-int dot product over
    the common denominator of the totals.
    """
    t = totals.numerators
    if not 0 <= D < len(t):
        raise ValueError(f"need 0 <= D < {len(t)}, the length of totals")
    ssig = sigma_prefix(len(t) - 1)
    counts = map(ssig.__getitem__, map(D.__floordiv__, range(1, D + 1)))
    return Fraction(sum(map(mul, t[1 : D + 1], counts)), totals.denominator)


def direct_prefix(locus: Locus, Dmax: int, surrogate: str = "main_term") -> list[Fraction]:
    """Partial sums sum_{d<=D} |C_d| for every D <= Dmax (entry 0 = 0).

    The oracle for smm_totals and direct_raw_sum: |S_{m,m}| from
    counting.smm per m, scaled to ints L |S_{m,m}| over their common
    denominator L, and |C_d| as the Dirichlet product of those with
    _sigma_list, so it shares no table with the direct path.
    """
    from .counting import smm

    mode = surrogate_mode(surrogate, locus)
    totals = [smm(locus, m, mode).total for m in range(1, Dmax + 1)]
    L = lcm(*(t.denominator for t in totals))
    t = [0] + [x.numerator * (L // x.denominator) for x in totals]  # L |S_{m,m}|
    cd = dirichlet_convolve(t, _sigma_list(Dmax), Dmax)  # L |C_d|
    return [Fraction(x, L) for x in accumulate(cd)]


# ---------------------------------------------------------------------------
# Closed path
# ---------------------------------------------------------------------------

# Each term (coeff, m) is coeff * Sigma3(D // m) in sum_{d<=D} |C_d|; H(2)
# adds -(3/4) T(D).  Gothic is (13/120) sum_{m|6} m^2 Sigma3(D // m).
CLOSED_TERMS = {
    Locus.H2: ((Fraction(3, 8), 1),),
    Locus.P3: ((Fraction(5, 24), 1), (Fraction(5, 6), 2)),
    Locus.P4: ((Fraction(7, 12), 2),),
    Locus.G: tuple((Fraction(13 * m * m, 120), m) for m in (1, 2, 3, 6)),
}


def closed_raw_sum(locus: Locus, Ds: list[int]) -> list[Fraction]:
    """sum_{d<=D} |C_d| for each D of ``Ds``, in order: -(3/4) T(D) for H(2)
    plus the locus's CLOSED_TERMS at D.  The D share arguments D // m, as
    floor(floor(D/c)/m) = floor(D/(c m)), and each distinct one is summed
    once.  max(Ds) is refused beyond CLOSED_MAX_D."""
    _check_closed_bound(max(Ds))
    terms = CLOSED_TERMS[locus]
    s3 = {x: sigma3_sum(x) for x in {D // m for D in Ds for _, m in terms}}
    return [sum((c * s3[D // m] for c, m in terms),
                -Fraction(3, 4) * t_sum(D) if locus is Locus.H2 else Fraction(0)) for D in Ds]


def closed_limit(terms) -> PiQuantity:
    """The exact limit of sum coeff * Sigma3(D // m) / D^4 over ``terms`` (a
    locus's CLOSED_TERMS or any part of them): (pi^4/360) sum coeff / m^4."""
    return PiQuantity(sum((c / m**4 for c, m in terms), Fraction(0)) / 360, 4)


# ---------------------------------------------------------------------------
# The estimator
# ---------------------------------------------------------------------------

def volume_estimate(
    locus: Locus, D: int, mode: str = "direct", surrogate: str = "main_term"
) -> VolumeEstimate:
    """Partial-sum volume estimate with checkpoints at D/8, D/4, D/2, D and
    the Richardson extrapolation 2 V(D) - V(D/2) (the relative error of the
    raw estimator is O(1/D))."""
    if D < 12:
        raise ValueError("need D >= 12")
    if mode not in ("direct", "closed"):
        raise ValueError("mode must be 'direct' or 'closed'")
    if mode == "closed":
        _check_closed_bound(D)
    elif D > DIRECT_MAX_D:
        raise ValueError(f"D = {D} is beyond the direct-path bound {DIRECT_MAX_D}")
    surrogate = surrogate_mode(surrogate, locus)
    if surrogate == "remark" and mode == "closed":
        raise ValueError("the closed path has no remark term; use --mode direct")
    checkpoints = [D // 8, D // 4, D // 2, D]
    if mode == "direct":
        totals = smm_totals(locus, D, surrogate)
        raw = [direct_raw_sum(totals, Dc) for Dc in checkpoints]
    else:
        raw = closed_raw_sum(locus, checkpoints)
    series_exact = list(zip(checkpoints, raw))
    # all four loci are four-dimensional: dim H(2) = 2g + n - 1 = 4
    series = [(Dc, float(x) / Dc**4) for Dc, x in series_exact]
    value = series[-1][1]
    v_half = series[-2][1]
    extrapolated = 2.0 * value - v_half
    target = volume_exact(locus)
    tf = target.to_float()
    return VolumeEstimate(
        locus=locus,
        D=D,
        mode=mode,
        surrogate=surrogate,
        value=value,
        extrapolated=extrapolated,
        exact_target=target,
        relative_error=abs(value - tf) / tf,
        extrapolated_relative_error=abs(extrapolated - tf) / tf,
        series=series,
        series_exact=series_exact,
    )
