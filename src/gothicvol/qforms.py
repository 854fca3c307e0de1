"""Formal q-expansions of theta, G2 and the products F_k = G2(2k tau) theta(tau).

Everything here is a formal power series in q = e^(pi i tau) with exact
rational coefficients, handed out as a plain list [c_0, ..., c_N] of
Fractions, truncated at q^N = q^(len - 1):

    theta(tau)   = sum_l q^(l^2)                (coefficient 2 at positive
                                                 squares, 1 at q^0)
    G2(2k tau)   = -1/24 + sum_{a>=1} sigma(a) q^(4ka)
    F_k(tau)     = G2(2k tau) theta(tau) = sum_n e_k(n) q^n

The coefficients have the closed divisor-sum form

    e_k(n) = sum_{b^2 = n mod 4k, |b| <= sqrt(n)} sigma((n - b^2) / 4k)

with the convention sigma(0) = -1/24 (a special case of this module only;
arith.sigma stays standard).  ek_coeff evaluates it at one n and is the
oracle of fk_expansion, which builds the whole series (``qexp --series ek``
prints F_k too) from one int core, fk_ints = G2' theta with
G2' = G2(2k tau) + 1/24, whose entry n is e_k(n) at every non-square n.
The identity

    e_k(D) = sum_{m | f} e(D/m^2, k)        (D = f^2 D_0 with conductor f)

ties these coefficients to the prototype counts and is the primary
anti-bug oracle between the two modules: see check_e_and_a.  Its Moebius
inversion over the conductor, e(D, k) = sum_{m | f} mu(m) e_k(D/m^2), gives
the euler suite's non-square e(D, k) from fk_ints.  At the squares, the
same inversion gives e(d^2, k) for every d <= dmax at once, along two
routes.  Each table holds 12 e(d^2, k) as Python ints, without
numpy, and each inversion in code is one in-place step, _twelfths_by_moebius:

    e6_square_twelfths -- the production route, 12 e(d^2, 6) from four
                          level-6 divisor convolutions, each one
                          Kronecker product; sigma is needed only up to
                          dmax.  e1_square_twelfths closes k = 1 by Besge's
                          identity, and e1_convolution_twelfths is its
                          oracle, the level-1 convolution without Besge;
    e_square_table     -- the oracle for any k, from ek_square_table, which
                          sums its own array("q") sigma sieve up to
                          dmax^2/4k, up to m = SQUARE_TABLE_MAX_M.

Every series product here, F_k and the convolution sums alike, goes through
one kernel, _kronecker_product, which sizes its slots from its own bound on
the product's entries and refuses a bound of 2^64 or more; no caller
restates that bound.
"""

from __future__ import annotations

import math
import struct
from array import array
from fractions import Fraction
from itertools import repeat
from operator import add, sub

from . import arith
from .arith import divisors, sigma

_SIGMA0 = Fraction(-1, 24)  # G2's constant term, sigma(0) in e_k's convention
_SMALL = (Fraction(0), Fraction(1), Fraction(2))  # theta's coefficients

# The sigma sieve of ek_square_table has m^2/4k + 2 entries of 8 bytes, so
# at this bound 2.5 * 10^7 entries (200 MB) for k = 1; every sigma(n) there
# is below n (1 + ln n) < 2^63.
SQUARE_TABLE_MAX_M = 10**4

# The stated reach of the q-expansions: the largest N whose slowest series
# stays within 15 s and 800 MB cold on 2 cores.  That is F_k for k = 1 (which
# `qexp --series ek` prints too), about two thirds of it the Kronecker
# product: 5.2-6.3 s and 82 MB at 400000 in 5 runs; theta took 0.53-0.75 s and
# G2 0.66-0.97 s there.  Larger N is refused before any list is built.
QEXP_MAX_N = 400000


def theta_expansion(N: int) -> list[Fraction]:
    """theta = sum_l q^(l^2): the coefficients of q^0 .. q^N, N <= QEXP_MAX_N."""
    if N < 1:
        raise ValueError("truncation bound must be >= 1")
    if N > QEXP_MAX_N:
        raise ValueError(f"N = {N} is beyond the q-expansion bound {QEXP_MAX_N}")
    return list(map(_SMALL.__getitem__, _theta_ints(N)))


def _theta_ints(N: int) -> list[int]:
    """theta's coefficients of q^0 .. q^N as ints: 1 at q^0, 2 at the
    positive squares, 0 elsewhere."""
    coeffs = [0] * (N + 1)
    coeffs[0] = 1
    for l in range(1, math.isqrt(N) + 1):
        coeffs[l * l] = 2
    return coeffs


def _g2_prime_ints(k: int, N: int) -> list[int]:
    """G2' = G2(2k tau) + 1/24 up to q^N as ints, sigma(a) at q^(4ka) and 0
    elsewhere, read from arith.sigma_table: the refusals of g2k_expansion and
    fk_expansion, N < 1, then k < 1, then N beyond QEXP_MAX_N."""
    if N < 1:
        raise ValueError("truncation bound must be >= 1")
    if k < 1:
        raise ValueError("need k >= 1")
    if N > QEXP_MAX_N:
        raise ValueError(f"N = {N} is beyond the q-expansion bound {QEXP_MAX_N}")
    coeffs = [0] * (N + 1)
    coeffs[4 * k :: 4 * k] = arith.sigma_table(N // (4 * k))[1:]
    return coeffs


def g2k_expansion(k: int, N: int) -> list[Fraction]:
    """G2(2k tau) in the q = e^(pi i tau) variable: the coefficients of q^0 .. q^N,
    N <= QEXP_MAX_N, read from arith.sigma_table (ek_coeff, the oracle of
    fk_expansion, sums scalar sigma instead)."""
    zero = _SMALL[0]
    coeffs = [Fraction(c) if c else zero for c in _g2_prime_ints(k, N)]
    coeffs[0] = _SIGMA0
    return coeffs


def fk_ints(k: int, N: int) -> array:
    """G2' theta up to q^N as ints, G2' = G2(2k tau) + 1/24: one Kronecker
    product of two integral series (theta is 0, 1 or 2, G2' is 0 or sigma),
    the int core of F_k = G2' theta - theta/24.  So entry n is e_k(n) at
    every non-square n, where theta vanishes.  It refuses what g2k_expansion
    refuses before any list is built, and the kernel refuses entries that
    could overflow its slots."""
    return _kronecker_product(_g2_prime_ints(k, N), _theta_ints(N), N + 1)


def fk_expansion(k: int, N: int) -> list[Fraction]:
    """F_k = G2(2k tau) theta(tau) up to q^N, as the Fractions
    (24 c - t)/24 of fk_ints' entries c and theta's t."""
    return [Fraction(24 * c - t, 24) for c, t in zip(fk_ints(k, N), _theta_ints(N))]


def ek_coeff(k: int, n: int) -> Fraction:
    """e_k(n) by the direct divisor sum (independent of series multiplication),
    summed as 24 e_k(n) in ints: sigma(0) = -1/24 adds -1.  As in the
    prototype rows, b^2 = n mod 4 forces b = n mod 2, and each term of a
    b > 0 stands for the term of -b too."""
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    four_k, total = 4 * k, 0
    for b in range(n % 2, math.isqrt(n) + 1, 2):
        rem = n - b * b
        if rem % four_k == 0:
            term = 24 * sigma(1, rem // four_k) if rem else -1
            total += 2 * term if b else term
    return Fraction(total, 24)


def ek_square_table(k: int, mmax: int) -> tuple[int, ...]:
    """12 e_k(m^2) for 0 <= m <= mmax (entry 0 unused), via a sigma sieve.

    Of the terms b in [-m, m], b = +-m give sigma(0) = -1/24 each, and b, -b
    give equal terms, so e_k(m^2) + 1/12 = 2 sum_{0<=b<m} - (the b = 0 term)
    is an integer.  b^2 mod 4k depends only on b mod 2k, so the sum runs over
    the classes r mod 2k with r^2 = m^2 mod 4k, and then (m^2 - b^2)/4k is
    m^2 // 4k - b^2 // 4k.
    """
    if k < 1 or mmax < 1:
        raise ValueError("need k >= 1 and mmax >= 1")
    if mmax > SQUARE_TABLE_MAX_M:
        raise ValueError(f"mmax = {mmax} is beyond the square-table bound {SQUARE_TABLE_MAX_M}")
    two_k, four_k = 2 * k, 4 * k

    # sigma(n) for n <= N from the divisor pairs (d, n/d) with d <= sqrt(N),
    # as a local array: a cached tuple of 2.5 * 10^7 Python ints would cost
    # a gigabyte.  The pairs (1, n) give the start 1 + n.
    N = mmax * mmax // four_k + 1
    sig = array("q", range(1, N + 2))
    sig[:2] = array("q", (0, 1))
    for d in range(2, math.isqrt(N) + 1):
        sig[d * d] += d
        pairs = slice(d * (d + 1), None, d)
        sig[pairs] = array("q", map(add, sig[pairs], range(2 * d + 1, d + N // d + 1)))

    roots = [[r for r in range(two_k) if (r * r - m * m) % four_k == 0] for m in range(two_k)]
    quot = [b * b // four_k for b in range(mmax)]
    out = [0] * (mmax + 1)
    for m in range(1, mmax + 1):
        q = m * m // four_k
        shifted = 2 * sum(
            sum(map(sig.__getitem__, map(q.__sub__, quot[r:m:two_k]))) for r in roots[m % two_k]
        )
        if m * m % four_k == 0:
            shifted -= sig[q]
        out[m] = 12 * shifted - 1
    return tuple(out)


def _twelfths_by_moebius(f: list[int]) -> tuple[int, ...]:
    """12 e(d^2, k) for 0 <= d < len(f) (entry 0 unused) from the ints
    f(m) = e_k(m^2) + 1/12, by e(d^2, k) = sum_{m | d} mu(d/m) e_k(m^2) in
    place: f[2d::d] -= f[d] for d = 1, 2, ...  Since sum_{m|d} mu(d/m) =
    [d = 1], the 1/12 comes back at d = 1 only."""
    for d in range(1, (len(f) - 1) // 2 + 1):
        f[2 * d :: d] = map(sub, f[2 * d :: d], repeat(f[d]))
    twelfths = [12 * v for v in f]
    twelfths[1] -= 1
    return tuple(twelfths)


def e_square_table(k: int, dmax: int) -> tuple[int, ...]:
    """12 e(d^2, k) for 0 <= d <= dmax (entry 0 unused), Moebius-inverted from
    ek_square_table; exact because e_k(D) = sum_{m|f} e(D/m^2, k) is an
    identity of the coefficients (verified against prototype enumeration by
    check_e_and_a).  Every entry 12 e_k(m^2) for m >= 1 is 12 f - 1 for an
    int f; one that is not raises ArithmeticError naming (k, m)."""
    f = [0]
    for m, t in enumerate(ek_square_table(k, dmax)[1:], 1):
        q, r = divmod(t + 1, 12)
        if r:
            raise ArithmeticError(f"12 e_k(m^2) + 1 is not a multiple of 12 at (k, m) = {(k, m)}")
        f.append(q)
    return _twelfths_by_moebius(f)


def _kronecker_product(xs, ys, n_out: int) -> array:
    """c[n] = sum_{i+j=n} xs[i] ys[j] for 0 <= n < n_out, as array("Q").

    The entries are nonnegative, and every c[n], past n_out too, sums at most
    min(nonzero entries of xs, of ys) products, so that count times max(xs)
    max(ys) bounds every c[n]; a bound of 2^64 or more raises ValueError
    before anything is packed.  Each sequence is packed into one int of
    w-byte slots, w the bound's byte length, so no slot carries into the
    next: w strided copies keep the low w bytes of struct's little-endian
    8-byte words, and the product's slots are widened back the same way.
    """
    xs, ys = xs[:n_out], ys[:n_out]
    bound = min(len(xs) - xs.count(0), len(ys) - ys.count(0)) * max(xs) * max(ys)
    if bound >= 2**64:
        raise ValueError("the product could overflow a 64-bit Kronecker slot")
    w = (bound.bit_length() + 7) // 8

    def pack(seq) -> int:
        wide, slots = struct.pack(f"<{len(seq)}Q", *seq), bytearray(w * len(seq))
        for b in range(w):  # byte b of every entry
            slots[b::w] = wide[b::8]
        return int.from_bytes(slots, "little")

    c, wide = (pack(xs) * pack(ys)).to_bytes(2 * w * n_out, "little"), bytearray(8 * n_out)
    for b in range(w):
        wide[b::8] = c[b : w * n_out : w]
    return array("Q", struct.unpack(f"<{n_out}Q", wide))


def _convolution_sum(sig, nmax: int, a: int, b: int, x_residues) -> list[int]:
    """C(n) = sum_{ax+by=n, x,y>=1} sigma(x) sigma(y) for 0 <= n <= nmax, with
    x restricted to the residues x_residues mod 6/a (a, b divide 6).

    Put x = (6/a) x' + i and y = (6/b) y' + j: then ax + by = 6(x' + y') + s
    with s = ai + bj, so each pair (i, j) is one short convolution of length
    about nmax/6.  ``sig`` has sig[0] = 0, which drops x = 0 and y = 0.
    """
    A, B = 6 // a, 6 // b
    out = [0] * (nmax + 1)
    for i in x_residues:
        for j in range(B):
            s = a * i + b * j
            if s > nmax:
                continue
            n_out = (nmax - s) // 6 + 1
            conv = _kronecker_product(sig[i::A], sig[j::B], n_out)
            out[s::6] = map(add, out[s::6], conv)
    return out


def _twelfths_from_sums(by_class, dmax: int) -> tuple[int, ...]:
    """12 e(d^2, k) for 0 <= d <= dmax (entry 0 unused), given

        e_k(m^2) + 1/12 = sum_{g | m} mu(g) g K_g(m/g)

    where K_g is by_class[i] with i = 0, 1, 2, 3 as (g, 6) = 1, g even, 3 | g,
    6 | g.
    """
    mu = arith.moebius_table(dmax)
    f = [0] * (dmax + 1)
    for g in range(1, dmax + 1):
        if mu[g]:
            k = by_class[(g % 2 == 0) + 2 * (g % 3 == 0)]
            f[g::g] = map(add, f[g::g], map((mu[g] * g).__mul__, k[1 : dmax // g + 1]))
    return _twelfths_by_moebius(f)


def e6_square_twelfths(dmax: int) -> tuple[int, ...]:
    """12 e(d^2, 6) for 0 <= d <= dmax (entry 0 unused), as exact ints.

    With u = (m - b)/2, v = (m + b)/2 in the divisor sum of e_6(m^2), the
    terms b = +-m give -1/12 and the rest are sigma(uv/6) over u + v = m with
    6 | uv.  Splitting 6 | uv by gcd(u, 6) and expanding
    sigma(xy) = sum_{g | (x,y)} mu(g) g sigma(x/g) sigma(y/g) gives

        e_6(m^2) + 1/12 = sum_{g | m} mu(g) g [C_{6,1}(m/g) + [3 !| g] C_{2,3}(m/g)
                            + [2 !| g] C_{3,2}(m/g) + [(g,6) = 1] C_{1,6}(m/g)]

    with C_{a,b}(n) = sum_{ax+by=n} sigma(x) sigma(y), x restricted by
    3 !| x, 2 !| x and (x, 6) = 1 in the last three.  sigma is needed only up
    to dmax.
    """
    if dmax < 1:
        raise ValueError(f"need dmax >= 1, got {dmax}")
    sig = arith.sigma_table(dmax)
    c61 = _convolution_sum(sig, dmax, 6, 1, (0,))
    c23 = _convolution_sum(sig, dmax, 2, 3, (1, 2))
    c32 = _convolution_sum(sig, dmax, 3, 2, (1,))
    c16 = _convolution_sum(sig, dmax, 1, 6, (1, 5))
    k2 = list(map(add, c61, c23))
    k3 = list(map(add, c61, c32))
    return _twelfths_from_sums((list(map(add, k2, map(add, c32, c16))), k2, k3, c61), dmax)


def e1_convolution_twelfths(dmax: int) -> tuple[int, ...]:
    """12 e(d^2, 1) for 0 <= d <= dmax (entry 0 unused), without Besge.

    As in e6_square_twelfths with u + v = m and uv = (m^2 - b^2)/4:

        e_1(m^2) + 1/12 = sum_{g | m} mu(g) g C_{1,1}(m/g),

    C_{1,1}(n) = sum_{x+y=n} sigma(x) sigma(y), one Kronecker product of the
    sigma table up to dmax with itself.  The oracle for e1_square_twelfths.
    """
    if dmax < 1:
        raise ValueError(f"need dmax >= 1, got {dmax}")
    sig = arith.sigma_table(dmax)
    return _twelfths_from_sums((_kronecker_product(sig, sig, dmax + 1),) * 4, dmax)


def e1_square_twelfths(dmax: int) -> tuple[int, ...]:
    """12 e(d^2, 1) = 5 a(d) - 6 J_2(d) for 0 <= d <= dmax (entry 0 unused).

    Besge's identity sum_{u+v=n} sigma(u) sigma(v)
    = (5 sigma_3(n) + (1 - 6n) sigma(n))/12 (Ramanujan, Trans. Cambridge
    Phil. Soc. 22, 1916), Moebius-inverted over the squares, gives
    e(d^2, 1) = (5/12) a(d) - J_2(d)/2; at d = 1 that is -1/12.
    """
    if dmax < 1:
        raise ValueError(f"need dmax >= 1, got {dmax}")
    atab = arith.sl2_order_table(dmax)
    jtab = arith.jordan2_table(dmax)
    return (0, *(5 * atab[d] - 6 * jtab[d] for d in range(1, dmax + 1)))


def check_e_and_a(D: int, k: int) -> bool:
    """Does e_k(D) equal sum_{m|f} e(D/m^2, k) with e from prototype counting?"""
    from .prototypes import conductor, e_value

    rhs = sum((e_value(D // (m * m), k) for m in divisors(conductor(D))), Fraction(0))
    return ek_coeff(k, D) == rhs
