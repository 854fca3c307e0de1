"""Formal q-expansions of theta, G2 and the products F_k = G2(2k tau) theta(tau).

Everything here is a formal power series in q = e^(pi i tau) with exact
rational coefficients:

    theta(tau)   = sum_l q^(l^2)                (coefficient 2 at positive
                                                 squares, 1 at q^0)
    G2(2k tau)   = -1/24 + sum_{a>=1} sigma(a) q^(4ka)
    F_k(tau)     = G2(2k tau) theta(tau) = sum_n e_k(n) q^n

The coefficients have the closed divisor-sum form

    e_k(n) = sum_{b^2 = n mod 4k, |b| <= sqrt(n)} sigma((n - b^2) / 4k)

with the convention sigma(0) = -1/24 (a special case of this module only;
arith.sigma stays standard).  The identity

    e_k(D) = sum_{m | f} e(D/m^2, k)        (D = f^2 D_0 with conductor f)

ties these coefficients to the prototype counts and is the primary
anti-bug oracle between the two modules: see check_e_and_a.  Moebius
inversion of the same identity gives the fast exact evaluation of e(d^2, k)
used by the volume harness (e_square_table).  The square tables work on the
integers e_k(m^2) + 1/12 in int64 numpy arrays, up to m = SQUARE_TABLE_MAX_M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .arith import divisors, sigma
from .prototypes import conductor_decompose, e_value

_SIGMA0 = Fraction(-1, 24)  # sigma(0) convention inside e_k only

# For m <= 5 * 10^4, e_k(m^2) + 1/12 is a sum of at most 2m values
# sigma(n) < n (1 + ln n) with n <= m^2/4 + 1, so below 1.4e15; the in-place
# Moebius inversion of e_square_table keeps every entry below that times
# 1 + tau(d^2) <= 946.  Both stay far inside int64.
SQUARE_TABLE_MAX_M = 5 * 10**4


@dataclass
class QExpansion:
    """Dense 0-indexed coefficient array; valid exponents are 0..truncation."""

    coeffs: list[Fraction]
    truncation: int

    @classmethod
    def from_coeffs(cls, coeffs) -> "QExpansion":
        return cls(list(coeffs), len(coeffs) - 1)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.truncation:
            raise IndexError(f"coefficient {n} beyond truncation {self.truncation}")
        return self.coeffs[n]

    def __mul__(self, other: "QExpansion") -> "QExpansion":
        """Cauchy product, valid up to the smaller truncation bound."""
        N = min(self.truncation, other.truncation)
        out = [Fraction(0)] * (N + 1)
        # exact naive product; skip zero coefficients (theta is very sparse)
        for i, ci in enumerate(self.coeffs[: N + 1]):
            if not ci:
                continue
            for j, cj in enumerate(other.coeffs[: N + 1 - i]):
                if cj:
                    out[i + j] += ci * cj
        return QExpansion(out, N)


def theta_expansion(N: int) -> QExpansion:
    """theta = sum_l q^(l^2) up to q^N."""
    if N < 1:
        raise ValueError("truncation bound must be >= 1")
    coeffs = [Fraction(0)] * (N + 1)
    coeffs[0] = Fraction(1)
    l = 1
    while l * l <= N:
        coeffs[l * l] = Fraction(2)
        l += 1
    return QExpansion(coeffs, N)


def g2k_expansion(k: int, N: int) -> QExpansion:
    """G2(2k tau) in the q = e^(pi i tau) variable up to q^N."""
    if k < 1 or N < 1:
        raise ValueError("k and N must be >= 1")
    coeffs = [Fraction(0)] * (N + 1)
    coeffs[0] = _SIGMA0
    for a in range(1, N // (4 * k) + 1):
        coeffs[4 * k * a] = Fraction(sigma(1, a))
    return QExpansion(coeffs, N)


def fk_expansion(k: int, N: int) -> QExpansion:
    """F_k = G2(2k tau) * theta(tau), by series multiplication."""
    return g2k_expansion(k, N) * theta_expansion(N)


def ek_coeff(k: int, n: int) -> Fraction:
    """e_k(n) by the direct divisor sum (independent of series multiplication)."""
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    total = Fraction(0)
    B = math.isqrt(n)
    for b in range(-B, B + 1):
        rem = n - b * b
        if rem % (4 * k) == 0:
            m = rem // (4 * k)
            total += _SIGMA0 if m == 0 else sigma(1, m)
    return total


def ek_square_table(k: int, mmax: int) -> list[Fraction]:
    """e_k(m^2) for 0 <= m <= mmax (entry 0 unused), via a sigma sieve.

    Of the terms b in [-m, m], b = +-m give sigma(0) = -1/24 each, and b, -b
    give equal terms, so e_k(m^2) + 1/12 = 2 sum_{0<=b<m} - (the b = 0 term)
    is an integer: one numpy sum per m over the b with b^2 = m^2 mod 4k.
    """
    if k < 1 or mmax < 1:
        raise ValueError("need k >= 1 and mmax >= 1")
    if mmax > SQUARE_TABLE_MAX_M:
        raise ValueError(f"mmax = {mmax} is beyond the int64 bound {SQUARE_TABLE_MAX_M}")
    four_k = 4 * k
    sig = arith.sigma_table(mmax * mmax // four_k + 1)
    import numpy as np

    bsq = np.arange(mmax, dtype=np.int64) ** 2
    bsq_res = bsq % four_k
    out = [Fraction(0)] * (mmax + 1)
    for m in range(1, mmax + 1):
        n = m * m
        rems = n - bsq[:m][bsq_res[:m] == n % four_k]
        shifted = 2 * int(sig[rems // four_k].sum())
        if n % four_k == 0:
            shifted -= int(sig[n // four_k])
        out[m] = Fraction(12 * shifted - 1, 12)
    return out


def e_square_table(k: int, dmax: int) -> list[Fraction]:
    """Exact e(d^2, k) for 0 <= d <= dmax via Moebius inversion of e_and_a.

    e(d^2, k) = sum_{m | d} mu(d/m) e_k(m^2); exact because the relation
    e_k(D) = sum_{m|f} e(D/m^2, k) is an identity of the coefficients
    (verified against prototype enumeration by check_e_and_a).  The inversion
    runs in place on the integers f(m) = e_k(m^2) + 1/12, by
    f[2d::d] -= f[d] for d = 1, 2, ...; since sum_{m|d} mu(d/m) = [d = 1],
    the 1/12 comes back at d = 1 only.
    """
    ek = ek_square_table(k, dmax)  # refuses dmax > SQUARE_TABLE_MAX_M
    import numpy as np

    # e_k(m^2) = (12 f(m) - 1) / 12 in lowest terms, so f = (numerator + 1) / 12
    f = np.fromiter(
        ((x.numerator + 1) // 12 for x in ek), dtype=np.int64, count=dmax + 1
    )
    for d in range(1, dmax // 2 + 1):
        f[2 * d :: d] -= f[d]
    out = [Fraction(v) for v in f.tolist()]
    out[0] = Fraction(0)
    out[1] -= Fraction(1, 12)
    return out


def check_e_and_a(D: int, k: int) -> bool:
    """Does e_k(D) equal sum_{m|f} e(D/m^2, k) with e from prototype counting?"""
    f = conductor_decompose(D).f
    rhs = sum((e_value(D // (m * m), k) for m in divisors(f)), Fraction(0))
    return ek_coeff(k, D) == rhs
