"""Prototype enumeration and the arithmetic function e(D, k).

A prototype for the pair (D, k) is an integer triple [a, b, c] with

    a > 0 > c,    D = b^2 - 4*k*a*c,    gcd(f, b, c0) = 1,

where D = f^2 D_0 with conductor f, and c = c0^2 c' with c' squarefree.
``conductor`` reads f off the squarefree part of D: if D = s^2 t with t
squarefree, then (f, D_0) = (s, t) when t = 1 mod 4 and (s/2, 4t) otherwise,
and a square D has f = sqrt(D), D_0 = 1.
The weighted count e(D, k) is the sum of a over all prototypes; by convention
e(1, k) = -1/12.  Enumeration runs b over |b| < sqrt(D) with b^2 = D mod 4k
and splits n = (D - b^2)/(4k) into ordered factor pairs a * (-c), so the
output order is increasing b, then increasing a.  Only the admissible a are
built: a prime p divides c0 iff nu_p(n/a) >= 2, so at each prime p of
gcd(f, b) the exponent of p in a runs over nu_p(n) - 1 and nu_p(n) alone,
and every other prime is free.  e(D, k) sums each row's admissible a one by
one, without building triples or sorting them.  The rows of b and -b have
the same n and the same gcd(f, |b|), so both walk b >= 0 only: e(D, k)
counts each row with b > 0 twice, and enumerate_prototypes emits the rows
of b > 0 mirrored to -b, in reverse, before the rows of b >= 0.
``e_sums`` is the library's one route to e(D, k) at D >= 2: it refuses D
beyond E_MAX_D before D is factorised and takes the conductor once for every
k it sums; ``e_value`` and the non-square ``euler.chi_*`` read it.  The euler
suite's non-square checks read e(D, k) off the F_k coefficients instead
(qforms.fk_ints), which the qforms suite ties to these counts.

The independent cross-check against these counts is the modular-form
coefficient route in ``qforms`` (see check_e_and_a there).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import _validate_discriminant, factorize, squarefree_decompose

# The stated reach of e(D, k), at any D: the largest D whose slowest request
# stays within 15 s and 800 MB cold on 2 cores.  A sum walks about sqrt(D)/2
# rows for k = 1 and factorises each n = (D - b^2)/4k by trial division.
# Cold at 10^10 - 3, `e --k 1` took 9.7-12.0 s and `chi --family x` 9.7-10.0 s,
# in 15-16 MB.  `chi --family g --D 10^10 - 4` (two sums) took 12.3-14.0 s in
# 3 runs and 15 MB, and 14.4-17.6 s in a slower phase of the shared machine:
# at the 15 s rule.  `e --D 2 * 10^10 + 1` took 17.5 s.  Larger D is refused
# before D is factorised or any row walked.
E_MAX_D = 10**10

# The stated reach of enumerate_prototypes, which builds every triple for
# ``proto`` to print: at 10^9 + 1 the request took 12.3 s and 199 MB, at
# 10^9 + 5 6.3 s, and at 10^9 - 3 4.7-5.4 s and 79 MB; a single bound of 10^9
# would refuse e(D, k) requests that answer in 10-13 s.
PROTO_MAX_D = 10**9


def conductor(D: int) -> int:
    """The conductor f of D = f^2 * D0 with D0 fundamental; sqrt(D) for squares.

    With D = c0^2 * c' and c' squarefree, f = c0 (D0 = c') if c' = 1 mod 4
    and f = c0/2 (D0 = 4c') otherwise; c0 is then even, as D = 0,1 mod 4
    while c' = 2,3 mod 4.
    """
    _validate_discriminant(D)
    r = math.isqrt(D)
    if r * r == D:
        return r
    c0, cp = squarefree_decompose(D)
    return c0 if cp % 4 == 1 else c0 // 2


def _admissible_divisors(n: int, gb: int) -> list[int]:
    """Every divisor a of n >= 1 for which c0 is prime to gb, unsorted, where
    c0 is the largest integer with c0^2 | n/a.

    A prime p divides c0 iff nu_p(n/a) >= 2.  So at each prime p of n that
    divides gb, the exponent of p in a runs over nu_p(n) - 1 and nu_p(n) only;
    at every other prime it runs over 0..nu_p(n).  No other divisor is built.
    """
    divs = [1]
    for p, e in factorize(n):
        if gb % p:
            powers = [1]
            for _ in range(e):
                powers.append(powers[-1] * p)
        else:
            low = p ** (e - 1)
            powers = [low, low * p]
        divs = [d * q for d in divs for q in powers]
    return divs


def _prototype_rows(D: int, k: int, f: int):
    """Yield (b, n, divisors) for every b with 0 <= b < sqrt(D) and
    b^2 = D mod 4k, by increasing b, for a discriminant D >= 2 of conductor
    f and k >= 1: n = (D - b^2)/(4k) and ``divisors`` are the admissible a
    of that row, unsorted (see ``_admissible_divisors``).  The row of -b is
    the row of b with b negated.

    b^2 = D mod 4 forces b = D mod 2, so b steps by 2.
    """
    four_k = 4 * k
    for b in range(D % 2, math.isqrt(D - 1) + 1, 2):  # b < sqrt(D): a*(-c) > 0
        rem = D - b * b
        if rem % four_k:
            continue
        n = rem // four_k
        yield b, n, _admissible_divisors(n, math.gcd(f, b))


def enumerate_prototypes(D: int, k: int) -> list[tuple[int, int, int]]:
    """All prototypes (a, b, c) for (D, k), ordered by increasing b then a."""
    _validate_discriminant(D)
    if D < 2:
        raise ValueError("prototype enumeration needs D >= 2 (e(1,k) is a convention)")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if D > PROTO_MAX_D:
        raise ValueError(f"D = {D} is beyond the prototype bound {PROTO_MAX_D}")
    rows = [(b, n, sorted(divs)) for b, n, divs in _prototype_rows(D, k, conductor(D))]
    rows = [(-b, n, divs) for b, n, divs in reversed(rows) if b] + rows
    return [(a, b, -(n // a)) for b, n, divs in rows for a in divs]


def e_sums(D: int, *ks: int) -> tuple[int, ...]:
    """(f, e(D, k) for each k in ks) as ints, for a discriminant D >= 2 and
    each k >= 1: D beyond E_MAX_D is refused before it is factorised, then
    the conductor f is taken once and the rows of each k walked.  Each row of
    b > 0 stands for the row of -b too."""
    if D > E_MAX_D:
        raise ValueError(f"D = {D} is beyond the e(D, k) bound {E_MAX_D}")
    f = conductor(D)
    return (f, *(sum(2 * sum(divs) if b else sum(divs) for b, _, divs in _prototype_rows(D, k, f))
                 for k in ks))


def e_value(D: int, k: int) -> Fraction:
    """e(D, k) = sum of a over the prototype set; e(1, k) = -1/12.

    Each row's admissible divisors are summed one by one, never by a divisor
    sum formula, so this count stays independent of the modular-form route
    that ``qforms.check_e_and_a`` compares it with.
    """
    _validate_discriminant(D)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if D == 1:
        return Fraction(-1, 12)
    return Fraction(e_sums(D, k)[1])
