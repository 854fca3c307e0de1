"""Exact arithmetic substrate: rationals, pi-multiples and multiplicative functions.

Everything downstream (prototype counts, q-expansions, Euler characteristics,
volume sums) is built on the functions in this module.  All user-visible values
are exact: rationals are ``fractions.Fraction`` (always reduced, positive
denominator), integers are Python arbitrary-precision ints.  The one fixed-width
array is the smallest-prime-factor sieve inside each table build, whose
entries (primes up to isqrt(N) < 2^31) fit its type.

Key objects:
    moebius(n)             -- Moebius function
    sigma(k, n)            -- divisor power sum sigma_k(n)
    sl2_order(d)           -- a(d) = |SL(2, Z/dZ)| = d * sum_{m|d} mu(d/m) m^2
    coprime_part(d, m)     -- d_m, the largest divisor of d coprime to m
    squarefree_decompose   -- c = c0^2 * c' with c' squarefree
    dirichlet_convolve     -- (f*g)(n) = sum_{ab=n} f(a) g(b), exact
    hermite_sublattices(n) -- Hermite normal forms (a, s; 0, c) of index n
    PiQuantity             -- exact rational times an integer power of pi

Every scalar value (factorize, is_prime, moebius, sigma, ...) comes from one
factorisation route, trial division, which refuses n beyond its reach
TRIAL_MAX_N before the first division and keeps no state.  The
bulk tables (sigma_table, sigma_prefix, sl2_order_table, jordan2_table,
moebius_table) are read-only tuples of Python ints.  Each is built in one
O(N) pass over a smallest-prime-factor sieve of its own, a stdlib
array("i") dropped after the build, and N >= SIEVE_BOUND = 10^7 is refused;
nothing here imports numpy.
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul

# The bound of the bulk tables: a table up to N >= SIEVE_BOUND is refused
# before its sieve is allocated.
SIEVE_BOUND = 10**7

# The stated reach of trial division, and so of every scalar factorisation:
# its slowest request stays within 15 s and 800 MB cold on 2 cores.  That is
# `cd --locus p3|h2 --d 2p` at a prime p, where cd_count factorises p or 2p
# four times for P3 and three for H(2): at 2p = 5 * 10^15 - 178, 7.3-7.5 s
# (p3) and 5.9-6.5 s (h2) of CPU in 16 MB, against 6.4-6.5 s (p3) and
# 6.4-6.8 s (h2) for `cd --d p` at p = 5 * 10^15 - 3.  Larger n is refused
# before the first division.
TRIAL_MAX_N = 5 * 10**15


# ---------------------------------------------------------------------------
# pi-multiples
# ---------------------------------------------------------------------------

class PiQuantity:
    """An exact rational coefficient times an integer power of pi.

    Represents values such as 13*pi^4/31104 or 30*pi^-2 without rounding.
    Multiplication adds pi-powers; addition is defined only between two
    PiQuantity values of equal pi-power (adding pi^4 to pi^2 has no exact
    rational representation).
    Immutable and hashable; the coefficient is always a Fraction.
    """

    __slots__ = ("coeff", "pi_power")

    def __init__(self, coeff: Fraction, pi_power: int = 0):
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_power", pi_power)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of PiQuantity")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of PiQuantity")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coeff, self.pi_power) == (other.coeff, other.pi_power)

    def __hash__(self):
        return hash((self.coeff, self.pi_power))

    def __reduce__(self):  # copy and pickle without __setattr__
        return PiQuantity, (self.coeff, self.pi_power)

    def __mul__(self, other):
        if isinstance(other, PiQuantity):
            return PiQuantity(self.coeff * other.coeff, self.pi_power + other.pi_power)
        if not isinstance(other, Fraction):
            other = Fraction(other)
        return PiQuantity(self.coeff * other, self.pi_power)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, PiQuantity):
            return NotImplemented
        if self.pi_power != other.pi_power:
            raise ValueError(
                f"cannot add pi^{self.pi_power} to pi^{other.pi_power} exactly"
            )
        return PiQuantity(self.coeff + other.coeff, self.pi_power)

    def as_rational(self) -> Fraction:
        """The coefficient, provided all pi powers have cancelled."""
        if self.pi_power != 0:
            raise ValueError(f"value still carries pi^{self.pi_power}")
        return self.coeff

    def to_float(self) -> float:
        return float(self.coeff) * math.pi**self.pi_power

    def __repr__(self):
        if self.pi_power == 0:
            return f"{self.coeff}"
        return f"{self.coeff}*pi^{self.pi_power}"


# ---------------------------------------------------------------------------
# Factorisation
# ---------------------------------------------------------------------------

def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorisation of n >= 1 as ((p1, e1), (p2, e2), ...), p1 < p2 < ...

    By trial division over 2, 3 and the 6k +- 1 wheel; n beyond TRIAL_MAX_N
    is refused before the first division.
    """
    if n < 1:
        raise ValueError(f"factorize expects n >= 1, got {n}")
    if n > TRIAL_MAX_N:
        raise ValueError(f"n = {n} is beyond the trial-division bound {TRIAL_MAX_N}")
    out = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    f = 5
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += 2 if f % 6 == 5 else 4  # 6k +- 1 wheel
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def is_prime(n: int) -> bool:
    """Primality of n, read off factorize(n)."""
    if n < 2:
        return False
    fac = factorize(n)
    return len(fac) == 1 and fac[0][1] == 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted increasingly."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def nu(p: int, n: int) -> int:
    """p-adic valuation of n >= 1, for p >= 2."""
    if p < 2:
        raise ValueError("nu expects p >= 2")
    if n < 1:
        raise ValueError("nu expects n >= 1")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Multiplicative functions
# ---------------------------------------------------------------------------

def moebius(n: int) -> int:
    """mu(n): 0 if a square divides n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError(f"moebius expects n >= 1, got {n}")
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def sigma(k: int, n: int) -> int:
    """sigma_k(n) = sum of d^k over divisors d of n (sigma_0 counts divisors)."""
    if n < 1:
        raise ValueError(f"sigma expects n >= 1, got {n}")
    if k < 0:
        raise ValueError("sigma expects k >= 0")
    out = 1
    for p, e in factorize(n):
        if k == 0:
            out *= e + 1
        else:
            out *= (p ** (k * (e + 1)) - 1) // (p**k - 1)
    return out


def sl2_order(d: int) -> int:
    """a(d) = |SL(2, Z/dZ)| = d * sum_{m|d} mu(d/m) m^2.

    Evaluated multiplicatively: a(p^e) = p^(3e-2) (p^2 - 1).
    """
    if d < 1:
        raise ValueError(f"sl2_order expects d >= 1, got {d}")
    out = 1
    for p, e in factorize(d):
        out *= p ** (3 * e - 2) * (p * p - 1)
    return out


def jordan2(m: int) -> int:
    """J_2(m) = m^2 prod_{p|m} (1 - p^-2) = sum_{r|m} mu(r) m^2 / r^2."""
    if m < 1:
        raise ValueError(f"jordan2 expects m >= 1, got {m}")
    out = 1
    for p, e in factorize(m):
        out *= p ** (2 * e - 2) * (p * p - 1)
    return out


def coprime_part(d: int, m: int) -> int:
    """d_m = max{x | d : gcd(x, m) = 1}, the m-coprime part of d."""
    if d < 1 or m < 1:
        raise ValueError("coprime_part expects positive integers")
    g = math.gcd(d, m)
    while g > 1:
        while d % g == 0:
            d //= g
        g = math.gcd(d, g)
    return d


def squarefree_decompose(c: int) -> tuple[int, int]:
    """Write c = c0^2 * c' with c' squarefree; returns (c0, c').

    c may be negative; the sign is carried by the squarefree part c'.
    """
    if c == 0:
        raise ValueError("squarefree_decompose expects c != 0")
    sign = -1 if c < 0 else 1
    c0, cp = 1, 1
    for p, e in factorize(abs(c)):
        c0 *= p ** (e // 2)
        if e % 2:
            cp *= p
    return c0, sign * cp


def is_squarefree(n: int) -> bool:
    return moebius(n) != 0


def _validate_discriminant(D: int) -> None:
    if D < 1 or D % 4 in (2, 3):
        raise ValueError(f"{D} is not a discriminant (need D >= 1, D = 0,1 mod 4)")


# ---------------------------------------------------------------------------
# Dirichlet convolution on 1-indexed coefficient sequences
# ---------------------------------------------------------------------------

def dirichlet_convolve(f, g, N: int) -> list:
    """(f*g)(n) = sum_{ab=n} f(a) g(b) for 1 <= n <= N, exact.

    Sequences are 1-indexed dense arrays (index 0 unused) of Python ints or
    Fractions; both inputs must be defined up to N.  Ints in give ints
    out.  Each nonzero f(a) adds f(a) g(b) along the multiples of a in one
    slice update.
    """
    if len(f) < N + 1 or len(g) < N + 1:
        raise ValueError("sequences must be defined up to N (1-indexed)")
    out = [0] * (N + 1)
    for a in range(1, N + 1):
        fa = f[a]
        if fa:
            out[a::a] = map(add, out[a::a], map(mul, repeat(fa), g[1 : N // a + 1]))
    return out


# ---------------------------------------------------------------------------
# Bulk tables of multiplicative functions (exact Python ints)
# ---------------------------------------------------------------------------

def _multiplicative_table(N: int, step) -> tuple[int, ...]:
    """f(n) for 0 <= n <= N (f(0) = 0) of a multiplicative f, read-only.

    ``step(p, f(p^(e-1)))`` gives f(p^e), starting from f(1) = 1.  One pass in
    increasing n: with p the smallest prime of n and p^e || n,
    f(n) = f(n / p^e) f(p^e), both entries already in the table unless n = p^e.
    The smallest primes come from a sieve local to the build: the primes p up
    to isqrt(N) write p at p^2, p^2 + p, ... in decreasing order, so the
    smallest prime factor of each composite is written last.  N >= SIEVE_BOUND
    is refused before anything is allocated.
    """
    if N < 0:
        raise ValueError(f"a table needs N >= 0, got {N}")
    if N >= SIEVE_BOUND:
        raise ValueError(f"a table up to N = {N} is beyond the sieve bound {SIEVE_BOUND}")
    root = math.isqrt(N)
    composite = bytearray(root + 1)
    primes = []
    for p in range(2, root + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\x01" * len(range(p * p, root + 1, p))
    # the smallest prime factor of n, or 0 where n < 2 or n is prime
    least = array("i", [0]) * (N + 1)
    for p in reversed(primes):
        least[p * p :: p] = array("i", [p]) * len(range(p * p, N + 1, p))
    least = least.tolist()
    out = [0] * (N + 1)
    head = [0] * (N + 1)  # head[n] = p^e, the full power of n's smallest prime
    if N >= 1:
        out[1] = 1
    for n in range(2, N + 1):
        p = least[n] or n
        m = n // p
        if m % p:
            head[n] = p
            out[n] = out[m] * out[p] if m > 1 else step(p, 1)
        else:
            q = head[m] * p
            head[n] = q
            out[n] = step(p, out[m]) if q == n else out[n // q] * out[q]
    return tuple(out)


@lru_cache(maxsize=4)
def sigma_table(N: int) -> tuple[int, ...]:
    """sigma_1(n) for 0 <= n <= N as exact Python ints (entry 0 unused), read-only."""
    return _multiplicative_table(N, lambda p, prev: p * prev + 1)


@lru_cache(maxsize=4)
def sigma_prefix(N: int) -> tuple[int, ...]:
    """Prefix sums S(x) = sum_{e<=x} sigma(e) for 0 <= x <= N, read-only."""
    return tuple(accumulate(sigma_table(N)))


@lru_cache(maxsize=4)
def sl2_order_table(N: int) -> tuple[int, ...]:
    """a(m) for 0 <= m <= N as exact Python ints (entry 0 unused), read-only.

    a(p) = p^3 - p and a(p^e) = p^3 a(p^(e-1)).
    """
    return _multiplicative_table(N, lambda p, prev: p**3 * prev if prev > 1 else p**3 - p)


@lru_cache(maxsize=4)
def jordan2_table(N: int) -> tuple[int, ...]:
    """J_2(m) for 0 <= m <= N as exact Python ints (entry 0 unused), read-only.

    J_2(p) = p^2 - 1 and J_2(p^e) = p^2 J_2(p^(e-1)).
    """
    return _multiplicative_table(N, lambda p, prev: p * p * prev if prev > 1 else p * p - 1)


def moebius_table(N: int) -> tuple[int, ...]:
    """mu(m) for 0 <= m <= N (entry 0 unused), read-only."""
    return _multiplicative_table(N, lambda p, prev: -1 if prev == 1 else 0)


# ---------------------------------------------------------------------------
# Hermite normal forms of sublattices of Z^2
# ---------------------------------------------------------------------------

def hermite_sublattices(n: int) -> list[tuple[int, int, int]]:
    """All Hermite normal forms (a, s; 0, c) of index-n sublattices of Z^2.

    Returns the triples (a, s, c) with a*c = n, c > 0 and 0 <= s < a, ordered
    by (a, s).  There are exactly sigma(n) of them.
    """
    if n < 1:
        raise ValueError(f"hermite_sublattices expects n >= 1, got {n}")
    out = []
    for a in divisors(n):
        c = n // a
        for s in range(a):
            out.append((a, s, c))
    return out
