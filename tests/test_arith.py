"""Unit tests for the exact-arithmetic substrate.

Expected values are either hand-checkable or frozen from an independent
brute-force oracle computed in this file (divisor loops, matrix enumeration).
"""

import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from gothicvol import arith
from gothicvol.arith import (
    PiQuantity,
    coprime_part,
    dirichlet_convolve,
    divisors,
    factorize,
    hermite_sublattices,
    is_prime,
    jordan2,
    moebius,
    nu,
    sigma,
    sl2_order,
    squarefree_decompose,
)


def brute_sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def brute_moebius(n):
    if n == 1:
        return 1
    for p in range(2, n + 1):
        if n % (p * p) == 0:
            return 0
    count = sum(1 for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p)))
    return (-1) ** count


def brute_sl2_order(d):
    count = 0
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    if (a * e - b * c) % d == 1 % d:
                        count += 1
    return count


def test_moebius_examples():
    assert moebius(1) == 1
    assert moebius(12) == 0
    assert moebius(6) == 1  # two prime factors


def test_moebius_brute_force():
    for n in range(1, 200):
        assert moebius(n) == brute_moebius(n), n


def test_nu_examples():
    assert [nu(2, n) for n in (1, 2, 12, 1024)] == [0, 1, 2, 10]
    assert nu(3, 162) == 4 and nu(7, 10) == 0


def test_sigma_examples():
    assert sigma(1, 1) == 1
    assert sigma(3, 2) == 9  # 1 + 8
    assert sigma(0, 6) == 4  # divisors 1, 2, 3, 6


def test_sigma_brute_force():
    for n in range(1, 150):
        for k in (0, 1, 2, 3):
            assert sigma(k, n) == brute_sigma(k, n)


def test_sl2_order_examples():
    assert sl2_order(1) == 1
    assert sl2_order(2) == 6
    # 216 * (3/4) * (8/9) = 144
    assert sl2_order(6) == 144


def test_sl2_order_matches_matrix_enumeration():
    for d in range(1, 13):
        assert sl2_order(d) == brute_sl2_order(d), d


def test_coprime_part_examples():
    assert coprime_part(12, 2) == 3
    assert coprime_part(12, 6) == 1
    assert coprime_part(7, 10) == 7


@settings(deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_coprime_part_is_largest_coprime_divisor(d, m):
    dm = coprime_part(d, m)
    assert d % dm == 0 and math.gcd(dm, m) == 1
    assert math.gcd(d // dm, dm) == 1 or all(
        math.gcd(p, m) > 1 for p, _ in factorize(d // dm)
    )
    # every prime of d/dm divides m
    for p, _ in factorize(d // dm):
        assert m % p == 0


def test_squarefree_decompose_examples():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(-8) == (2, -2)


@settings(deadline=None)
@given(st.integers(-10**6, 10**6).filter(lambda c: c != 0))
def test_squarefree_decompose_roundtrip(c):
    c0, cp = squarefree_decompose(c)
    assert c0 > 0
    assert c0 * c0 * cp == c
    assert arith.is_squarefree(abs(cp))
    assert (cp < 0) == (c < 0)


def test_jordan2():
    assert jordan2(1) == 1 and jordan2(2) == 3 and jordan2(6) == 24
    for m in range(1, 100):
        assert jordan2(m) == sum(moebius(r) * (m // r) ** 2 for r in divisors(m))


def test_dirichlet_convolve_identities():
    N = 120
    sig = [Fraction(0)] + [Fraction(sigma(1, n)) for n in range(1, N + 1)]
    a = [Fraction(0)] + [Fraction(sl2_order(n)) for n in range(1, N + 1)]
    conv = dirichlet_convolve(sig, a, N)
    assert conv[2] == 9 == sigma(3, 2)
    for n in range(1, N + 1):
        assert conv[n] == sigma(3, n)

    mu = [Fraction(0)] + [Fraction(moebius(n)) for n in range(1, N + 1)]
    one = [Fraction(0)] + [Fraction(1)] * N
    unit = dirichlet_convolve(mu, one, N)
    assert unit[1] == 1 and all(unit[n] == 0 for n in range(2, N + 1))

    j3 = [Fraction(0)] + [Fraction(n**3) for n in range(1, N + 1)]
    jmu = [Fraction(0)] + [Fraction(n * moebius(n)) for n in range(1, N + 1)]
    conv2 = dirichlet_convolve(j3, jmu, N)
    assert conv2[6] == 144 == sl2_order(6)
    for n in range(1, N + 1):
        assert conv2[n] == sl2_order(n)


def test_hermite_sublattices_examples():
    assert hermite_sublattices(1) == [(1, 0, 1)]
    assert hermite_sublattices(2) == [(1, 0, 2), (2, 0, 1), (2, 1, 1)]
    assert len(hermite_sublattices(12)) == 28 == sigma(1, 12)


def test_factorize_examples():
    assert factorize(1) == ()
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    for n in range(1, 2000):
        factors = factorize(n)
        assert math.prod(p**e for p, e in factors) == n
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))


def test_factorize_of_a_large_n_is_exact():
    n = 10**14 + 37  # far beyond the tables' SIEVE_BOUND
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n


def test_pi_quantity_algebra():
    x = PiQuantity(Fraction(13, 31104), 4)
    y = PiQuantity(Fraction(1, 960), 4)
    assert (x + y).pi_power == 4
    assert x * PiQuantity(Fraction(15), -2) == PiQuantity(Fraction(13 * 15, 31104), 2)
    assert (3 * y).coeff == Fraction(1, 320)
    # addition takes PiQuantity operands only; a bare number is not a pi^0 value
    with pytest.raises(TypeError):
        _ = PiQuantity(Fraction(1, 2), 0) + 1
    with pytest.raises(AttributeError, match="cannot delete field 'coeff'"):
        del x.coeff
    assert PiQuantity(Fraction(3, 2), 0).as_rational() == Fraction(3, 2)
    assert abs(y.to_float() - math.pi**4 / 960) < 1e-15


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_pi_quantity_mul_adds_powers(c1, c2, p1, p2):
    a, b = PiQuantity(c1, p1), PiQuantity(c2, p2)
    prod = a * b
    assert prod.coeff == c1 * c2 and prod.pi_power == p1 + p2
    if p1 == p2:
        assert (a + b).coeff == c1 + c2


def test_sigma_table_matches_sigma():
    # every N <= 400, then perfect squares and prime powers at the end
    ref = [0] + [sigma(1, n) for n in range(1, 4097)]
    for N in [*range(401), 441, 1024, 2025, 4096]:
        assert list(arith.sigma_table(N)) == ref[: N + 1], N


def test_multiplicative_tables_match_scalars():
    N = 3000
    assert list(arith.moebius_table(N))[1:] == [moebius(n) for n in range(1, N + 1)]
    assert list(arith.jordan2_table(N))[1:] == [jordan2(n) for n in range(1, N + 1)]
    assert list(arith.sl2_order_table(N))[1:] == [sl2_order(n) for n in range(1, N + 1)]
    sig = [0] + [sigma(1, n) for n in range(1, N + 1)]
    assert list(arith.sigma_prefix(N)) == list(accumulate(sig))


def test_cached_tables_are_read_only():
    for table in (arith.sigma_table(100), arith.sigma_prefix(100)):
        with pytest.raises(TypeError):
            table[5] = 0
    assert arith.sigma_table(100)[5] == 6


def test_list_tables_are_read_only():
    for table in (arith.sl2_order_table(100), arith.jordan2_table(100),
                  arith.moebius_table(100)):
        with pytest.raises(TypeError):
            table[5] = 0
    assert arith.sl2_order_table(100)[5] == 120
    assert arith.jordan2_table(100)[5] == 24


def test_is_prime_matches_a_sieve_of_eratosthenes():
    # is_prime is read off factorize, so the sieve of Eratosthenes is the
    # oracle independent of trial division
    N = 2**17 + 1
    eratosthenes = bytearray([1]) * (N + 1)
    eratosthenes[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(N) + 1):
        if eratosthenes[p]:
            eratosthenes[p * p :: p] = bytes(len(range(p * p, N + 1, p)))
    for n in range(-3, N + 1):
        assert is_prime(n) == (n >= 2 and eratosthenes[n] == 1), n
    assert not any(is_prime(n) for n in (-7, -2, -1, 0, 1))


def test_is_prime_past_the_sieve_bound_uses_trial_division():
    assert is_prime(10_000_019) and is_prime(2_147_483_647)  # 2^31 - 1
    assert not is_prime(10_000_001)  # 11 * 909091
    assert not is_prime(10_000_021)  # 97 * 103093
    assert not is_prime(3163**2)  # 10004569, the square of a prime


def test_moebius_past_the_sieve_bound_uses_trial_division():
    assert moebius(10_000_019) == -1  # prime
    assert moebius(10_000_001) == 1  # 11 * 909091
    assert moebius(2_147_483_647) == -1  # 2^31 - 1, prime
    assert moebius(3163**2 * 2) == 0


# Traces the first call named by sys.argv[1] in a fresh process, after every
# import, and prints its peak traced allocation in bytes.
_FIRST_CALL_PEAK = """
import sys, tracemalloc
from gothicvol import Locus, arith, counting, euler

call = {"factorize": lambda: arith.factorize(9_999_991),
        "cd_count": lambda: counting.cd_count(Locus.H2, 9_999_991)}[sys.argv[1]]
tracemalloc.start()
call()
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("call", ["factorize", "cd_count"])
def test_a_first_factorisation_near_the_table_bound_builds_no_table(run_python, call):
    # a smallest-prime-factor sieve reaching 9999991 would trace about 60 MB;
    # trial division traces a few hundred bytes
    out = run_python("-c", _FIRST_CALL_PEAK, call, timeout=120, check=True).stdout
    assert int(out) < 2**20
