"""Prototype enumeration against a from-scratch brute-force oracle."""

import math
from fractions import Fraction

import pytest

from gothicvol import arith, prototypes, qforms
from gothicvol.arith import factorize
from gothicvol.prototypes import conductor, e_value, enumerate_prototypes


def brute_is_fundamental(n):
    def squarefree(m):
        return all(m % (q * q) for q in range(2, m + 1))

    if n % 4 == 1:
        return squarefree(n)
    return n % 4 == 0 and (n // 4) % 4 in (2, 3) and squarefree(n // 4)


def brute_conductor(D):
    """Largest f with D/f^2 a discriminant that is fundamental (or 1)."""
    r = math.isqrt(D)
    if r * r == D:
        return r
    for f in range(r, 0, -1):
        if D % (f * f):
            continue
        D0 = D // (f * f)
        if D0 % 4 in (0, 1) and brute_is_fundamental(D0):
            return f
    raise AssertionError


def brute_prototypes(D, k):
    """Box-scan oracle: every [a, b, c] with the defining conditions."""
    f = brute_conductor(D)
    out = set()
    for b in range(-math.isqrt(D), math.isqrt(D) + 1):
        for a in range(1, D // (4 * k) + 1):
            num = b * b - D
            if num % (4 * k * a):
                continue
            c = num // (4 * k * a)
            if c >= 0:
                continue
            # c0 = largest t with t^2 | c; the quotient is then squarefree
            c0 = max(t for t in range(1, math.isqrt(-c) + 1) if c % (t * t) == 0)
            if math.gcd(math.gcd(f, abs(b)), c0) == 1:
                out.add((a, b, c))
    return out


def filter_walk(D, k):
    """Reference: every divisor a of each row's n with its exponent vector,
    kept when gcd(gcd(f, b), c0) = 1 (the enumeration before the walk over
    admissible exponents), by increasing b then a."""
    f = conductor(D)
    bmax = math.isqrt(D - 1)
    for b in range(-bmax, bmax + 1):
        rem = D - b * b
        if rem % (4 * k):
            continue
        n = rem // (4 * k)
        fac = factorize(n)
        divs = [(1, ())]
        for p, e in fac:
            divs = [(a * p**i, exps + (i,)) for a, exps in divs for i in range(e + 1)]
        for a, exps in sorted(divs):
            c0 = math.prod(p ** ((e - i) // 2) for (p, e), i in zip(fac, exps))
            if math.gcd(math.gcd(f, abs(b)), c0) == 1:
                yield a, b, -(n // a)


def test_conductor_examples():
    assert conductor(5) == 1
    assert conductor(9) == 3  # a square D gives isqrt(D)
    assert conductor(45) == 3
    assert conductor(48) == 2  # 48 = 2^2 * 12, and 12 is fundamental


def test_conductor_brute_force():
    for D in range(1, 2001):
        if D % 4 in (2, 3):
            continue
        f = conductor(D)
        assert f == brute_conductor(D), D
        if math.isqrt(D) ** 2 == D:
            assert f * f == D
        else:
            assert D % (f * f) == 0 and brute_is_fundamental(D // (f * f)), D


def test_enumeration_examples():
    assert enumerate_prototypes(5, 1) == [(1, -1, -1), (1, 1, -1)]
    assert e_value(5, 1) == 2

    assert enumerate_prototypes(4, 1) == [(1, 0, -1)]
    assert e_value(4, 1) == 1

    p81 = enumerate_prototypes(8, 1)
    assert len(p81) == 4
    assert sum(a for a, _, _ in p81) == 5 == e_value(8, 1)


def test_enumeration_order_is_b_then_a():
    for D in (12, 33, 40, 85):
        keys = [(b, a) for a, b, _ in enumerate_prototypes(D, 1)]
        assert keys == sorted(keys)


def test_e_value_convention_at_one():
    assert e_value(1, 1) == Fraction(-1, 12)
    assert e_value(1, 6) == Fraction(-1, 12)


def test_against_box_scan_oracle():
    for D in range(4, 150):
        if D % 4 in (2, 3):
            continue
        for k in (1, 6):
            assert set(enumerate_prototypes(D, k)) == brute_prototypes(D, k), (D, k)


def brute_nu(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def has_boundary_row(D, k):
    """Some row has a prime p | gcd(f, b) with nu_p(n) >= 3, so the walk
    drops exponents of p from a there."""
    f = brute_conductor(D)
    for b in range(-math.isqrt(D - 1), math.isqrt(D - 1) + 1):
        rem = D - b * b
        if rem % (4 * k) == 0:
            n, g = rem // (4 * k), math.gcd(f, abs(b))
            if any(g % p == 0 and brute_nu(p, n) >= 3 for p in range(2, g + 1)):
                return True
    return False


# (D, k) past the range above, each with a row where p | gcd(f, b) and
# nu_p(n) >= 3: p = 2 up to nu = 7, p = 3 up to nu = 4, p = 5 and p = 7
@pytest.mark.parametrize("D, k", [(160, 1), (189, 1), (324, 1), (500, 1), (528, 1),
                                  (1372, 1), (192, 6), (648, 6), (784, 6), (1944, 6)])
def test_box_scan_where_the_walk_drops_exponents(D, k):
    assert has_boundary_row(D, k)
    got = set(enumerate_prototypes(D, k))
    assert got == brute_prototypes(D, k)
    assert e_value(D, k) == sum(a for a, _, _ in got)


def test_walk_equals_the_filter_walk():
    for D in range(2, 2001):
        if D % 4 in (2, 3):
            continue
        for k in (1, 6):
            want = list(filter_walk(D, k))
            assert enumerate_prototypes(D, k) == want, (D, k)  # the same triples in the same order
            assert e_value(D, k) == sum(a for a, _, _ in want), (D, k)
        if D <= 1000:
            # e_value walks b >= 0 only; the filter walk takes every b
            for k in (2, 3):
                assert e_value(D, k) == sum(a for a, _, _ in filter_walk(D, k)), (D, k)


def test_e_value_uses_no_divisor_sum_formula(monkeypatch):
    # check_e_and_a compares e_value with qforms.ek_coeff, a sigma route;
    # e_value must reach its count without either
    want = {(D, k): e_value(D, k) for D in (5, 12, 45, 160, 189, 648) for k in (1, 6)}

    def forbidden(*args):
        raise AssertionError("divisor-sum formula called")

    monkeypatch.setattr(arith, "sigma", forbidden)
    monkeypatch.setattr(prototypes, "sigma", forbidden, raising=False)
    monkeypatch.setattr(qforms, "ek_coeff", forbidden)
    for (D, k), value in want.items():
        assert e_value(D, k) == value


def test_gothic_empty_congruence_classes_give_empty_sets():
    # b^2 = D mod 24 has no solution exactly when D is a non-residue; the
    # enumeration must return empty sets there, not raise
    for D in (8, 20, 29, 44):
        assert enumerate_prototypes(D, 6) == []
        assert e_value(D, 6) == 0
