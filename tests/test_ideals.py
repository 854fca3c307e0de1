"""Ideals of the order O_{d^2}: bases, equality, Gram matrices, polarisation.

symplectic_divisors reads e1 = gcd of the entries and e1*e2 = |Pf(M)|; it is
checked on random unimodular congruences of block forms of known type, and
against the determinantal divisors (gcds of the minors) on those and on the
Gram matrices of every component for d <= 100.
"""

import math
import random
from itertools import combinations

import pytest

from gothicvol.ideals import (
    IdealSpec,
    QuadPair,
    class_count,
    component_list,
    galois_conjugate,
    gram_matrix,
    ideal_basis,
    ideal_equal,
    ideal_membership,
    polarization_restriction,
    symplectic_divisors,
)


def det(A):
    """Determinant by expansion along the first row."""
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)))


def minors_gcd(M, k):
    """The k-th determinantal divisor: the gcd of the k x k minors of M."""
    return math.gcd(*(det([[M[i][j] for j in cols] for i in rows])
                      for rows in combinations(range(4), k)
                      for cols in combinations(range(4), k)))


def divisor_oracle(M):
    """The Smith invariants of a nondegenerate alternating 4x4 M are
    e1, e1, e2, e2, so its determinantal divisors are e1, e1^2 and e1^2 e2."""
    d1, d2, d3 = (minors_gcd(M, k) for k in (1, 2, 3))
    assert d2 == d1 * d1
    return d1, d3 // d2


def random_congruence(M, rng):
    """U^T M U for a random unimodular U (as row/column operations)."""
    A = [row[:] for row in M]
    for _ in range(12):
        i, j = rng.sample(range(4), 2)
        q = rng.randint(-3, 3)
        for t in range(4):
            A[i][t] += q * A[j][t]
        for t in range(4):
            A[t][i] += q * A[t][j]
    return A


def test_quadpair_basics():
    x = QuadPair(3, 7)
    assert x.conjugate() == QuadPair(7, 3)


def test_membership_examples():
    spec = ideal_basis(5, 6, 1)
    assert ideal_membership(spec, QuadPair(1, 6))
    assert not ideal_membership(spec, QuadPair(1, 1))
    assert ideal_membership(spec, QuadPair(0, 0))


def test_basis_examples():
    assert [(g.a1, g.a2) for g in ideal_basis(6, 6, 1).basis] == [(6, 0), (0, 6)]
    assert [(g.a1, g.a2) for g in ideal_basis(5, 6, 1).basis] == [(1, 6), (0, 30)]
    full = ideal_basis(7, 1, 1)
    assert [(g.a1, g.a2) for g in full.basis] == [(1, 1), (0, 7)]
    assert full.index_in_order() == 1


def test_basis_membership_and_index():
    for d in range(2, 80):
        for n in (1, 2, 3, 5, 6, 10):
            for r in [r for r in range(1, n + 1) if n % r == 0]:
                spec = ideal_basis(d, n, r)
                assert all(ideal_membership(spec, g) for g in spec.basis)
                assert spec.index_in_order() == n, (d, n, r)
                # b is the least residue with b * (n/r)/g = 1 mod d/g
                s = n // r
                g = math.gcd(d, s)
                b = spec.basis[0].a2 // n
                assert 0 <= b < d // g, (d, n, r)
                assert (b * (s // g) - 1) % (d // g) == 0, (d, n, r)


def test_ideal_equal_examples():
    assert ideal_equal(3, 6, 1, 3)  # l_1 = l_3 = 3
    assert not ideal_equal(5, 6, 1, 2)  # g = 1
    for d in (6, 12, 18):  # n | d: all ideals coincide
        for r in (1, 2, 3, 6):
            assert ideal_equal(d, 6, r, 6)


def test_galois_conjugate():
    assert galois_conjugate(1, 6) == 6
    assert galois_conjugate(2, 6) == 3


def test_class_count_examples():
    assert class_count(5, 6) == 4
    assert class_count(6, 6) == 1
    assert class_count(2, 6) == 2


def test_component_list():
    assert component_list(6) == [1]
    assert component_list(9) == [1, 2]
    assert component_list(7) == [1, 2, 3, 6]
    assert component_list(2) == [1, 3]


def test_gram_matrix_principal_block():
    for d in (2, 5, 11):
        M = gram_matrix(d, 1, 1)
        assert M[0][2:] == [1, 0]
        assert M[1][2:] == [d, 1]
        assert all(M[i][j] == -M[j][i] for i in range(4) for j in range(4))


def test_symplectic_divisors_examples():
    J11 = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    assert symplectic_divisors(J11) == (1, 1)
    assert symplectic_divisors(gram_matrix(5, 6, 2)) == (1, 6)
    assert symplectic_divisors(gram_matrix(7, 6, 3)) == (1, 6)


def test_symplectic_divisors_against_determinantal_divisors():
    rng = random.Random(20260810)
    for e1, e2 in [(1, 1), (1, 6), (2, 4), (3, 3), (2, 10), (5, 30)]:
        base = [
            [0, e1, 0, 0],
            [-e1, 0, 0, 0],
            [0, 0, 0, e2],
            [0, 0, -e2, 0],
        ]
        for _ in range(25):
            M = random_congruence(base, rng)
            assert symplectic_divisors(M) == (e1, e2)
            assert divisor_oracle(M) == (e1, e2)
    for d in range(2, 101):
        for r in component_list(d):
            M = gram_matrix(d, 6, r)
            assert symplectic_divisors(M) == divisor_oracle(M), (d, r)


def test_polarization_examples():
    assert polarization_restriction(5, 6, 2) == (10, 15)
    assert polarization_restriction(6, 6, 1) == (6, 6)
    assert polarization_restriction(11, 1, 1) == (11, 11)


def test_ideal_spec_is_frozen():
    spec = ideal_basis(5, 6, 1)
    assert isinstance(spec, IdealSpec)
    with pytest.raises(AttributeError):
        spec.d = 7


@pytest.mark.parametrize("fn, args, message", [
    (ideal_basis, (1, 6, 1), "need d >= 2"),
    (galois_conjugate, (4, 6), "r = 4 must be a positive divisor of n = 6"),
    (component_list, (1,), "need d >= 2"),
])
def test_out_of_range_arguments_are_refused(fn, args, message):
    with pytest.raises(ValueError, match=message):
        fn(*args)
