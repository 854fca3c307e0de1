"""The order O_{d^2} inside Z + Z, its norm-n ideals b_r, and the induced
symplectic structure on b_r + O^dual.

O_{d^2} = {(a1, a2) in Z+Z : a1 = a2 mod d} with componentwise multiplication;
conjugation swaps coordinates, norm is a1*a2 and trace a1+a2.  For squarefree
n, the ideal of norm n attached to a divisor r | n is

    b_r = {(a1, a2) : a1 = a2 mod d, a1 = 0 mod r, a2 = 0 mod n/r},

with Z-basis {(r*g, b*n), (0, lcm(d, n/r))}, g = gcd(d, n/r), where b is
the inverse of (n/r)/g mod d/g, taken in [0, d/g).  Two ideals coincide iff
lcm(r, g) = lcm(s, g) for g = (d, n), the Galois action is r -> n/r, and the
number of distinct classes is sigma_0(n / (d, n)).

The trace pairing <(a, b), (x, y)> = tr(a y - b x) on b_r + O^dual is an
integral symplectic form of type (1, n); restricting it to the two eigenform
sublattices (vanishing second / first coordinate) produces the polarisation
degrees (lcm(d, r), lcm(d, n/r)).  O^dual = (1/d) O_{d^2} is represented by
the basis {(0, 1), (1/d)(-1, 1)}, scaled by d internally and the form
divided back by d, so every Gram entry stays an integer.  The type (e1, e2)
of a nondegenerate alternating 4x4 form has a closed form: e1 is the gcd of
its entries and e1*e2 the absolute value of its Pfaffian.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .arith import is_squarefree, sigma


class QuadPair(namedtuple("QuadPair", ("a1", "a2"))):
    """An element (a1, a2) of Z + Z; an immutable, hashable tuple."""

    __slots__ = ()

    def conjugate(self) -> "QuadPair":
        return QuadPair(self.a2, self.a1)

    def __add__(self, other: "QuadPair") -> "QuadPair":
        return QuadPair(self.a1 + other.a1, self.a2 + other.a2)

    def scale(self, t: int) -> "QuadPair":
        return QuadPair(t * self.a1, t * self.a2)


def _trace_product(x: QuadPair, y: QuadPair) -> int:
    """tr(x * y) = x1 y1 + x2 y2."""
    return x.a1 * y.a1 + x.a2 * y.a2


class IdealSpec(namedtuple("IdealSpec", ("d", "n", "r", "basis"))):
    """The ideal b_r of norm n in O_{d^2}, with its 2x2 integer basis; an
    immutable, hashable tuple (d, n, r, basis).

    ``basis`` holds the two generators as columns, i.e. elements of Z + Z
    (a tuple of two QuadPair).  The index of the generated lattice in
    O_{d^2} equals n.
    """

    __slots__ = ()

    def index_in_order(self) -> int:
        """|det| of the basis in O_{d^2}-coordinates (1,1), (0,d)."""
        g1, g2 = self.basis
        # (a1, a2) = alpha (1,1) + beta (0,d)  ->  alpha = a1, beta = (a2-a1)/d
        det = g1.a1 * ((g2.a2 - g2.a1) // self.d) - g2.a1 * (
            (g1.a2 - g1.a1) // self.d
        )
        return abs(det)


def _validate(n: int, *rs: int, d: int | None = None) -> None:
    if d is not None and d < 2:
        raise ValueError("need d >= 2")
    if n < 1 or not is_squarefree(n):
        raise ValueError(f"n = {n} must be a squarefree positive integer")
    for r in rs:
        if r < 1 or n % r:
            raise ValueError(f"r = {r} must be a positive divisor of n = {n}")


def ideal_membership(spec: IdealSpec, x: QuadPair) -> bool:
    """The three defining congruences of b_r."""
    d, n, r = spec.d, spec.n, spec.r
    return (x.a1 - x.a2) % d == 0 and x.a1 % r == 0 and x.a2 % (n // r) == 0


def ideal_basis(d: int, n: int, r: int) -> IdealSpec:
    """Basis {(r*g, b*n), (0, lcm(d, n/r))} with g = (d, n/r) and
    a*d + b*(n/r) = g.

    That equation fixes b only mod d/g, and shifting b by d/g moves the first
    generator by a multiple of the second.  So the basis is made canonical by
    taking b as its least nonnegative residue: the inverse of (n/r)/g mod d/g,
    which is 0 when d/g = 1.
    """
    _validate(n, r, d=d)
    s = n // r
    g = math.gcd(d, s)
    b = pow(s // g, -1, d // g)
    gen1 = QuadPair(r * g, b * n)
    gen2 = QuadPair(0, math.lcm(d, s))
    return IdealSpec(d, n, r, (gen1, gen2))


def ideal_equal(d: int, n: int, r: int, s: int) -> bool:
    """b_r = b_s iff lcm(r, g) = lcm(s, g) with g = gcd(d, n)."""
    _validate(n, r, s, d=d)
    g = math.gcd(d, n)
    return math.lcm(r, g) == math.lcm(s, g)


def galois_conjugate(r: int, n: int) -> int:
    """Galois conjugation sends b_r to b_{n/r}."""
    _validate(n, r)
    return n // r


def class_count(d: int, n: int) -> int:
    """Number of distinct ideals b_r, r | n: sigma_0(n / (d, n))."""
    _validate(n, d=d)
    return sigma(0, n // math.gcd(d, n))


def component_list(d: int) -> list[int]:
    """Canonical representatives r | 6 of the distinct ideals of norm 6."""
    _validate(6, d=d)
    m = d % 6
    if m == 0:
        return [1]
    if m == 3:
        return [1, 2]
    if m in (2, 4):
        return [1, 3]
    return [1, 2, 3, 6]


def _dual_basis_scaled(d: int) -> tuple[QuadPair, QuadPair]:
    """d * O^dual in the coordinates used for the Gram matrix: (0, d), (-1, 1)."""
    return QuadPair(0, d), QuadPair(-1, 1)


def gram_matrix(d: int, n: int, r: int) -> list[list[int]]:
    """Gram matrix of the trace pairing on b_r + O^dual, in the basis
    (g1, 0), (g2, 0), (0, h1), (0, h2) with h = {(0,1), (1/d)(-1,1)}.

    Computed with O^dual scaled by d and the form divided back by d, so all
    intermediate values are integers; for n = 1 the 2x2 block is (1, 0; d, 1).
    """
    spec = ideal_basis(d, n, r)
    h1, h2 = _dual_basis_scaled(d)
    T = [
        [_trace_product(g, h1) // d, _trace_product(g, h2) // d]
        for g in spec.basis
    ]
    Z = [0, 0]
    return [
        Z + T[0],
        Z + T[1],
        [-T[0][0], -T[1][0]] + Z,
        [-T[0][1], -T[1][1]] + Z,
    ]


def symplectic_divisors(M) -> tuple[int, int]:
    """Elementary divisors (e1, e2), e1 | e2, of a nondegenerate antisymmetric
    4x4 integer form.

    The Frobenius normal form of a form of type (e1, e2) has the invariant
    factors e1, e1, e2, e2: e1 is the gcd of the entries, and the Pfaffian
    a01 a23 - a02 a13 + a03 a12 is +-e1 e2.  e1 | e2 holds because e1^2
    divides every term of the Pfaffian.
    """
    A = [[int(v) for v in row] for row in M]
    if len(M) != 4 or any(len(row) != 4 for row in A):
        raise ValueError("expected a 4x4 matrix")
    if A != list(map(list, M)):
        raise ValueError("matrix has a non-integral entry")
    if any(A[i][j] != -A[j][i] for i in range(4) for j in range(4)):
        raise ValueError("matrix is not antisymmetric")
    pf = A[0][1] * A[2][3] - A[0][2] * A[1][3] + A[0][3] * A[1][2]
    if pf == 0:
        raise ValueError("degenerate form")
    e1 = math.gcd(*(v for row in A for v in row))
    return e1, abs(pf) // e1


def _second_coord_kernel(gens: tuple[QuadPair, QuadPair], coord: int) -> QuadPair:
    """Primitive element of the rank-1 sublattice of <gens> with the given
    coordinate (0 or 1) equal to zero."""
    v1 = (gens[0].a1, gens[0].a2)[coord]
    v2 = (gens[1].a1, gens[1].a2)[coord]
    g = math.gcd(v1, v2)
    alpha, beta = v2 // g, -(v1 // g)
    return gens[0].scale(alpha) + gens[1].scale(beta)


def polarization_restriction(d: int, n: int, r: int) -> tuple[int, int]:
    """Degrees of the (1, n)-pairing restricted to the two eigenform lines.

    Lambda_1 (second coordinate zero) and Lambda_2 (first coordinate zero)
    inside b_r + O^dual are each spanned by one generator from the ideal and
    one from the dual; pairing them gives (lcm(d, r), lcm(d, n/r)).
    """
    spec = ideal_basis(d, n, r)
    dual = _dual_basis_scaled(d)
    out = []
    for coord in (1, 0):
        a_gen = _second_coord_kernel(spec.basis, coord)
        b_gen = _second_coord_kernel(dual, coord)
        out.append(abs(_trace_product(a_gen, b_gen)) // d)
    return out[0], out[1]
