"""Square-tiled surface counts from Euler characteristics, and the independent
permutation-pair oracle for the minimal stratum in genus 2.

A minimal torus cover of degree and area m on an arithmetic Teichmueller
curve contributes to |S_{m,m}|, which equals -6 chi(C) of the curve.  The
distribution of these covers among curves depends on the locus:

    H(2): W_{m^2}(2) only (zero for m <= 2);
    P3:   W^1_{m^2}(4) always, plus W^2_{(m/2)^2}(4) iff m = 2 mod 4;
    P4:   W_{(m/2)^2}(6) iff m is even;
    G:    components r with  r=1 always, r=2 iff nu_2(m)=1, r=3 iff nu_3(m)=1,
          r=6 iff both, each at discriminant (m/r)^2.

cd_count(locus, d) = sum_{m|d} sigma(d/m) |S_{m,m}| then counts all torus
covers of degree d (minimal or not), the quantity whose partial sums give the
Masur-Veech volume.  smm is the scalar route, one m at a time through the
euler.chi_* values; volume.smm_totals builds the same totals as one integer
table, its curves from euler._curve_counts.

The genus-2 oracle counts pairs (h, v) of permutations of d letters with
<h, v> transitive and commutator h v h^-1 v^-1 a single 3-cycle, weighted by
1/d! -- i.e. square-tiled surfaces in H(2) counted with weight 1/|Aut|.  It
must agree exactly with cd_count(H2, d), and it uses no Euler characteristic.
h runs over one representative per cycle type, its cycles consecutive
blocks, and c over the 3-cycles.  h v h^-1 v^-1 = c is the same as
v h^-1 v^-1 = h^-1 c, which has a solution iff h^-1 c has the cycle type of
h; the solutions are then one coset v0 Z(h), |Z(h)| = prod l^(m_l) m_l!.  An
element of Z(h) permutes the h-cycles of each length and rotates each one,
and whether <h, v0 z> is transitive depends on that block permutation alone,
so each block permutation that joins all the h-cycles (a bit-mask closure)
stands for prod l^(m_l) solutions.  Conjugating by z in Z(h) carries the
solutions for c onto those for z c z^-1, so c runs over one 3-cycle per
Z(h)-orbit, weighted by the orbit's size.  Only solutions are visited, in
pure Python: neither numpy nor ``euler`` is loaded.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache
from fractions import Fraction
from math import factorial, lcm, prod

from . import Locus, arith, surrogate_mode


class CoverCount(namedtuple("CoverCount", ("m", "contributions", "total"))):
    """|S_{m,m}| split by contributing curve: an immutable, hashable tuple
    (m, contributions, total), whose contributions are (family, D, component,
    count) tuples and whose total is a Fraction."""

    __slots__ = ()


def sts_count(chi: Fraction) -> Fraction:
    """Number of minimal torus covers of degree and area m on a curve: -6 chi."""
    if chi.numerator > 0:
        raise ValueError("Teichmueller curves have chi <= 0")
    return Fraction(-6 * chi.numerator, chi.denominator)


@cache
def _euler():
    """The ``euler`` module, imported on the first ``smm`` call, so the
    permutation oracle runs without it.  ``verify`` calls ``smm`` thousands of
    times, and a cached call costs about a ninth of an import statement (35
    against 330 ns): without the cache ``verify --suite counting`` takes 6-9%
    more CPU (Python 3.11 on a 2-core Xeon, 41 alternated fresh runs)."""
    from . import euler

    return euler


# The gothic components r that meet degree m, keyed by (nu_2(m) = 1,
# nu_3(m) = 1), that is by (m = 2 mod 4, m = 3 or 6 mod 9)
_GOTHIC_COMPONENTS = {(False, False): (1,), (True, False): (1, 2),
                      (False, True): (1, 3), (True, True): (1, 2, 3, 6)}


def smm(locus: Locus, m: int, mode: str = "main_term") -> CoverCount:
    """|S_{m,m}(locus)| by the distribution rules, as curve contributions.

    ``mode`` is a surrogate the locus offers (SURROGATES): main_term, or for
    the gothic locus also leading / remark; H(2) values are exact under the
    main_term label, P3/P4 use their main-term formulas.  So the P3/P4
    values are surrogates, not square-tiled counts: smm(P3, 1) is 5/24,
    though a surface in H(4) needs at least 5 squares.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    mode = surrogate_mode(mode, locus)
    euler = _euler()
    parts: list[tuple[str, int, int | None, Fraction]] = []
    if locus is Locus.H2:
        if m > 2:
            parts.append(("W2", m * m, None, sts_count(euler.chi_W2(m * m))))
    elif locus is Locus.P3:
        parts.append(("W4", m * m, 1, sts_count(euler.chi_W4(m * m, 1, "main_term"))))
        if m % 4 == 2:
            h = m // 2
            parts.append(("W4", h * h, 2, sts_count(euler.chi_W4(h * h, 2, "main_term"))))
    elif locus is Locus.P4:
        if m % 2 == 0:
            h = m // 2
            parts.append(("W6", h * h, None, sts_count(euler.chi_W6(h * h, "main_term"))))
    elif locus is Locus.G:
        for r in _GOTHIC_COMPONENTS[m % 4 == 2, m % 9 in (3, 6)]:
            h = m // r
            rmode = mode
            if mode == "remark" and (r != 1 or h == 2):
                # the remark correction is known for r = 1 only, and at d = 2
                # it exceeds the main term (the one chi > 0 artifact of the
                # conjectural formula); fall back to the sandwich lower bound
                rmode = "main_term"
            parts.append(("G", h * h, r, sts_count(euler.chi_G(h * h, r, rmode))))
    if len(parts) == 1:
        # most calls have one part; the lcm form below costs one more
        # Fraction per call, 8-9% of verify --suite counting's CPU, measured
        # as in _euler
        total = parts[0][3]
    else:
        counts = [part[3] for part in parts]
        den = lcm(*(c.denominator for c in counts))
        total = Fraction(sum(c.numerator * (den // c.denominator) for c in counts), den)
    return CoverCount(m, tuple(parts), total)


def cd_count(locus: Locus, d: int, mode: str = "main_term") -> Fraction:
    """|C_d| = sum_{m|d} sigma(d/m) |S_{m,m}|: all torus covers of degree d.

    For P3/P4 this sums smm's main-term surrogates, so it is not a
    square-tiled count either: cd_count(P4, 2) is 7/12, though a surface in
    H(6) needs at least 7 squares.  The divisors m and their weights
    sigma(d/m) come from one factorisation of d.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    # the m = d term first: it refuses a surrogate the locus lacks, and for
    # the gothic locus a d beyond the e(d^2, 6) store, before d is factorised
    top = smm(locus, d, mode).total
    # (m, sigma(d/m)) for each m | d, with sigma(p^j) = (p^(j+1) - 1)/(p - 1)
    pairs = [(1, 1)]
    for p, e in arith.factorize(d):
        pairs = [(m * p ** (e - j), w * ((p ** (j + 1) - 1) // (p - 1)))
                 for m, w in pairs for j in range(e + 1)]
    # the terms as ints over the least common denominator, as in smm
    terms = [(w, top if m == d else smm(locus, m, mode).total) for m, w in pairs]
    den = lcm(*(t.denominator for _, t in terms))
    return Fraction(sum(w * t.numerator * (den // t.denominator) for w, t in terms), den)


# ---------------------------------------------------------------------------
# Permutation-pair oracle for H(2)
# ---------------------------------------------------------------------------

def _partitions(n: int, largest: int | None = None):
    """Integer partitions of n as non-increasing tuples."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _perm_from_cycle_type(part: tuple[int, ...], d: int) -> tuple[int, ...]:
    p = list(range(d))
    pos = 0
    for length in part:
        for i in range(length):
            p[pos + i] = pos + (i + 1) % length
        pos += length
    return tuple(p)


def _centralizer_size(part: tuple[int, ...]) -> int:
    size = 1
    for length in set(part):
        mult = part.count(length)
        size *= length**mult * factorial(mult)
    return size


def _three_cycles(d: int):
    """Every 3-cycle of range(d) once, as the triple (x, y, w) of x -> y -> w -> x."""
    for x, y, w in itertools.combinations(range(d), 3):
        yield x, y, w
        yield x, w, y


def _three_cycle_orbits(part: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One 3-cycle of each orbit of Z(h) on the 3-cycles, as a permutation
    tuple, with the orbit's size; h is the representative of cycle type
    ``part`` whose cycles are consecutive blocks.

    z in Z(h) permutes the h-cycles of each length and rotates each one, so
    it carries the ordered triple (x, y, w) onto every triple with the same
    h-cycle lengths, the same pairs in a shared h-cycle and the same offsets
    within each shared h-cycle, and onto no other.  A 3-cycle's key is the
    least such description over its three rotations.
    """
    d = sum(part)
    length = []
    start = []  # per point: the first point of its h-cycle
    for size in part:
        start += [len(length)] * size
        length += [size] * size
    # rel[x][y]: the offset of y after x within their h-cycle, -1 if apart
    rel = [
        [(y - x) % length[x] if start[x] == start[y] else -1 for y in range(d)]
        for x in range(d)
    ]
    orbits: dict[tuple, list] = {}  # key -> [representative, orbit size]
    for x, y, w in _three_cycles(d):
        key = min(
            (length[x], length[y], length[w], rel[x][y], rel[x][w], rel[y][w]),
            (length[y], length[w], length[x], rel[y][w], rel[y][x], rel[w][x]),
            (length[w], length[x], length[y], rel[w][x], rel[w][y], rel[x][y]),
        )
        orbit = orbits.setdefault(key, [(x, y, w), 0])
        orbit[1] += 1
    out = []
    for (x, y, w), size in orbits.values():
        c = list(range(d))
        c[x], c[y], c[w] = y, w, x
        out.append((tuple(c), size))
    return tuple(out)


def _cycles(p: tuple[int, ...]) -> list[list[int]]:
    """The cycles of p, each listed from its least point as x, p(x), p(p(x)), ..."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if not seen[start]:
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = p[x]
            cycles.append(cycle)
    return cycles


def _transitive_solutions(part: tuple[int, ...], c: tuple[int, ...]) -> int:
    """Number of v in S_d with <h, v> transitive and h v h^-1 v^-1 = c, where
    h is the representative of cycle type ``part`` whose cycles are
    consecutive blocks.

    The equation reads v s v^-1 = t for s = h^-1, t = h^-1 c.  A solution
    exists iff t has the cycle type of s, and the solutions are then the
    coset v0 Z(h): v0 maps each cycle of s onto a cycle of t of the same
    length, and z in Z(h) permutes the h-cycles of each length (the block
    permutation pi) and rotates each one.  Under v0 z the h-cycle A is
    carried into the h-cycles that v0 meets on pi(A), whatever the rotations,
    so transitivity is a bit-mask closure over the blocks that depends on pi
    alone, and every transitive pi stands for prod l^(m_l) solutions.
    """
    d = len(c)
    h = _perm_from_cycle_type(part, d)
    s = [0] * d  # h^-1
    for x, y in enumerate(h):
        s[y] = x
    t = [s[c[x]] for x in range(d)]
    free: dict[int, list[list[int]]] = {}  # the t-cycles not yet paired, by length
    for cycle in _cycles(t):
        free.setdefault(len(cycle), []).append(cycle)
    # v0 s^i(a) = t^i(b), a the first point of an h-block and b of its t-cycle
    v0 = [0] * d
    block_of = [0] * d
    pos = 0
    for block, length in enumerate(part):
        targets = free.get(length)
        if not targets:
            return 0  # t does not have the cycle type of s
        target = targets.pop()
        x = pos
        for y in target:
            v0[x] = y
            x = s[x]
        for x in range(pos, pos + length):
            block_of[x] = block
        pos += length
    meets = [0] * len(part)  # per h-block, the h-blocks v0 maps it into
    for x in range(d):
        meets[block_of[x]] |= 1 << block_of[v0[x]]
    # blocks of equal length are consecutive, as part is non-increasing
    classes = []
    pos = 0
    for _, group in itertools.groupby(part):
        m = len(list(group))
        blocks = range(pos, pos + m)
        classes.append([tuple(meets[i] for i in pi) for pi in itertools.permutations(blocks)])
        pos += m
    full = (1 << len(part)) - 1
    transitive = 0
    for choice in itertools.product(*classes):
        image = sum(choice, ())
        seen = 1
        todo = [0]
        for block in todo:  # grows while it is read: each block is visited once
            fresh = image[block] & ~seen
            seen |= fresh
            while fresh:
                low = fresh & -fresh
                todo.append(low.bit_length() - 1)
                fresh ^= low
        transitive += seen == full
    return transitive * prod(part)  # the rotations of each h-cycle


def h2_permutation_oracle(d: int) -> Fraction:
    """Weighted count of degree-d square-tiled surfaces in H(2), from scratch.

    Counts pairs (h, v) in S_d x S_d with <h, v> transitive whose commutator
    h v h^-1 v^-1 has exactly one nontrivial cycle, of length 3, and divides
    by d!.  h runs over conjugacy-class representatives weighted by class
    size, so the total is sum over classes of count / |centralizer|.  c runs
    over one 3-cycle per Z(h)-orbit, times the orbit's size (see
    ``_three_cycle_orbits``), and for each only the v that solve the
    commutator equation are visited, one centraliser coset per c (see
    ``_transitive_solutions``).
    """
    if not 1 <= d <= 10:
        raise ValueError("oracle is cost-guarded to 1 <= d <= 10")
    # over d!: the class of h has d!/|Z(h)| members
    pairs = 0
    for part in _partitions(d):
        count = sum(
            size * _transitive_solutions(part, c)
            for c, size in _three_cycle_orbits(part)
        )
        pairs += count * (factorial(d) // _centralizer_size(part))
    return Fraction(pairs, factorial(d))
