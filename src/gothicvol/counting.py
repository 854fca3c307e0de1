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
Masur-Veech volume.

The genus-2 oracle counts pairs (h, v) of permutations of d letters with
<h, v> transitive and commutator h v h^-1 v^-1 a single 3-cycle, weighted by
1/d! -- i.e. square-tiled surfaces in H(2) counted with weight 1/|Aut|.  It
must agree exactly with cd_count(H2, d).  It runs in one process: S_d is built
once as an int8 array, and each conjugacy-class representative h is tested
against every v at once by array comparisons.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from . import Locus
from .arith import divisors, nu, sigma
from .euler import chi_G, chi_W2, chi_W4, chi_W6

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CoverCount:
    """|S_{m,m}| split by contributing curve: entries (family, D, component, count)."""

    m: int
    contributions: tuple[tuple[str, int, int | None, Fraction], ...]
    total: Fraction


def sts_count(chi: Fraction) -> Fraction:
    """Number of minimal torus covers of degree and area m on a curve: -6 chi."""
    if chi > 0:
        raise ValueError("Teichmueller curves have chi <= 0")
    return -6 * Fraction(chi)


def smm(locus: Locus, m: int, mode: str = "main_term") -> CoverCount:
    """|S_{m,m}(locus)| by the distribution rules, as curve contributions.

    ``mode`` selects the square-discriminant surrogate for the gothic locus
    (main_term / leading / remark); H(2) values are exact, P3/P4 use their
    main-term formulas.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    parts: list[tuple[str, int, int | None, Fraction]] = []
    if locus is Locus.H2:
        if m > 2:
            parts.append(("W2", m * m, None, sts_count(chi_W2(m * m))))
    elif locus is Locus.P3:
        parts.append(("W4", m * m, 1, sts_count(chi_W4(m * m, 1, "main_term").value)))
        if m % 4 == 2:
            h = m // 2
            parts.append(("W4", h * h, 2, sts_count(chi_W4(h * h, 2, "main_term").value)))
    elif locus is Locus.P4:
        if m % 2 == 0:
            h = m // 2
            parts.append(("W6", h * h, None, sts_count(chi_W6(h * h, "main_term").value)))
    elif locus is Locus.G:
        rs = [1]
        if nu(2, m) == 1:
            rs.append(2)
        if nu(3, m) == 1:
            rs.append(3)
        if nu(2, m) == 1 and nu(3, m) == 1:
            rs.append(6)
        for r in rs:
            h = m // r
            rmode = mode
            if mode == "remark" and (r != 1 or h == 2):
                # the remark correction is known for r = 1 only, and at d = 2
                # it exceeds the main term (the one chi > 0 artifact of the
                # conjectural formula); fall back to the sandwich lower bound
                rmode = "main_term"
            parts.append(("G", h * h, r, sts_count(chi_G(h * h, r, rmode).value)))
    total = sum((c for *_ignored, c in parts), Fraction(0))
    return CoverCount(m, tuple(parts), total)


def cd_count(locus: Locus, d: int, mode: str = "main_term") -> Fraction:
    """|C_d| = sum_{m|d} sigma(d/m) |S_{m,m}|: all torus covers of degree d."""
    if d < 1:
        raise ValueError("need d >= 1")
    return sum(
        (sigma(1, d // m) * smm(locus, m, mode).total for m in divisors(d)),
        Fraction(0),
    )


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


def _symmetric_group(d: int) -> np.ndarray:
    """All d! permutations of range(d), one per row of an int8 array."""
    import numpy as np

    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(d))),
        dtype=np.int8,
        count=factorial(d) * d,
    )
    return flat.reshape(factorial(d), d)


def _transitive(h: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Per row v of ``vs``: does <h, v> act transitively on the d letters?

    Grows the orbit of letter 0 by boolean closure: j joins once h(j) or v(j)
    is in it.  Each round that does not close the orbit adds a letter, so
    d - 1 rounds reach every letter of a transitive group.
    """
    import numpy as np

    d = h.shape[0]
    reached = np.zeros(vs.shape, dtype=bool)
    reached[:, 0] = True
    for _ in range(d - 1):
        reached = reached | reached[:, h] | np.take_along_axis(reached, vs, axis=1)
    return reached.all(axis=1)


def h2_permutation_oracle(d: int, commutator: str = "hv") -> Fraction:
    """Weighted count of degree-d square-tiled surfaces in H(2), from scratch.

    Counts pairs (h, v) in S_d x S_d with <h, v> transitive whose commutator
    h v h^-1 v^-1 has exactly one nontrivial cycle, of length 3, and divides
    by d!.  h runs over conjugacy-class representatives weighted by class
    size, so the total is sum over classes of count / |centralizer|; v runs
    over all of S_d at once, as the rows of one int8 array.  The commutator
    moves v(j) iff h(v(h^-1 j)) != v(j), so one array comparison gives the
    number of moved points of every v; transitivity is then tested on the
    pairs whose commutator moves exactly three points.

    ``commutator='vh'`` counts with the conjugate convention v h v^-1 h^-1
    instead, evaluated straight from its definition on the table of inverse
    permutations; both conventions give identical counts.
    """
    if not 1 <= d <= 10:
        raise ValueError("oracle is cost-guarded to 1 <= d <= 10")
    if commutator not in ("hv", "vh"):
        raise ValueError("commutator must be 'hv' or 'vh'")
    import numpy as np

    vs = _symmetric_group(d)
    if commutator == "vh":
        vinvs = np.argsort(vs, axis=1).astype(np.int8)
        letters = np.arange(d, dtype=np.int8)
    total = Fraction(0)
    for part in _partitions(d):
        h = np.array(_perm_from_cycle_type(part, d), dtype=np.int8)
        hinv = np.argsort(h)
        if commutator == "hv":
            moved = np.count_nonzero(h[vs[:, hinv]] != vs, axis=1)
        else:  # i is moved iff v(h(v^-1(h^-1 i))) != i
            w = np.take_along_axis(vs, h[vinvs[:, hinv]], axis=1)
            moved = np.count_nonzero(w != letters, axis=1)
        count = np.count_nonzero(_transitive(h, vs[moved == 3]))
        total += Fraction(count, _centralizer_size(part))
    return total
