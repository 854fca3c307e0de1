"""Cover counts per locus and the brute-force permutation oracle."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from gothicvol import SURROGATES, arith
from gothicvol.counting import (
    Locus,
    _centralizer_size,
    _partitions,
    _perm_from_cycle_type,
    _three_cycle_orbits,
    _three_cycles,
    _transitive_solutions,
    cd_count,
    h2_permutation_oracle,
    smm,
    sts_count,
)
from gothicvol.euler import chi_G, chi_W2, chi_W4, chi_W6


def brute_oracle(d):
    """All-pairs reference count (only feasible for tiny d)."""
    count = 0
    perms = list(itertools.permutations(range(d)))
    for h in perms:
        hinv = _inverse(h)
        for v in perms:
            vinv = _inverse(v)
            moved = [i for i in range(d) if h[v[hinv[vinv[i]]]] != i]
            if len(moved) == 3 and _orbit_is_everything(h, v):
                count += 1
    return Fraction(count, math.factorial(d))


def _inverse(p):
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return inv


def _orbit_is_everything(h, v):
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in (h[i], v[i]):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(h)


@cache
def class_brute_force(d):
    """(cycle type of h, 3-cycle c) -> the number of v in S_d with <h, v>
    transitive and h v h^-1 v^-1 = c, h the class representative and v every
    permutation, the commutator evaluated from its definition."""
    counts = Counter()
    letters = range(d)
    for part in _partitions(d):
        h = _perm_from_cycle_type(part, d)
        hinv = _inverse(h)
        for v in itertools.permutations(letters):
            vinv = _inverse(v)
            w = tuple(h[v[hinv[vinv[x]]]] for x in letters)  # h v h^-1 v^-1
            # three moved points: a 3-cycle
            if sum(w[x] != x for x in letters) == 3 and _orbit_is_everything(h, v):
                counts[part, w] += 1
    return counts


@pytest.mark.parametrize("d", range(1, 8))
def test_coset_oracle_matches_class_brute_force(d):
    # d = 6 and 7 are the first sizes with repeated cycles of length >= 2,
    # as in (2, 2, 2) and (3, 3)
    counts = class_brute_force(d)
    want = sum(Fraction(n, _centralizer_size(part)) for (part, _), n in counts.items())
    assert h2_permutation_oracle(d) == want


def _cycle_permutation(d, cycle):
    """The permutation tuple of the 3-cycle x -> y -> w -> x."""
    x, y, w = cycle
    p = list(range(d))
    p[x], p[y], p[w] = y, w, x
    return tuple(p)


@pytest.mark.parametrize("d", range(3, 8))
def test_coset_counts_per_three_cycle_match_class_brute_force(d):
    # one count per (class, c), not only the orbit-weighted totals
    got = Counter()
    for part in _partitions(d):
        for cycle in _three_cycles(d):
            c = _cycle_permutation(d, cycle)
            got[part, c] = _transitive_solutions(part, c)
    assert +got == class_brute_force(d)


def test_three_cycles_are_every_three_cycle():
    for d in range(1, 7):
        cycles = [_cycle_permutation(d, cycle) for cycle in _three_cycles(d)]
        assert len(set(cycles)) == len(cycles) == 2 * math.comb(d, 3)
        for c in cycles:
            assert sum(c[x] != x for x in range(d)) == 3


def test_three_cycle_orbit_sizes_sum_to_every_three_cycle():
    for d in range(1, 11):
        for part in _partitions(d):
            sizes = [size for _, size in _three_cycle_orbits(part)]
            assert sum(sizes) == d * (d - 1) * (d - 2) // 3, part


@pytest.mark.parametrize("d", range(3, 8))
def test_three_cycle_orbits_are_the_centralizer_orbits(d):
    # Z(h) from its definition, every z in S_d with z h = h z, and each
    # orbit by conjugating its representative with all of Z(h)
    for part in _partitions(d):
        h = _perm_from_cycle_type(part, d)
        centralizer = [z for z in itertools.permutations(range(d))
                       if all(z[h[x]] == h[z[x]] for x in range(d))]
        assert len(centralizer) == _centralizer_size(part)
        covered = set()
        for c, size in _three_cycle_orbits(part):
            orbit = set()
            for z in centralizer:
                zinv = _inverse(z)
                orbit.add(tuple(z[c[zinv[x]]] for x in range(d)))  # z c z^-1
            assert len(orbit) == size, (part, c)
            assert not orbit & covered, (part, c)
            covered |= orbit
        assert covered == {_cycle_permutation(d, cycle) for cycle in _three_cycles(d)}


def test_smm_total_is_minus_six_times_the_chi_of_its_parts():
    # the composed Fraction sum is the oracle for the one-denominator total
    for locus in Locus:
        for mode in SURROGATES[locus]:
            for m in range(1, 301):
                cover = smm(locus, m, mode)
                chis = []
                for family, D, r, count in cover.contributions:
                    if family == "W2":
                        chi = chi_W2(D)
                    elif family == "W4":
                        chi = chi_W4(D, r, "main_term")
                    elif family == "W6":
                        chi = chi_W6(D, "main_term")
                    else:
                        fallback = mode == "remark" and (r != 1 or D == 4)
                        chi = chi_G(D, r, "main_term" if fallback else mode)
                    assert count == -6 * chi, (locus, m, mode, family, D, r)
                    chis.append(chi)
                assert cover.total == -6 * sum(chis, Fraction(0)), (locus, m, mode)


def test_sts_count():
    assert sts_count(Fraction(-1, 2)) == 3
    assert sts_count(Fraction(0)) == 0
    assert sts_count(Fraction(-3, 2)) == 9


def test_smm_h2():
    assert smm(Locus.H2, 1).total == 0
    assert smm(Locus.H2, 2).total == 0
    assert smm(Locus.H2, 3).total == 3
    cover = smm(Locus.H2, 5)
    assert cover.contributions[0][:3] == ("W2", 25, None)
    assert cover.total == -6 * chi_W2(25)


def test_smm_p3_components():
    assert [c[:3] for c in smm(Locus.P3, 5).contributions] == [("W4", 25, 1)]
    cover6 = smm(Locus.P3, 6)  # 6 = 2 mod 4: second component at (6/2)^2
    assert [c[:3] for c in cover6.contributions] == [("W4", 36, 1), ("W4", 9, 2)]
    cover8 = smm(Locus.P3, 8)  # 8 = 0 mod 4: single component
    assert [c[:3] for c in cover8.contributions] == [("W4", 64, 1)]


def test_smm_p4():
    assert smm(Locus.P4, 7).total == 0
    assert [c[:3] for c in smm(Locus.P4, 10).contributions] == [("W6", 25, None)]


def test_smm_gothic_dispatch():
    # m = 24: nu_2 = 3, nu_3 = 1 -> components {1, 3}
    got = {c[2]: c[1] for c in smm(Locus.G, 24).contributions}
    assert got == {1: 576, 3: 64}
    # m = 6: nu_2 = nu_3 = 1 -> all four components
    got6 = {c[2]: c[1] for c in smm(Locus.G, 6).contributions}
    assert got6 == {1: 36, 2: 9, 3: 4, 6: 1}
    # m = 10: nu_2 = 1, nu_3 = 0 -> {1, 2}
    got10 = {c[2]: c[1] for c in smm(Locus.G, 10).contributions}
    assert got10 == {1: 100, 2: 25}
    # m = 4: nu_2 = 2 -> {1}
    assert [c[2] for c in smm(Locus.G, 4).contributions] == [1]


def test_cd_count_examples():
    assert cd_count(Locus.H2, 3) == 3
    assert cd_count(Locus.H2, 4) == 9
    assert cd_count(Locus.H2, 6) == 45  # sigma(2)*3 + 36


# the factorisations of p or 2p in cd_count(locus, 2p): one of 2p, and one per
# curve at p^2 or (2p)^2 -- W_{p^2}(2) and W_{(2p)^2}(2) for H(2);
# W^1_{p^2}(4), W^1_{(2p)^2}(4) and W^2_{p^2}(4) for P3; W_{p^2}(6) for P4
_CALLS_AT_2P = {Locus.H2: 3, Locus.P3: 4, Locus.P4: 2}


@pytest.mark.parametrize("locus, calls", [(Locus.H2, 2), (Locus.P3, 2), (Locus.P4, 1)])
def test_cd_count_at_a_prime_factorises_it_once_per_route(monkeypatch, locus, calls):
    # cd_count factorises d once for its divisors and their weights sigma(d/m),
    # and the chi of smm(locus, p) factorises p for H(2) and P3 (P4 has no
    # curve at odd m)
    p = 1000003
    seen = []

    def counted(n):
        seen.append(n)
        return real(n)

    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", counted)
    got = cd_count(locus, p)
    assert seen.count(p) == calls
    seen.clear()
    got2 = cd_count(locus, 2 * p)
    assert seen.count(p) + seen.count(2 * p) == _CALLS_AT_2P[locus]
    monkeypatch.undo()
    assert got == (p + 1) * smm(locus, 1).total + smm(locus, p).total
    s = [smm(locus, m).total for m in (1, 2, p, 2 * p)]
    assert got2 == 3 * (p + 1) * s[0] + (p + 1) * s[1] + 3 * s[2] + s[3]


def test_cd_counts_are_nonneg_integers_for_h2():
    for d in range(1, 60):
        v = cd_count(Locus.H2, d)
        assert v.denominator == 1 and v >= 0


def test_oracle_small_values():
    assert h2_permutation_oracle(1) == 0
    assert h2_permutation_oracle(2) == 0
    assert h2_permutation_oracle(3) == 3
    assert h2_permutation_oracle(4) == 9


def test_oracle_matches_all_pairs_reference():
    for d in (1, 2, 3, 4, 5):
        assert h2_permutation_oracle(d) == brute_oracle(d), d


def test_oracle_matches_cd_count():
    for d in range(1, 10):
        assert h2_permutation_oracle(d) == cd_count(Locus.H2, d), d
