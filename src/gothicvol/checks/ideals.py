"""Checks of the ``ideals`` suite: ideal bases, equality, Galois conjugation,
class counts, symplectic type and polarisation."""

from __future__ import annotations

import math

from .. import ideals
from ..verify import _check


@_check("ideal bases: membership and index 6 in the order, d <= 200, r | 6")
def _ideal_bases():
    for d in range(2, 201):
        for r in (1, 2, 3, 6):
            spec = ideals.ideal_basis(d, 6, r)
            for g in spec.basis:
                if not ideals.ideal_membership(spec, g):
                    raise AssertionError((d, r))
            if spec.index_in_order() != 6:
                raise AssertionError((d, r))
    return "all divisors r of 6"


@_check("ideal_equal matches brute-force lattice equality, d <= 100")
def _ideal_equal_brute():
    # each basis spans its ideal (_ideal_bases), so two ideals are equal iff
    # each one's basis lies in the other
    for d in range(2, 101):
        specs = {r: ideals.ideal_basis(d, 6, r) for r in (1, 2, 3, 6)}
        for r in specs:
            for s in specs:
                same = all(ideals.ideal_membership(specs[t], g)
                           for t, u in ((r, s), (s, r)) for g in specs[u].basis)
                if ideals.ideal_equal(d, 6, r, s) != same:
                    raise AssertionError((d, r, s))
    return "lcm criterion vs mutual membership of the bases"


@_check("galois conjugation swaps b_r and b_{6/r}, d <= 100")
def _galois_swap():
    for d in range(2, 101):
        for r in (1, 2, 3, 6):
            src = ideals.ideal_basis(d, 6, r)
            dst = ideals.ideal_basis(d, 6, ideals.galois_conjugate(r, 6))
            for g in src.basis:
                if not ideals.ideal_membership(dst, g.conjugate()):
                    raise AssertionError((d, r))
            for g in dst.basis:
                if not ideals.ideal_membership(src, g.conjugate()):
                    raise AssertionError((d, r))
    return "membership of conjugated generators both ways"


@_check("class_count = sigma_0(6/(d,6)) = deduplicated ideal count, d <= 500")
def _class_count_dedup():
    for d in range(2, 501):
        distinct = []
        for r in (1, 2, 3, 6):
            if not any(ideals.ideal_equal(d, 6, r, s) for s in distinct):
                distinct.append(r)
        if ideals.class_count(d, 6) != len(distinct):
            raise AssertionError(d)
        if sorted(distinct) != ideals.component_list(d):
            raise AssertionError(d)
    return "dedup by ideal_equal matches the sigma_0 rule"


@_check("trace pairing has symplectic type (1,6), d <= 500")
def _symplectic_type():
    for d in range(2, 501):
        for r in ideals.component_list(d):
            # symplectic_divisors refuses a matrix that is not antisymmetric
            if ideals.symplectic_divisors(ideals.gram_matrix(d, 6, r)) != (1, 6):
                raise AssertionError((d, r))
    return "gcd of the entries and |Pfaffian| on every component"


@_check("polarization restriction = (lcm(d,r), lcm(d,6/r)), d <= 500")
def _polarization():
    for d in range(2, 501):
        for r in ideals.component_list(d):
            got = ideals.polarization_restriction(d, 6, r)
            if got != (math.lcm(d, r), math.lcm(d, 6 // r)):
                raise AssertionError((d, r, got))
    return "eigenform sublattice pairing on every component"
