"""Checks of the ``prototypes`` suite: prototype invariants."""

from __future__ import annotations

import math

from .. import arith, prototypes
from ..verify import _check


@_check("prototype invariants and b -> -b parity, D <= 5000, k in {1,6}")
def _prototype_invariants():
    # c = c0^2 c' is decomposed, and c' tested squarefree, once per distinct c
    c0_of: dict[int, int] = {}
    checked = 0
    for D in range(4, 5001):
        if D % 4 in (2, 3):
            continue
        f = prototypes.conductor(D)
        for k in (1, 6):
            protos = prototypes.enumerate_prototypes(D, k)
            for a, b, c in protos:
                if not a > 0 > c:
                    raise AssertionError((D, k, (a, b, c)))
                if b * b - 4 * k * a * c != D:
                    raise AssertionError((D, k, (a, b, c)))
                c0 = c0_of.get(c)
                if c0 is None:
                    c0, cp = arith.squarefree_decompose(c)
                    if not (c0 * c0 * cp == c and arith.is_squarefree(abs(cp))):
                        raise AssertionError((D, k, (a, b, c)))
                    c0_of[c] = c0
                if math.gcd(math.gcd(f, abs(b)), c0) != 1:
                    raise AssertionError((D, k, (a, b, c)))
            if sum(b > 0 for _, b, _ in protos) != sum(b < 0 for _, b, _ in protos):
                raise AssertionError((D, k))
            checked += len(protos)
    return f"{checked} prototypes re-verified"
