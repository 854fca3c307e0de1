"""Checks of the ``qforms`` suite: series products, the e_and_a cross-check and
the routes to e(d^2, k)."""

from __future__ import annotations

from .. import euler, qforms
from ..verify import _check


@_check("F_k series product equals divisor-sum e_k(n), n <= 4000, k in {1,6}")
def _product_vs_direct():
    N = 4000
    for k in (1, 6):
        fk = qforms.fk_expansion(k, N)
        for n in range(N + 1):
            if fk[n] != qforms.ek_coeff(k, n):
                raise AssertionError((k, n))
    return "series product vs divisor sums, both k"


@_check("e_k(D) = sum_{m|f} e(D/m^2, k), all valid D <= 4000, k in {1,6}")
def _e_and_a():
    for D in range(4, 4001):
        if D % 4 in (2, 3):
            continue
        for k in (1, 6):
            if not qforms.check_e_and_a(D, k):
                raise AssertionError((D, k))
    return "prototype counts against modular-form coefficients"


@_check("e(d^2, k) in twelfths equals the square tables, d <= 4000, k in {1,6}")
def _e_square_routes():
    # k = 6: the store production reads (level-6 convolution sums) against
    # the D^2/24 sigma-sieve route; k = 1: Besge's closed form
    # 5 a(d) - 6 J_2(d) against the level-1 sums
    dmax = 4000
    new = euler.precompute_e_square(dmax)[: dmax + 1]
    old = qforms.e_square_table(6, dmax)
    if new != old:
        raise AssertionError((6, next(d for d in range(dmax + 1) if new[d] != old[d])))
    if qforms.e1_square_twelfths(dmax) != qforms.e1_convolution_twelfths(dmax):
        raise AssertionError((1, dmax))
    return "convolution route (k = 6) and Besge (k = 1) exact at every d"
