"""The Euler-characteristic formulas and their mode semantics."""

import math
from fractions import Fraction

import pytest

from gothicvol import arith, euler, ideals, prototypes, qforms
from gothicvol.arith import divisors, moebius, sigma, sl2_order
from gothicvol.cli import main
from gothicvol.euler import (
    c_D,
    chi_G,
    chi_R,
    chi_W2,
    chi_W4,
    chi_W6,
    chi_X,
    chi_X_br,
    chi_X_nonsquare,
    chi_X_square,
    chi_boundary_gap,
)
from gothicvol.prototypes import e_value
from gothicvol.qforms import e6_square_twelfths, e_square_table


def test_chi_x_square_examples():
    assert chi_X_square(2) == Fraction(1, 12)
    assert chi_X_square(3) == Fraction(1, 3)
    assert chi_X_square(6) == 2
    assert chi_X_square(1) == Fraction(1, 72)  # flagged non-standard value


def test_chi_x_nonsquare_examples():
    assert chi_X_nonsquare(5) == Fraction(1, 15)
    assert chi_X_nonsquare(8) == Fraction(1, 6)
    assert chi_X_nonsquare(12) == e_value(12, 1) / 30


def test_component_rule_equals_the_ideal_classes():
    # euler names the components by r | 6/(6, d), without ideals; the ideal
    # classes of norm 6 are the independent rule
    for d in range(2, 10**4 + 1):
        offered = []
        for r in (1, 2, 3, 6):
            try:
                chi_X_br(d, r)
                offered.append(r)
            except ValueError:
                pass
        assert offered == ideals.component_list(d), d


def test_chi_w2():
    assert chi_W2(9) == Fraction(-1, 2)
    assert chi_W2(4) == 0
    assert chi_W2(5) == Fraction(-3, 10)


def _factorisations_and_e_values(calls_of, fn, D):
    """fn(D), the number of times it factorises D and its calls of
    prototypes.e_value, by whatever module name it reaches that through."""
    seen = calls_of(arith, "factorize")
    e_calls = [calls_of(module, "e_value") for module in (prototypes, euler)
               if hasattr(module, "e_value")]
    got = fn(D)
    return got, seen.count((D,)), sum(map(len, e_calls))


def test_chi_w4_factorises_a_non_square_d_once(calls_of):
    # every chi_* sums e(D, k) with the one conductor it takes, not through
    # prototypes.e_value
    D = 1000001  # 101 * 9901, D = 1 mod 8
    got, factorised, e_calls = _factorisations_and_e_values(calls_of, lambda D: chi_W4(D, 2), D)
    assert (factorised, e_calls) == (1, 0)
    assert got == Fraction(-5, 2) * e_value(D, 1) / 30
    D = 1000009  # 293 * 3413, D = 1 mod 24, so G_D is not empty
    e1, e6 = e_value(D, 1), e_value(D, 6)
    chi_r = -e6 / (6 * c_D(D))
    ratio = euler.X_BR_RATIO[math.gcd(6, prototypes.conductor(D))]
    for fn, want in ((chi_X, e1 / 30), (chi_X_nonsquare, e1 / 30),
                     (chi_W2, Fraction(-9, 2) * e1 / 30), (chi_W6, -7 * e1 / 30),
                     (chi_R, chi_r), (chi_G, Fraction(-3, 2) * ratio * e1 / 30 - 2 * chi_r)):
        got, factorised, e_calls = _factorisations_and_e_values(calls_of, fn, D)
        assert (factorised, e_calls) == (1, 0), fn.__name__
        assert got == want, fn.__name__
    # an empty curve is never walked: 10^10 - 3 is 5 mod 8 and 13 mod 24, so
    # W_D(4) and G_D are empty, and one sum there would take seconds
    D = 10**10 - 3
    sums = calls_of(prototypes, "e_sums")
    for fn in (chi_W4, chi_G):
        assert _factorisations_and_e_values(calls_of, fn, D) == (0, 0, 0), fn.__name__
    assert sums == []


def test_chi_w4_components_and_values():
    assert chi_W4(13, 1) == 0 and euler.is_empty("w4", 13)  # 13 = 5 mod 8
    assert chi_W4(17, 1) == Fraction(-5, 2) * chi_X_nonsquare(17)
    assert chi_W4(17, 2) == chi_W4(17, 1)
    assert chi_W4(16, 1, "main_term") == Fraction(-15, 4) * chi_X_square(4)
    assert chi_W4(8, 1) == Fraction(-5, 2) * chi_X_nonsquare(8)  # 8 fundamental
    assert chi_W4(32, 1) == Fraction(-15, 4) * chi_X_nonsquare(32)  # f = 2


def test_empty_curves_check_mode_and_component():
    # emptiness is a value: the checks of a non-empty D still apply
    assert chi_W4(13, 1) == chi_W4(13) == 0
    for j, mode in ((1, "main_term"), (2, "exact"), (5, "exact")):
        with pytest.raises(ValueError):
            chi_W4(13, j, mode)
    assert chi_G(5, 1) == 0 and euler.is_empty("g", 5)
    for r, mode in ((9, "exact"), (2, "exact"), (0, "exact"), (1, "main_term")):
        with pytest.raises(ValueError):
            chi_G(5, r, mode)


def test_chi_w6():
    assert chi_W6(8) == Fraction(-7, 6)
    assert chi_W6(4, "main_term") == Fraction(-7, 12)
    assert chi_W6(5) == Fraction(-7, 15)


def test_chi_r_and_c_d():
    # squares: c = sigma_0(6/(d,6))
    assert c_D(25) == 4 and c_D(36) == 1 and c_D(16) == 2
    e12 = euler.precompute_e_square(6)  # 12 e(d^2, 6)
    assert chi_R(25, "main_term") == Fraction(-e12[5], 12 * 24)
    assert chi_R(36, "main_term") == Fraction(-e12[6], 12 * 6)
    # non-squares: the residue table
    assert c_D(12) == 1 and c_D(28) == 2 and c_D(33) == 2 and c_D(73) == 4
    assert chi_R(12) == -e_value(12, 6) / 6
    # the paper's table by D mod 24, at the first non-square D of each class
    table = {0: 1, 12: 1, 4: 2, 9: 2, 16: 2, 1: 4}
    for r in range(24):
        if r % 4 in (2, 3):
            continue
        D = next(D for D in range(r or 24, 200, 24) if euler._is_square(D) is None)
        if r in table:
            assert c_D(D) == table[r], D
        else:
            with pytest.raises(ValueError, match="outside the gothic residue table"):
                c_D(D)


def test_chi_g_nonsquare_matches_composed_formula():
    # the readable composition is the oracle for the one-numerator form
    for D in range(5, 3001):
        if D % 4 in (2, 3) or euler._is_square(D) is not None:
            continue
        if euler.is_empty("g", D):
            assert chi_G(D) == 0, D
            continue
        ratio = euler.X_BR_RATIO[math.gcd(6, prototypes.conductor(D))]
        want = Fraction(-3, 2) * ratio * chi_X_nonsquare(D) - 2 * chi_R(D)
        for r in range(1, c_D(D) + 1):
            assert chi_G(D, r) == want, (D, r)


def test_chi_g_square_matches_composed_formula():
    for d in range(1, 1001):
        D, g6 = d * d, math.gcd(6, d)
        assert c_D(D) == sigma(0, 6 // g6)
        for r in ([1, 2, 3, 6] if d == 1 else ideals.component_list(d)):
            main = Fraction(-3, 2) * chi_X_br(d, r) - 2 * chi_R(D, "main_term")
            assert chi_G(D, r, "main_term") == main, (d, r)
            assert chi_G(D, r, "leading") == -euler.KAPPA_PRIME[g6] * sl2_order(d), (d, r)
            if r == 1:
                remark = main + Fraction(euler.REMARK_COEFF[g6], d) * chi_X_br(d, 1)
                assert chi_G(D, r, "remark") == remark, d
            else:
                with pytest.raises(ValueError, match="r = 1 only"):
                    chi_G(D, r, "remark")


def test_chi_g_square_modes():
    assert chi_G(25, 1, "leading") == -Fraction(13, 720) * sl2_order(5) == Fraction(-13, 6)
    main = chi_G(25, 1, "main_term")
    assert main == Fraction(-3, 2) * chi_X_br(5, 1) - 2 * chi_R(25, "main_term")
    assert chi_G(25, 1, "remark") == main + Fraction(2, 5) * chi_X_br(5, 1)
    # one d for each other gcd(6, d): remark - main = (REMARK_COEFF/d) chi_X_br
    for d, coeff, gap in ((4, 6, Fraction(3, 2)), (9, 3, 4), (12, 9, 24)):
        remark_gap = chi_G(d * d, 1, "remark") - chi_G(d * d, 1, "main_term")
        assert remark_gap == Fraction(coeff, d) * chi_X_br(d, 1) == gap, d


def test_chi_g_negativity_nonempty():
    for D in (12, 28, 33, 40, 48, 73, 97):
        assert not euler.is_empty("g", D) and chi_G(D, 1) < 0


def test_boundary_gap():
    for d in (5, 7, 50, 500):
        gap = chi_boundary_gap(d, 1)
        assert gap == Fraction(9, d) * chi_X_br(d, 1)
        assert gap > 0
    # remark - main = (coeff/d) chi_br <= gap since coeff <= 9
    for d in (5, 8, 9, 12):
        main = chi_G(d * d, 1, "main_term")
        remark = chi_G(d * d, 1, "remark")
        assert 0 <= remark - main <= chi_boundary_gap(d, 1)


def test_d_equals_one_value_chain():
    # the degenerate discriminant feeds the volume sums in surrogate modes
    assert chi_W4(1, 1, "main_term") == Fraction(-5, 2) * Fraction(1, 72)
    assert chi_W6(1, "main_term") == Fraction(-7, 72)
    assert chi_R(1, "main_term") == Fraction(1, 288)
    assert chi_G(1, 1, "main_term") == Fraction(-1, 36)
    assert chi_G(1, 1, "leading") == Fraction(-13, 720)


def test_chi_w2_square_matches_moebius_sum():
    # -d^2 (d-2)/16 sum_{r|d} mu(r)/r^2, the formula before the J_2 closed form
    for d in range(2, 501):
        expected = Fraction(-d * d * (d - 2), 16) * sum(
            Fraction(moebius(r), r * r) for r in divisors(d)
        )
        assert chi_W2(d * d) == expected, d


def test_e_square_cache_is_read_only():
    cache = euler.precompute_e_square(30)
    assert cache is euler._E6_TWELFTHS
    with pytest.raises(TypeError):
        cache[5] = 0
    assert cache[5] == e_square_table(6, 5)[5]


def test_e_square_table_grows_geometrically(monkeypatch):
    asked = []

    def recorded(dmax):
        asked.append(dmax)
        return e6_square_twelfths(dmax)

    monkeypatch.setattr(euler, "_E6_TWELFTHS", ())
    monkeypatch.setattr(qforms, "e6_square_twelfths", recorded)
    want = e6_square_twelfths(1000)
    for d in range(1, 1001):
        assert euler.precompute_e_square(d)[d] == want[d], d
    assert asked == [2**i for i in range(11)]


def test_every_chi_is_a_fraction_and_empty_curves_are_zero():
    for D in range(5, 400):
        if D % 4 in (2, 3) or euler._is_square(D) is not None:
            continue
        assert euler.is_empty("w4", D) == (D % 8 == 5)
        assert euler.is_empty("g", D) == (D % 24 not in (0, 1, 4, 9, 12, 16))
        values = {"w4": chi_W4(D), "w6": chi_W6(D), "g": chi_G(D), "w2": chi_W2(D)}
        for family, value in values.items():
            assert type(value) is Fraction, (family, D)
            assert (value == 0) == euler.is_empty(family, D), (family, D)
    for d in range(1, 41):
        D = d * d
        assert not euler.is_empty("w4", D) and not euler.is_empty("g", D)
        if d >= 2:  # W_4(2) is empty, and its chi = -(d - 2) J_2(d)/16 is 0
            assert (chi_W2(D) == 0) == euler.is_empty("w2", D) == (d == 2), d
        for mode in ("main_term", "leading", "remark"):
            assert type(chi_G(D, 1, mode)) is Fraction
        assert type(chi_W4(D, 1, "main_term")) is type(chi_W6(D, "main_term")) is Fraction


def test_square_branches_match_the_composed_formulas():
    # at D = d^2, chi_W4, chi_W6, chi_X_br and chi_R build one Fraction from
    # a(d) or 12 e(d^2, 6); the compositions through chi_X_square, e(d^2, 6)
    # and c_D are the reference
    euler.precompute_e_square(2000)
    for d in range(1, 2001):
        D = d * d
        x = chi_X_square(d)
        w4 = (Fraction(-5, 2) if d % 2 else Fraction(-15, 4)) * x
        for j in (1, 2) if D % 8 == 1 else (1,):
            assert chi_W4(D, j, "main_term") == w4, (d, j)
        assert chi_W6(D, "main_term") == -7 * x, d
        e = Fraction(euler.precompute_e_square(d)[d], 12)
        assert chi_R(D, "main_term") == -e / (6 * c_D(D)), d
        for r in divisors(6 // math.gcd(6, d)):
            assert chi_X_br(d, r) == euler.X_BR_RATIO[math.gcd(6, d)] * x, (d, r)
