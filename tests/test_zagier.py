"""Gauss sums, Euler factors and the exact ebar evaluations."""

from fractions import Fraction

import pytest

from gothicvol import zagier
from gothicvol.arith import PiQuantity, nu, sl2_order
from gothicvol.zagier import (
    asymptotic_check_e,
    check_technical_lemma,
    ebar1_exact,
    ebar1_via_euler_product,
    ebar6_exact,
    ebar6_via_euler_product,
    estar1,
    euler_factor,
    gauss_gamma,
    kappa,
)


def test_gamma_case_table():
    # r = 0 is always 1
    for p in (2, 3, 5, 7):
        assert gauss_gamma(p, 0, 12) == 1
    # p = 2: even r needs nu_2(d^2) = r - 2, odd r needs nu_2(d^2) >= r - 1
    assert gauss_gamma(2, 2, 1) == 2
    assert gauss_gamma(2, 2, 2) == 0  # nu_2(4) = 2 != 0
    assert gauss_gamma(2, 4, 2) == 4  # nu_2(4) = 2 = 4 - 2
    assert gauss_gamma(2, 1, 1) == 1
    assert gauss_gamma(2, 3, 2) == 2
    assert gauss_gamma(2, 5, 2) == 0  # needs nu_2 >= 4
    # odd p: even r needs nu_p >= r, odd r needs nu_p = r - 1
    assert gauss_gamma(3, 1, 3) == 0  # nu_3(9) = 2 != 0
    assert gauss_gamma(3, 1, 1) == 1
    assert gauss_gamma(3, 2, 3) == 3 * (3 - 1) // 3  # p^(r/2-1)(p-1) = 2
    assert gauss_gamma(3, 3, 3) == 3
    assert gauss_gamma(5, 2, 5) == 4


def test_gamma_rejects_non_prime():
    with pytest.raises(ValueError):
        gauss_gamma(6, 1, 1)


def test_euler_factor_examples():
    assert euler_factor(1, 2, 1).value == Fraction(5, 2)
    assert euler_factor(1, 3, 1).value == Fraction(10, 9)
    assert euler_factor(6, 3, 1).value == 2  # 9 * 10/9 - 8


def test_euler_factor_rejects_non_squarefree_k():
    with pytest.raises(ValueError):
        euler_factor(4, 2, 1)


def test_p1_at_coprime_prime_is_1_plus_p_minus_2():
    for p in (3, 5, 7, 11):
        for d in (1, 2, 4):
            if d % p:
                assert euler_factor(1, p, d).value == 1 + Fraction(1, p * p)


def test_estar1_is_pi_minus_2_quantity():
    v = estar1(1)
    assert isinstance(v, PiQuantity)
    assert v.coeff == 30 and v.pi_power == -2


def test_ebar1_examples_and_route_equality():
    assert ebar1_exact(1) == Fraction(5, 12)
    assert ebar1_exact(2) == Fraction(35, 12)  # (5/12) * 8 * (1 + 1/8 - 1/4)
    assert Fraction(12, 5) * (ebar1_exact(2) - ebar1_exact(1)) == 6 == sl2_order(2)
    for d in range(1, 120):
        assert ebar1_exact(d) == ebar1_via_euler_product(d), d


def test_ebar6_examples_and_route_equality():
    assert ebar6_exact(1) == Fraction(1, 30)
    d = 6
    d2, d3, d6 = 3, 2, 1
    expect = (
        ebar1_exact(6)
        - Fraction(3, 5) * (6 // d2) ** 3 * ebar1_exact(d2)
        - Fraction(4, 5) * (6 // d3) ** 3 * ebar1_exact(d3)
        + Fraction(12, 25) * (6 // d6) ** 3 * ebar1_exact(d6)
    )
    assert ebar6_exact(6) == expect
    for d in range(1, 120):
        assert ebar6_exact(d) == ebar6_via_euler_product(d), d


def test_technical_lemma_examples():
    assert check_technical_lemma(2, 3)  # coprime case, both sides identical
    assert check_technical_lemma(2, 4)  # factor 2^3 * 7
    assert check_technical_lemma(6, 12)  # two-prime product
    with pytest.raises(ValueError):
        check_technical_lemma(4, 3)


def test_kappa_values():
    assert kappa(5) == 2
    assert kappa(4) == Fraction(3, 2)
    assert kappa(9) == Fraction(4, 3)
    assert kappa(6) == 1


def test_asymptotic_report_shape():
    rep = asymptotic_check_e(64)
    assert rep.d_max == 64
    assert len(rep.delta1) == 65 and len(rep.delta6) == 65
    assert rep.delta1_upper_max >= 0 and rep.delta6_upper_max >= 0
    assert rep.range_max(1, 33, 64) == rep.delta1_upper_max
    with pytest.raises(ValueError):
        asymptotic_check_e(10)


def test_asymptotic_report_refuses_beyond_bound(monkeypatch):
    def no_tables(dmax):
        raise AssertionError("a table was built beyond the report's bound")

    monkeypatch.setattr(zagier, "e1_square_twelfths", no_tables)
    monkeypatch.setattr(zagier, "e6_square_twelfths", no_tables)
    with pytest.raises(ValueError):
        asymptotic_check_e(zagier.ASYMPTOTIC_MAX_D + 1)


def test_truncation_of_gamma_beyond_bound():
    for p in (2, 3, 5):
        for d in (1, 2, 6, 12):
            v = 2 * nu(p, d)
            for r in range(v + 3, v + 6):
                assert gauss_gamma(p, r, d) == 0
