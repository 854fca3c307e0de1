"""Gauss sums, Euler factors and the exact ebar evaluations."""

import json
import math
from fractions import Fraction

import pytest

from gothicvol.arith import PiQuantity, coprime_part, divisors, moebius, nu, sl2_order
from gothicvol.cli import main
from gothicvol.zagier import (
    asymptotic_check_e,
    ebar1_exact,
    ebar1_five_twelfths,
    ebar6_exact,
    ebar6_sixtieths,
    estar_euler_product,
    euler_factor,
    gauss_gamma,
)

REF_MAX_D = 1000


def ebar6_via_euler_product(d):
    """ebar_6(d^2) through pi^2/(72*36) * d^3 * e*_6(d^2): the Euler-product
    route, the oracle of the four-term ebar_1 combination."""
    return (PiQuantity(Fraction(d**3, 72 * 36), 2) * estar_euler_product(6, d)).as_rational()


def _ebar1_definition(d):
    """(5/12) d^3 sum_{ac|d} mu(a) / (c^3 a^2), one Fraction per term."""
    acc = Fraction(0)
    for a in divisors(d):
        mu = moebius(a)
        if mu:
            for c in divisors(d // a):
                acc += Fraction(mu, c**3 * a * a)
    return Fraction(5, 12) * d**3 * acc


def _ebar6_combination(d, ebar1):
    """The four-term combination of ebar_1 values, in Fractions."""
    d2, d3, d6 = coprime_part(d, 2), coprime_part(d, 3), coprime_part(d, 6)
    return (
        ebar1[d]
        - Fraction(3, 5) * (d // d2) ** 3 * ebar1[d2]
        - Fraction(4, 5) * (d // d3) ** 3 * ebar1[d3]
        + Fraction(12, 25) * (d // d6) ** 3 * ebar1[d6]
    )


@pytest.fixture(scope="module")
def reference():
    """ebar_1 and ebar_6 for d <= REF_MAX_D from the definition, in Fractions."""
    ebar1 = {d: _ebar1_definition(d) for d in range(1, REF_MAX_D + 1)}
    ebar6 = {d: _ebar6_combination(d, ebar1) for d in ebar1}
    return ebar1, ebar6


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


def test_euler_factor_examples():
    assert euler_factor(1, 2, 1) == Fraction(5, 2)
    assert euler_factor(1, 3, 1) == Fraction(10, 9)
    assert euler_factor(6, 3, 1) == 2  # 9 * 10/9 - 8


def test_euler_factor_equals_the_definitional_sum():
    # summed three levels past J = nu_p(d^2) + 2, where every Gauss sum vanishes
    for p in (2, 3, 5, 7, 11, 13):
        for d in range(1, 301):
            top = 2 * nu(p, d) + 5
            for k in (1, 2, 3, 6):
                want = 1 + sum(
                    Fraction(math.gcd(p**j, 2 * k) ** 2, p ** (2 * j)) * gauss_gamma(p, j, d)
                    for j in range(1, top + 1)
                )
                assert euler_factor(k, p, d) == want, (k, p, d)


def test_p1_at_coprime_prime_is_1_plus_p_minus_2():
    for p in (3, 5, 7, 11):
        for d in (1, 2, 4):
            if d % p:
                assert euler_factor(1, p, d) == 1 + Fraction(1, p * p)


def test_estar1_is_pi_minus_2_quantity():
    v = estar_euler_product(1, 1)
    assert isinstance(v, PiQuantity)
    assert v.coeff == 30 and v.pi_power == -2


def test_ebar1_examples():
    assert ebar1_exact(1) == Fraction(5, 12)
    assert ebar1_exact(2) == Fraction(35, 12)  # (5/12) * 8 * (1 + 1/8 - 1/4)
    assert Fraction(12, 5) * (ebar1_exact(2) - ebar1_exact(1)) == 6 == sl2_order(2)


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


def test_asymptotic_report_shape():
    rep = asymptotic_check_e(64)
    assert rep.d_max == 64
    assert len(rep.delta1) == 65 and len(rep.delta6) == 65
    assert rep.delta1_upper_max >= 0 and rep.delta6_upper_max >= 0
    assert max(rep.delta1[33:65]) == rep.delta1_upper_max


def test_integer_ebar1_equals_the_definition(reference):
    ebar1, _ = reference
    table = ebar1_five_twelfths(REF_MAX_D)
    assert len(table) == REF_MAX_D + 1 and table[0] == 0
    for d in range(1, REF_MAX_D + 1):
        assert ebar1_exact(d) == ebar1[d], d
        assert Fraction(5 * table[d], 12) == ebar1[d], d


def test_integer_ebar6_equals_the_fraction_combination(reference):
    _, ebar6 = reference
    table = ebar6_sixtieths(ebar1_five_twelfths(REF_MAX_D))
    assert len(table) == REF_MAX_D + 1 and table[0] == 0
    for d in range(1, REF_MAX_D + 1):
        assert ebar6_exact(d) == ebar6[d], d
        assert Fraction(table[d], 60) == ebar6[d], d


def test_tables_are_read_only_tuples():
    e1 = ebar1_five_twelfths(30)
    e6 = ebar6_sixtieths(e1)
    for table in (e1, e6):
        assert isinstance(table, tuple)
        with pytest.raises(TypeError):
            table[1] = 0
    assert ebar1_five_twelfths(0) == (0,) and ebar6_sixtieths((0,)) == (0,)


def test_cli_ebar_rows_equal_the_reference(capsys, reference):
    ebar1, ebar6 = reference

    def text(x):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    assert main(["zagier", "--what", "ebar", "--dmax", "100"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"] == {"rows": [
        {"d": d, "ebar1": text(ebar1[d]), "ebar6": text(ebar6[d])} for d in range(1, 101)
    ]}
