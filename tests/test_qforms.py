"""q-expansion coefficients against the divisor-sum formulas and against
prototype counting."""

import json
from fractions import Fraction

import pytest

from gothicvol import qforms
from gothicvol.arith import divisors, moebius, sigma
from gothicvol.cli import main
from gothicvol.prototypes import e_value
from gothicvol.qforms import (
    check_e_and_a,
    e1_convolution_twelfths,
    e1_square_twelfths,
    e6_square_twelfths,
    e_square_table,
    ek_coeff,
    ek_square_table,
    fk_expansion,
    g2k_expansion,
    theta_expansion,
)


def test_theta_coefficients():
    th = theta_expansion(50)
    assert th[0] == 1
    assert th[4] == 2
    assert th[3] == 0
    assert [n for n in range(51) if th[n]] == [0, 1, 4, 9, 16, 25, 36, 49]


def test_g2_coefficients():
    g = g2k_expansion(1, 40)
    assert g[0] == Fraction(-1, 24)
    assert g[4] == 1  # sigma(1) at exponent 4*1*1
    assert g[8] == 3  # sigma(2)
    assert g[5] == 0
    g6 = g2k_expansion(6, 40)
    assert g6[24] == 1
    assert all(g6[n] == 0 for n in range(1, 24))


def test_ek_examples():
    assert ek_coeff(1, 1) == Fraction(-1, 12)
    assert ek_coeff(1, 4) == Fraction(11, 12)
    assert ek_coeff(1, 5) == 2
    assert ek_coeff(1, 0) == Fraction(-1, 24)


def dense_product(a, b):
    """The coefficients of a * b up to the shorter truncation, by the Cauchy
    product over every pair of nonzero entries: the reference for fk_expansion."""
    N = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (N + 1)
    for i, ci in enumerate(a[: N + 1]):
        if ci:
            for j, cj in enumerate(b[: N + 1 - i]):
                if cj:
                    out[i + j] += ci * cj
    return out


def test_truncation_contract():
    th = theta_expansion(10)
    assert type(th) is list and len(th) == 11
    with pytest.raises(IndexError):
        th[11]
    fk = fk_expansion(1, 10)
    assert type(fk) is list and len(fk) == 11
    assert all(type(c) is Fraction for c in fk)


@pytest.mark.parametrize("k, N", [(k, N) for k in (1, 2, 3, 6) for N in (1, 2, 3, 25, 300)]
                         + [(1, 4000)])
def test_fk_equals_dense_product(k, N):
    assert fk_expansion(k, N) == dense_product(g2k_expansion(k, N), theta_expansion(N))


@pytest.mark.parametrize("builder", ["g2k_expansion", "theta_expansion"])
def test_fk_refuses_a_non_integral_entry(monkeypatch, builder):
    real = getattr(qforms, builder)

    def halved(*args):
        series = real(*args)
        series[1] = Fraction(1, 2)
        return series

    monkeypatch.setattr(qforms, builder, halved)
    with pytest.raises(ArithmeticError, match="not an integer"):
        fk_expansion(1, 50)


def test_fk_slot_bound(monkeypatch):
    # integral G2 entries this large would wrap the 64-bit slots silently
    monkeypatch.setattr(qforms, "g2k_expansion", lambda k, N: [Fraction(2**62)] * (N + 1))
    with pytest.raises(ValueError, match="64-bit Kronecker slot"):
        fk_expansion(1, 50)


def test_qexp_ek_prints_the_fk_series(monkeypatch, capsys):
    # F_k = sum_n e_k(n) q^n, so both names print the series product; the
    # divisor sum ek_coeff is the oracle of the verify check alone
    def no_divisor_sum(*args):
        raise AssertionError("qexp called the divisor-sum oracle")

    monkeypatch.setattr(qforms, "ek_coeff", no_divisor_sum)
    for k in (1, 2, 3, 6):
        for N in (1, 200):
            results = []
            for series in ("ek", "fk"):
                assert main(["qexp", "--series", series, "--k", str(k), "--N", str(N)]) == 0
                results.append(json.loads(capsys.readouterr().out)["result"])
            assert results[0] == results[1], (k, N)


def test_ek_square_table_matches_divisor_sum():
    for k in (1, 2, 3, 6):
        tab = ek_square_table(k, 150)
        for m in range(1, 151):
            assert tab[m] == 12 * ek_coeff(k, m * m), (k, m)


def test_e_square_table_matches_moebius_sum():
    for k in (1, 2, 3, 6):
        ek = [None] + [ek_coeff(k, m * m) for m in range(1, 201)]
        tab = e_square_table(k, 200)
        for d in range(1, 201):
            expected = sum((moebius(d // m) * ek[m] for m in divisors(d)), Fraction(0))
            assert tab[d] == 12 * expected, (k, d)


def test_oracle_square_tables_are_tuples_of_ints():
    # the sigma-sieve oracle holds twelfths, the format of every other
    # e(d^2, k) table
    for k in (1, 6):
        for tab in (ek_square_table(k, 60), e_square_table(k, 60)):
            assert type(tab) is tuple and len(tab) == 61, k
            assert all(type(t) is int for t in tab), k


def test_square_tables_build_no_cached_sigma_table(monkeypatch):
    # the oracle sums its own local sigma sieve: the cached tuple for
    # e_square_table(1, 4000) alone would hold 4 * 10^6 Python ints
    def no_tables(N):
        raise AssertionError("the square tables built a cached sigma table")

    monkeypatch.setattr(qforms.arith, "sigma_table", no_tables)
    assert e_square_table(1, 100) == e1_square_twelfths(100)


def test_e6_convolution_route_matches_square_table():
    new = e6_square_twelfths(1000)
    assert new[1] == -1
    assert new == e_square_table(6, 1000)
    # dmax <= 6 leaves some residue pairs (i, j) of _convolution_sum with
    # no term at all
    for dmax in range(1, 13):
        assert e6_square_twelfths(dmax) == e_square_table(6, dmax), dmax
        assert e1_convolution_twelfths(dmax) == e1_square_twelfths(dmax), dmax


def test_e6_convolution_route_matches_moebius_sum():
    new = e6_square_twelfths(200)
    ek = [None] + [ek_coeff(6, m * m) for m in range(1, 201)]
    for d in range(1, 201):
        expected = sum((moebius(d // m) * ek[m] for m in divisors(d)), Fraction(0))
        assert Fraction(new[d], 12) == expected, d


def test_besge_closed_form_matches_square_table():
    new = e1_square_twelfths(1000)
    assert new == e_square_table(1, 1000)
    assert e1_square_twelfths(50) == new[:51]
    # the level-1 convolution reaches the same values without Besge
    assert e1_convolution_twelfths(1000) == new
    # a shorter build is a prefix of a longer one, as the growing store assumes
    assert e6_square_twelfths(50) == e6_square_twelfths(1000)[:51]


@pytest.mark.parametrize(
    "a, b, x_residues, allowed",
    [(6, 1, (0,), lambda x: True), (2, 3, (1, 2), lambda x: x % 3 != 0),
     (3, 2, (1,), lambda x: x % 2 == 1), (1, 6, (1, 5), lambda x: x % 6 in (1, 5))],
)
def test_convolution_sums_match_brute_force(a, b, x_residues, allowed):
    nmax = 300
    sig = [0] + [sigma(1, n) for n in range(1, nmax + 1)]
    got = qforms._convolution_sum(tuple(sig), nmax, a, b, x_residues)
    assert got[0] == 0
    for n in range(1, nmax + 1):
        want = sum(sig[x] * sig[(n - a * x) // b] for x in range(1, n // a + 1)
                   if allowed(x) and n - a * x >= b and (n - a * x) % b == 0)
        assert got[n] == want, n
        # the level-1 sum of Besge bounds every C(n) (the slot bound's premise)
        assert 12 * want <= 5 * sigma(3, n) + (1 - 6 * n) * sigma(1, n), n


def test_convolution_slot_bound():
    # the kernel's own guard refuses 2 * 2^32 * 2^32 = 2^65 (a row of
    # test_refusals), and (2^32 - 1)^2 fits
    assert list(qforms._kronecker_product([2**32 - 1], [2**32 - 1], 1)) == [(2**32 - 1) ** 2]


def test_e_square_table_matches_enumeration():
    for k in (1, 6):
        tab = e_square_table(k, 40)
        assert tab[1] == -1
        for d in range(2, 41):
            assert tab[d] == 12 * e_value(d * d, k), (k, d)


def test_check_e_and_a_examples():
    assert check_e_and_a(5, 1)  # conductor 1, both sides 2
    assert check_e_and_a(4, 1)  # 11/12 = 1 + (-1/12)
    assert check_e_and_a(36, 6)
