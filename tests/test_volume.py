"""S_k sums, exact targets, estimator plumbing and the AEZ converter."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gothicvol import counting, euler, volume
from gothicvol.arith import jordan2_table, sigma, sigma_prefix, sl2_order
from gothicvol.counting import Locus
from gothicvol.qforms import e_square_table
from gothicvol.checks.volume import _ROWS
from gothicvol.volume import (
    CLOSED_TERMS,
    closed_limit,
    closed_raw_sum,
    sigma3_sum,
    sk_asymptotic_constant,
    sk_sum,
    t_sum,
    volume_estimate,
)

def brute_sk_prefix(k, Dmax):
    """S_k(D) for every D <= Dmax straight from the definition."""
    out = [0] * (Dmax + 1)
    total = 0
    for d in range(1, Dmax + 1):
        for m in range(1, d + 1):
            if d % m == 0 and m % k == 0:
                total += sigma(1, d // m) * sl2_order(m)
        out[d] = total
    return out


def test_sk_examples():
    assert sk_sum(1, 3) == 38  # 1 + 9 + 28
    assert sk_sum(2, 2) == 6
    assert sk_sum(1, 1) == 1


def test_sk_brute_force():
    # k up to 12 covers the non-squarefree k = 4, 8, 9, 12
    Dmax = 60
    for k in range(1, 13):
        brute = brute_sk_prefix(k, Dmax)
        for D in range(1, Dmax + 1):
            assert sk_sum(k, D) == brute[D], (k, D)


def test_t_sum_matches_table_route():
    Dmax = 1000
    jtab = jordan2_table(Dmax)
    ssig = sigma_prefix(Dmax)
    for D in range(1, Dmax + 1):
        want = sum(jtab[m] * int(ssig[D // m]) for m in range(1, D + 1))
        assert t_sum(D) == want, D


def test_sigma3_sum_matches_naive_sum():
    # sum_{n <= x} sigma_3(n) from a divisor sieve: q^3 at every multiple of q
    xmax = 10**4
    sig3 = [0] * (xmax + 1)
    for q in range(1, xmax + 1):
        sig3[q::q] = map((q**3).__add__, sig3[q::q])
    for x, want in enumerate(itertools.accumulate(sig3)):
        assert sigma3_sum(x) == want, x


def block_sums(x):
    """(Sigma3(x), T(x)) summed over the runs l <= n <= r of equal quotient
    v = x // n: Sigma3(x) = sum_n F3(x // n) and T(x) = sum_n n F2(x // n),
    with the Faulhaber sums F1, F2, F3 of this test, in about 2 sqrt(x) runs."""
    def f1(n):
        return n * (n + 1) // 2

    def f2(n):
        return n * (n + 1) * (2 * n + 1) // 6

    def f3(n):
        return f1(n) ** 2

    s3 = t = 0
    l = 1
    while l <= x:
        v = x // l
        r = x // v
        s3 += f3(v) * (r - l + 1)
        t += f2(v) * (f1(r) - f1(l - 1))
        l = r + 1
    return s3, t


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**9))
def test_hyperbola_loops_match_block_sums(x):
    assert (sigma3_sum(x), t_sum(x)) == block_sums(x)


def test_hyperbola_loops_match_block_sums_around_squares():
    # the corner term -F(s) at s = isqrt(x) changes at x = s^2
    for s in (10**4 + 7, 31622, 31623):
        for x in (s * s - 1, s * s, s * s + 1):
            assert (sigma3_sum(x), t_sum(x)) == block_sums(x), x


def test_sk_constants():
    assert sk_asymptotic_constant(1).coeff == Fraction(1, 360)
    assert sk_asymptotic_constant(2).coeff == Fraction(1, 840)
    assert sk_asymptotic_constant(3).coeff == Fraction(4, 360 * 13)
    assert sk_asymptotic_constant(6).coeff == Fraction(12, 360 * 91)
    assert sk_asymptotic_constant(1).pi_power == 4
    # the product formula beyond squarefree k and past the primes 2 and 3
    D = 10**8
    for k in (4, 5, 9, 12, 36):
        ratio = sk_sum(k, D) / (sk_asymptotic_constant(k).to_float() * D**4)
        assert abs(ratio - 1) < 1e-6, k


def test_gothic_closed_summands_approach_limits():
    D = 1200
    for c, m in CLOSED_TERMS[Locus.G]:
        got = float(c * sigma3_sum(D // m)) / D**4
        want = closed_limit([(c, m)]).to_float()
        assert abs(got - want) / want < 0.05, m


@pytest.mark.parametrize("locus, calls", [(Locus.G, 10), (Locus.P3, 5), (Locus.P4, 4),
                                          (Locus.H2, 4)])
def test_closed_estimate_sums_each_distinct_sigma3_once(calls_of, locus, calls):
    # the checkpoints D/8, D/4, D/2, D share arguments D // m, as
    # floor(floor(D/c)/m) = floor(D/(c m)): gothic's 16 terms read 10 sums
    D = 10**6
    seen = calls_of(volume, "sigma3_sum")
    series = volume_estimate(locus, D, "closed").series_exact
    assert len(seen) == len(set(seen)) == calls
    checkpoints = [D // 8, D // 4, D // 2, D]
    assert series == [(Dc, closed_raw_sum(locus, [Dc])[0]) for Dc in checkpoints]


def test_closed_terms_equal_the_sk_rows_at_large_d():
    # the verify oracle's S_k rows through the hyperbola route sk_sum, whose
    # g_k tails cancel outside m | 6
    for D in (10**6 + 3, 10**9 + 7):
        for locus in Locus:
            rows = sum((c * sk_sum(k, D // r) for c, k, r in _ROWS[locus]), Fraction(0))
            if locus is Locus.H2:
                rows -= Fraction(3, 4) * t_sum(D)
            assert closed_raw_sum(locus, [D]) == [rows], (locus, D)


@pytest.mark.parametrize(
    "locus, surrogate",
    [(Locus.H2, "main"), (Locus.P3, "main"), (Locus.P4, "main"),
     (Locus.G, "main"), (Locus.G, "leading"), (Locus.G, "remark")],
)
def test_cd_count_prefix_matches_direct_raw_sum(locus, surrogate):
    # cd_count's divisor sum, each smm total read on its default route,
    # against the sigma-prefix dot product
    Dmax = 300
    prefix = [0, *itertools.accumulate(counting.cd_count(locus, d, surrogate)
                                       for d in range(1, Dmax + 1))]
    totals = volume.smm_totals(locus, Dmax, surrogate)
    for D in range(Dmax + 1):
        assert prefix[D] == volume.direct_raw_sum(totals, D), D


@pytest.mark.parametrize(
    "locus, surrogate",
    [(Locus.H2, "main_term"), (Locus.P3, "main_term"), (Locus.P4, "main_term"),
     (Locus.G, "main_term"), (Locus.G, "leading"), (Locus.G, "remark")],
)
def test_integer_totals_match_smm(monkeypatch, locus, surrogate):
    # smm_totals builds 12 e(d^2, 6) by the production route, and then
    # counting.smm reads it from the square-table oracle, so the two sides
    # share no e route
    mmax = 2000
    monkeypatch.setattr(euler, "_E6_TWELFTHS", ())
    totals = volume.smm_totals(locus, mmax, surrogate)
    monkeypatch.setattr(euler, "_E6_TWELFTHS", e_square_table(6, mmax))
    assert len(totals.numerators) == mmax + 1 and totals.numerators[0] == 0
    assert all(isinstance(t, int) for t in totals.numerators)
    for m in range(1, mmax + 1):
        want = counting.smm(locus, m, surrogate).total
        assert Fraction(totals.numerators[m], totals.denominator) == want, m


# Reports, after smm_totals of each gothic surrogate in one fresh process and
# then chi_G at a square, how often e(d^2, 6) was built and how many entries
# the euler store holds.
_E_BUILDS = """
import json
from gothicvol import euler, qforms, volume
from gothicvol.counting import Locus

built = []
route = qforms.e6_square_twelfths
qforms.e6_square_twelfths = lambda dmax: built.append(dmax) or route(dmax)
report = []
for surrogate in ("leading", "main", "remark"):
    volume.smm_totals(Locus.G, 300, surrogate)
    report.append([surrogate, list(built), len(euler._E6_TWELFTHS)])
euler.chi_G(17 * 17, 1, "main_term")
report.append(["chi_G", list(built), len(euler._E6_TWELFTHS)])
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def e_builds(run_python):
    return json.loads(run_python("-c", _E_BUILDS, timeout=120, check=True).stdout)


def test_gothic_leading_builds_no_e_table(e_builds):
    assert e_builds[0] == ["leading", [], 0]


def test_gothic_totals_and_chi_share_one_e_table(e_builds):
    # main and remark read the euler store, and chi_G at d = 17 <= 300 finds
    # it filled, so the process builds e(d^2, 6) once
    assert e_builds[1:] == [["main", [300], 301], ["remark", [300], 301],
                               ["chi_G", [300], 301]]


def test_volume_estimate_structure():
    est = volume_estimate(Locus.H2, 160)
    assert [Dc for Dc, _ in est.series] == [20, 40, 80, 160]
    assert est.series[-1][1] == est.value
    assert est.extrapolated == pytest.approx(2 * est.value - est.series[-2][1])
    assert est.relative_error == pytest.approx(
        abs(est.value - est.exact_target.to_float()) / est.exact_target.to_float()
    )
    Ds = [Dc for Dc, _ in est.series]
    assert Ds == sorted(Ds) and len(set(Ds)) == 4


def test_volume_estimate_remark_mode_runs():
    est = volume_estimate(Locus.G, 120, "direct", "remark")
    assert est.surrogate == "remark"
    assert est.value > 0
