"""Run the consolidated cross-oracle suite end to end, one test per check.

This exercises every module invariant at its full stated range; no unit test
restates a check, so a check that is the only statement is shown to fail.
Each check body runs once per session (the ``check`` fixture memoises it), so
the acceptance criteria that name a check share its result.
"""

import ast
import inspect
import json
from fractions import Fraction
from pathlib import Path

import pytest

from gothicvol import Locus, counting, euler, ideals, qforms, verify, volume, zagier
from gothicvol.checks import arith as arith_checks
from gothicvol.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs one suite with one wrong entry injected into a table: the table
# builder named by sys.argv[2], an attribute of the module gothicvol.<sys.argv[1]>,
# is replaced by one whose entry 7 is off by one.
_FAULT_INJECTION = """
import importlib, json, sys
from gothicvol import verify

owner = importlib.import_module("gothicvol." + sys.argv[1])
real = getattr(owner, sys.argv[2])

def wrong_table(N):
    table = list(real(N))
    table[7] += 1
    return table

setattr(owner, sys.argv[2], wrong_table)
results = [verify.run_check(name) for name in verify.check_names(sys.argv[3])]
print(json.dumps({"optimize": sys.flags.optimize,
                  "failed": [r.name for r in results if not r.ok]}))
"""


def _failed_under_python_O(run_python, owner, table, suite):
    """The checks of ``suite`` that fail under ``python -O`` with the table
    ``owner.table`` off by one at entry 7."""
    proc = run_python("-O", "-c", _FAULT_INJECTION, owner, table, suite,
                      timeout=300, check=True)
    doc = json.loads(proc.stdout)
    assert doc["optimize"] == 1
    return doc["failed"]


def test_no_module_imports_numpy():
    # every import statement of the package, lazy ones in function bodies too
    for path in sorted((SRC / "gothicvol").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "numpy" for n in names), (path, node.lineno)



def test_no_module_uses_assert():
    # python -O strips assert statements, so a check written with one could
    # be switched off; the package raises instead
    for path in sorted((SRC / "gothicvol").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), (path, node.lineno)

# Every function of the package that keeps a functools cache, with the reason
# it keeps one; a new cache has to be added here on purpose.
CACHED = {
    "arith.sigma_table": "a table whose cache_info() the benchmark tracer reads",
    "arith.sigma_prefix": "a table whose cache_info() the benchmark tracer reads",
    "arith.sl2_order_table": "a table whose cache_info() the benchmark tracer reads",
    "arith.jordan2_table": "a table whose cache_info() the benchmark tracer reads",
    "counting._euler": "14111 hits in one verify --suite all: each smm call reads it",
}


def _is_functools_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("cache", "lru_cache")


def test_only_the_listed_functions_keep_a_cache():
    cached = set()
    for path in sorted((SRC / "gothicvol").rglob("*.py")):
        module = ".".join(path.relative_to(SRC / "gothicvol").with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(map(_is_functools_cache, node.decorator_list)):
                    cached.add(f"{module}.{node.name}")
    assert cached == set(CACHED)


@pytest.mark.parametrize("name", verify.check_names())
def test_check(check, name):
    result = check(name)
    assert result.ok, result.detail


def test_checks_fail_under_python_O(run_python):
    # python -O strips assert statements; the checks must still catch a
    # wrong a(d) table
    assert _failed_under_python_O(run_python, "checks.arith", "sl2_order_table", "arith") == [
        "(sigma * a)(n) = sigma_3(n) for n <= 10^5",
        "sl2_order multiplicative on coprime pairs up to 500",
        "a(d) = p^(3v-2)(p^2-1) a(d_p) for all p | d, d <= 2000",
    ]


def test_integer_ebar_checks_fail_under_python_O(run_python):
    # the integer sieves over the (12/5) ebar_1 table still catch one wrong
    # entry; the two Euler-product checks read ebar1_exact and the local
    # factors, not the table
    assert _failed_under_python_O(run_python, "zagier", "ebar1_five_twelfths", "zagier") == [
        "(12/5) moebius-sum of ebar_1(m^2) equals a(d), d <= 2000",
        "moebius-summed ebar_6 equals kappa(d) a(d)/60 exactly, d <= 1000",
    ]


def test_estar6_check_fails_on_one_wrong_euler_factor(monkeypatch):
    # the Euler product reads the integer local factors (numerator, p^(2J))
    real = zagier._euler_factor_ints

    def wrong_factor(k, p, d):
        num, den = real(k, p, d)
        return num + den * ((k, p, d) == (6, 3, 9)), den

    monkeypatch.setattr(zagier, "_euler_factor_ints", wrong_factor)
    result = verify.run_check(
        "e*_6(d^2) Euler product equals the four-term e*_1 combination, d <= 500"
    )
    assert (result.ok, result.detail) == (False, "FAILED at 9")


def test_smm_cd_check_fails_on_one_wrong_smm_total(monkeypatch):
    # cd_count reads counting.smm, the direct raw sums do not: a wrong
    # |S_{7,7}| shows at every degree d divisible by 7
    real = counting.smm

    def wrong_smm(locus, m, mode="main_term"):
        cover = real(locus, m, mode)
        return cover._replace(total=cover.total + 1) if m == 7 else cover

    monkeypatch.setattr(counting, "smm", wrong_smm)
    result = verify.run_check("smm/cd consistency, d <= 200")
    assert (result.ok, result.detail) == (False, "FAILED at ('h2', 7)")


def test_smm_cd_check_fails_on_one_wrong_leading_smm(monkeypatch):
    # cd_count reads the main_term surrogate only; the tie of counting.smm
    # to smm_totals covers the gothic leading and remark surrogates
    real = counting.smm

    def wrong_smm(locus, m, mode="main_term"):
        cover = real(locus, m, mode)
        hit = (locus, m, mode) == (Locus.G, 7, "leading")
        return cover._replace(total=cover.total + 1) if hit else cover

    monkeypatch.setattr(counting, "smm", wrong_smm)
    result = verify.run_check("smm/cd consistency, d <= 200")
    assert (result.ok, result.detail) == (False, "FAILED at ('gothic', 'leading', 7)")


def _smm_off_by_one_at(monkeypatch, hit):
    real = counting.smm

    def wrong_smm(locus, m, mode="main_term"):
        cover = real(locus, m, mode)
        return cover._replace(total=cover.total + 1) if (locus, m, mode) == hit else cover

    monkeypatch.setattr(counting, "smm", wrong_smm)
    return verify.run_check("smm/cd consistency, d <= 200")


def test_smm_cd_check_fails_on_a_wrong_main_term_total_at_the_range_edge(monkeypatch):
    # 199 is prime and 2 * 199 > 200, so only cd_count(gothic, 199) reads it:
    # the check ties no main_term total to smm_totals and must fail there
    result = _smm_off_by_one_at(monkeypatch, (Locus.G, 199, "main_term"))
    assert (result.ok, result.detail) == (False, "FAILED at ('gothic', 199)")


def test_smm_cd_check_fails_on_a_wrong_remark_total_at_the_range_edge(monkeypatch):
    # cd_count never reads the remark surrogate: the tie to smm_totals does
    result = _smm_off_by_one_at(monkeypatch, (Locus.G, 200, "remark"))
    assert (result.ok, result.detail) == (False, "FAILED at ('gothic', 'remark', 200)")


_SQUARE_TABLES = "e(d^2, k) in twelfths equals the square tables, d <= 4000, k in {1,6}"


def test_square_table_check_fails_on_one_wrong_oracle_twelfth(monkeypatch):
    # the k = 6 comparison names the first d where the two routes differ
    real = qforms.e_square_table

    def wrong_table(k, dmax):
        table = list(real(k, dmax))
        table[4000] += 1
        return tuple(table)

    monkeypatch.setattr(qforms, "e_square_table", wrong_table)
    result = verify.run_check(_SQUARE_TABLES)
    assert (result.ok, result.detail) == (False, "FAILED at (6, 4000)")


def test_square_table_check_fails_on_one_wrong_besge_twelfth(monkeypatch):
    real = qforms.e1_square_twelfths

    def wrong_table(dmax):
        table = list(real(dmax))
        table[4000] += 1
        return tuple(table)

    monkeypatch.setattr(qforms, "e1_square_twelfths", wrong_table)
    result = verify.run_check(_SQUARE_TABLES)
    assert (result.ok, result.detail) == (False, "FAILED at (1, 4000)")


def test_leading_check_fails_on_one_negative_table_entry(monkeypatch):
    real = volume.smm_totals

    def wrong_totals(locus, mmax, surrogate="main_term"):
        totals = real(locus, mmax, surrogate)
        t = list(totals.numerators)
        t[4321] = -1
        return totals._replace(numerators=tuple(t))

    monkeypatch.setattr(volume, "smm_totals", wrong_totals)
    result = verify.run_check("gothic leading smm totals are nonnegative, m <= 5000")
    assert (result.ok, result.detail) == (False, "FAILED at 4321")


def test_estimate_check_fails_on_one_wrong_p3_total_past_2000(monkeypatch):
    # one P3 numerator off by one at m = 3000, past the D <= 2000 range of
    # the other direct-vs-closed check, shows at the last checkpoint only
    real = volume.smm_totals

    def wrong_totals(locus, mmax, surrogate="main_term"):
        totals = real(locus, mmax, surrogate)
        if locus is not Locus.P3 or mmax < 3000:
            return totals
        t = list(totals.numerators)
        t[3000] += 1
        return totals._replace(numerators=tuple(t))

    monkeypatch.setattr(volume, "smm_totals", wrong_totals)
    result = verify.run_check("volume_estimate direct equals closed at the D = 4000 checkpoints")
    assert (result.ok, result.detail) == (False, "FAILED at ('p3', 4000)")


def test_remark_check_fails_on_one_wrong_main_table_entry(monkeypatch):
    # the remark check ties chi_G(d^2, 1, "main_term") to the integer table
    # that the gap check and smm_totals read
    real = euler._gothic_curve_counts

    def wrong_counts(h_max, mode):
        L, table = real(h_max, mode)
        table = list(table)
        table[7] += mode == "main_term"
        return L, table

    monkeypatch.setattr(euler, "_gothic_curve_counts", wrong_counts)
    result = verify.run_check("remark values sit inside the boundary sandwich, d <= 500")
    assert (result.ok, result.detail) == (False, "FAILED at 7")


def test_one_wrong_gothic_row_fails_both_closed_checks(monkeypatch):
    # both checks read volume.CLOSED_TERMS: the comparison with the S_k rows
    # and the exact limits each catch one coefficient off by 1/720
    terms = list(volume.CLOSED_TERMS[Locus.G])
    c, m = terms[2]
    terms[2] = (c + Fraction(1, 720), m)
    monkeypatch.setitem(volume.CLOSED_TERMS, Locus.G, tuple(terms))
    for name in ("P4 direct equals closed at every D <= 2000; P3 and gothic too",
                 "gothic closed summands match their exact limits within 2% at D = 4000"):
        result = verify.run_check(name)
        assert not result.ok and result.detail.startswith("FAILED"), (name, result.detail)


@pytest.mark.parametrize("residue, count", [(12, 0), (8, 1)])
def test_one_wrong_norm6_count_fails_the_emptiness_check(monkeypatch, residue, count):
    # a wrongly empty class keeps chi_G = 0 and a wrongly non-empty one keeps
    # chi_G < 0; the k = 6 prototype walk catches both
    counts = list(euler._NORM6)
    counts[residue] = count
    monkeypatch.setattr(euler, "_NORM6", tuple(counts))
    result = verify.run_check(
        "gothic non-square non-emptiness exactly on the residue set, D <= 2000")
    assert not result.ok and result.detail.startswith("FAILED"), result.detail


def test_p3_second_component_at_every_even_m_fails_the_gating_check(monkeypatch):
    # chi_W4 that also defines W^2_{h^2}(4) at even h: smm still lists no
    # second component at m = 4, so the tie to chi_W4's own rule fails there
    real = euler.chi_W4

    def lenient(D, j=1, mode="exact"):
        return real(D, 1 if j == 2 else j, mode)

    monkeypatch.setattr(euler, "chi_W4", lenient)
    result = verify.run_check(
        "P3 second component appears iff m = 2 mod 4, with (m/2)^2 = 1 mod 8")
    assert (result.ok, result.detail) == (False, "FAILED at 4")


_REAL_IDEAL_EQUAL = ideals.ideal_equal


@pytest.mark.parametrize("wrong, where", [
    (lambda d, n, r, s: _REAL_IDEAL_EQUAL(d, n, r, s) != (d == 30), (30, 1, 1)),
    (lambda d, n, r, s: r == s, (2, 1, 2)),
    (lambda d, n, r, s: True, (2, 1, 3)),
], ids=["negated-at-30", "r-equals-s", "always-true"])
def test_ideal_equality_check_fails_on_a_wrong_criterion(monkeypatch, wrong, where):
    # mutual membership of the bases catches each wrong ideal_equal at the
    # first (d, r, s) it gets wrong
    monkeypatch.setattr(ideals, "ideal_equal", wrong)
    result = verify.run_check("ideal_equal matches brute-force lattice equality, d <= 100")
    assert (result.ok, result.detail) == (False, f"FAILED at {where}")


# Each check below is the only statement of its invariant: one value made
# wrong in the function it reads must fail it, at the first place it reads it.
@pytest.mark.parametrize("owner, name, wrong, check, where", [
    (arith_checks, "hermite_sublattices",
     lambda real: lambda n: real(n)[1:] if n == 12 else real(n),
     "hermite_sublattices: sigma(n) forms, each of index n, n <= 200", 12),
    (euler, "sl2_order",
     lambda real: lambda d: real(d) + (d == 4999),
     "chi(X_{d^2}) = a(d)/72 against the mu-sum definition, d <= 5000", 4999),
    (qforms, "fk_expansion",
     lambda real: lambda k, N: [c + ((k, n) == (6, 3999)) for n, c in enumerate(real(k, N))],
     "F_k series product equals divisor-sum e_k(n), n <= 4000, k in {1,6}", (6, 3999)),
    (zagier, "gauss_gamma",
     lambda real: lambda p, r, d: real(p, r, d) + ((p, r, d) == (47, 7, 200)),
     "gauss sums vanish beyond r = nu_p(d^2) + 2, p <= 50, d <= 200", (47, 7, 200)),
    (zagier, "ebar1_exact",
     lambda real: lambda d: real(d) + (d == 500),
     "ebar_1 divisor sum equals Euler product with zeta tail, d <= 500", 500),
    (ideals, "polarization_restriction",
     lambda real: lambda d, n, r: real(d, n, 6 // r if d == 499 else r),
     "polarization restriction = (lcm(d,r), lcm(d,6/r)), d <= 500", (499, 1, (2994, 499))),
    (volume, "convert_convention",
     lambda real: lambda locus: real(locus) * (2 if locus is Locus.P4 else 1),
     "AEZ conversion constants are reproduced exactly", "56/135*pi^4"),
], ids=["hermite", "sl2_order", "fk_expansion", "gauss_gamma", "ebar1", "polarization",
        "aez"])
def test_a_sole_cover_check_fails_where_one_value_is_wrong(monkeypatch, owner, name, wrong,
                                                          check, where):
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    result = verify.run_check(check)
    assert (result.ok, result.detail) == (False, f"FAILED at {where}")


def test_check_that_raises_is_a_failed_check(monkeypatch, capsys):
    # an exception other than AssertionError is a FAIL with its type named:
    # exit 1 with the JSON document, not exit 2 for an input error
    def broken_table(N):
        raise ValueError("table builder regressed")

    monkeypatch.setattr(arith_checks, "sl2_order_table", broken_table)
    code = main(["verify", "--suite", "arith"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (doc["result"]["passed"], doc["result"]["failed"]) == (0, 1)
    assert doc["result"]["checks"][0]["detail"] == "ValueError: table builder regressed"


# Loads one suite, then every suite, in a fresh process and prints the suite
# of each check in the order check_names() gives for all.
_ORDER_AFTER_ONE_SUITE = """
import json
from gothicvol import verify

verify.check_names("volume")
print(json.dumps([verify._CHECKS[name][0] for name in verify.check_names()]))
"""


def test_all_runs_suite_by_suite_whichever_suite_loaded_first(run_python):
    proc = run_python("-c", _ORDER_AFTER_ONE_SUITE, timeout=300, check=True)
    suites = json.loads(proc.stdout)
    assert list(dict.fromkeys(suites)) == list(verify.SUITES[1:])
    assert suites == sorted(suites, key=verify.SUITES.index)


# Runs the qforms check of the e(d^2, k) routes and then the euler gap check,
# in run order in a fresh process, and prints the dmax of every e(d^2, 6) build.
_E6_BUILDS = """
import json
from gothicvol import qforms, verify

built = []
route = qforms.e6_square_twelfths
qforms.e6_square_twelfths = lambda dmax: built.append(dmax) or route(dmax)
for name in ("e(d^2, k) in twelfths equals the square tables, d <= 4000, k in {1,6}",
             "main_term vs leading gap, scaled by d^(5/2), half-range check, d <= 2000"):
    result = verify.run_check(name)
    assert result.ok, result
print(json.dumps(built))
"""


def test_the_checks_build_e6_once(run_python):
    # the qforms check reads the store production reads, and the gap check finds it filled
    proc = run_python("-c", _E6_BUILDS, timeout=300, check=True)
    assert json.loads(proc.stdout) == [4000]


def test_registry_files_each_check_under_its_own_module():
    # a check's suite is read off the module it sits in, never passed in
    assert list(inspect.signature(verify._check).parameters) == ["name"]
    names = verify.check_names("all")
    for name in names:
        suite, fn = verify._CHECKS[name]
        assert suite == fn.__module__.rpartition(".")[2], name
    assert {verify._CHECKS[name][0] for name in names} == set(verify.SUITES[1:])


def test_registry_refuses_duplicate_names():
    with pytest.raises(ValueError, match="duplicate check name"):
        verify._check(verify.check_names()[0])
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.check_names("nope")
    assert verify.SUITES == (
        "all", "arith", "prototypes", "qforms", "zagier", "ideals", "euler",
        "counting", "volume",
    )
