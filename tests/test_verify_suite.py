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

from gothicvol import Locus, counting, euler, ideals, prototypes, qforms, verify, volume, zagier
from gothicvol.checks import arith as arith_checks
from gothicvol.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


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
    # python -O strips assert statements and sets __debug__ to False, so a
    # check written with either could be switched off; the package raises
    # instead, and one -O run covers the plain one
    for path in sorted((SRC / "gothicvol").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            assert not isinstance(node, ast.Assert), (path, node.lineno)
            assert not (isinstance(node, ast.Name) and node.id == "__debug__"), (path, node.lineno)


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


def _replaced(seq, i, value):
    return (*seq[:i], value, *seq[i + 1:])


def _plus_one(seq, i):
    return _replaced(seq, i, seq[i] + 1)


def _result_changed(f):
    # a `wrong` that returns f(real(*args), *args) for each call real(*args)
    return lambda real: lambda *args: f(real(*args), *args)


_ENTRY_7_PLUS_ONE = _result_changed(lambda table, _: _plus_one(table, 7))


def _smm_total_plus_one(hit):
    # counting.smm with the total of one (locus, m, mode) off by one
    return _result_changed(lambda cover, locus, m, mode="main_term": cover._replace(
        total=cover.total + 1) if (locus, m, mode) == hit else cover)


def _curve_entry_7_plus_one(hit):
    # euler._curve_counts with entry 7 of one family's main_term table off by one
    return _result_changed(lambda Lt, family, h_max, mode: (
        Lt[0], _plus_one(Lt[1], 7)) if (family, mode) == (hit, "main_term") else Lt)


def _gothic_closed_term_off(real):
    # volume.CLOSED_TERMS with the third gothic coefficient off by 1/720
    c, m = real[Locus.G][2]
    return {**real, Locus.G: _replaced(real[Locus.G], 2, (c + Fraction(1, 720), m))}


def _gothic_component_6_dropped(real):
    # euler._PLACEMENT without gothic component 6
    family, components = real[Locus.G]
    return {**real, Locus.G: (family, tuple(c for c in components if c[0] != 6))}


def _fk_entry_plus_one(k, n):
    # qforms.fk_ints with entry n of the F_k table off by one
    return _result_changed(lambda table, *args: _plus_one(table, n) if args[0] == k else table)


def _nonsquare_off(family, D, delta):
    # euler._nonsquare_chi with one family's value at one D off by delta
    return _result_changed(lambda chi, *args: chi + delta * (args[:2] == (family, D)))


_SMM_CD = "smm/cd consistency, d <= 200"
_SQUARE_TABLES = "e(d^2, k) in twelfths equals the square tables, d <= 4000, k in {1,6}"
_GOTHIC_RESIDUES = "gothic non-square 6 chi(G_D) is an integer, < 0 exactly on the residue set, D <= 2000"
_W_DENOMINATORS = ("2 chi(W_D(2)), 6 chi(W_D(4)) and 3 chi(W_D(6)) are integers, "
                   "non-square D in (8, 2000]")
_IDEAL_EQUAL = "ideal_equal matches brute-force lattice equality, d <= 100"


# Each row replaces owner.name by wrong(real), one value wrong in what the check
# reads, and gives the full detail of the check's failure where it reads that
# value.  Each check that is the only statement of its invariant has a row.
# CI runs the table once more under python -O, with asserts stripped.
@pytest.mark.parametrize("owner, name, wrong, check, detail", [
    # entry 7 of a table off by one; of the zagier checks only the integer
    # sieves read the ebar_1 table, the Euler-product ones read the local factors
    pytest.param(arith_checks, "sl2_order_table", _ENTRY_7_PLUS_ONE,
                 "(sigma * a)(n) = sigma_3(n) for n <= 10^5", "FAILED at 7", id="a-convolution"),
    pytest.param(arith_checks, "sl2_order_table", _ENTRY_7_PLUS_ONE,
                 "sl2_order multiplicative on coprime pairs up to 500", "FAILED at (2, 7)",
                 id="a-multiplicative"),
    pytest.param(arith_checks, "sl2_order_table", _ENTRY_7_PLUS_ONE,
                 "a(d) = p^(3v-2)(p^2-1) a(d_p) for all p | d, d <= 2000", "FAILED at (7, 7)",
                 id="a-recursion"),
    pytest.param(zagier, "ebar1_five_twelfths", _ENTRY_7_PLUS_ONE,
                 "(12/5) moebius-sum of ebar_1(m^2) equals a(d), d <= 2000", "FAILED at 7",
                 id="ebar1-table-a"),
    pytest.param(zagier, "ebar1_five_twelfths", _ENTRY_7_PLUS_ONE,
                 "moebius-summed ebar_6 equals kappa(d) a(d)/60 exactly, d <= 2000",
                 "FAILED at 7", id="ebar1-table-ebar6"),
    pytest.param(arith_checks, "hermite_sublattices",
                 lambda real: lambda n: real(n)[1:] if n == 12 else real(n),
                 "hermite_sublattices: sigma(n) forms, each of index n, n <= 200",
                 "FAILED at 12", id="hermite"),
    pytest.param(euler, "sl2_order", lambda real: lambda d: real(d) + (d == 4999),
                 "chi(X_{d^2}) = a(d)/72 against the mu-sum definition, d <= 5000",
                 "FAILED at 4999", id="sl2_order"),
    pytest.param(qforms, "fk_expansion", lambda real: lambda k, N: [
                     c + ((k, n) == (6, 3999)) for n, c in enumerate(real(k, N))],
                 "F_k series product equals divisor-sum e_k(n), n <= 4000, k in {1,6}",
                 "FAILED at (6, 3999)", id="fk_expansion"),
    pytest.param(zagier, "gauss_gamma",
                 lambda real: lambda p, r, d: real(p, r, d) + ((p, r, d) == (47, 7, 200)),
                 "gauss sums vanish beyond r = nu_p(d^2) + 2, p <= 50, d <= 200",
                 "FAILED at (47, 7, 200)", id="gauss_gamma"),
    pytest.param(zagier, "ebar1_exact", lambda real: lambda d: real(d) + (d == 500),
                 "ebar_1 divisor sum equals Euler product with zeta tail, d <= 500",
                 "FAILED at 500", id="ebar1"),
    pytest.param(ideals, "polarization_restriction",
                 lambda real: lambda d, n, r: real(d, n, 6 // r if d == 499 else r),
                 "polarization restriction = (lcm(d,r), lcm(d,6/r)), d <= 500",
                 "FAILED at (499, 1, (2994, 499))", id="polarization"),
    # one sign flipped: symplectic_divisors refuses the matrix, a FAIL too
    pytest.param(ideals, "gram_matrix", _result_changed(lambda M, d, n, r: [
                     [-v if (d, r, i, j) == (499, 1, 3, 0) else v for j, v in enumerate(row)]
                     for i, row in enumerate(M)]),
                 "trace pairing has symplectic type (1,6), d <= 500",
                 "ValueError: matrix is not antisymmetric", id="gram-not-antisymmetric"),
    pytest.param(volume, "convert_convention",
                 lambda real: lambda locus: real(locus) * (2 if locus is Locus.P4 else 1),
                 "AEZ conversion constants are reproduced exactly", "FAILED at 56/135*pi^4",
                 id="aez"),
    # the Euler product reads the integer local factors (numerator, p^(2J))
    pytest.param(zagier, "_euler_factor_ints",
                 _result_changed(lambda nd, *kpd: (nd[0] + nd[1] * (kpd == (6, 3, 9)), nd[1])),
                 "e*_6(d^2) Euler product equals the four-term e*_1 combination, d <= 500",
                 "FAILED at 9", id="estar6"),
    # cd_count reads main_term smm; the tie to smm_totals reads gothic leading and remark
    pytest.param(counting, "smm", _smm_total_plus_one((Locus.H2, 7, "main_term")), _SMM_CD,
                 "FAILED at ('h2', 7)", id="smm-h2-7"),
    pytest.param(counting, "smm", _smm_total_plus_one((Locus.G, 7, "leading")), _SMM_CD,
                 "FAILED at ('gothic', 'leading', 7)", id="smm-gothic-leading-7"),
    # 199 is prime and 2 * 199 > 200, so only cd_count(gothic, 199) reads it
    pytest.param(counting, "smm", _smm_total_plus_one((Locus.G, 199, "main_term")), _SMM_CD,
                 "FAILED at ('gothic', 199)", id="smm-gothic-main-term-199"),
    pytest.param(counting, "smm", _smm_total_plus_one((Locus.G, 200, "remark")), _SMM_CD,
                 "FAILED at ('gothic', 'remark', 200)", id="smm-gothic-remark-200"),
    # the permutation oracle off by one at the top d of its check
    pytest.param(counting, "h2_permutation_oracle", lambda real: lambda d: real(d) + (d == 15),
                 "permutation oracle equals cd_count(H2, d), d = 1..15",
                 "FAILED at (15, Fraction(1063, 1), Fraction(1062, 1))", id="oracle-15"),
    pytest.param(qforms, "e_square_table", _result_changed(lambda t, *_: _plus_one(t, 4000)),
                 _SQUARE_TABLES, "FAILED at (6, 4000)", id="square-oracle"),
    pytest.param(qforms, "e1_square_twelfths", _result_changed(lambda t, _: _plus_one(t, 4000)),
                 _SQUARE_TABLES, "FAILED at (1, 4000)", id="square-besge"),
    # every sigma-sieve oracle entry is 12 f - 1, so one off by 1 to 11 raises
    pytest.param(qforms, "ek_square_table", _result_changed(lambda t, *_: _plus_one(t, 2667)),
                 _SQUARE_TABLES,
                 "ArithmeticError: 12 e_k(m^2) + 1 is not a multiple of 12 at (k, m) = (6, 2667)",
                 id="square-sieve-oracle"),
    pytest.param(volume, "smm_totals", _result_changed(
                     lambda t, *_: t._replace(numerators=_replaced(t.numerators, 4321, -1))),
                 "gothic leading smm totals are nonnegative, m <= 5000", "FAILED at 4321",
                 id="leading-negative"),
    # P3 off at m = 3000, past the D <= 2000 of the other direct-vs-closed check
    pytest.param(volume, "smm_totals", _result_changed(lambda t, locus, *_: t._replace(
                     numerators=_plus_one(t.numerators, 3000)) if locus is Locus.P3 else t),
                 "volume_estimate direct equals closed at the D = 4000 checkpoints",
                 "FAILED at ('p3', 4000)", id="estimate-p3-3000"),
    # chi_G(d^2, 1, "main_term") against the table the gap check and smm_totals read
    pytest.param(euler, "_curve_counts", _curve_entry_7_plus_one("g"),
                 "remark values sit inside the boundary sandwich, d <= 500", "FAILED at 7",
                 id="remark-main-table"),
    # the curve table off at h = 7: smm_totals places it at m = 7, and P4's at m = 14
    pytest.param(euler, "_curve_counts", _curve_entry_7_plus_one("w2"), _SMM_CD,
                 "FAILED at ('h2', 7)", id="curve-table-w2-7"),
    pytest.param(euler, "_curve_counts", _curve_entry_7_plus_one("w4"), _SMM_CD,
                 "FAILED at ('p3', 7)", id="curve-table-w4-7"),
    pytest.param(euler, "_curve_counts", _curve_entry_7_plus_one("w6"), _SMM_CD,
                 "FAILED at ('p4', 14)", id="curve-table-w6-7"),
    # smm and smm_totals read one placement table, so only the closed rows see it
    pytest.param(euler, "_PLACEMENT", _gothic_component_6_dropped,
                 "P4 direct equals closed at every D <= 2000; P3 and gothic too",
                 "FAILED at ('gothic', 6)", id="placement-gothic-6"),
    pytest.param(volume, "CLOSED_TERMS", _gothic_closed_term_off,
                 "P4 direct equals closed at every D <= 2000; P3 and gothic too",
                 "FAILED at ('gothic', 'terms', 3)", id="gothic-row-terms"),
    pytest.param(volume, "CLOSED_TERMS", _gothic_closed_term_off,
                 "gothic closed summands match their exact limits within 2% at D = 4000",
                 "FAILED at ('limit', 'gothic', (13/31104*pi^4, 1097/2624400*pi^4))",
                 id="gothic-row-limit"),
    # the e(D, 6) clause, read before the chi clause, names a wrong norm-6 count
    pytest.param(euler, "_NORM6", lambda real: _replaced(real, 12, 0), _GOTHIC_RESIDUES,
                 "FAILED at ('e(D, 6)', 60)", id="norm6-12-empty"),
    pytest.param(euler, "_NORM6", lambda real: _replaced(real, 8, 1), _GOTHIC_RESIDUES,
                 "FAILED at ('e(D, 6)', 8)", id="norm6-8-nonempty"),
    # one family's value off at a non-square D = 33 (two W_D(4) components):
    # each keeps chi < 0 and moves the scaled chi its check reads by 1/10,
    # 3/10, 1/2, 7/10
    pytest.param(euler, "_nonsquare_chi", _nonsquare_off("g", 33, Fraction(1, 60)),
                 _GOTHIC_RESIDUES, "FAILED at 33", id="chi-g-33"),
    pytest.param(euler, "_nonsquare_chi", _nonsquare_off("w2", 33, Fraction(3, 20)),
                 _W_DENOMINATORS, "FAILED at ('w2', 33)", id="chi-w2-33"),
    pytest.param(euler, "_nonsquare_chi", _nonsquare_off("w4", 33, Fraction(1, 12)),
                 _W_DENOMINATORS, "FAILED at ('w4', 33)", id="chi-w4-33"),
    pytest.param(euler, "_nonsquare_chi", _nonsquare_off("w6", 33, Fraction(7, 30)),
                 _W_DENOMINATORS, "FAILED at ('w6', 33)", id="chi-w6-33"),
    # at the top of the W_D denominators check, which reaches every D <= 2000
    pytest.param(euler, "_nonsquare_chi", _nonsquare_off("w4", 2000, Fraction(1, 12)),
                 _W_DENOMINATORS, "FAILED at ('w4', 2000)", id="chi-w4-2000"),
    # the non-square checks read e(D, k) off the F_k tables: G_1997 is empty
    # (1997 = 5 mod 24), and only e(2000, 1) reads entry 2000 of F_1
    pytest.param(qforms, "fk_ints", _fk_entry_plus_one(6, 1997), _GOTHIC_RESIDUES,
                 "FAILED at ('e(D, 6)', 1997)", id="fk6-1997"),
    pytest.param(qforms, "fk_ints", _fk_entry_plus_one(1, 2000), _W_DENOMINATORS,
                 "FAILED at ('w2', 2000)", id="fk1-2000"),
    # conductor 1 in place of 15 at D = 1800: the Moebius inversion keeps
    # e(D/m^2, k) of m = 3, 5, 15 in e(D, k), and gcd(6, f) changes
    pytest.param(prototypes, "conductor",
                 lambda real: lambda D: 1 if D == 1800 else real(D), _GOTHIC_RESIDUES,
                 "FAILED at 1800", id="conductor-1800"),
    # chi_W4 admitting j = 2 at every even h: smm lists no second component at m = 4
    pytest.param(euler, "chi_W4",
                 lambda real: lambda D, j=1, mode="exact": real(D, 1 if j == 2 else j, mode),
                 "P3 second component appears iff m = 2 mod 4, with (m/2)^2 = 1 mod 8",
                 "FAILED at 4", id="p3-second-component"),
    # mutual membership of the bases names the first (d, r, s) ideal_equal gets wrong
    pytest.param(ideals, "ideal_equal",
                 lambda real: lambda d, n, r, s: real(d, n, r, s) != (d == 30), _IDEAL_EQUAL,
                 "FAILED at (30, 1, 1)", id="ideal-negated-at-30"),
    pytest.param(ideals, "ideal_equal", lambda real: lambda d, n, r, s: r == s, _IDEAL_EQUAL,
                 "FAILED at (2, 1, 2)", id="ideal-r-equals-s"),
    pytest.param(ideals, "ideal_equal", lambda real: lambda *args: True, _IDEAL_EQUAL,
                 "FAILED at (2, 1, 3)", id="ideal-always-true"),
    # the exact identity is read at every d the table holds, d > 1000 included
    pytest.param(zagier, "ebar6_sixtieths", _result_changed(lambda t, _: _plus_one(t, 1500)),
                 "moebius-summed ebar_6 equals kappa(d) a(d)/60 exactly, d <= 2000",
                 "FAILED at 1500", id="ebar6-past-1000"),
])
def test_a_check_fails_where_one_value_is_wrong(monkeypatch, owner, name, wrong, check, detail):
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    result = verify.run_check(check)
    assert (result.ok, result.detail) == (False, detail)


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


def test_the_euler_suite_walks_no_prototype_row(calls_of):
    # its non-square checks read e(D, k) off the F_k tables; the qforms
    # suite's e_and_a check ties the prototype walk to the same coefficients
    sums = calls_of(prototypes, "e_sums")
    walks = calls_of(prototypes, "_prototype_rows")
    assert all(result.ok for result in verify.run_suite("euler"))
    assert (len(sums), len(walks)) == (0, 0)


def test_the_smm_cd_check_takes_each_smm_total_once(calls_of):
    # one main_term total per (locus, m) for the cd_count loop, and one per
    # (m, surrogate) for the tie of gothic leading and remark, m <= 200
    calls = calls_of(counting, "smm")
    assert verify.run_check(_SMM_CD).ok
    assert len(calls) == len(set(calls)) == 1200


def test_registry_files_each_check_under_its_own_module():
    # a check's suite is read off the module it sits in, never passed in
    assert list(inspect.signature(verify._check).parameters) == ["name"]
    names = verify.check_names("all")
    for name in names:
        suite, fn = verify._CHECKS[name]
        assert suite == fn.__module__.rpartition(".")[2], name
    assert {verify._CHECKS[name][0] for name in names} == set(verify.SUITES[1:])


def test_suites_run_in_module_order():
    assert verify.SUITES == (
        "all", "arith", "prototypes", "qforms", "zagier", "ideals", "euler",
        "counting", "volume",
    )
