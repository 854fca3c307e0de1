"""Every refusal the package makes, one row each, with its full message.

A row of REFUSALS is (reach, call, message).  A command line ``call`` must
exit 2 and print exactly ``error: <message>``; ``(function, *args)`` must
raise ValueError with exactly ``message``.  ``reach`` is None for an argument
outside a function's domain, or names the bound the input is past: a module
constant, ``oracle-cap`` or ``kronecker-slot``.  The functions that _GUARDED
names for a reach are tripwires in its rows, so nothing is built or walked
before the refusal.  Two census tests keep the table complete: every reach
constant has a row, and every ``raise ValueError`` is some row's refusal.
"""

import ast
import math
import operator
import re
from fractions import Fraction
from pathlib import Path

import pytest

import gothicvol
from gothicvol import Locus, arith, counting, euler, ideals, prototypes, qforms, volume, zagier
from gothicvol import verify
from gothicvol.arith import PiQuantity
from gothicvol.cli import build_parser, main

PACKAGE = Path(gothicvol.__file__).resolve().parent


class _NoDivision(int):
    """An int that fails the test when divided: trial division refuses it first."""

    def __mod__(self, other):
        raise AssertionError("a division ran past the trial-division reach")


def _past(bound, family=None):
    """The first discriminant beyond ``bound`` that is no square and, for a
    chi family, names a curve that is not empty."""
    D = bound + 1
    while D % 4 in (2, 3) or math.isqrt(D) ** 2 == D or (family and euler.is_empty(family, D)):
        D += 1
    return D


TRIAL = arith.TRIAL_MAX_N + 1
P = 10**12 + 39  # a prime whose square is a gothic lookup past the e(d^2, 6) store
E_PAST, PROTO_PAST = _past(prototypes.E_MAX_D), _past(prototypes.PROTO_MAX_D)
PAST_TRIAL = "n = 5000000000000001 is beyond the trial-division bound 5000000000000000"
PAST_STORE = "d = {} is beyond the e(d^2, k) bound 250000"
PAST_E = "D = {} is beyond the e(D, k) bound 10000000000"
PAST_PROTO = "D = 1000000001 is beyond the prototype bound 1000000000"
PAST_QEXP = "N = 400001 is beyond the q-expansion bound 400000"
PAST_SQUARE = "mmax = 10001 is beyond the square-table bound 10000"
PAST_EBAR = "d_max = 200001 is beyond the ebar-rows bound 200000"
PAST_CLOSED = "D = 1000000000001 is beyond the closed-path bound 1000000000000"
PAST_DIRECT = "D = {} is beyond the direct-path bound 250000"
NOT_DISC = "{} is not a discriminant (need D >= 1, D = 0,1 mod 4)"
SQUARE_MAIN = "square discriminants require mode='main_term'"
NO_COMPONENT = "r = {} does not name a component for d = {}"
NO_FORMULA = ("square discriminants have no unconditional formula; "
              "pick mode in {'main_term', 'leading', 'remark'}")
SUITE_CHOICES = ("; choose from ('all', 'arith', 'prototypes', 'qforms', 'zagier', 'ideals', "
                 "'euler', 'counting', 'volume')")
ORACLE = "oracle is cost-guarded to 1 <= d <= 10"

REFUSALS = [
    (None, (arith.factorize, 0), "factorize expects n >= 1, got 0"),
    *(("TRIAL_MAX_N", (fn, _NoDivision(TRIAL)), PAST_TRIAL)
      for fn in (arith.factorize, arith.is_prime, arith.moebius)),
    *((None, (arith.nu, p, n), "nu expects p >= 2") for p, n in ((0, 5), (1, 5), (-2, 8))),
    (None, (arith.nu, 2, 0), "nu expects n >= 1"),
    *((None, (arith.moebius, n), f"moebius expects n >= 1, got {n}") for n in (0, -4)),
    (None, (arith.sigma, 1, 0), "sigma expects n >= 1, got 0"),
    (None, (arith.sigma, -1, 5), "sigma expects k >= 0"),
    (None, (arith.sl2_order, 0), "sl2_order expects d >= 1, got 0"),
    (None, (arith.jordan2, 0), "jordan2 expects m >= 1, got 0"),
    (None, (arith.coprime_part, 0, 6), "coprime_part expects positive integers"),
    (None, (arith.squarefree_decompose, 0), "squarefree_decompose expects c != 0"),
    (None, (arith.dirichlet_convolve, [Fraction(0), Fraction(1)], [Fraction(0)], 1),
     "sequences must be defined up to N (1-indexed)"),
    (None, (arith.sigma_table, -1), "a table needs N >= 0, got -1"),
    *(("SIEVE_BOUND", (table, N), f"a table up to N = {N} is beyond the sieve bound 10000000")
      for table, N in ((arith.sigma_prefix, 3 * 10**9), (arith.moebius_table, 10**7))),
    (None, (arith.hermite_sublattices, 0), "hermite_sublattices expects n >= 1, got 0"),
    (None, (operator.add, PiQuantity(Fraction(13, 31104), 4), PiQuantity(Fraction(1), 2)),
     "cannot add pi^4 to pi^2 exactly"),
    (None, (PiQuantity.as_rational, PiQuantity(Fraction(1), 2)), "value still carries pi^2"),
    *((None, (prototypes.conductor, D), NOT_DISC.format(D)) for D in (7, 6, 0, -3)),
    (None, (prototypes.enumerate_prototypes, 7, 1), NOT_DISC.format(7)),
    (None, (prototypes.enumerate_prototypes, 1, 1),
     "prototype enumeration needs D >= 2 (e(1,k) is a convention)"),
    (None, (prototypes.enumerate_prototypes, 5, 0), "k must be a positive integer"),
    ("PROTO_MAX_D", (prototypes.enumerate_prototypes, PROTO_PAST, 6), PAST_PROTO),
    ("PROTO_MAX_D", ("proto", "--D", str(PROTO_PAST), "--k", "1"), PAST_PROTO),
    # k is checked before the e(1, k) = -1/12 convention is returned
    *((None, (prototypes.e_value, D, k), "k must be a positive integer")
      for D in (1, 5) for k in (0, -1)),
    *((None, ("e", "--D", D, "--k", "0"), "k must be a positive integer") for D in ("1", "5")),
    (None, (prototypes.e_value, 3, 1), NOT_DISC.format(3)),
    (None, ("e", "--D", "7", "--k", "1"), NOT_DISC.format(7)),
    ("E_MAX_D", (prototypes.e_value, E_PAST, 1), PAST_E.format(E_PAST)),
    ("E_MAX_D", ("e", "--D", str(E_PAST), "--k", "1"), PAST_E.format(E_PAST)),
    ("E_MAX_D", ("e", "--D", str(100001**2), "--k", "6"), PAST_E.format(100001**2)),
    *(("E_MAX_D", ("chi", "--family", fam, "--D", str(D)), PAST_E.format(D))
      for fam in ("x", "w2", "w4", "w6", "r", "g") for D in [_past(prototypes.E_MAX_D, fam)]),
    # every series has one truncation bound, and g2, fk and ek one k
    *((None, (fn, *args), "truncation bound must be >= 1")
      for fn, *args in ((qforms.theta_expansion, 0), (qforms.g2k_expansion, 1, 0))),
    (None, (qforms.g2k_expansion, 0, 5), "need k >= 1"),
    *((None, ("qexp", "--series", series, "--k", "1", "--N", N), "truncation bound must be >= 1")
      for series in ("theta", "g2", "fk", "ek") for N in ("0", "-1")),
    *((None, ("qexp", "--series", series, "--k", "0", "--N", "5"), "need k >= 1")
      for series in ("theta", "g2", "fk", "ek")),
    *(("QEXP_MAX_N", (fn, *args), PAST_QEXP) for fn, *args in (
        (qforms.theta_expansion, 400001), (qforms.g2k_expansion, 1, 400001),
        (qforms.fk_expansion, 6, 400001))),
    *(("QEXP_MAX_N", ("qexp", "--series", series, "--N", "400001"), PAST_QEXP)
      for series in ("theta", "g2", "fk", "ek")),
    *((None, (qforms.ek_coeff, k, n), "need k >= 1 and n >= 0") for k, n in ((0, 5), (1, -1))),
    (None, (qforms.ek_square_table, 0, 5), "need k >= 1 and mmax >= 1"),
    ("SQUARE_TABLE_MAX_M", (qforms.ek_square_table, 1, 10001), PAST_SQUARE),
    ("SQUARE_TABLE_MAX_M", (qforms.e_square_table, 6, 10001), PAST_SQUARE),
    ("kronecker-slot", (qforms._kronecker_product, [2**32] * 2, [2**32] * 2, 3),
     "the product could overflow a 64-bit Kronecker slot"),
    *((None, (fn, 0), "need dmax >= 1, got 0") for fn in (
        qforms.e6_square_twelfths, qforms.e1_convolution_twelfths, qforms.e1_square_twelfths)),
    (None, (zagier.gauss_gamma, 6, 1, 1), "6 is not prime"),
    (None, (zagier.gauss_gamma, 2, -1, 5), "need r >= 0 and d >= 1"),
    (None, (zagier.euler_factor, 4, 2, 1), "k = 4 must be squarefree"),
    (None, (zagier.euler_factor, 1, 4, 5), "4 is not prime"),
    # k is refused before 2kd is factorised, also past the trial-division reach
    *((None, (zagier.estar_euler_product, 4, d), "k = 4 must be squarefree") for d in (1, 10**15)),
    *((None, (fn, d), "d must be >= 1") for d in (0, -3) for fn in (
        zagier.kappa, zagier.ebar6_exact, zagier.estar6, zagier.ebar1_exact,
        zagier.ebar1_via_euler_product)),
    (None, (zagier.estar6, 2, lambda m: PiQuantity(Fraction(1), -2 if m == 2 else 0)),
     "the e*_1 values must carry one power of pi"),
    (None, (zagier.ebar1_five_twelfths, -1), "a table needs N >= 0, got -1"),
    (None, (zagier.ebar_rows, 0), "need dmax >= 1, got 0"),
    *((None, ("zagier", "--what", "ebar", "--dmax", d), f"need dmax >= 1, got {d}")
      for d in ("0", "-5")),
    ("EBAR_MAX_D", (zagier.ebar_rows, 200001), PAST_EBAR),
    ("EBAR_MAX_D", ("zagier", "--what", "ebar", "--dmax", "200001"), PAST_EBAR),
    (None, (zagier.asymptotic_check_e, 10), "d_max must be >= 24"),
    ("E_SQUARE_MAX_D", (zagier.asymptotic_check_e, 250001), PAST_STORE.format(250001)),
    ("E_SQUARE_MAX_D", ("zagier", "--what", "asymptotic", "--dmax", "250001"),
     PAST_STORE.format(250001)),
    (None, (ideals.ideal_basis, 1, 6, 1), "need d >= 2"),
    (None, (ideals.component_list, 1), "need d >= 2"),
    (None, (ideals.ideal_basis, 5, 6, 4), "r = 4 must be a positive divisor of n = 6"),
    (None, (ideals.galois_conjugate, 4, 6), "r = 4 must be a positive divisor of n = 6"),
    (None, (ideals.ideal_basis, 5, 12, 2), "n = 12 must be a squarefree positive integer"),
    (None, (ideals.galois_conjugate, 2, 4), "n = 4 must be a squarefree positive integer"),
    *((None, ("ideals", "--d", "5", "--n", n), f"n = {n} must be a squarefree positive integer")
      for n in ("0", "-6", "4")),
    (None, (ideals.symplectic_divisors, [[0, 1], [-1, 0]]), "expected a 4x4 matrix"),
    (None, (ideals.symplectic_divisors, [[1, 0, 0, 0]] * 4), "matrix is not antisymmetric"),
    (None, (ideals.symplectic_divisors, [[0] * 4] * 4), "degenerate form"),
    # rank 2: the entries have gcd 1 but the Pfaffian is 0
    (None, (ideals.symplectic_divisors, [[0, 1, 0, 0], [-1, 0, 0, 0], [0] * 4, [0] * 4]),
     "degenerate form"),
    *((None, (fn, D), NOT_DISC.format(D)) for fn, D in (
        *((chi, D) for chi in (euler.chi_W2, euler.chi_G) for D in (7, 11, 2, 3)),
        (euler.chi_X, -4), (euler.c_D, -4), (euler.chi_X, 0), (euler.c_D, 7))),
    (None, (euler.chi_W4, 0, 1, "main_term"), NOT_DISC.format(0)),
    (None, (euler.chi_W6, 15, "main_term"), NOT_DISC.format(15)),
    (None, (euler.chi_X_square, 0), "need d >= 1"),
    (None, (euler.chi_X_nonsquare, 9), "D = 9 is a square; use chi_X_square"),
    *((None, (euler.chi_X_br, d, r), NO_COMPONENT.format(r, d)) for d, r in (
        (6, 2), (0, 4), *((1, r) for r in (-6, -1, 0, 4, 12)))),
    *((None, (euler.chi_G, 25, r, "main_term"), NO_COMPONENT.format(r, 5))
      for r in (-6, -1, 0, 4, 12)),
    # chi_X_br checks the component before d: (0, 4) above names no component
    *((None, (euler.chi_X_br, d, r), "need d >= 1") for d, r in ((0, 1), (-5, 2))),
    (None, (euler.chi_W2, 1), "W_1(2) is undefined"),
    *((None, (euler.chi_W4, D, *args), f"W_D(4) has a single component for D = {D}")
      for D, *args in ((12, 2), (16, 2, "main_term"))),
    (None, ("chi", "--family", "w4", "--D", "16", "--j", "2", "--mode", "main"),
     "W_D(4) has a single component for D = 16"),
    (None, (euler.chi_W4, 16, 3, "main_term"), "component j must be 1 or 2"),
    # the mode is checked before the component
    *((None, call, SQUARE_MAIN) for call in (
        ("chi", "--family", "w4", "--D", "16", "--j", "2"),
        (euler.chi_W4, 16, 2, "exact"), (euler.chi_W4, 9, 3, "exact"),
        (euler.chi_W4, 25, 1, "exact"), (euler.chi_W4, 16, 1, "exact"),
        (euler.chi_W6, 25, "exact"), (euler.chi_W6, 16, "remark"),
        (euler.chi_R, 25, "exact"), (euler.chi_R, 16, "leading"))),
    *((None, call, "non-square discriminants use mode='exact'") for call in (
        (euler.chi_W4, 12, 1, "main_term"), (euler.chi_W6, 12, "main_term"),
        (euler.chi_R, 12, "main_term"), (euler.chi_G, 12, 1, "main_term"))),
    (None, (euler.chi_G, 25, 1, "exact"), NO_FORMULA),
    (None, ("chi", "--family", "g", "--D", "25", "--mode", "exact"), NO_FORMULA),
    (None, (euler.c_D, 20), "c_D undefined: D = 20 is outside the gothic residue table"),
    (None, (euler.chi_G, 73, 5), "component index 5 out of range for D = 73"),
    (None, (euler.chi_G, 25, 2, "remark"), "the remark formula is stated for r = 1 only"),
    (None, (euler.chi_boundary_gap, 1, 1), "need d >= 2"),
    (None, ("chi", "--family", "xbr", "--D", "37"), "family=xbr needs a square D"),
    # a d past trial division, refused at the top of factorize (P4 at m/2)
    *(("TRIAL_MAX_N", call, PAST_TRIAL) for call in (
        *(("chi", "--family", fam, "--D", str(TRIAL**2), *extra) for fam, extra in (
            ("x", ()), ("xbr", ("--r", "1")), ("w2", ()), ("w4", ("--mode", "main")),
            ("w6", ("--mode", "main")))),
        ("smm", "--locus", "h2", "--m", str(TRIAL)), ("smm", "--locus", "p3", "--m", str(TRIAL)),
        ("smm", "--locus", "p4", "--m", str(2 * TRIAL)),
        *(("cd", "--locus", locus, "--d", str(TRIAL)) for locus in ("h2", "p3", "p4")))),
    # a d past the e(d^2, 6) store, refused before d is factorised
    *(("E_SQUARE_MAX_D", call, PAST_STORE.format(250001)) for call in (
        (euler.precompute_e_square, 250001), (euler.chi_R, 250001**2, "main_term"),
        *(("chi", "--family", fam, "--D", str(250001**2), "--mode", "main") for fam in "rg"))),
    *(("E_SQUARE_MAX_D", call, PAST_STORE.format(P)) for call in (
        (counting.cd_count, Locus.G, P), (counting.smm, Locus.G, P),
        (euler.chi_G, P * P, 1, "main_term"), (euler.chi_G, P * P, 1, "remark"),
        ("cd", "--locus", "gothic", "--d", str(P)), ("smm", "--locus", "gothic", "--m", str(P)),
        *(("chi", "--family", "g", "--D", str(P * P), "--mode", mode)
          for mode in ("main", "remark")))),
    (None, (counting.sts_count, Fraction(1, 2)), "Teichmueller curves have chi <= 0"),
    (None, (counting.smm, Locus.H2, 0), "need m >= 1"),
    (None, (counting.cd_count, Locus.H2, 0), "need d >= 1"),
    *(("oracle-cap", (counting.h2_permutation_oracle, d), ORACLE) for d in (11, 0)),
    *(("oracle-cap", ("oracle-h2", "--d", d), ORACLE) for d in ("0", "11")),
    (None, (volume.sigma3_sum, -1), "need x >= 0"),
    (None, (volume.sk_sum, 0, 10), "need k, D >= 1"),
    (None, (volume.t_sum, -1), "need D >= 0"),
    *(("CLOSED_MAX_D", call, PAST_CLOSED) for call in (
        (volume.sigma3_sum, 10**12 + 1), (volume.sk_sum, 1, 10**12 + 1),
        (volume.t_sum, 10**12 + 1), ("sk", "--k", "1", "--D", str(10**12 + 1)),
        # refused before the smaller checkpoints run
        (volume.volume_estimate, Locus.H2, 10**12 + 1, "closed"))),
    (None, (volume.sk_asymptotic_constant, 0), "need k >= 1"),
    (None, (volume.convert_convention, Locus.H2), "the AEZ conversion applies to P3 and P4 only"),
    (None, (volume.smm_totals, Locus.H2, 0), "need mmax >= 1, got 0"),
    (None, (volume.direct_raw_sum, volume.SmmTotals((0,) * 11, 1), 11),
     "need 0 <= D < 11, the length of totals"),
    (None, (volume.volume_estimate, Locus.H2, 8), "need D >= 12"),
    (None, (volume.volume_estimate, Locus.H2, 100, "sideways"),
     "mode must be 'direct' or 'closed'"),
    *(("DIRECT_MAX_D", (volume.volume_estimate, locus, 250001, "direct"),
       PAST_DIRECT.format(250001)) for locus in Locus),
    ("DIRECT_MAX_D", ("volume", "--locus", "gothic", "--dmax", "1000000000", "--mode", "direct"),
     PAST_DIRECT.format(1000000000)),
    # exact is a mode, not a surrogate
    *((None, (volume.volume_estimate, Locus.H2, 100, "direct", mode),
       f"the h2 locus has no surrogate {mode!r}; pick one of 'main_term'")
      for mode in ("remark", "exact")),
    # the closed rows compute the leading sums only
    *((None, call, "the closed path has no remark term; use --mode direct") for call in (
        (volume.volume_estimate, Locus.G, 100, "closed", "remark"),
        ("volume", "--locus", "gothic", "--dmax", "2000", "--mode", "closed",
         "--surrogate", "remark"))),
    (None, (verify._check, verify.check_names()[0]),
     "duplicate check name '(sigma * a)(n) = sigma_3(n) for n <= 10^5'"),
    (None, (verify.check_names, "nope"), "unknown suite 'nope'" + SUITE_CHOICES),
    (None, ("verify", "--suite", "bogus"), "unknown suite 'bogus'" + SUITE_CHOICES),
]

# The functions that each reach keeps from running on an input past it.
# Trial division has none to guard: its probe is _NoDivision.
_GUARDED = {
    "SIEVE_BOUND": ((arith, "array"),),
    "CLOSED_MAX_D": ((volume, "isqrt"), (volume, "factorize")),
    "DIRECT_MAX_D": ((volume, "smm_totals"), (volume, "sigma_prefix")),
    "E_SQUARE_MAX_D": ((qforms, "e6_square_twelfths"), (qforms, "e1_square_twelfths"),
                       (zagier, "sl2_order_table"), (arith, "factorize")),
    "QEXP_MAX_N": ((qforms, "Fraction"), (qforms, "_kronecker_product"), (arith, "sigma_table")),
    "SQUARE_TABLE_MAX_M": ((qforms, "array"),),
    "E_MAX_D": ((arith, "factorize"), (prototypes, "factorize"), (prototypes, "_prototype_rows")),
    "PROTO_MAX_D": ((arith, "factorize"), (prototypes, "factorize"),
                    (prototypes, "_prototype_rows")),
    "EBAR_MAX_D": ((zagier, "ebar1_five_twelfths"), (zagier, "ebar6_sixtieths")),
    "oracle-cap": ((counting, "_partitions"), (counting, "factorial")),
    "kronecker-slot": ((qforms, "array"),),
}

# For each reach, calls below it that run every function it guards, once the
# e(d^2, 6) store is emptied; moebius_table keeps no cache, so it sieves.
_BELOW = {
    "SIEVE_BOUND": ((arith.moebius_table, 100),),
    "CLOSED_MAX_D": ((volume.sk_sum, 6, 100),),
    "DIRECT_MAX_D": ((volume.volume_estimate, Locus.H2, 12),),
    "E_SQUARE_MAX_D": ((euler.chi_G, 144, 1, "main_term"), (zagier.asymptotic_check_e, 30)),
    "QEXP_MAX_N": ((qforms.fk_expansion, 1, 5),),
    "SQUARE_TABLE_MAX_M": ((qforms.ek_square_table, 1, 5),),
    "E_MAX_D": ((prototypes.e_value, 17, 1),),
    "PROTO_MAX_D": ((prototypes.enumerate_prototypes, 17, 1),),
    "EBAR_MAX_D": ((zagier.ebar_rows, 3),),
    "oracle-cap": ((counting.h2_permutation_oracle, 3),),
    "kronecker-slot": ((qforms._kronecker_product, [1], [1], 1),),
}


class _Tripped(AssertionError):
    """A guarded function ran."""


def _trip(monkeypatch, guarded):
    """Replace each (module, name) of ``guarded`` by a tripwire."""
    for module, name in guarded:
        def tripwire(*args, name=name):
            raise _Tripped(f"{name} ran")

        monkeypatch.setattr(module, name, tripwire)


def _raised(call):
    """The ValueError that ``call`` raises; a command line is parsed and its
    handler called as cli.main does, without main's catch."""
    if isinstance(call[0], str):
        args = build_parser(call[0]).parse_args(call)
        fn, args = args.fn, (args,)
    else:
        fn, *args = call
    with pytest.raises(ValueError) as info:
        fn(*args)
    return info.value


def _row_id(row):
    """The call as it reads: a command line, or the function and its arguments."""
    reach, call, _ = row
    if isinstance(call[0], str):
        text = " ".join(("gothicvol", *call))
    else:
        args = (getattr(a, "__name__", None) or getattr(a, "name", None)
                or (f"[{', '.join(map(str, a))}]" if isinstance(a, list) else repr(a))
                for a in call[1:])
        text = f"{call[0].__name__}({', '.join(args)})"
    return f"{text} past {reach}" if reach else text


@pytest.mark.parametrize("reach, call, message", REFUSALS, ids=map(_row_id, REFUSALS))
def test_refusal(monkeypatch, capsys, reach, call, message):
    _trip(monkeypatch, _GUARDED.get(reach, ()))
    if isinstance(call[0], str):
        assert main(list(call)) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    else:
        assert str(_raised(call)) == message


@pytest.mark.parametrize("reach, module, name", [
    (reach, module, name) for reach, guarded in _GUARDED.items() for module, name in guarded
], ids=lambda value: getattr(value, "__name__", value))
def test_each_guard_is_live(monkeypatch, reach, module, name):
    monkeypatch.setattr(euler, "_E6_TWELFTHS", ())
    _trip(monkeypatch, [(module, name)])
    with pytest.raises(_Tripped):
        for fn, *args in _BELOW[reach]:
            fn(*args)


def test_every_reach_has_a_row():
    constants = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                constants.update(target.id for target in node.targets
                                 if re.fullmatch(r"\w+(_MAX_\w+|_BOUND)", target.id))
    reaches = {reach for reach, _, _ in REFUSALS if reach}
    assert constants and sorted(constants - reaches) == []
    # trial division has its own probe, every other reach guards what it keeps from running
    assert set(_GUARDED) == set(_BELOW) == reaches - {"TRIAL_MAX_N"}


def _raise_sites():
    """(path, first line, last line) of every `raise ValueError(...)` in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "ValueError"):
                yield path, node.lineno, node.end_lineno


def test_every_raise_site_has_a_row():
    raised = set()
    for reach, call, _ in REFUSALS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            _trip(monkeypatch, _GUARDED.get(reach, ()))
            tb = _raised(call).__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        raised.add((Path(tb.tb_frame.f_code.co_filename).resolve(), tb.tb_lineno))
    sites = list(_raise_sites())
    assert sites
    assert [(path.name, first) for path, first, last in sites
            if not any((path, line) in raised for line in range(first, last + 1))] == []


def test_each_reach_itself_is_accepted(monkeypatch):
    assert math.prod(p**e for p, e in arith.factorize(arith.TRIAL_MAX_N)) == arith.TRIAL_MAX_N
    assert volume.sk_sum(10**12, 10**12) == arith.sl2_order(10**12)  # S_k(k) = a(k) sigma(1)
    # the checks' F_k product runs at N = 4000, the benchmark's gothic direct at 40000
    assert 4000 <= qforms.QEXP_MAX_N
    assert 40000 <= volume.DIRECT_MAX_D
    assert volume.CLOSED_MAX_D == 10**12
    # the e(d^2, 6) store grows to its reach and stops there
    asked = []
    monkeypatch.setattr(euler, "_E6_TWELFTHS", (0,) * 200001)
    monkeypatch.setattr(qforms, "e6_square_twelfths",
                        lambda dmax: asked.append(dmax) or (0,) * (dmax + 1))
    bound = euler.E_SQUARE_MAX_D
    assert euler.precompute_e_square(bound)[bound] == 0
    assert asked == [bound]
    # under a sieve bound of 50 a table stops at N = 49, and larger N is
    # refused before its sieve is allocated
    def step(p, prev):
        return p * prev + 1

    monkeypatch.setattr(arith, "SIEVE_BOUND", 50)
    sigmas = [0] + [arith.sigma(1, n) for n in range(1, 50)]
    assert list(arith._multiplicative_table(49, step)) == sigmas
    _trip(monkeypatch, _GUARDED["SIEVE_BOUND"])
    for N in (50, 51, 10**12):
        message = f"a table up to N = {N} is beyond the sieve bound 50"
        assert str(_raised((arith._multiplicative_table, N, step))) == message
