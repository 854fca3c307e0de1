"""Command line front end.

Every subcommand writes a single JSON document to standard output (or to
``--out FILE``): {"command", "inputs", "result", "elapsed_ms"}, where
"inputs" echoes the subcommand's own arguments as declared in _SUBCOMMANDS,
in that order.  Exact rationals are emitted as "p/q" strings (never as
decimals unless ``--float`` is passed), pi-multiples as {"coeff": "p/q",
"pi_power": n}.  A handler returns its result and, for series-shaped results
(q-expansion tables, zagier scans, volume checkpoints), CSV rows that
``_emit`` reads only under ``--csv``.

Exit codes: 0 success, 2 input validation failure (an unwritable ``--out``
included), 1 a ``verify`` run that reports a failed check (it still prints
its document).

Each handler imports the modules it runs, and ``main`` builds the parser of
the requested subcommand alone, so a request loads and sets up only what its
subcommand needs: ``sk`` and ``volume --mode closed`` load arith and volume
alone, and only ``verify`` loads the invariant suite, which loads the check
module of each suite it runs and the library modules those checks call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import FAMILY_MODES, MODES, Locus, arith
from .arith import PiQuantity


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _encode(value, as_float: bool):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return float(value) if as_float else _frac_str(value)
    if isinstance(value, PiQuantity):
        if as_float:
            return value.to_float()
        return {"coeff": _frac_str(value.coeff), "pi_power": value.pi_power}
    if isinstance(value, (float, int)):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode(v, as_float) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v, as_float) for k, v in value.items()}
    return str(value)


def _emit(args, command: str, inputs: dict, result, started: float, csv_rows):
    out = sys.stdout
    close = False
    if args.out:
        out = open(args.out, "w")
        close = True
    try:
        if args.csv and csv_rows is not None:
            header, rows = csv_rows
            print(",".join(header), file=out)
            for row in rows:
                print(",".join(str(_encode(v, args.float)) for v in row), file=out)
        else:
            record = {
                "command": command,
                "inputs": _encode(inputs, False),
                "result": _encode(result, args.float),
                "elapsed_ms": int((time.perf_counter() - started) * 1000),
            }
            json.dump(record, out, indent=2)
            out.write("\n")
    finally:
        if close:
            out.close()


# ---------------------------------------------------------------------------
# subcommand handlers: return (result, csv_rows or None), csv_rows being
# (header, iterable of rows); main echoes the declared arguments as inputs
# ---------------------------------------------------------------------------

def _cmd_proto(args):
    from . import prototypes

    protos = prototypes.enumerate_prototypes(args.D, args.k)
    result = {
        "count": len(protos),
        "a_sum": Fraction(sum(a for a, _, _ in protos)),  # e(D, k), printed as "p/q"
        "prototypes": protos,
    }
    return result, (("a", "b", "c"), protos)


def _cmd_e(args):
    from . import prototypes

    return prototypes.e_value(args.D, args.k), None


def _cmd_qexp(args):
    from . import qforms

    N = args.N
    if args.series == "theta":
        if args.k < 1 <= N:  # as g2 refuses k: after N < 1, before N past its reach
            raise ValueError("need k >= 1")
        coeffs = qforms.theta_expansion(N)
    elif args.series == "g2":
        coeffs = qforms.g2k_expansion(args.k, N)
    else:  # fk and ek name one series: F_k = sum_n e_k(n) q^n
        coeffs = qforms.fk_expansion(args.k, N)
    return {"coefficients": coeffs}, (("n", "coeff"), enumerate(coeffs))


def _cmd_zagier(args):
    from . import zagier

    if args.what == "asymptotic":
        rep = zagier.asymptotic_check_e(args.dmax)
        # the fields after d_max and the two delta lists
        result = dict(zip(rep._fields[3:], rep[3:]))
        rows = zip(range(1, args.dmax + 1), rep.delta1[1:], rep.delta6[1:])
        return result, (("d", "delta1", "delta6"), rows)
    rows = zagier.ebar_rows(args.dmax)
    result = {"rows": [{"d": d, "ebar1": a, "ebar6": b} for d, a, b in rows]}
    return result, (("d", "ebar1", "ebar6"), rows)


def _cmd_ideals(args):
    from . import ideals

    d, n = args.d, args.n
    class_count = ideals.class_count(d, n)  # refuses a bad d or n first
    comps = []
    for r in arith.divisors(n):
        if any(ideals.ideal_equal(d, n, r, c["r"]) for c in comps):
            continue  # one component per ideal class, named by its least r
        spec = ideals.ideal_basis(d, n, r)
        M = ideals.gram_matrix(d, n, r)
        comps.append(
            {
                "r": r,
                "basis": [[g.a1, g.a2] for g in spec.basis],
                "symplectic_type": list(ideals.symplectic_divisors(M)),
                "polarization": list(ideals.polarization_restriction(d, n, r)),
            }
        )
    result = {"d": d, "n": n, "class_count": class_count, "components": comps}
    return result, None


def _cmd_chi(args):
    from . import euler

    D, mode, fam = args.D, MODES[args.mode], args.family
    if fam == "w4":  # each chi_* that takes a mode checks it
        value = euler.chi_W4(D, args.j, mode)
    elif fam == "w6":
        value = euler.chi_W6(D, mode)
    elif fam == "r":
        value = euler.chi_R(D, mode, args.r)
    elif fam == "g":
        value = euler.chi_G(D, args.r, mode)
    elif fam == "xbr":  # takes no mode, and d, the square root of D
        d = euler.check_mode(fam, D, mode)
        if d is None:
            raise ValueError("family=xbr needs a square D")
        value = euler.chi_X_br(d, args.r)
    else:  # x and w2 offer exact alone, which chi_X and chi_W2 check
        if mode != "exact":
            euler.check_mode(fam, D, mode)  # refuses it, with D's own message
        value = euler.chi_X(D) if fam == "x" else euler.chi_W2(D)
    result = {"family": fam, "D": D, "mode": mode, "value": value,
              "empty": euler.is_empty(fam, D)}
    return result, None


def _cmd_smm(args):
    from . import counting

    cover = counting.smm(Locus(args.locus), args.m, args.surrogate)
    result = {
        "m": cover.m,
        "total": cover.total,
        "contributions": [
            {"family": fam, "D": D, "component": comp, "count": cnt}
            for fam, D, comp, cnt in cover.contributions
        ],
    }
    return result, None


def _cmd_cd(args):
    from . import counting

    return counting.cd_count(Locus(args.locus), args.d, args.surrogate), None


def _cmd_oracle_h2(args):
    from . import counting

    return counting.h2_permutation_oracle(args.d), None


def _cmd_sk(args):
    from . import volume

    return volume.sk_sum(args.k, args.D), None


def _cmd_volume(args):
    from . import volume

    est = volume.volume_estimate(Locus(args.locus), args.dmax, args.mode, args.surrogate)
    result = {
        "locus": args.locus,
        "dmax": est.D,
        "mode": est.mode,
        "surrogate": est.surrogate,
        "exact_target": est.exact_target,
        "target_float": est.exact_target.to_float(),
        "value": est.value,
        "relative_error": est.relative_error,
        "extrapolated": est.extrapolated,
        "extrapolated_relative_error": est.extrapolated_relative_error,
        "checkpoints": [{"D": Dc, "value": v} for Dc, v in est.series],
    }
    return result, (("D", "value"), est.series)


def _cmd_verify(args):
    from . import verify

    results = verify.run_suite(args.suite)
    result = {
        "suite": args.suite,
        "passed": sum(r.ok for r in results),
        "failed": sum(not r.ok for r in results),
        "checks": [{**r._asdict(), "elapsed_s": round(r.elapsed_s, 3)} for r in results],
    }
    return result, None


_INT = {"type": int, "required": True}
_LOCUS = ("--locus", {"choices": tuple(locus.value for locus in Locus), "required": True})
_SURROGATE = ("--surrogate", {"choices": ("main", "leading", "remark"), "default": "main"})

# subcommand -> (help, handler, its own arguments as (flag, add_argument keywords))
_SUBCOMMANDS = {
    "proto": ("enumerate the prototype set P_k(D)", _cmd_proto,
              (("--D", _INT), ("--k", _INT))),
    "e": ("the weighted count e(D, k)", _cmd_e, (("--D", _INT), ("--k", _INT))),
    "qexp": ("q-expansion coefficients (exact rationals)", _cmd_qexp,
             (("--series", {"choices": ("theta", "g2", "fk", "ek"), "required": True}),
              ("--k", {"type": int, "default": 1}),
              ("--N", _INT))),
    "zagier": ("ebar_1 / ebar_6 values and asymptotic reports", _cmd_zagier,
               (("--what", {"choices": ("ebar", "asymptotic"), "default": "ebar"}),
                ("--dmax", _INT))),
    "ideals": ("ideal bases, class counts, polarizations", _cmd_ideals,
               (("--d", _INT), ("--n", {"type": int, "default": 6}))),
    "chi": ("Euler characteristics chi(...)", _cmd_chi,
            (("--family", {"choices": tuple(FAMILY_MODES), "required": True}),
             ("--D", _INT),
             ("--r", {"type": int, "default": 1}),
             ("--j", {"type": int, "default": 1}),
             ("--mode", {"choices": tuple(MODES), "default": "exact"}))),
    "smm": ("|S_{m,m}| split by contributing curve", _cmd_smm,
            (_LOCUS, ("--m", _INT), _SURROGATE)),
    "cd": ("|C_d|: all torus covers of degree d", _cmd_cd,
           (_LOCUS, ("--d", _INT), _SURROGATE)),
    "oracle-h2": ("permutation-pair count for H(2)", _cmd_oracle_h2, (("--d", _INT),)),
    "sk": ("the divisor-convolution sum S_k(D)", _cmd_sk, (("--k", _INT), ("--D", _INT))),
    "volume": ("Masur-Veech volume estimate", _cmd_volume,
               (_LOCUS, ("--dmax", _INT),
                ("--mode", {"choices": ("direct", "closed"), "default": "direct"}),
                _SURROGATE)),
    # no choices for --suite: run_suite refuses an unknown suite and lists
    # them all, and naming them here would load verify for every request
    "verify": ("run the cross-oracle invariant suite", _cmd_verify,
               (("--suite", {"default": "all",
                             "help": "one suite, or all (the default); an unknown name "
                                     "exits 2 with the list"}),)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line parser: with every subcommand, or, given the name of
    one, with that subcommand alone, which parses its arguments alike and
    shows the same usage and help."""
    ap = argparse.ArgumentParser(
        prog="gothicvol",
        description="Euler characteristics of arithmetic Teichmueller curves "
        "and lattice-point estimates of Masur-Veech volumes "
        "(exact arithmetic throughout).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE",
                        help="write the output there instead of stdout")
    common.add_argument("--csv", action="store_true", help="emit series results as CSV")
    common.add_argument("--float", action="store_true",
                        help="render exact values as decimals")
    # a lone subcommand is still listed with all of them in the usage line
    every = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=every)
    for name, (help_text, fn, arguments) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, parents=[common], help=help_text)
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # build the requested subcommand's parser alone; --help, nothing or an
    # unknown name gets them all
    ap = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    try:
        result, csv_rows = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = {flag[2:]: getattr(args, flag[2:]) for flag, _ in _SUBCOMMANDS[args.command][2]}
    try:
        _emit(args, args.command, inputs, result, started, csv_rows)
    except OSError as exc:  # an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a verify run that found a violation still prints its report
    return 1 if args.command == "verify" and result["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
