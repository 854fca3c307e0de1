"""The command line front end: JSON contract, CSV emission, exit codes."""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gothicvol import cli, prototypes, volume, zagier
from gothicvol.cli import _SUBCOMMANDS, _encode, build_parser, main
from gothicvol.prototypes import e_value

# The benchmark's recorded requests and their JSON results, read only.
ANSWERS = Path(__file__).resolve().parents[1] / "perfbench" / "answers.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_e_subcommand(capsys):
    code, out = run_cli(capsys, "e", "--D", "5", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "e"
    assert doc["inputs"] == {"D": 5, "k": 1}
    assert doc["result"] == "2"
    assert isinstance(doc["elapsed_ms"], int)


def test_inputs_echo_the_declared_arguments_in_order(capsys):
    # one cheap request per subcommand
    samples = {
        "proto": ("--D", "17", "--k", "1"),
        "e": ("--D", "17", "--k", "1"),
        "qexp": ("--series", "fk", "--N", "20"),
        "zagier": ("--dmax", "3"),
        "ideals": ("--d", "5"),
        "chi": ("--family", "x", "--D", "5"),
        "smm": ("--locus", "h2", "--m", "6"),
        "cd": ("--locus", "h2", "--d", "6"),
        "oracle-h2": ("--d", "3"),
        "sk": ("--k", "1", "--D", "100"),
        "volume": ("--locus", "h2", "--dmax", "100", "--mode", "closed"),
        "verify": ("--suite", "ideals"),
    }
    assert list(samples) == list(_SUBCOMMANDS)
    for name, argv in samples.items():
        code, out = run_cli(capsys, name, *argv)
        assert code == 0, name
        declared = [flag[2:] for flag, _ in _SUBCOMMANDS[name][2]]
        assert list(json.loads(out)["inputs"]) == declared, name


def test_recorded_answers_replay_unchanged(capsys):
    # each key is a request's argv joined by spaces, each value its "result"
    answers = json.loads(ANSWERS.read_text())
    assert answers
    for request, want in answers.items():
        code, out = run_cli(capsys, *request.split(" "))
        assert code == 0, request
        assert json.loads(out)["result"] == want, request


def test_proto_csv(capsys):
    code, out = run_cli(capsys, "proto", "--D", "5", "--k", "1", "--csv")
    assert code == 0
    assert out.splitlines() == ["a,b,c", "1,-1,-1", "1,1,-1"]


def test_proto_a_sum_is_e_value(capsys):
    # a_sum sums the printed prototypes' a, as a Fraction: a "p/q" string
    for D in (5, 17, 60, 105, 1001):
        for k in (1, 6):
            code, out = run_cli(capsys, "proto", "--D", str(D), "--k", str(k))
            assert code == 0
            assert json.loads(out)["result"]["a_sum"] == str(e_value(D, k)), (D, k)


def test_exact_values_never_decimal_without_flag(capsys):
    code, out = run_cli(capsys, "e", "--D", "1", "--k", "6")
    assert code == 0
    assert json.loads(out)["result"] == "-1/12"
    code, out = run_cli(capsys, "e", "--D", "1", "--k", "6", "--float")
    assert json.loads(out)["result"] == pytest.approx(-1 / 12)
    # --float turns a pi-multiple into one JSON number too
    code, out = run_cli(capsys, "volume", "--locus", "h2", "--dmax", "100", "--float")
    assert code == 0
    result = json.loads(out)["result"]
    assert isinstance(result["exact_target"], float)
    assert result["exact_target"] == result["target_float"]
    assert result["exact_target"] == pytest.approx(math.pi**4 / 960, rel=1e-15)


def test_volume_json_contract(capsys):
    code, out = run_cli(
        capsys, "volume", "--locus", "gothic", "--dmax", "120", "--mode", "closed"
    )
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["exact_target"] == {"coeff": "13/31104", "pi_power": 4}
    assert {"value", "relative_error", "extrapolated", "checkpoints"} <= set(result)
    assert [c["D"] for c in result["checkpoints"]] == [15, 30, 60, 120]


def test_volume_checkpoint_csv(capsys):
    code, out = run_cli(
        capsys, "volume", "--locus", "h2", "--dmax", "64", "--csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D,value"
    assert len(lines) == 5


def test_chi_subcommand(capsys):
    code, out = run_cli(capsys, "chi", "--family", "g", "--D", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["empty"] is True
    code, out = run_cli(
        capsys, "chi", "--family", "g", "--D", "25", "--r", "1", "--mode", "leading"
    )
    assert json.loads(out)["result"]["value"] == "-13/6"


def test_empty_curves_check_mode_and_component(capsys):
    # W_13(4) and G_5 are empty; the mode and the component are still checked
    for argv, err in (
        (["--family", "w4", "--D", "13", "--mode", "main"], "use mode='exact'"),
        (["--family", "w4", "--D", "13", "--j", "5"], "component j must be 1 or 2"),
        (["--family", "g", "--D", "5", "--r", "9"], "component index 9 out of range"),
    ):
        assert main(["chi", *argv]) == 2, argv
        assert err in capsys.readouterr().err, argv
    for family, D in (("w4", "13"), ("g", "5")):
        code, out = run_cli(capsys, "chi", "--family", family, "--D", D)
        result = json.loads(out)["result"]
        assert code == 0 and result["empty"] is True and result["value"] == "0"


# Requests whose mode or surrogate the locus or family does not offer, and
# the modes each error line must name
REFUSED_MODES = (
    (("volume", "--locus", "p3", "--dmax", "100", "--surrogate", "leading"), ("main_term",)),
    (("volume", "--locus", "h2", "--dmax", "100", "--mode", "closed",
      "--surrogate", "leading"), ("main_term",)),
    (("smm", "--locus", "h2", "--m", "5", "--surrogate", "remark"), ("main_term",)),
    (("cd", "--locus", "p4", "--d", "12", "--surrogate", "leading"), ("main_term",)),
    (("chi", "--family", "x", "--D", "36", "--mode", "leading"), ("exact",)),
    (("chi", "--family", "w2", "--D", "36", "--mode", "remark"), ("exact",)),
    (("chi", "--family", "x", "--D", "37", "--mode", "main"), ("exact",)),
)


def test_a_mode_the_locus_or_family_does_not_offer_exits_2(capsys):
    for argv, offered in REFUSED_MODES:
        assert main(list(argv)) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        for mode in offered:
            assert repr(mode) in err, (argv, err)
    # xbr reads d from its square D; there is no --d
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--family", "xbr", "--D", "36", "--d", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d 6" in capsys.readouterr().err


def test_ideals_subcommand(capsys):
    code, out = run_cli(capsys, "ideals", "--d", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["class_count"] == 4
    comp1 = doc["result"]["components"][0]
    assert comp1["r"] == 1
    assert comp1["symplectic_type"] == [1, 6]
    assert comp1["polarization"] == [5, 30]


def test_qexp_subcommand(capsys):
    code, out = run_cli(capsys, "qexp", "--series", "g2", "--k", "1", "--N", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["coefficients"][0] == "-1/24"
    assert doc["result"]["coefficients"][4] == "1"
    code, out = run_cli(capsys, "qexp", "--series", "g2", "--k", "1", "--N", "8", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,coeff"
    assert lines[1:] == [f"{n},{c}" for n, c in enumerate(doc["result"]["coefficients"])]


def test_zagier_csv(capsys):
    code, out = run_cli(capsys, "zagier", "--dmax", "3", "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d,ebar1,ebar6"
    assert lines[1].startswith("1,5/12,1/30")


def test_sk_and_cd(capsys):
    code, out = run_cli(capsys, "sk", "--k", "1", "--D", "3")
    assert json.loads(out)["result"] == 38
    code, out = run_cli(capsys, "cd", "--locus", "h2", "--d", "6")
    assert json.loads(out)["result"] == "45"


def test_oracle_subcommand(capsys):
    code, out = run_cli(capsys, "oracle-h2", "--d", "3")
    assert code == 0
    assert json.loads(out)["result"] == "3"


def test_smm_contributions(capsys):
    code, out = run_cli(capsys, "smm", "--locus", "p3", "--m", "6")
    doc = json.loads(out)
    comps = [(c["D"], c["component"]) for c in doc["result"]["contributions"]]
    assert comps == [(36, 1), (9, 2)]


def test_zagier_asymptotic_report(capsys):
    code, out = run_cli(capsys, "zagier", "--what", "asymptotic", "--dmax", "32")
    assert code == 0
    rep = zagier.asymptotic_check_e(32)
    # the report's scalar fields, in the record's order
    assert list(json.loads(out)["result"].items()) == [
        (name, getattr(rep, name)) for name in (
            "delta1_upper_max", "delta1_lower_max", "delta1_ratio",
            "delta6_upper_max", "delta6_lower_max", "delta6_ratio")]
    code, out = run_cli(capsys, "zagier", "--what", "asymptotic", "--dmax", "32", "--csv")
    assert code == 0
    assert out.splitlines() == ["d,delta1,delta6"] + [
        f"{d},{rep.delta1[d]},{rep.delta6[d]}" for d in range(1, 33)]


def test_encoding_fractions_rebuilds_none(monkeypatch):
    # each printed rational is read off the Fraction it is, for "p/q" and --float
    values = [Fraction(n, 7) for n in range(50)]
    real = Fraction.__new__
    built = []

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    as_text, as_float = _encode(values, False), _encode(values, True)
    monkeypatch.undo()
    assert built == []
    assert as_text == [str(v) for v in values]
    assert as_float == [float(v) for v in values]


def test_a_json_document_builds_no_csv_rows(monkeypatch):
    # the CSV rows of a series request are a lazy iterator or the record's own
    # list, which _emit reads only under --csv
    emitted, estimates = [], []
    real_estimate = volume.volume_estimate

    def recorded_estimate(*args):
        estimates.append(real_estimate(*args))
        return estimates[-1]

    monkeypatch.setattr(cli, "_emit", lambda *args: emitted.append(args[-1]))  # csv_rows
    monkeypatch.setattr(volume, "volume_estimate", recorded_estimate)
    for argv in (("qexp", "--series", "theta", "--N", "50"),
                 ("zagier", "--what", "asymptotic", "--dmax", "32")):
        assert main(list(argv)) == 0
        _, rows = emitted.pop()
        assert iter(rows) is rows, argv
    assert main(["volume", "--locus", "h2", "--dmax", "64"]) == 0
    _, rows = emitted.pop()
    assert rows is estimates.pop().series


# Runs one argv through cli.main and reports its exit code, the gothicvol
# modules loaded by then, and the watched modules that appeared after a
# snapshot taken just before gothicvol is imported (site can load inspect at
# interpreter start-up).  Besides numpy, it watches dataclasses and the inspect
# module that dataclasses loads: at about 10 ms they were the largest import
# of a request's start-up.
_MODULES_LOADED = """
import contextlib, io, json, sys

before = set(sys.modules)
from gothicvol.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("gothicvol")),
                  sorted({"numpy", "dataclasses", "inspect"} & (sys.modules.keys() - before))]))
"""


def test_each_request_loads_only_what_its_subcommand_runs(run_python):
    closed = {"gothicvol", "gothicvol.arith", "gothicvol.cli", "gothicvol.volume"}
    sk = ("sk", "--k", "6", "--D", "300000")
    gothic_closed = ("volume", "--locus", "gothic", "--dmax", "100000", "--mode", "closed")
    e = ("e", "--D", "17", "--k", "1")
    oracle = ("oracle-h2", "--d", "5")
    suite = {name: ("verify", "--suite", name)
             for name in ("ideals", "zagier", "euler", "counting")}
    gothic_leading = ("volume", "--locus", "gothic", "--dmax", "200", "--mode", "direct",
                      "--surrogate", "leading")
    others = [
        ("proto", "--D", "17", "--k", "1"),
        ("qexp", "--series", "fk", "--k", "1", "--N", "20"),
        ("zagier", "--dmax", "3"),
        ("ideals", "--d", "5"),
        ("chi", "--family", "g", "--D", "97"),
        ("chi", "--family", "x", "--D", "144"),
        ("smm", "--locus", "gothic", "--m", "6"),
        ("smm", "--locus", "h2", "--m", "6"),
        ("cd", "--locus", "h2", "--d", "6"),
        ("volume", "--locus", "gothic", "--dmax", "200", "--mode", "direct"),
        gothic_leading,
        ("chi", "--family", "r", "--D", "3600", "--mode", "main"),
        ("qexp", "--series", "ek", "--k", "6", "--N", "200"),
        ("volume", "--locus", "h2", "--dmax", "20", "--mode", "direct"),
        ("zagier", "--what", "asymptotic", "--dmax", "100"),
    ]
    requests = (sk, gothic_closed, e, oracle, *others)
    loaded = {}
    for argv in (*requests, *suite.values()):
        proc = run_python("-c", _MODULES_LOADED, json.dumps(argv), timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, modules, watched = json.loads(proc.stdout)
        assert (code, watched) == (0, []), argv
        loaded[argv] = set(modules)
    assert loaded[sk] == closed
    assert loaded[gothic_closed] == closed
    unused = {f"gothicvol.{m}" for m in ("euler", "counting", "volume", "verify", "zagier")}
    assert not loaded[e] & unused, loaded[e]
    assert loaded[oracle] == {"gothicvol", "gothicvol.arith", "gothicvol.cli",
                              "gothicvol.counting"}
    for argv in requests:
        assert "gothicvol.verify" not in loaded[argv], argv
    # only square discriminants read the e(d^2, k) table and name components
    square_only = {"gothicvol.qforms", "gothicvol.ideals"}
    for argv in (("chi", "--family", "g", "--D", "97"), ("chi", "--family", "x", "--D", "144"),
                 ("smm", "--locus", "h2", "--m", "6")):
        assert not loaded[argv] & square_only, (argv, loaded[argv])
    # the component rule is euler's own, so only the ideals requests and the
    # euler suite's cross-check load ideals
    gothic_smm = loaded[("smm", "--locus", "gothic", "--m", "6")]
    assert "gothicvol.qforms" in gothic_smm and "gothicvol.ideals" not in gothic_smm
    assert "gothicvol.ideals" not in loaded[suite["counting"]]
    # the leading surrogate reads no e(d^2, 6) table
    assert "gothicvol.qforms" not in loaded[gothic_leading]
    # only the asymptotic report reads qforms' e(d^2, k) routes
    for argv in (("zagier", "--dmax", "3"), suite["zagier"]):
        assert not loaded[argv] & {"gothicvol.qforms", "gothicvol.prototypes"}, argv
    # a suite loads its own check module and the modules its checks call
    runner = {"gothicvol", "gothicvol.arith", "gothicvol.cli", "gothicvol.verify",
              "gothicvol.checks"}
    assert loaded[suite["ideals"]] == runner | {"gothicvol.checks.ideals", "gothicvol.ideals"}
    assert loaded[suite["zagier"]] == runner | {"gothicvol.checks.zagier", "gothicvol.zagier"}
    assert not loaded[suite["euler"]] & {"gothicvol.counting", "gothicvol.volume",
                                         "gothicvol.zagier"}


def test_unknown_suite_exits_2_and_lists_every_suite(run_python):
    from gothicvol.verify import SUITES

    proc = run_python("-m", "gothicvol", "verify", "--suite", "bogus", timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "bogus" in proc.stderr
    for suite in SUITES:
        assert repr(suite) in proc.stderr, suite


SUBCOMMANDS = ("proto", "e", "qexp", "zagier", "ideals", "chi", "smm", "cd",
               "oracle-h2", "sk", "volume", "verify")


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0, argv
    return capsys.readouterr().out


def test_every_subcommand_has_help(capsys):
    top = help_text(capsys)
    assert "{" + ",".join(SUBCOMMANDS) + "}" in top
    for command in SUBCOMMANDS:
        assert help_text(capsys, command).startswith(f"usage: gothicvol {command} ")


def test_a_lone_subcommand_parser_keeps_the_full_usage_line(capsys):
    # main builds the parser of the requested subcommand alone; its errors
    # still show every subcommand, as the full parser's do
    with pytest.raises(SystemExit) as exc:
        main(["e", "--D", "5", "--k", "1", "extra"])
    assert exc.value.code == 2
    usage = build_parser().format_usage()
    assert "{" + ",".join(SUBCOMMANDS) + "}" in usage
    assert capsys.readouterr().err == usage + "gothicvol: error: unrecognized arguments: extra\n"


def test_help_choices_of_locus_mode_and_surrogate(capsys):
    loci = "--locus {h2,p3,p4,gothic}"
    surrogates = "--surrogate {main,leading,remark}"
    for command in ("volume", "smm", "cd"):
        text = help_text(capsys, command)
        assert loci in text and surrogates in text, command
    assert "--mode {direct,closed}" in help_text(capsys, "volume")
    assert "--mode {exact,main,main_term,leading,remark}" in help_text(capsys, "chi")


# Python 3.13's argparse keeps an option and its metavar on one usage line,
# where 3.11 and 3.12 break between them; each layout is pinned whole.
if sys.version_info >= (3, 13):
    LOCUS_USAGE = {
        "smm": """usage: gothicvol smm [-h] [--out FILE] [--csv] [--float]
                     --locus {h2,p3,p4,gothic} --m M
                     [--surrogate {main,leading,remark}]
""",
        "cd": """usage: gothicvol cd [-h] [--out FILE] [--csv] [--float]
                    --locus {h2,p3,p4,gothic} --d D
                    [--surrogate {main,leading,remark}]
""",
        "volume": """usage: gothicvol volume [-h] [--out FILE] [--csv] [--float]
                        --locus {h2,p3,p4,gothic} --dmax DMAX
                        [--mode {direct,closed}]
                        [--surrogate {main,leading,remark}]
""",
    }
else:
    LOCUS_USAGE = {
        "smm": """usage: gothicvol smm [-h] [--out FILE] [--csv] [--float] --locus
                     {h2,p3,p4,gothic} --m M
                     [--surrogate {main,leading,remark}]
""",
        "cd": """usage: gothicvol cd [-h] [--out FILE] [--csv] [--float] --locus
                    {h2,p3,p4,gothic} --d D
                    [--surrogate {main,leading,remark}]
""",
        "volume": """usage: gothicvol volume [-h] [--out FILE] [--csv] [--float] --locus
                        {h2,p3,p4,gothic} --dmax DMAX [--mode {direct,closed}]
                        [--surrogate {main,leading,remark}]
""",
    }


def test_locus_commands_keep_their_usage_text(capsys, monkeypatch):
    # the --locus choices come from the Locus enum, in its order; the usage
    # blocks are pinned at an 80-column terminal
    monkeypatch.setenv("COLUMNS", "80")
    for command, usage in LOCUS_USAGE.items():
        text = help_text(capsys, command)
        assert text.startswith(usage + "\n"), command
        assert "\n  --locus {h2,p3,p4,gothic}\n" in text, command


def test_sk_beyond_the_table_range(capsys):
    # 3 * 10^9 is past every int64 table; the closed path answers exactly
    D = 3 * 10**9
    code, out = run_cli(capsys, "sk", "--k", "1", "--D", str(D))
    assert code == 0
    value = json.loads(out)["result"]
    assert isinstance(value, int)
    c = math.pi**4 / 360  # S_1(D) / D^4 -> pi^4 / 360
    assert abs(value / (c * D**4) - 1) <= 8.0 / D


def test_only_a_value_error_is_an_input_error(monkeypatch):
    # any other exception is a bug, and main lets it through
    def broken(D, k):
        raise KeyError("x")

    monkeypatch.setattr(prototypes, "e_value", broken)
    with pytest.raises(KeyError):
        main(["e", "--D", "5", "--k", "1"])


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "ideals"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["result"]["failed"] == 0
    assert doc["result"]["passed"] >= 5


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code = main(["e", "--D", "5", "--k", "1", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["result"] == "2"


def test_unwritable_out_file_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code = main(["sk", "--k", "1", "--D", "100", "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(target) in err[0]
    assert not target.parent.exists()
