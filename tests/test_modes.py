"""The mode tables at the package root: the modes of each ``chi`` family
(``gothicvol.FAMILY_MODES``) and the surrogates of each locus
(``gothicvol.SURROGATES``), which reads P3, P4 and gothic from the first.

Every entry point that reads a table runs each mode the table accepts and
refuses every other mode with a ValueError naming the accepted ones.
"""

import pytest

import gothicvol
from gothicvol import SURROGATES, Locus, counting, euler, volume
from gothicvol.cli import main

MODES = ("exact", "main_term", "leading", "remark")
SQUARE_D, NON_SQUARE_D = 36, 12

# the library functions that take a mode, by family; x, xbr and w2 take none,
# and only the chi subcommand checks their mode
FAMILY_CHI = {
    "w4": lambda D, mode: euler.chi_W4(D, 1, mode),
    "w6": euler.chi_W6,
    "r": euler.chi_R,
    "g": lambda D, mode: euler.chi_G(D, 1, mode),
}


def _locus_calls(locus, mode):
    return [
        lambda: counting.smm(locus, 6, mode),
        lambda: counting.cd_count(locus, 6, mode),
        lambda: volume.smm_totals(locus, 12, mode),
        lambda: volume.volume_estimate(locus, 12, "direct", mode),
    ]


def _family_calls(capsys, family, D, mode):
    def cli():
        code = main(["chi", "--family", family, "--D", str(D), "--mode", mode])
        err = capsys.readouterr().err
        if code == 2:
            raise ValueError(err)
        assert code == 0, err

    calls = [lambda: euler.check_mode(family, D, mode), cli]
    if family in FAMILY_CHI:
        calls.append(lambda: FAMILY_CHI[family](D, mode))
    return calls


CASES = [(locus, None) for locus in Locus] + [
    (family, D) for family in euler.FAMILY_MODES for D in (SQUARE_D, NON_SQUARE_D)
]


@pytest.mark.parametrize("entry, D", CASES, ids=[f"{e}-{D}" for e, D in CASES])
def test_each_table_entry_runs_its_modes_and_refuses_the_rest(capsys, entry, D):
    if D is None:
        offered = SURROGATES[entry]
    else:
        offered = euler.FAMILY_MODES[entry] if euler._is_square(D) else ("exact",)
    for mode in MODES:
        if D is None:
            calls = _locus_calls(entry, mode)
        else:
            calls = _family_calls(capsys, entry, D, mode)
        for call in calls:
            if mode in offered:
                if entry == "xbr" and D == NON_SQUARE_D and call is calls[1]:
                    # the mode is accepted, the family needs a square D
                    with pytest.raises(ValueError, match="family=xbr needs a square D"):
                        call()
                    continue
                call()
            else:
                with pytest.raises(ValueError) as exc:
                    call()
                for name in offered:
                    assert repr(name) in str(exc.value), (entry, D, mode)


def test_the_tables_name_every_locus_and_family():
    assert set(SURROGATES) == set(Locus)
    assert set(euler.FAMILY_MODES) == {"x", "xbr", "w2", "w4", "w6", "r", "g"}
    for offered in (*SURROGATES.values(), *euler.FAMILY_MODES.values()):
        assert offered and set(offered) <= set(MODES)


def test_one_family_table_that_the_loci_and_euler_read():
    assert euler.FAMILY_MODES is gothicvol.FAMILY_MODES
    for locus, family in ((Locus.P3, "w4"), (Locus.P4, "w6"), (Locus.G, "g")):
        assert SURROGATES[locus] is gothicvol.FAMILY_MODES[family]


# check_mode runs once per request: in the chi_* the handler calls, and for
# xbr, whose chi_X_br takes d, in the handler; the handler checks x and w2
# itself only to refuse a mode other than exact
@pytest.mark.parametrize("family, D, want", [
    ("x", 1000009, 1), ("xbr", 3600, 1), ("w2", 1000009, 1), ("w4", 1000009, 1),
    ("w6", 1000009, 1), ("r", 1000009, 1), ("g", 1000009, 1),
])
def test_check_mode_calls_per_chi_request(calls_of, capsys, family, D, want):
    calls = calls_of(euler, "check_mode")
    assert main(["chi", "--family", family, "--D", str(D)]) == 0, capsys.readouterr().err
    assert len(calls) == want


@pytest.mark.parametrize("locus", list(Locus), ids=[locus.value for locus in Locus])
def test_cd_count_checks_the_surrogate_once_per_divisor(calls_of, locus):
    calls = calls_of(counting, "surrogate_mode")
    counting.cd_count(locus, 60)
    assert len(calls) == 12  # one smm per divisor of 60
