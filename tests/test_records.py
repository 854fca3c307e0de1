"""The package's plain records: constructors, equality, hashing, immutability
and reprs, and that no module loads ``dataclasses``."""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from gothicvol import Locus
from gothicvol.arith import PiQuantity
from gothicvol.counting import CoverCount
from gothicvol.ideals import IdealSpec, QuadPair
from gothicvol.verify import CheckResult
from gothicvol.volume import SmmTotals, VolumeEstimate
from gothicvol.zagier import AsymptoticReport


def _estimate(**fields):
    args = dict(locus=Locus.H2, D=40, mode="direct", surrogate="main_term", value=1.0,
                extrapolated=1.5, exact_target=PiQuantity(Fraction(1, 960), 4),
                relative_error=0.25, extrapolated_relative_error=0.125,
                series=[(40, 1.0)], series_exact=[(40, Fraction(3))])
    args.update(fields)
    return VolumeEstimate(**args)


def _report(delta6):
    return AsymptoticReport(30, [0.0, 0.5], delta6, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)


# Each frozen record: two equal instances built apart, and one that differs in
# its last field.
FROZEN = {
    "PiQuantity": (lambda: PiQuantity(Fraction(1, 3), 4), PiQuantity(Fraction(1, 3), 2)),
    "QuadPair": (lambda: QuadPair(1, 2), QuadPair(1, 3)),
    "IdealSpec": (lambda: IdealSpec(5, 6, 1, (QuadPair(5, 0), QuadPair(0, 5))),
                  IdealSpec(5, 6, 1, (QuadPair(5, 0), QuadPair(0, 15)))),
    "CoverCount": (lambda: CoverCount(6, (("x", 36, 1, Fraction(1)),), Fraction(1)),
                   CoverCount(6, (("x", 36, 1, Fraction(1)),), Fraction(2))),
    "SmmTotals": (lambda: SmmTotals((0, 3, 9), 48), SmmTotals((0, 3, 9), 12)),
    "CheckResult": (lambda: CheckResult("c", "arith", True, 0.5),
                    CheckResult("c", "arith", True, 0.5, "why")),
}

# Each record with mutable (list) fields: two equal instances built apart, and
# one that differs in a field left out of the repr.
MUTABLE = {
    "VolumeEstimate": (_estimate, _estimate(series_exact=[(40, Fraction(4))])),
    "AsymptoticReport": (lambda: _report([0.0, 0.25]), _report([0.0, 0.75])),
}

# The first field of each record, assigned to below.
FIRST_FIELD = {"PiQuantity": "coeff", "QuadPair": "a1", "IdealSpec": "d", "CoverCount": "m",
               "SmmTotals": "numerators", "CheckResult": "name", "VolumeEstimate": "locus",
               "AsymptoticReport": "d_max"}


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_records_are_equal_field_by_field(name):
    make, other = {**FROZEN, **MUTABLE}[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and not a == other
    assert a != object()


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_and_refuse_assignment(name):
    make, other = FROZEN[name]
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    with pytest.raises(AttributeError):
        setattr(a, FIRST_FIELD[name], 7)
    with pytest.raises(AttributeError):
        a.extra = 7
    assert a == b


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_records_survive_copy_and_pickle(name):
    a = {**FROZEN, **MUTABLE}[name][0]()
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable(name):
    # the record itself refuses assignment and new attributes like a frozen
    # one; only its list fields keep it from hashing
    a, b = MUTABLE[name][0](), MUTABLE[name][0]()
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        setattr(a, FIRST_FIELD[name], 7)
    with pytest.raises(AttributeError):
        a.extra = 7
    assert a == b


@pytest.mark.parametrize("name", [*FROZEN, *MUTABLE])
def test_records_are_namedtuples_except_pi_quantity(name):
    cls = type({**FROZEN, **MUTABLE}[name][1])
    if name == "PiQuantity":  # arithmetic, so no tuple concatenation or ordering
        assert not issubclass(cls, tuple) and cls.__slots__ == ("coeff", "pi_power")
    else:
        assert issubclass(cls, tuple) and cls.__slots__ == ()
        assert cls._fields[0] == FIRST_FIELD[name]


def test_pi_quantity_coerces_its_coefficient():
    assert PiQuantity(3).coeff == Fraction(3)
    assert type(PiQuantity(3).coeff) is Fraction
    assert PiQuantity(Fraction(1, 2)).pi_power == 0
    half = Fraction(1, 2)
    assert PiQuantity(half).coeff is half  # a Fraction is kept, not re-wrapped
    assert (PiQuantity(Fraction(1, 3), 2) * 3).coeff == 1
    assert type((PiQuantity(Fraction(1, 3), 2) * 3).coeff) is Fraction


def test_record_reprs():
    assert repr(PiQuantity(Fraction(1, 3), 4)) == "1/3*pi^4"
    assert repr(PiQuantity(3)) == "3"
    assert repr(QuadPair(1, 2)) == "QuadPair(a1=1, a2=2)"
    assert repr(IdealSpec(5, 6, 1, (QuadPair(5, 0), QuadPair(0, 5)))) == (
        "IdealSpec(d=5, n=6, r=1, basis=(QuadPair(a1=5, a2=0), QuadPair(a1=0, a2=5)))")
    assert repr(CoverCount(6, (), Fraction(1))) == (
        "CoverCount(m=6, contributions=(), total=Fraction(1, 1))")
    assert repr(SmmTotals((0, 3), 48)) == "SmmTotals(numerators=(0, 3), denominator=48)"
    assert repr(CheckResult("c", "arith", False, 0.5, "why")) == (
        "CheckResult(name='c', suite='arith', ok=False, elapsed_s=0.5, detail='why')")
    # the exact series and the delta lists stay out of the repr
    assert repr(_estimate()) == (
        "VolumeEstimate(locus=<Locus.H2: 'h2'>, D=40, mode='direct', surrogate='main_term', "
        "value=1.0, extrapolated=1.5, exact_target=1/960*pi^4, relative_error=0.25, "
        "extrapolated_relative_error=0.125, series=[(40, 1.0)])")
    assert repr(_report([0.0, 0.25])) == (
        "AsymptoticReport(d_max=30, delta1_upper_max=0.5, delta1_lower_max=0.0, "
        "delta1_ratio=0.0, delta6_upper_max=0.0, delta6_lower_max=0.0, delta6_ratio=0.0)")


# Imports every module of the package and reports which of the watched
# standard-library modules are loaded by then.
_MODULES = """
import json, sys
import gothicvol.cli, gothicvol.counting, gothicvol.euler, gothicvol.ideals
import gothicvol.prototypes, gothicvol.qforms, gothicvol.verify, gothicvol.volume
import gothicvol.zagier

print(json.dumps(sorted({"dataclasses", "inspect"} & sys.modules.keys())))
"""


def test_no_module_loads_dataclasses(run_python):
    proc = run_python("-c", _MODULES, timeout=120, check=True)
    assert json.loads(proc.stdout) == []
