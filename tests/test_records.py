"""The package's immutable records: assignment, equality, hashing, ordering and repr."""

import itertools
import operator
import os
import subprocess
import sys

import pytest

import boxatom
from boxatom import (
    CiProblem,
    ModeIndex,
    Particle,
    RadialMode,
    ScaledParticle,
    epsilon1,
    gauss_legendre,
    helium_system,
    nondimensionalize,
    nuclear_motion_report,
)
from boxatom.cli import Report


def _records():
    clamped = epsilon1(nondimensionalize(helium_system(clamped_nucleus=True)))
    moving = epsilon1(nondimensionalize(helium_system(clamped_nucleus=False)))
    return {
        "QuadratureRule": (gauss_legendre(4), ("nodes", "weights", "order")),
        "ModeIndex": (ModeIndex(0, 2), ("l", "n")),
        "RadialMode": (RadialMode(ModeIndex(0, 1)), ("index",)),
        "Particle": (Particle(mass=1.0, charge=-1.0), ("mass", "charge", "clamped")),
        "ScaledParticle": (ScaledParticle(m_prime=1.0, q_prime=1.0, clamped=False),
                           ("m_prime", "q_prime", "clamped")),
        "SystemDefinition": (helium_system(clamped_nucleus=True), ("particles", "reference", "rc_bohr", "lam")),
        "DimensionlessSystem": (nondimensionalize(helium_system(clamped_nucleus=True)),
                                ("particles", "lam", "length_scale_a", "energy_prefactor")),
        "BreakdownTerm": (clamped.breakdown[0], ("label", "kind", "prefactor", "integral", "value")),
        "PerturbationCoefficients": (clamped, ("eps0", "eps1", "breakdown")),
        "NuclearMotionReport": (nuclear_motion_report(clamped, moving),
                                ("kinetic_shift", "potential_shift", "dominant")),
        "CiProblem": (CiProblem(2.0, 4), ("z", "nmax", "points")),
        "Report": (Report(meta=[("eps0", 1.0)]), ("meta", "columns", "rows", "rows_name", "sections")),
    }


RECORDS = _records()
IDENTITY = {"QuadratureRule", "CiProblem"}
# a record that holds a list or a dict compares by value but cannot be hashed
UNHASHABLE = {"Report"}


def _copy(record, names):
    return type(record)(**{name: getattr(record, name) for name in names})


def test_every_record_is_covered():
    assert len(RECORDS) == 12
    assert {type(record).__name__ for record, _ in RECORDS.values()} == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    record, names = RECORDS[name]
    for field in names:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hash(name):
    record, names = RECORDS[name]
    copy = _copy(record, names)
    assert record == record
    if name in IDENTITY:
        assert copy != record
        assert hash(record) == object.__hash__(record)
        return
    assert copy == record and not copy != record
    assert record != (*(getattr(record, field) for field in names),)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_lists_the_fields(name):
    record, names = RECORDS[name]
    fields = ", ".join(f"{field}={getattr(record, field)!r}" for field in names)
    assert repr(record) == f"{name}({fields})"


def test_mode_index_orders_as_the_tuple():
    pairs = [(0, 1), (0, 2), (1, 1), (1, 3), (2, 1)]
    for (a, b), op in itertools.product(itertools.product(pairs, repeat=2),
                                        (operator.lt, operator.le, operator.gt, operator.ge)):
        assert op(ModeIndex(*a), ModeIndex(*b)) == op(a, b)
    assert sorted(ModeIndex(*p) for p in reversed(pairs)) == [ModeIndex(*p) for p in pairs]
    with pytest.raises(TypeError):
        ModeIndex(0, 1) < (0, 2)  # noqa: B015


def test_report_sections_default_is_fresh():
    first, second = Report(meta=[]), Report(meta=[])
    assert first.sections == {} and first.sections is not second.sections


def test_records_of_different_classes_differ():
    assert Particle(mass=1.0, charge=1.0) != ScaledParticle(m_prime=1.0, q_prime=1.0, clamped=False)


def test_cli_import_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(boxatom.__file__)))
    code = "import sys, boxatom.cli; assert 'dataclasses' not in sys.modules, 'dataclasses was imported'"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
