"""One rule for every number a public entry point takes (`boxatom.errors`).

Each argument below refuses every value of NOT_NUMBERS with a one-line
ValidationError that names it, and takes a numpy integer or float wherever it
takes an int or a float. The lambda grids of `CiProblem.scan` and
`energy_curve` are checked the same way by the test_rejects_values_float_cannot_take and test_takes_numpy_numbers
tests of test_ci.py and test_perturbation.py.
"""

import re

import numpy as np
import pytest

from boxatom import (
    CiProblem,
    ModeIndex,
    Particle,
    ScaledParticle,
    SystemDefinition,
    bessel_zero,
    build_hamiltonian,
    build_radial_mode,
    epsilon1,
    gauss_legendre,
    helium_system,
    integrate,
    mode_energy,
    nondimensionalize,
)
from boxatom.coulomb import ground_integrals, s_wave_block
from boxatom.errors import ValidationError

from oracles import NOT_NUMBERS

ELECTRON = Particle(mass=1.0, charge=-1.0)
HELIUM = nondimensionalize(helium_system(True))

# entry point and argument: (a call that passes `value` there, the name its
# message gives the value, an int and a float it takes there, None where it
# takes no int or no float)
ARGUMENTS = {
    "Particle-mass": (lambda v: Particle(mass=v, charge=-1.0), "mass", 2, 2.0),
    "Particle-charge": (lambda v: Particle(mass=1.0, charge=v), "charge", -1, -1.0),
    "SystemDefinition-reference": (lambda v: SystemDefinition((ELECTRON, ELECTRON), v, lam=1.0),
                                   "reference", 1, None),
    "SystemDefinition-rc_bohr": (lambda v: SystemDefinition((ELECTRON,), 0, rc_bohr=v), "rc_bohr", 2, 2.0),
    "SystemDefinition-lam": (lambda v: SystemDefinition((ELECTRON,), 0, lam=v), "lam", 2, 2.0),
    "helium_system-rc_bohr": (lambda v: helium_system(True, rc_bohr=v), "rc_bohr", 2, 2.0),
    "helium_system-nuclear_mass": (lambda v: helium_system(False, nuclear_mass=v), "mass", 7296, 7296.3),
    "ModeIndex-l": (lambda v: ModeIndex(v, 1), "mode l", 1, None),
    "ModeIndex-n": (lambda v: ModeIndex(0, v), "mode n", 2, None),
    "bessel_zero-l": (lambda v: bessel_zero(v, 1), "order l", 1, None),
    "bessel_zero-n": (lambda v: bessel_zero(1, v), "mode n", 2, None),
    "mode_energy": (lambda v: mode_energy(ModeIndex(0, 1), v), "scaled mass", 2, 2.0),
    "RadialMode": (lambda v: build_radial_mode(ModeIndex(0, 1))(v), "radius r", 1, 0.5),
    # 1, so that the rule cached for np.int64(1) is in place when np.True_ is refused
    "gauss_legendre": (lambda v: gauss_legendre(v), "rule size", 1, None),
    "integrate-a": (lambda v: integrate(np.cos, v, 5.0, gauss_legendre(8)), "lower bound a", 1, 1.0),
    "integrate-b": (lambda v: integrate(np.cos, 0.0, v, gauss_legendre(8)), "upper bound b", 1, 1.0),
    "ScaledParticle-m_prime": (lambda v: ScaledParticle(v, -1.0, False), "m_prime", 2, 2.0),
    "ScaledParticle-q_prime": (lambda v: ScaledParticle(1.0, v, False), "q_prime", -1, -1.0),
    "s_wave_block-points": (lambda v: s_wave_block(1, v), "quadrature points", 16, None),
    "ground_integrals": (lambda v: ground_integrals(v), "quadrature points", 16, None),
    "epsilon1-points": (lambda v: epsilon1(HELIUM, v), "quadrature points", 16, None),
    "CiProblem": (lambda v: CiProblem(v, 2), "nuclear charge Z", 2, 2.0),
    "CiProblem-nmax": (lambda v: CiProblem(2.0, v), "nmax", 2, None),
    "CiProblem-points": (lambda v: CiProblem(2.0, 2, v), "quadrature points", 16, None),
    "build_hamiltonian-z": (lambda v: build_hamiltonian(v, 0.5, 2), "nuclear charge Z", 2, 2.0),
    "build_hamiltonian-lam": (lambda v: build_hamiltonian(2.0, v, 2), "lambda", 1, 0.5),
    "build_hamiltonian-nmax": (lambda v: build_hamiltonian(2.0, 0.5, v), "nmax", 2, None),
    "build_hamiltonian-points": (lambda v: build_hamiltonian(2.0, 0.5, 2, v), "quadrature points", 16, None),
}


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_takes_numpy_numbers(argument):
    call, _, int_value, float_value = ARGUMENTS[argument]
    for value, numpy_type in ((int_value, np.int64), (float_value, np.float64)):
        if value is not None:
            call(numpy_type(value))


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=list(NOT_NUMBERS))
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_refuses_what_is_not_a_number(argument, value):
    call, name, _, _ = ARGUMENTS[argument]
    message = rf"^{re.escape(name)} must be [^\n]+, got [^\n]+$"
    if value is None and name in ("rc_bohr", "lam"):
        message = "^give exactly one of rc_bohr or lam$"  # None gives no box radius
    with pytest.raises(ValidationError, match=message):
        call(value)


def test_numpy_integers_are_stored_as_int():
    assert type(SystemDefinition((ELECTRON,), np.int64(0), lam=1.0).reference) is int
    assert [type(x) for x in (ModeIndex(np.int64(0), np.uint8(1)).l, CiProblem(2.0, np.int64(4)).nmax)] == [int, int]
