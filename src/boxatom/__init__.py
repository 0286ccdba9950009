"""Strong-confinement expansions for charged particles in a spherical box.

The library scales an N-particle Coulomb system to a unit impenetrable
sphere, computes the leading perturbation coefficients (eps0, eps1) of the
confinement expansion from exact sphere eigenstates, turns them into physical
energy curves, and cross-checks the two-electron case with a small
configuration-interaction solver.
"""

from .ci import CiProblem, build_hamiltonian, ground_state
from .errors import (
    BoxatomError,
    ConvergenceError,
    UnsupportedModeError,
    ValidationError,
)
from .perturbation import (
    BreakdownTerm,
    NuclearMotionReport,
    PerturbationCoefficients,
    energy_curve,
    epsilon1,
    nuclear_motion_report,
    turnover_lambda,
)
from .quadrature import QuadratureRule, gauss_legendre, integrate
from .sphere import (
    ModeIndex,
    RadialMode,
    bessel_zero,
    build_radial_mode,
    mode_energy,
)
from .system import (
    HELIUM_NUCLEAR_MASS,
    DimensionlessSystem,
    Particle,
    ScaledParticle,
    SystemDefinition,
    helium_system,
    load_system,
    nondimensionalize,
    system_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "HELIUM_NUCLEAR_MASS",
    "BoxatomError",
    "BreakdownTerm",
    "CiProblem",
    "ConvergenceError",
    "DimensionlessSystem",
    "ModeIndex",
    "NuclearMotionReport",
    "Particle",
    "PerturbationCoefficients",
    "QuadratureRule",
    "RadialMode",
    "ScaledParticle",
    "SystemDefinition",
    "UnsupportedModeError",
    "ValidationError",
    "bessel_zero",
    "build_hamiltonian",
    "build_radial_mode",
    "energy_curve",
    "epsilon1",
    "gauss_legendre",
    "ground_state",
    "helium_system",
    "integrate",
    "load_system",
    "mode_energy",
    "nondimensionalize",
    "nuclear_motion_report",
    "system_from_dict",
    "turnover_lambda",
]
