"""Particle systems and the dimensionless confinement scaling.

Inputs are in atomic-style units (electron masses, elementary charges, bohr)
so no physical constants enter any computation. With reference particle 1,
the length scale is a = 1/(m1 q1^2) bohr, the energy prefactor is
m1 q1^4 hartree, and the coupling is lambda = R_c / a.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import ValidationError

# nuclear mass used for the helium presets, in electron masses
HELIUM_NUCLEAR_MASS = 7296.300
# particles per system file: N particles give up to N(N-1)/2 pair terms
MAX_PARTICLES = 100
# bound on mass and |charge| and their inverses, in electron units: it keeps
# the length and energy scales, every ratio to the reference particle and
# every coefficient sum far inside the float range
MAX_MAGNITUDE = 1e50


def _require_finite(name: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValidationError(f"{name} must be finite, got {out!r}")
    return out


@dataclass(frozen=True)
class Particle:
    """One particle: mass in electron masses, charge in elementary charges."""

    mass: float
    charge: float
    clamped: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mass", _require_finite("mass", self.mass))
        object.__setattr__(self, "charge", _require_finite("charge", self.charge))
        if self.mass <= 0:
            raise ValidationError(f"mass must be positive, got {self.mass}")
        for name, value in (("mass", self.mass), ("|charge|", abs(self.charge))):
            if not 1 / MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:
                raise ValidationError(f"{name} must lie in [{1 / MAX_MAGNITUDE:g}, {MAX_MAGNITUDE:g}], got {value}")
        if not isinstance(self.clamped, bool):
            raise ValidationError(f"clamped must be a boolean, got {self.clamped!r}")


@dataclass(frozen=True)
class ScaledParticle:
    """Dimensionless particle: m' = m/m1, q' = q/q1."""

    m_prime: float
    q_prime: float
    clamped: bool


@dataclass(frozen=True)
class SystemDefinition:
    """Input system: particles, reference index, box radius.

    The radius is given either in bohr (rc_bohr) or directly as the
    dimensionless coupling (lam); exactly one of the two.
    """

    particles: tuple[Particle, ...]
    reference: int
    rc_bohr: float | None = None
    lam: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))
        if not self.particles:
            raise ValidationError("system needs at least one particle")
        if isinstance(self.reference, bool) or not isinstance(self.reference, int):
            raise ValidationError(f"reference must be an integer index, got {self.reference!r}")
        if not 0 <= self.reference < len(self.particles):
            raise ValidationError(
                f"reference index {self.reference} out of range for {len(self.particles)} particles"
            )
        if self.particles[self.reference].clamped:
            raise ValidationError("reference particle must not be clamped")
        if sum(p.clamped for p in self.particles) > 1:
            raise ValidationError("at most one clamped particle per system")
        if (self.rc_bohr is None) == (self.lam is None):
            raise ValidationError("give exactly one of rc_bohr or lam")
        for name in ("rc_bohr", "lam"):
            value = getattr(self, name)
            if value is not None:
                value = _require_finite(name, value)
                if value <= 0:
                    raise ValidationError(f"{name} must be positive, got {value}")
                object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DimensionlessSystem:
    """Scaled system: reference particle has m' = q' = 1 exactly."""

    particles: tuple[ScaledParticle, ...]
    lam: float
    length_scale_a: float
    energy_prefactor: float

    def __post_init__(self):
        scales = (self.lam, self.length_scale_a, self.energy_prefactor)
        if not all(0 < x < math.inf for x in scales):
            raise ValidationError("lam, length scale and energy prefactor must be positive and finite")
        if not any(p.m_prime == 1.0 and p.q_prime == 1.0 and not p.clamped for p in self.particles):
            raise ValidationError("no free reference particle with m' = q' = 1")
        if sum(p.clamped for p in self.particles) > 1:
            raise ValidationError("at most one clamped particle per system")

    @property
    def free_particles(self) -> tuple[ScaledParticle, ...]:
        return tuple(p for p in self.particles if not p.clamped)

    @property
    def clamped_particle(self) -> ScaledParticle | None:
        for p in self.particles:
            if p.clamped:
                return p
        return None


def nondimensionalize(definition: SystemDefinition) -> DimensionlessSystem:
    """Scale masses and charges by the reference particle and compute lambda.

    a = 1/(m1 q1^2) in bohr, energy prefactor m1 q1^4 in hartree; for an
    electron reference both equal 1 and lambda is the box radius in bohr.
    """
    ref = definition.particles[definition.reference]
    m1, q1 = ref.mass, ref.charge
    a = 1.0 / (m1 * q1 * q1)
    prefactor = m1 * q1**4
    lam = definition.lam if definition.lam is not None else definition.rc_bohr / a
    scaled = tuple(
        ScaledParticle(m_prime=p.mass / m1, q_prime=p.charge / q1, clamped=p.clamped)
        for p in definition.particles
    )
    return DimensionlessSystem(
        particles=scaled, lam=lam, length_scale_a=a, energy_prefactor=prefactor
    )


_PARTICLE_KEYS = {"mass", "charge", "clamped"}
_REQUIRED_KEYS = {"particles", "reference"}
# exactly one of the box-size keys; SystemDefinition enforces that
_SYSTEM_KEYS = _REQUIRED_KEYS | {"rc_bohr", "lam"}


def system_from_dict(data: dict) -> SystemDefinition:
    """Build a SystemDefinition from the JSON input schema."""
    if not isinstance(data, dict):
        raise ValidationError(f"system document must be an object, got {type(data).__name__}")
    unknown = set(data) - _SYSTEM_KEYS
    if unknown:
        raise ValidationError(f"unknown system field(s): {', '.join(sorted(unknown))}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ValidationError(f"missing system field(s): {', '.join(sorted(missing))}")
    raw = data["particles"]
    if not isinstance(raw, list) or not raw:
        raise ValidationError("particles must be a non-empty list")
    if len(raw) > MAX_PARTICLES:
        raise ValidationError(f"a system holds at most {MAX_PARTICLES} particles, got {len(raw)}")
    particles = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"particles[{i}] must be an object")
        unknown = set(entry) - _PARTICLE_KEYS
        if unknown:
            raise ValidationError(f"particles[{i}]: unknown field(s) {', '.join(sorted(unknown))}")
        if "mass" not in entry or "charge" not in entry:
            raise ValidationError(f"particles[{i}]: mass and charge are required")
        try:
            particles.append(Particle(mass=entry["mass"], charge=entry["charge"],
                                      clamped=entry.get("clamped", False)))
        except ValidationError as exc:
            raise ValidationError(f"particles[{i}]: {exc}") from None
    return SystemDefinition(particles=tuple(particles), reference=data["reference"],
                            rc_bohr=data.get("rc_bohr"), lam=data.get("lam"))


def load_system(path: str) -> SystemDefinition:
    """Read a system JSON file; parse errors report line and column."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read system file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # syntax, not UTF-8, overlong int, too deep
        raise ValidationError(f"invalid JSON in {path}: {exc}") from None
    return system_from_dict(data)


def helium_system(clamped_nucleus: bool, rc_bohr: float = 1.0,
                  nuclear_mass: float = HELIUM_NUCLEAR_MASS) -> SystemDefinition:
    """Two electrons plus a charge +2 nucleus, reference = electron."""
    electron = Particle(mass=1.0, charge=-1.0)
    nucleus = Particle(mass=nuclear_mass, charge=2.0, clamped=clamped_nucleus)
    return SystemDefinition(particles=(electron, electron, nucleus), reference=0, rc_bohr=rc_bohr)
