"""Particle systems and the dimensionless confinement scaling.

Inputs are in atomic-style units (electron masses, elementary charges, bohr)
so no physical constants enter any computation. With reference particle 1,
the length scale is a = 1/(m1 q1^2) bohr, the energy prefactor is
m1 q1^4 hartree, and the coupling is lambda = R_c / a.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat

from .errors import Record, ValidationError, integer, number, of_type, real

# nuclear mass used for the helium presets, in electron masses
HELIUM_NUCLEAR_MASS = 7296.300
# particles per system file: N particles give up to N(N-1)/2 pair terms
MAX_PARTICLES = 100
# bytes per system file: MAX_PARTICLES particles take a few kB, and nothing
# longer is read, so /dev/zero or a huge file costs bounded time and memory
MAX_SYSTEM_FILE_BYTES = 1 << 20
# bound on mass and |charge| and their inverses, in electron units: it keeps
# the length and energy scales, every ratio to the reference particle and
# every coefficient sum far inside the float range
MAX_MAGNITUDE = 1e50


class Particle(Record):
    """One particle: mass in electron masses, charge in elementary charges."""

    __slots__ = ("mass", "charge", "clamped")

    def __init__(self, mass: float, charge: float, clamped: bool = False):
        self.mass = real("mass", mass)
        self.charge = real("charge", charge)
        self.clamped = clamped
        if self.mass <= 0:
            raise ValidationError(f"mass must be positive, got {self.mass}")
        for name, value in (("mass", self.mass), ("|charge|", abs(self.charge))):
            if not 1 / MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:
                raise ValidationError(f"{name} must lie in [{1 / MAX_MAGNITUDE:g}, {MAX_MAGNITUDE:g}], got {value}")
        if not isinstance(self.clamped, bool):
            raise ValidationError(f"clamped must be a boolean, got {self.clamped!r}")


class ScaledParticle(Record):
    """Dimensionless particle: m' = m/m1, q' = q/q1."""

    __slots__ = ("m_prime", "q_prime", "clamped")

    def __init__(self, m_prime: float, q_prime: float, clamped: bool):
        self.m_prime = real("m_prime", m_prime)
        self.q_prime = real("q_prime", q_prime)
        self.clamped = clamped
        if self.m_prime <= 0:
            raise ValidationError(f"m_prime must be positive, got {self.m_prime}")
        if not isinstance(self.clamped, bool):
            raise ValidationError(f"clamped must be a boolean, got {self.clamped!r}")


def _particles(value, kind: type) -> tuple:
    """`value` as a tuple of `kind`s; anything else is a ValidationError."""
    try:
        return tuple(of_type(f"particles[{i}]", p, kind) for i, p in enumerate(value))
    except TypeError:  # `value` is not iterable
        raise ValidationError(f"particles must be a sequence of {kind.__name__}, got {type(value).__name__}") from None


class SystemDefinition(Record):
    """Input system: particles, reference index, box radius.

    The radius is given either in bohr (rc_bohr) or directly as the
    dimensionless coupling (lam); exactly one of the two.
    """

    __slots__ = ("particles", "reference", "rc_bohr", "lam")

    def __init__(self, particles: tuple[Particle, ...], reference: int,
                 rc_bohr: float | None = None, lam: float | None = None):
        self.particles = _particles(particles, Particle)
        if not self.particles:
            raise ValidationError("system needs at least one particle")
        # its own message, which the CLI prints for a system file's reference of 1.0 or true
        try:
            self.reference = integer("reference", reference)
        except ValidationError:
            raise ValidationError(f"reference must be an integer index, got {reference!r}") from None
        if not 0 <= self.reference < len(self.particles):
            raise ValidationError(
                f"reference index {self.reference} out of range for {len(self.particles)} particles"
            )
        if self.particles[self.reference].clamped:
            raise ValidationError("reference particle must not be clamped")
        if sum(p.clamped for p in self.particles) > 1:
            raise ValidationError("at most one clamped particle per system")
        if (rc_bohr is None) == (lam is None):
            raise ValidationError("give exactly one of rc_bohr or lam")
        for name, value in (("rc_bohr", rc_bohr), ("lam", lam)):
            if value is not None:
                value = real(name, value)
                if value <= 0:
                    raise ValidationError(f"{name} must be positive, got {value}")
            setattr(self, name, value)


class DimensionlessSystem(Record):
    """Scaled system: reference particle has m' = q' = 1 exactly."""

    __slots__ = ("particles", "lam", "length_scale_a", "energy_prefactor")

    def __init__(self, particles: tuple[ScaledParticle, ...], lam: float,
                 length_scale_a: float, energy_prefactor: float):
        self.particles = _particles(particles, ScaledParticle)
        self.lam, self.length_scale_a, self.energy_prefactor = lam, length_scale_a, energy_prefactor
        scales = [number(name, getattr(self, name)) for name in ("lam", "length_scale_a", "energy_prefactor")]
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
    """Read a system JSON file of at most MAX_SYSTEM_FILE_BYTES; parse errors report line and column."""
    try:
        # a FIFO without a writer would block a plain open; it is refused once open,
        # and anything else, a terminal too, is then read blocking to its end
        with open(path, "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
            if stat.S_ISFIFO(os.fstat(fh.fileno()).st_mode):
                raise ValidationError(f"system file {path} is a named pipe, not a file")
            os.set_blocking(fh.fileno(), True)
            raw = fh.read(MAX_SYSTEM_FILE_BYTES + 1)
    except OSError as exc:
        raise ValidationError(f"cannot read system file {path}: {exc}") from None
    if len(raw) > MAX_SYSTEM_FILE_BYTES:
        raise ValidationError(f"system file {path} is longer than {MAX_SYSTEM_FILE_BYTES} bytes")
    try:
        # decoded as a text-mode open reads a whole file: newlines translated, errors at file positions
        data = json.load(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # syntax, not UTF-8, overlong int, too deep
        raise ValidationError(f"invalid JSON in {path}: {exc}") from None
    return system_from_dict(data)


def helium_system(clamped_nucleus: bool, rc_bohr: float = 1.0,
                  nuclear_mass: float = HELIUM_NUCLEAR_MASS) -> SystemDefinition:
    """Two electrons plus a charge +2 nucleus, reference = electron."""
    electron = Particle(mass=1.0, charge=-1.0)
    nucleus = Particle(mass=nuclear_mass, charge=2.0, clamped=clamped_nucleus)
    return SystemDefinition(particles=(electron, electron, nucleus), reference=0, rc_bohr=rc_bohr)
