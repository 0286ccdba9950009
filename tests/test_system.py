import contextlib
import io
import json
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxatom import (
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
from boxatom.cli import main
from boxatom.errors import ValidationError
from boxatom.system import MAX_MAGNITUDE, MAX_PARTICLES


def electron():
    return Particle(mass=1.0, charge=-1.0)


class TestParticle:
    def test_basic_fields(self):
        p = Particle(mass=2.0, charge=-1.0, clamped=True)
        assert (p.mass, p.charge, p.clamped) == (2.0, -1.0, True)

    def test_defaults_to_free(self):
        assert electron().clamped is False

    def test_coerces_ints(self):
        p = Particle(mass=1, charge=-1)
        assert isinstance(p.mass, float) and isinstance(p.charge, float)

    @pytest.mark.parametrize("mass", [0.0, -2.0, math.inf, math.nan])
    def test_bad_mass(self, mass):
        with pytest.raises(ValidationError):
            Particle(mass=mass, charge=1.0)

    @pytest.mark.parametrize("charge", [0.0, math.nan])
    def test_bad_charge(self, charge):
        with pytest.raises(ValidationError):
            Particle(mass=1.0, charge=charge)


class TestSystemDefinition:
    def test_requires_exactly_one_size_input(self):
        with pytest.raises(ValidationError):
            SystemDefinition(particles=(electron(),), reference=0)
        with pytest.raises(ValidationError):
            SystemDefinition(particles=(electron(),), reference=0, rc_bohr=1.0, lam=1.0)

    def test_rejects_bad_reference(self):
        with pytest.raises(ValidationError):
            SystemDefinition(particles=(electron(),), reference=1, rc_bohr=1.0)
        clamped = Particle(mass=1.0, charge=1.0, clamped=True)
        with pytest.raises(ValidationError):
            SystemDefinition(particles=(clamped,), reference=0, rc_bohr=1.0)

    def test_rejects_two_clamped(self):
        heavy = Particle(mass=100.0, charge=2.0, clamped=True)
        with pytest.raises(ValidationError):
            SystemDefinition(particles=(electron(), heavy, heavy), reference=0, rc_bohr=1.0)

    @pytest.mark.parametrize("rc", [0.0, -1.0, math.inf])
    def test_rejects_nonpositive_radius(self, rc):
        with pytest.raises(ValidationError):
            SystemDefinition(particles=(electron(),), reference=0, rc_bohr=rc)


class TestNondimensionalize:
    def test_single_electron_is_identity_scale(self):
        system = SystemDefinition(particles=(electron(),), reference=0, rc_bohr=2.5)
        dim = nondimensionalize(system)
        assert dim.length_scale_a == 1.0
        assert dim.energy_prefactor == 1.0
        assert dim.lam == 2.5
        assert dim.particles[0].m_prime == 1.0
        assert dim.particles[0].q_prime == 1.0

    def test_heavy_reference_shrinks_unit(self):
        # muonic-style reference: a = 1/(m q^2), prefactor = m q^4
        muon = Particle(mass=206.768, charge=-1.0)
        system = SystemDefinition(particles=(muon,), reference=0, rc_bohr=1.0)
        dim = nondimensionalize(system)
        assert dim.length_scale_a == pytest.approx(1.0 / 206.768, rel=1e-15)
        assert dim.energy_prefactor == pytest.approx(206.768, rel=1e-15)
        assert dim.lam == pytest.approx(206.768, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(mass=st.floats(1 / MAX_MAGNITUDE, MAX_MAGNITUDE), charge=st.floats(1 / MAX_MAGNITUDE, MAX_MAGNITUDE),
           negative=st.booleans())
    def test_reference_scales_to_exactly_one(self, mass, charge, negative):
        # x / x is exactly 1.0 for every finite nonzero x, so nuclear-motion's |q'| > 1
        # never picks the reference as the nucleus
        reference = Particle(mass=mass, charge=-charge if negative else charge)
        dim = nondimensionalize(SystemDefinition(particles=(electron(), reference), reference=1, lam=1.0))
        assert dim.particles[1].m_prime == dim.particles[1].q_prime == 1.0

    def test_lambda_given_directly(self):
        system = SystemDefinition(particles=(electron(),), reference=0, lam=0.3)
        dim = nondimensionalize(system)
        assert dim.lam == 0.3

    def test_helium_scaled_charges(self):
        dim = nondimensionalize(helium_system(clamped_nucleus=True))
        scaled = dim.particles
        assert [p.q_prime for p in scaled] == [1.0, 1.0, -2.0]
        assert [p.m_prime for p in scaled] == [1.0, 1.0, HELIUM_NUCLEAR_MASS]
        assert scaled[2].clamped is True
        assert dim.clamped_particle is scaled[2]
        assert dim.free_particles == scaled[:2]

    def test_moving_helium_has_no_clamped_particle(self):
        dim = nondimensionalize(helium_system(clamped_nucleus=False))
        assert dim.clamped_particle is None
        assert len(dim.free_particles) == 3


class TestScaledSystem:
    """ScaledParticle and DimensionlessSystem check their fields as Particle and SystemDefinition do."""

    REFERENCE = ScaledParticle(1.0, 1.0, False)

    @pytest.mark.parametrize("m_prime,q_prime,clamped,message", [
        (0.0, 1.0, False, "m_prime must be positive, got 0.0"),
        (-1.0, 1.0, False, "m_prime must be positive, got -1.0"),
        (1.0, math.nan, False, "q_prime must be finite, got nan"),
        (math.inf, 1.0, False, "m_prime must be finite, got inf"),
        ("1", 1.0, False, "m_prime must be a real number, got '1'"),
        (1.0, 1.0, 1, "clamped must be a boolean, got 1"),
    ], ids=["zero-mass", "negative-mass", "nan-charge", "inf-mass", "text-mass", "int-clamped"])
    def test_scaled_particle_checks_its_fields(self, m_prime, q_prime, clamped, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            ScaledParticle(m_prime, q_prime, clamped)

    def test_scaled_particle_fields_are_floats(self):
        p = ScaledParticle(np.int64(2), 1, False)
        assert (type(p.m_prime), type(p.q_prime)) == (float, float)

    @pytest.mark.parametrize("call,message", [
        (lambda: DimensionlessSystem(("a",), 1.0, 1.0, 1.0), "particles[0] must be a ScaledParticle, got str"),
        (lambda: DimensionlessSystem(None, 1.0, 1.0, 1.0), "particles must be a sequence of ScaledParticle, got NoneType"),
        (lambda: DimensionlessSystem((TestScaledSystem.REFERENCE, electron()), 1.0, 1.0, 1.0),
         "particles[1] must be a ScaledParticle, got Particle"),
        (lambda: DimensionlessSystem((TestScaledSystem.REFERENCE,), "1", 1.0, 1.0), "lam must be a real number, got '1'"),
        (lambda: SystemDefinition(("a",), 0, lam=1.0), "particles[0] must be a Particle, got str"),
        (lambda: SystemDefinition(None, 0, lam=1.0), "particles must be a sequence of Particle, got NoneType"),
        (lambda: SystemDefinition((TestScaledSystem.REFERENCE,), 0, lam=1.0),
         "particles[0] must be a Particle, got ScaledParticle"),
    ], ids=["scaled-text", "scaled-none", "scaled-particle", "scaled-lam-text", "definition-text",
            "definition-none", "definition-scaled"])
    def test_systems_check_their_particles_and_scales(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            call()

    def test_particles_are_kept_as_a_tuple(self):
        system = DimensionlessSystem([self.REFERENCE], 1.0, 1.0, 1.0)
        assert system.particles == (self.REFERENCE,)


class TestHeliumFactory:
    def test_default_nuclear_mass(self):
        system = helium_system(clamped_nucleus=False)
        assert system.particles[2].mass == HELIUM_NUCLEAR_MASS == 7296.300
        assert system.particles[2].charge == 2.0
        assert system.reference == 0

    def test_radius_passthrough(self):
        system = helium_system(clamped_nucleus=True, rc_bohr=0.25)
        assert system.rc_bohr == 0.25


class TestDictAndFileLoading:
    def good_payload(self):
        return {
            "particles": [
                {"mass": 1.0, "charge": -1.0},
                {"mass": 1.0, "charge": -1.0},
                {"mass": 7296.300, "charge": 2.0, "clamped": True},
            ],
            "reference": 0,
            "rc_bohr": 1.0,
        }

    def test_round_trip(self):
        system = system_from_dict(self.good_payload())
        dim = nondimensionalize(system)
        assert dim.lam == 1.0
        assert len(system.particles) == 3

    def test_unknown_field_is_named(self):
        payload = self.good_payload()
        payload["colour"] = "red"
        with pytest.raises(ValidationError, match="colour"):
            system_from_dict(payload)

    def test_unknown_particle_field_is_located(self):
        payload = self.good_payload()
        payload["particles"][1]["spin"] = 0.5
        with pytest.raises(ValidationError, match=r"particles\[1\]"):
            system_from_dict(payload)

    def test_missing_field_is_named(self):
        payload = self.good_payload()
        del payload["reference"]
        with pytest.raises(ValidationError, match="reference"):
            system_from_dict(payload)

    def test_missing_particle_mass(self):
        payload = self.good_payload()
        del payload["particles"][0]["mass"]
        with pytest.raises(ValidationError, match="mass"):
            system_from_dict(payload)

    def test_load_system_file(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(self.good_payload()))
        system = load_system(path)
        assert system.particles[2].clamped is True

    @pytest.mark.skipif(not hasattr(os, "openpty"), reason="no terminals on this platform")
    def test_load_system_reads_a_terminal_to_its_end(self):
        # opened without blocking, so a named pipe cannot hang the open; a terminal
        # is still read blocking to end of file, not cut short at its first line
        text = json.dumps(self.good_payload(), indent=1).encode()
        head, tail = text[: len(text) // 2], text[len(text) // 2:]
        leader, follower = os.openpty()
        # the second half and end of file (^D) come while the file is being read
        later = threading.Timer(0.3, os.write, (leader, tail + b"\n\x04"))
        try:
            os.write(leader, head + b"\n")
            later.start()
            system = load_system(os.ttyname(follower))
        finally:
            later.join()
            os.close(leader)
            os.close(follower)
        assert system.particles[2].clamped is True

    def test_load_system_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_system(tmp_path / "absent.json")

    def test_load_system_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"particles": [')
        with pytest.raises(ValidationError, match="line"):
            load_system(path)

    def test_lam_sets_the_box_instead_of_rc_bohr(self):
        payload = self.good_payload()
        del payload["rc_bohr"]
        payload["lam"] = 0.5
        system = system_from_dict(payload)
        assert (system.rc_bohr, system.lam) == (None, 0.5)
        assert nondimensionalize(system).lam == 0.5

    @pytest.mark.parametrize("sizes", [{}, {"rc_bohr": 1.0, "lam": 1.0}])
    def test_exactly_one_box_size(self, sizes):
        payload = self.good_payload()
        del payload["rc_bohr"]
        with pytest.raises(ValidationError, match="exactly one of rc_bohr or lam"):
            system_from_dict(payload | sizes)

    def test_particle_bound_checked_before_any_particle(self):
        payload = self.good_payload()
        payload["particles"] = [{"mass": "not a number"}] * (MAX_PARTICLES + 1)
        with pytest.raises(ValidationError, match=f"at most {MAX_PARTICLES} particles"):
            system_from_dict(payload)

    # deep nesting is checked through the CLI in test_cli.py
    @pytest.mark.parametrize("content", [
        b'{"reference": 1' + b"0" * 5000 + b"}",  # beyond the integer digit limit
        b"\xff\xfe{}",  # not UTF-8
    ], ids=["long-integer", "not-utf8"])
    def test_load_system_maps_decoder_failures(self, tmp_path, content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_system(path)


class TestMagnitudeBound:
    @pytest.mark.parametrize("mass,charge", [(1e51, -1.0), (1e-51, -1.0), (1.0, 1e51),
                                             (1.0, -1e-51), (1.0, 0.0)])
    def test_mass_and_charge_bounded(self, mass, charge):
        with pytest.raises(ValidationError, match="must lie in"):
            Particle(mass=mass, charge=charge)

    def test_extremes_keep_every_scale_finite(self):
        # the widest ratios to the reference stay far inside the float range
        tiny = Particle(mass=1e-50, charge=-1e-50)
        huge = Particle(mass=1e50, charge=1e50)
        dim = nondimensionalize(SystemDefinition(particles=(tiny, huge), reference=0, rc_bohr=1.0))
        assert dim.particles[1].m_prime == pytest.approx(1e100)
        assert all(math.isfinite(x) and x > 0 for x in (dim.lam, dim.length_scale_a, dim.energy_prefactor))

    @pytest.mark.parametrize("size,rc_bohr", [(1e50, 1e300), (1e-50, 1e-300)])
    def test_lambda_beyond_float_range_rejected(self, size, rc_bohr):
        # a = 1/(m q^2) is 1e-150 or 1e150 bohr, so lambda = rc_bohr / a overflows or underflows
        reference = Particle(mass=size, charge=-size)
        with pytest.raises(ValidationError, match="positive and finite"):
            nondimensionalize(SystemDefinition(particles=(reference,), reference=0, rc_bohr=rc_bohr))

    def test_huge_integer_is_not_a_real_number(self):
        with pytest.raises(ValidationError, match="mass"):
            Particle(mass=10**400, charge=-1.0)

    @pytest.mark.parametrize("mass,charge", [(True, -1.0), (1.0, "-1"), ("1", -1.0), (1.0, False)])
    def test_boolean_or_string_is_not_a_real_number(self, mass, charge):
        with pytest.raises(ValidationError, match="must be a real number"):
            Particle(mass=mass, charge=charge)

    @pytest.mark.parametrize("value", [b"1", bytearray(b"1"), np.True_],
                             ids=["bytes", "bytearray", "numpy-bool"])
    def test_bytes_or_numpy_boolean_is_not_a_real_number(self, value):
        # float() takes each of them as 1.0
        with pytest.raises(ValidationError, match="mass must be a real number"):
            Particle(mass=value, charge=-1)

    def test_numpy_reals_are_accepted(self):
        p = Particle(mass=np.float32(2.0), charge=np.int64(-1))
        assert (p.mass, p.charge) == (2.0, -1.0)

    @pytest.mark.parametrize("doc", [
        {"particles": [{"mass": True, "charge": "-1"}, {"mass": 1, "charge": -1}], "reference": 1,
         "rc_bohr": 1.0},
        {"particles": [{"mass": 1, "charge": -1}], "reference": 0, "rc_bohr": "1.0"},
        {"particles": [{"mass": 1, "charge": -1}], "reference": 0, "lam": True},
    ])
    def test_boolean_or_string_in_a_file_exits_2_with_one_line(self, tmp_path, capsys, doc):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["coeffs", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error:") and "must be a real number" in err


# JSON-like documents: valid systems with extreme numbers, the same with one
# field replaced, added or dropped (wrong types, extra fields, keys with line
# breaks), and arbitrary values
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
KEYS = st.one_of(
    st.sampled_from(["particles", "reference", "rc_bohr", "lam", "mass", "charge", "clamped",
                     "bad\nkey"]),
    st.text(max_size=6),
)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=12,
)
POSITIVE = st.floats(min_value=0.0, exclude_min=True)
MASSES = st.sampled_from([1.0, 206.768, 7296.3]) | POSITIVE
CHARGES = st.sampled_from([-1.0, 1.0, 2.0, -3.0]) | st.floats(allow_nan=False).filter(bool)
SIZES = st.sampled_from([0.5, 1.0, 4.0]) | POSITIVE


@st.composite
def systems(draw):
    particles = draw(st.lists(st.fixed_dictionaries({"mass": MASSES, "charge": CHARGES}),
                              min_size=1, max_size=4))
    reference = draw(st.integers(0, len(particles) - 1))
    clamped = draw(st.integers(0, len(particles) - 1))
    if clamped != reference:
        particles[clamped] = particles[clamped] | {"clamped": True}
    size = draw(st.sampled_from(["rc_bohr", "lam"]))
    return {"particles": particles, "reference": reference, size: draw(SIZES)}


def with_particle_field(doc, key, value):
    first, *rest = doc["particles"]
    return doc | {"particles": [first | {key: value}, *rest]}


DOCUMENTS = st.one_of(
    systems(),
    st.builds(lambda doc, key, value: doc | {key: value}, systems(), KEYS, VALUES),
    st.builds(with_particle_field, systems(), KEYS, VALUES),
    st.builds(lambda doc, key: {k: v for k, v in doc.items() if k != key}, systems(), KEYS),
    VALUES,
)


def nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=st.builds(nested, DOCUMENTS, st.sampled_from([0, 0, 0, 1, 50, 500])))
def test_documents_give_a_system_or_a_validation_error(doc):
    try:
        result = system_from_dict(doc)
    except ValidationError:
        return
    assert isinstance(result, SystemDefinition)


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "system.json"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a leaked numpy warning would be a second line
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=DOCUMENTS, depth=st.sampled_from([0, 0, 0, 500, 990, 3000]), in_reference=st.booleans())
def test_document_files_exit_0_or_2_with_at_most_one_line(document_path, doc, depth, in_reference):
    # deep nesting is written as text, so it reaches json.load whatever its depth
    text = "[" * depth + json.dumps(doc) + "]" * depth
    if in_reference:
        text = '{"particles": [{"mass": 1, "charge": -1}], "reference": ' + text + ', "lam": 1}'
    document_path.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["coeffs", str(document_path)])
    assert code in (0, 2)
    assert len(err.getvalue().splitlines()) <= 1
