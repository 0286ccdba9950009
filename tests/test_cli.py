import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxatom import ci, cli, coulomb, perturbation, sphere
from boxatom.cli import main
from boxatom.errors import ConvergenceError, ValidationError
from boxatom.perturbation import epsilon1
from boxatom.system import MAX_PARTICLES, MAX_SYSTEM_FILE_BYTES, nondimensionalize, system_from_dict
from oracles import json_document


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    meta, data_lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            data_lines.append(line)
    parsed = list(csv.reader(data_lines))
    rows = [dict(zip(parsed[0], row)) for row in parsed[1:]]
    return meta, rows


TWO_ELECTRONS = {
    "particles": [{"mass": 1.0, "charge": -1.0}, {"mass": 1.0, "charge": -1.0}],
    "reference": 0,
    "rc_bohr": 1.0,
}


def crowd(count):
    """count - 1 identical electrons around a clamped nucleus."""
    electrons = [{"mass": 1.0, "charge": -1.0}] * (count - 1)
    return {"particles": electrons + [{"mass": 7296.3, "charge": 2.0, "clamped": True}],
            "reference": 0, "rc_bohr": 1.0}


GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_SYSTEMS = {
    "he-clamped": "he-clamped",
    "he-moving": "he-moving",
    # four light particles (three electrons and a muon) around a moving Z=3 nucleus
    "muonic-lithium": "tests/golden/muonic-lithium.json",
}
GOLDEN_CASES = [
    (f"{command}_{label}", [command, system])
    for command in ("coeffs", "curve", "nuclear-motion")
    for label, system in GOLDEN_SYSTEMS.items()
] + [("ci-scan_he-clamped_nmax4_steps3", ["ci-scan", "he-clamped", "--nmax", "4", "--steps", "3"])]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name, args", GOLDEN_CASES, ids=[name for name, _ in GOLDEN_CASES])
def test_golden_stdout(capsys, monkeypatch, name, args, fmt):
    # the system path is printed verbatim, so it is given relative to the repo root
    monkeypatch.chdir(GOLDEN.parent.parent)
    code, out, err = run(capsys, *args, "--format", fmt)
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (GOLDEN / f"{name}.{fmt}").read_bytes()


class TestCoeffs:
    def test_clamped_preset_csv(self, capsys):
        code, out, err = run(capsys, "coeffs", "he-clamped")
        assert code == 0 and err == ""
        meta, rows = parse_csv(out)
        assert meta["command"] == "coeffs"
        assert meta["system"] == "he-clamped"
        assert meta["quadrature_points"] == "200"
        assert float(meta["eps0"]) == pytest.approx(9.8696044, abs=1e-6)
        assert float(meta["eps1"]) == pytest.approx(-7.9645404, abs=1e-6)
        assert [r["term"] for r in rows] == [
            "kinetic[0]", "kinetic[1]", "pair[0,1]", "central[0,2]", "central[1,2]",
        ]

    def test_clamped_preset_json(self, capsys):
        code, out, err = run(capsys, "coeffs", "he-clamped", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["eps1"] == pytest.approx(-7.9645404, abs=1e-6)
        assert len(doc["breakdown"]) == 5
        assert doc["a_bohr"] == 1.0

    def test_output_newlines_are_unix(self, capsys):
        _, out, _ = run(capsys, "coeffs", "he-clamped")
        assert "\r" not in out and out.endswith("\n")

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "coeffs", "he-clamped")
        _, second, _ = run(capsys, "coeffs", "he-clamped")
        assert first == second

    def test_values_round_trip_through_text(self, capsys):
        _, out, _ = run(capsys, "coeffs", "he-clamped")
        _, rows = parse_csv(out)
        for row in rows:
            for column in ("prefactor", "integral", "value"):
                token = row[column]
                assert f"{float(token):.10g}" == token

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "coeffs", "he-clamped", "-o", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and str(target) in err
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_undecodable_system_path_is_written(self, capsys, tmp_path, fmt):
        # argv reads a byte that is not UTF-8 as a lone surrogate; the file holds the byte, as
        # stdout prints it by default, and JSON escapes the surrogate
        system = tmp_path / os.fsdecode(b"sys\xff.json")
        system.write_text(json.dumps(TWO_ELECTRONS))
        target = tmp_path / f"out.{fmt}"
        code, out, err = run(capsys, "coeffs", str(system), "--format", fmt, "-o", str(target))
        assert code == 0 and out == "" and err == ""
        if fmt == "csv":
            assert target.read_bytes().splitlines()[1] == b"# system=" + os.fsencode(system)
        else:
            assert json.loads(target.read_text())["system"] == str(system)

    def test_file_output_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, "coeffs", "he-clamped")
        target = tmp_path / "coeffs.csv"
        code, out, _ = run(capsys, "coeffs", "he-clamped", "-o", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == stdout_text

    def test_custom_system_file(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(TWO_ELECTRONS))
        code, out, _ = run(capsys, "coeffs", str(path))
        assert code == 0
        meta, rows = parse_csv(out)
        assert float(meta["eps1"]) == pytest.approx(1.786073168, abs=1e-8)
        assert [r["kind"] for r in rows] == ["kinetic", "kinetic", "pair"]


class TestCurve:
    def test_grid_and_turnover(self, capsys):
        code, out, _ = run(capsys, "curve", "he-clamped", "--lambda-min", "0.5",
                           "--lambda-max", "2.0", "--steps", "4")
        assert code == 0
        meta, rows = parse_csv(out)
        assert len(rows) == 4
        assert float(meta["turnover_lambda"]) == pytest.approx(2.478386, abs=1e-5)
        lams = [float(r["lambda"]) for r in rows]
        assert lams == pytest.approx([0.5, 1.0, 1.5, 2.0])
        unit_row = rows[1]
        assert float(unit_row["energy_hartree"]) == pytest.approx(1.905063997, abs=1e-8)
        assert float(unit_row["rc_bohr"]) == 1.0

    def test_coefficients_are_computed_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return epsilon1(*args, **kwargs)

        # the command calls its own import; the module's is patched too, so a second call counts
        monkeypatch.setattr(perturbation, "epsilon1", counted)
        monkeypatch.setattr(cli, "epsilon1", counted)
        code, _, _ = run(capsys, "curve", "he-clamped")
        assert code == 0 and len(calls) == 1

    def test_turnover_metadata_none_for_repulsive(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(TWO_ELECTRONS))
        code, out, _ = run(capsys, "curve", str(path))
        assert code == 0
        meta, _ = parse_csv(out)
        assert meta["turnover_lambda"] == "none"

    def test_moving_curve_sits_above_clamped(self, capsys):
        _, clamped_out, _ = run(capsys, "curve", "he-clamped")
        _, moving_out, _ = run(capsys, "curve", "he-moving")
        _, clamped_rows = parse_csv(clamped_out)
        _, moving_rows = parse_csv(moving_out)
        assert len(clamped_rows) == len(moving_rows) == 20
        for c, m in zip(clamped_rows, moving_rows):
            assert c["lambda"] == m["lambda"]
            assert float(m["energy_hartree"]) > float(c["energy_hartree"])

    @pytest.mark.parametrize("low,high,steps", [("2e154", "1e300", "3"), ("1e308", "1e308", "1")],
                             ids=["2e154-1e300", "1e308"])
    def test_lambda_squared_beyond_the_float_range_prints_the_energy(self, capsys, low, high, steps):
        # lambda^2 overflows from about 1.34e154 on; eps1 / lambda is still a float
        code, out, err = run(capsys, "curve", "he-clamped", "--lambda-min", low,
                             "--lambda-max", high, "--steps", steps)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        for row in rows:
            energy, lam = float(row["energy_hartree"]), float(row["lambda"])
            assert energy == pytest.approx(-7.96454040407721 / lam, rel=1e-9)

    def test_physical_units_rescale(self, capsys, tmp_path):
        # heavier reference particle shrinks a_bohr and scales energies
        heavy = dict(TWO_ELECTRONS, particles=[{"mass": 2.0, "charge": -1.0}] * 2)
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(heavy))
        code, out, _ = run(capsys, "curve", str(path), "--lambda-min", "1.0",
                           "--lambda-max", "1.0", "--steps", "1")
        assert code == 0
        meta, rows = parse_csv(out)
        assert float(meta["a_bohr"]) == pytest.approx(0.5)
        assert float(meta["energy_prefactor_hartree"]) == pytest.approx(2.0)
        assert float(rows[0]["rc_bohr"]) == pytest.approx(0.5)


# every command, nuclear-motion's nested sections, a one-row curve, and a
# repulsive system (PAIR) whose turnover is null and whose path needs escaping
PAIR = 'pair "\u00e9".json'
STREAMED_CASES = [
    ["coeffs", "he-clamped"],
    ["coeffs", "tests/golden/muonic-lithium.json"],
    ["curve", "he-moving"],
    ["curve", "he-clamped", "--steps", "1"],
    ["curve", PAIR],
    ["ci-scan", "he-clamped", "--nmax", "4", "--steps", "3"],
    ["nuclear-motion", "he-clamped"],
    ["nuclear-motion", "tests/golden/muonic-lithium.json"],
]

# names of at most 4 characters never collide with the run head's keys
NAMES = st.text(max_size=4)
VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))


@st.composite
def reports(draw, depth=0):
    names = draw(st.lists(NAMES, unique=True, min_size=1, max_size=8))
    rows_name, *names = names
    split = draw(st.integers(0, len(names)))
    keys, section_names = names[:split], names[split:] if depth == 0 else []
    columns = tuple(draw(st.lists(NAMES, unique=True, max_size=3)))
    rows = draw(st.lists(st.lists(VALUES, min_size=len(columns), max_size=len(columns)),
                         max_size=3))
    return cli.Report(
        meta=[(key, draw(VALUES)) for key in keys], columns=columns, rows=rows,
        rows_name=rows_name, sections={name: draw(reports(depth + 1)) for name in section_names})


class TestStreamedOutput:
    @pytest.mark.parametrize("args", STREAMED_CASES, ids=" ".join)
    def test_json_matches_json_dumps(self, capsys, monkeypatch, tmp_path, args):
        monkeypatch.chdir(GOLDEN.parent.parent)
        (tmp_path / PAIR).write_text(json.dumps(TWO_ELECTRONS), encoding="utf-8")
        argv = [*(str(tmp_path / PAIR) if arg == PAIR else arg for arg in args), "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        parsed = cli._build_parser().parse_args(argv)
        assert out == json_document(parsed.command, parsed.system, parsed.quad_points,
                                    cli._COMMANDS[parsed.command](parsed))

    @settings(max_examples=200, deadline=None)
    @given(report=reports())
    def test_any_report_matches_json_dumps(self, report):
        args = argparse.Namespace(command="coeffs", system="x\u00e9\"", quad_points=200, format="json")
        out = io.StringIO()
        cli.write_report(args, report, out)
        assert out.getvalue() == json_document("coeffs", "x\u00e9\"", 200, report)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_curve_file_matches_stdout(self, capsys, tmp_path, fmt):
        args = ["curve", "he-clamped", "--steps", str(cli.MAX_STEPS), "--format", fmt]
        _, stdout_text, _ = run(capsys, *args)
        target = tmp_path / f"curve.{fmt}"
        code, out, err = run(capsys, *args, "-o", str(target))
        assert code == 0 and out == "" and err == ""
        assert target.read_bytes() == stdout_text.encode("utf-8")
        rows = json.loads(stdout_text)["points"] if fmt == "json" else parse_csv(stdout_text)[1]
        assert len(rows) == cli.MAX_STEPS

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_curve_memory_is_small(self, tmp_path, fmt):
        # the whole document built before writing peaked at 2.9 MB (CSV) and
        # 11.4 MB (JSON); a list of 10,000 curve points and their grid peaked
        # at 1.5 MB, where three float64 columns hold 0.24 MB
        args = ["curve", "he-clamped", "--format", fmt, "-o", str(tmp_path / f"curve.{fmt}")]
        assert main([*args, "--steps", "1"]) == 0  # the ground integrals are kept; only the curve is measured
        tracemalloc.start()
        try:
            code = main([*args, "--steps", str(cli.MAX_STEPS)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= 0.75 * 2**20

    def test_long_ci_scan_memory_is_small(self, tmp_path):
        # keeping each row's 78-entry vector, and checking concavity 2^18 pairs
        # at a time, peaked at 14.2 MiB; a row now keeps a few floats
        args = ["ci-scan", "he-clamped", "--nmax", "12", "-o", str(tmp_path / "scan.csv")]
        assert main([*args, "--steps", "1"]) == 0  # the ground integrals are kept; only the scan is measured
        tracemalloc.start()
        try:
            code = main([*args, "--steps", "2000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and peak <= 5 * 2**20

    def test_failing_lambda_opens_no_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.json"
        code, out, err = run(capsys, "curve", "he-clamped", "--lambda-min", "1e-300",
                             "--lambda-max", "1", "--steps", "3", "--format", "json",
                             "-o", str(target))
        assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
        assert not target.exists()


def cli_process(args):
    """`python -m boxatom.cli ARGS` importing this checkout's boxatom."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return [sys.executable, "-m", "boxatom.cli", *args], env


class TestStdoutFailure:
    # each ended in a traceback before stdout write errors were caught
    @staticmethod
    def assert_one_line(code, err, reason):
        assert code == 2
        assert err == f"error: cannot write stdout: {reason}\n"

    def test_closed_pipe(self):
        argv, env = cli_process(["curve", "he-clamped", "--steps", str(cli.MAX_STEPS)])
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        # the curve is larger than a pipe buffer, so it is still writing when the reader leaves
        assert proc.stdout.readline() == b"# command=curve\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        self.assert_one_line(proc.returncode, err.decode(), "Broken pipe")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_full_device(self):
        argv, env = cli_process(["coeffs", "he-clamped"])
        with open("/dev/full", "w") as full:
            done = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        self.assert_one_line(done.returncode, done.stderr, "No space left on device")

    @pytest.mark.parametrize("encoding, name", [("utf-8:strict", b"sys\xff.json"), ("ascii", "\u00e9.json".encode())],
                             ids=["utf-8-strict", "ascii"])
    def test_stdout_that_cannot_encode_the_system_path(self, tmp_path, encoding, name):
        (tmp_path / os.fsdecode(name)).write_text(json.dumps(TWO_ELECTRONS))
        argv, env = cli_process(["coeffs", os.fsdecode(name)])
        done = subprocess.run(argv, env=dict(env, PYTHONIOENCODING=encoding), cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        codec = encoding.split(":")[0]
        assert done.returncode == 2 and done.stderr.count("\n") == 1
        assert done.stderr.startswith(f"error: cannot write stdout: '{codec}' codec can't encode character")

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["coeffs", "nuclear-motion"])
    def test_head_that_cannot_be_encoded_writes_nothing(self, tmp_path, command, unbuffered):
        # an unbuffered stdout wrote the first head line before the encoding failed
        (tmp_path / "\u00e9.json").write_text(json.dumps(crowd(3)))
        argv, env = cli_process([command, "\u00e9.json"])
        env = dict(env, PYTHONIOENCODING="ascii")
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        done = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, timeout=60)
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.startswith(b"error: cannot write stdout: 'ascii' codec") and done.stderr.count(b"\n") == 1

    def test_closed_stdout(self):
        argv, env = cli_process(["coeffs", "he-clamped"])
        # the shell's `>&-` starts the process with no file descriptor 1
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], env=env,
                              stderr=subprocess.PIPE, text=True, timeout=60)
        self.assert_one_line(done.returncode, done.stderr, "it is closed")


class TestCiScan:
    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "ci-scan", "he-clamped", "--nmax", "6",
                           "--lambda-min", "0.5", "--lambda-max", "1.0", "--steps", "2")
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["nmax"] == "6" and meta["z"] == "2"
        assert float(meta["s_limited_eps2"]) == pytest.approx(-0.6796, abs=1e-3)
        assert len(rows) == 2
        for row in rows:
            assert float(row["energy_ci"]) <= float(row["energy_first_order"]) + 1e-9
            assert 0.0 <= float(row["overlap0"]) <= 1.0

    def test_overlap_decays_along_grid(self, capsys):
        code, out, _ = run(capsys, "ci-scan", "he-clamped", "--nmax", "5",
                           "--lambda-min", "0.01", "--lambda-max", "2.0", "--steps", "6")
        assert code == 0
        _, rows = parse_csv(out)
        overlaps = [float(r["overlap0"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(overlaps, overlaps[1:]))

    def test_requires_clamped_nucleus(self, capsys):
        code, _, err = run(capsys, "ci-scan", "he-moving")
        assert code == 2
        assert "error:" in err

    def test_small_nmax_rejected(self, capsys):
        code, _, err = run(capsys, "ci-scan", "he-clamped", "--nmax", "3")
        assert code == 2 and "error:" in err

    def test_underresolved_quadrature_exits_3(self, capsys):
        code, _, err = run(capsys, "ci-scan", "he-clamped", "--nmax", "10", "--quad-points", "16")
        assert code == 3
        assert "error:" in err

    def test_nmax_above_bound_rejected(self):
        # validator only: a scan this large is never started
        args = cli._build_parser().parse_args(["ci-scan", "he-clamped", "--nmax", str(coulomb.MAX_NMAX + 1)])
        with pytest.raises(ValidationError, match="nmax"):
            cli._check_args(args)

    def test_scan_computes_block_once(self, capsys, monkeypatch):
        # the W builds of a scan share one checked block: one profile build on
        # the run's own grid (the check is against closed forms, not a 2n
        # grid), after eps1's nmax-1 block for its ground-mode integrals
        coulomb._ground_integrals.cache_clear()
        grids = []
        build_block = coulomb._quadrature_block

        def counted_block(points, nmax):
            grids.append((points, nmax))
            return build_block(points, nmax)

        monkeypatch.setattr(coulomb, "_quadrature_block", counted_block)
        code, _, _ = run(capsys, "ci-scan", "he-clamped", "--nmax", "5", "--steps", "3")
        assert code == 0
        assert grids == [(200, 1), (200, 5)]
        # what is kept is the two ground integrals at the run's resolution, and no block
        assert coulomb._ground_integrals.cache_info().currsize == 1

    def test_scan_builds_interaction_once(self, capsys, monkeypatch):
        # the lambda scan, the eps2 fit and its reference sum share one CiProblem
        calls = []
        build = ci._interaction_matrix

        def counted(z, nmax, points):
            calls.append(nmax)
            return build(z, nmax, points)

        monkeypatch.setattr(ci, "_interaction_matrix", counted)
        code, _, _ = run(capsys, "ci-scan", "he-clamped", "--nmax", "5", "--steps", "3")
        assert code == 0
        assert calls == [5]

    def test_nmax24_scan_pays_per_problem(self, capsys, monkeypatch):
        # one interlacing knot certifies every scan and fit point: no Cholesky
        # per point, and the mode profiles come from the recurrence
        coulomb._ground_integrals.cache_clear()
        factorizations, modes = [], []
        no_eigenvalue_below, radial_init = ci._no_eigenvalue_below, sphere.RadialMode.__init__
        monkeypatch.setattr(ci, "_no_eigenvalue_below",
                            lambda *a: factorizations.append(a[2].shape) or no_eigenvalue_below(*a))
        monkeypatch.setattr(sphere.RadialMode, "__init__",
                            lambda self, *a, **k: modes.append(a) or radial_init(self, *a, **k))
        code, _, _ = run(capsys, "ci-scan", "he-clamped", "--nmax", "24")
        assert code == 0
        assert 1 <= len(factorizations) <= 2 and modes == []

    @pytest.mark.parametrize("steps, raised", [(1, 1), (6, 3)])
    def test_concavity_failure_names_the_pair_the_library_scan_names(self, capsys, monkeypatch,
                                                                     steps, raised):
        # the CLI prints the error of the library scan it calls
        certified, rows = ci._certified_ground_state, []

        def raise_one_row(lam, subspace, floor):
            rows.append(lam)
            energy, coeff, residual = certified(lam, subspace, floor)
            if len(rows) == raised:
                energy += 0.5
            return energy, coeff, residual

        monkeypatch.setattr(ci, "_certified_ground_state", raise_one_row)
        code, out, err = run(capsys, "ci-scan", "he-clamped", "--nmax", "6", "--lambda-min", "0.1",
                             "--lambda-max", "2.0", "--steps", str(steps))
        assert len(rows) == steps
        rows.clear()
        with pytest.raises(ConvergenceError, match="concave") as failure:
            problem = ci.CiProblem(2.0, 6)
            problem.scan(np.linspace(0.1, 2.0, steps))
        assert code == 3 and out == "" and err == f"error: {failure.value}\n"

    @pytest.mark.filterwarnings("error")  # a leaked numpy warning would be a second line
    def test_overflowing_lambda_exits_2_with_one_line(self, capsys):
        # ||H|| far beyond RESIDUAL_TOL / (10 eps) is outside the solver's domain
        code, out, err = run(capsys, "ci-scan", "he-clamped", "--nmax", "4",
                             "--lambda-min", "1e300", "--lambda-max", "1e300", "--steps", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "||H||_2" in err

    @pytest.mark.filterwarnings("error")  # a leaked numpy warning would be a second line
    def test_lambda_times_w_overflow_exits_2_with_one_line(self, capsys):
        code, _, err = run(capsys, "ci-scan", "he-clamped", "--nmax", "4",
                           "--lambda-min", "1e308", "--lambda-max", "1e308", "--steps", "1")
        assert code == 2
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_large_charge_fits_eps2(self, capsys, tmp_path):
        # the fixed fit grid reached lambda = 0.2, where a nuclear charge of 1e5 put
        # ||H|| beyond the solver's range; the grid now shrinks as 4 / Z
        path = tmp_path / "heavy-charge.json"
        path.write_text(json.dumps({
            "particles": [{"mass": 1.0, "charge": -1.0}, {"mass": 1.0, "charge": -1.0},
                          {"mass": 5.0, "charge": 1e5, "clamped": True}],
            "reference": 0, "lam": 1.0}), encoding="utf-8")
        code, out, err = run(capsys, "ci-scan", str(path), "--nmax", "4", "--lambda-min", "1e-9",
                             "--lambda-max", "1e-9", "--steps", "1")
        assert code == 0 and err == ""
        meta, _ = parse_csv(out)
        assert out.count("# s_limited_eps2=") == 1
        sos = ci.CiProblem(1e5, 4).second_order_sum_over_states()
        assert float(meta["s_limited_eps2"]) == pytest.approx(sos, rel=0.005)

    def test_scan_and_fit_each_pass_the_concavity_check(self, capsys, monkeypatch):
        rows = []
        check_concavity = ci._check_concavity

        def recorded(lam, *rest):
            rows.append(len(lam))
            check_concavity(lam, *rest)

        monkeypatch.setattr(ci, "_check_concavity", recorded)
        code, _, _ = run(capsys, "ci-scan", "he-clamped", "--nmax", "6", "--steps", "5")
        # each grid plus its lambda = 0 row: the scan's 5 points, then the fit's 10
        assert code == 0 and rows == [6, 11]


@pytest.mark.parametrize("args,builds", [
    (("coeffs", "he-clamped"), [(200, 1)]),
    (("curve", "he-clamped"), [(200, 1)]),
    (("nuclear-motion", "he-moving"), [(200, 1)]),
    (("nuclear-motion", "he-moving", "--quad-points", "512"), [(512, 1)]),
    (("ci-scan", "he-clamped", "--nmax", "24", "--steps", "3"), [(200, 1), (200, 24)]),
], ids=["coeffs", "curve", "nuclear-motion", "nuclear-motion-512", "ci-scan"])
def test_each_command_builds_each_block_once(capsys, monkeypatch, args, builds):
    # a process keeps the ground integrals per resolution: first order builds the
    # nmax-1 block once however many systems it serves, and CI builds the nmax block
    coulomb._ground_integrals.cache_clear()
    built = []
    build = coulomb._quadrature_block
    monkeypatch.setattr(coulomb, "_quadrature_block", lambda *a: built.append(a) or build(*a))
    code, _, _ = run(capsys, *args)
    assert code == 0 and built == builds


class TestNuclearMotion:
    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "nuclear-motion", "he-moving")
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["dominant"] == "potential-dominated"
        assert float(meta["kinetic_shift"]) == pytest.approx(6.8527884e-05, rel=1e-6)
        assert float(meta["potential_shift"]) == pytest.approx(0.3272405898, rel=1e-8)
        variants = {r["variant"] for r in rows}
        assert variants == {"clamped", "moving"}
        assert len([r for r in rows if r["variant"] == "moving"]) == 6

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "nuclear-motion", "he-moving", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["dominant"] == "potential-dominated"
        assert doc["clamped"]["eps1"] == pytest.approx(-7.9645404, abs=1e-6)
        assert doc["moving"]["eps1"] == pytest.approx(-5.3582195, abs=1e-6)

    def test_variants_match_the_scaled_flagged_definitions(self):
        # the variants re-flag the scaled nucleus; scaling a definition whose nucleus carries
        # the flag gives the same floats, here with a muon as the reference
        data = json.loads((GOLDEN / "muonic-lithium.json").read_text())
        data["reference"] = 3

        def scaled(clamped):
            data["particles"][4]["clamped"] = clamped
            return nondimensionalize(system_from_dict(data))

        assert cli._nuclear_variants(scaled(False)) == {"clamped": scaled(True), "moving": scaled(False)}

    def test_clamped_preset_also_works(self, capsys):
        # the command derives both variants regardless of the preset's flag
        code, out, _ = run(capsys, "nuclear-motion", "he-clamped")
        assert code == 0
        meta, _ = parse_csv(out)
        assert meta["dominant"] == "potential-dominated"

    def test_system_without_nucleus_rejected(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(TWO_ELECTRONS))
        code, _, err = run(capsys, "nuclear-motion", str(path))
        assert code == 2 and "error:" in err


# two bad values each, the first of them caught by the check that comes first
CHECK_ORDER = [
    (["curve", "he-clamped", "--steps", "0", "--lambda-min", "nan"], "steps must lie in [1, 10000], got 0"),
    (["curve", "he-clamped", "--lambda-min", "inf", "--lambda-max", "nan"], "lambda-min must be finite, got inf"),
    (["curve", "he-clamped", "--lambda-max", "inf", "--lambda-min", "-1"], "lambda-max must be finite, got inf"),
    (["curve", "he-clamped", "--lambda-min", "-1", "--lambda-max", "-2"], "lambda-min must be positive, got -1.0"),
    (["curve", "he-clamped", "--lambda-min", "2", "--lambda-max", "1", "--quad-points", "15"],
     "lambda-max 1.0 is below lambda-min 2.0"),
    (["ci-scan", "he-clamped", "--nmax", "49", "--steps", "0"], "steps must lie in [1, 10000], got 0"),
    (["ci-scan", "he-clamped", "--quad-points", "15", "--nmax", "49"],
     "quadrature points must lie in [16, 512], got 15"),
    (["ci-scan", "he-moving", "--nmax", "3"], "ci-scan needs nmax >= 4 for the second-order estimate, got 3"),
    (["coeffs", "no-such.json", "--quad-points", "513"], "quadrature points must lie in [16, 512], got 513"),
    (["coeffs", "he-clamped", "--quad-points", "15", "-o", "no-such-dir/out.csv"],
     "quadrature points must lie in [16, 512], got 15"),
]


class TestArgumentAndInputErrors:
    def test_unknown_system_lists_presets(self, capsys):
        code, _, err = run(capsys, "coeffs", "nosuchfile")
        assert code == 2
        assert "he-clamped" in err and "he-moving" in err

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"particles": [')
        code, _, err = run(capsys, "coeffs", str(path))
        assert code == 2 and "line" in err

    def test_unknown_field_named(self, capsys, tmp_path):
        payload = dict(TWO_ELECTRONS, colour="red")
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "coeffs", str(path))
        assert code == 2 and "colour" in err

    def test_line_break_in_message_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "key.json"
        path.write_text(json.dumps(dict(TWO_ELECTRONS, **{"bad\nkey": 1})))
        code, out, err = run(capsys, "coeffs", str(path))
        assert code == 2 and out == ""
        assert err == "error: unknown system field(s): bad key\n"

    def test_deeply_nested_json_exits_2_with_one_line(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "coeffs", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: invalid JSON") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("count", [MAX_PARTICLES + 1, 1500])
    def test_too_many_particles_exits_2_with_one_line(self, capsys, tmp_path, count):
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps(crowd(count)))
        code, out, err = run(capsys, "coeffs", str(path))
        assert code == 2 and out == ""
        assert "at most" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("extra, expected", [(0, 0), (1, 2)], ids=["at-bound", "one-past"])
    def test_system_file_is_read_up_to_its_bound(self, capsys, tmp_path, extra, expected):
        document = json.dumps(TWO_ELECTRONS)
        path = tmp_path / "padded.json"
        path.write_text(document + " " * (MAX_SYSTEM_FILE_BYTES + extra - len(document)))
        code, out, err = run(capsys, "coeffs", str(path))
        assert code == expected
        if expected == 2:
            assert out == ""
            assert err == f"error: system file {path} is longer than {MAX_SYSTEM_FILE_BYTES} bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this platform")
    def test_endless_system_file_exits_2_with_one_line(self):
        argv, env = cli_process(["coeffs", "/dev/zero"])

        def cap_memory():
            # an unbounded read fails here at once instead of filling the machine's memory
            resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60,
                              preexec_fn=cap_memory)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: system file /dev/zero is longer than {MAX_SYSTEM_FILE_BYTES} bytes\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_named_pipe_system_file_exits_2_with_one_line(self, tmp_path):
        # a FIFO that no process writes to blocked the read forever
        path = tmp_path / "fifo.json"
        os.mkfifo(path)
        argv, env = cli_process(["coeffs", str(path)])
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: system file {path} is a named pipe, not a file\n"

    @pytest.mark.parametrize("reference", [0, 1])
    def test_heavy_degenerate_partner_exits_2_for_any_reference(self, capsys, tmp_path, reference):
        masses = (1.0, 7.0, 1.8e16)
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps({"particles": [{"mass": m, "charge": -1.0} for m in masses],
                                    "reference": reference, "rc_bohr": 0.5}))
        code, out, err = run(capsys, "coeffs", str(path))
        assert code == 2 and out == ""
        assert "degenerate" in err and len(err.splitlines()) == 1

    def test_particle_bound_still_runs(self, capsys, tmp_path):
        count = MAX_PARTICLES
        path = tmp_path / "crowd.json"
        path.write_text(json.dumps(crowd(count)))
        code, out, err = run(capsys, "coeffs", str(path))
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        free = count - 1
        assert len(rows) == free + free * (free - 1) // 2 + free  # kinetic, pair, central

    def test_lam_file_matches_rc_bohr_file(self, capsys, tmp_path):
        # for an electron reference a = 1 bohr, so lam = 1 is rc_bohr = 1
        out = {}
        for key in ("rc_bohr", "lam"):
            doc = {k: v for k, v in TWO_ELECTRONS.items() if k != "rc_bohr"} | {key: 1.0}
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(doc))
            code, out[key], err = run(capsys, "coeffs", str(path))
            assert code == 0 and err == ""
        rc_lines, lam_lines = out["rc_bohr"].splitlines(), out["lam"].splitlines()
        assert rc_lines[1].startswith("# system=") and lam_lines[1].startswith("# system=")
        assert rc_lines[:1] + rc_lines[2:] == lam_lines[:1] + lam_lines[2:]

    @pytest.mark.parametrize("points", ["8", "15", "513", "1000"])
    def test_quad_points_out_of_range(self, capsys, points):
        # the CLI's message is the library's own, from the one check in coulomb
        code, _, err = run(capsys, "coeffs", "he-clamped", "--quad-points", points)
        with pytest.raises(ValidationError) as library_error:
            coulomb.ground_integrals(int(points))
        assert code == 2 and err == f"error: {library_error.value}\n"

    def test_bad_lambda_grid(self, capsys):
        code, _, err = run(capsys, "curve", "he-clamped", "--lambda-min", "0")
        assert code == 2
        code, _, err = run(capsys, "curve", "he-clamped", "--lambda-min", "2", "--lambda-max", "1")
        assert code == 2
        code, _, err = run(capsys, "curve", "he-clamped", "--steps", "0")
        assert code == 2

    @pytest.mark.filterwarnings("error")  # a leaked numpy warning would be a second line
    @pytest.mark.parametrize("args", [
        ("--lambda-min", "1e-320", "--steps", "2"),  # lambda**2 underflows to 0
        ("--lambda-min", "1e-160", "--lambda-max", "1e-160", "--steps", "1"),  # energy overflows
        ("--lambda-max", "inf"),
        ("--lambda-min", "nan"),
    ])
    def test_extreme_lambda_exits_2_with_one_line(self, capsys, args):
        code, out, err = run(capsys, "curve", "he-clamped", *args)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_steps_bound(self):
        # validator only: no grid of that size is ever built
        def check(steps):
            cli._check_args(cli._build_parser().parse_args(["curve", "he-clamped", "--steps", str(steps)]))

        check(cli.MAX_STEPS)
        assert cli.MAX_STEPS >= 4000  # the longest curve the benchmark asks for
        with pytest.raises(ValidationError, match="steps"):
            check(cli.MAX_STEPS + 1)
        with pytest.raises(ValidationError, match="steps"):
            check(10**12)

    @pytest.mark.parametrize("args, message", CHECK_ORDER, ids=[" ".join(a) for a, _ in CHECK_ORDER])
    def test_first_failing_check_is_named(self, capsys, args, message):
        # every argument is checked in one fixed order, before any system file is read
        code, out, err = run(capsys, *args)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate", "he-clamped"])

    @pytest.mark.parametrize("args", [
        ["curve", "he-clamped", "--steps", "abc"],
        ["curve", "he-clamped", "--lambda-min", "-inf"],  # read as an option, so no value
        ["ci-scan", "he-clamped", "--nmax", "x"],
        ["coeffs"],
        ["coeffs", "he-clamped", "--format", "xml"],
        ["coeffs", "he-clamped", "stray\nargument"],  # echoed back, line break and all
    ])
    def test_usage_error_is_one_line(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--help"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage: boxatom curve")


# every flag the parser knows; -o is drawn apart, from destinations that cannot
# be written and one that can
FUZZ_VALUES = st.one_of(
    st.sampled_from(["csv", "json", "he-clamped", "-1", "0", "1e-320", "1e308", "inf", "nan"]),
    st.integers(-20, 600).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=8),
)
FUZZ_FLAGS = ["--quad-points", "--format", "--lambda-min", "--lambda-max", "--steps"]
FUZZ_OUTPUTS = [None, "directory", "missing-directory", "file"] + (
    ["/dev/full"] if os.path.exists("/dev/full") else [])


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["coeffs", "curve", "nuclear-motion", "ci-scan"]))
    systems = ["he-clamped", "he-moving", str(GOLDEN / "muonic-lithium.json"), "nosuch"]
    if command == "ci-scan":
        # its work grows as nmax**4 (its bound is checked above), so nmax stays at 4-6;
        # he-clamped, the one preset it takes, is drawn as often as the rest together
        command, names = ["ci-scan", "--nmax", str(draw(st.integers(4, 6)))], FUZZ_FLAGS
        systems += ["he-clamped"] * 2
    else:
        command, names = [command], [*FUZZ_FLAGS, "--nmax"]  # --nmax is a usage error here
    flags = st.tuples(st.sampled_from(names), FUZZ_VALUES)
    flags |= st.tuples(st.just("--quad-points"), st.integers(8, 600).map(str))
    system = draw(st.sampled_from(systems))
    return [*command, system, *(token for pair in draw(st.lists(flags, max_size=4)) for token in pair)]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a leaked numpy warning would be a second line
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=fuzz_argv(), output=st.sampled_from(FUZZ_OUTPUTS))
def test_fuzzed_arguments_exit_0_2_or_3_with_at_most_one_line(argv, output):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        destination = {"directory": tmp, "missing-directory": os.path.join(tmp, "no", "out"),
                       "file": os.path.join(tmp, "out")}.get(output, output)
        if destination is not None:
            argv = [*argv, "-o", destination]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")


# the grid flags of curve and ci-scan, passed as --flag=VALUE so that a value
# with a leading minus sign is not read as an option
GRID_VALUES = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0.0", "0", "1e308", "-1e308", "1e-300",
                     "1e-320", "5e-324", "1" + "0" * 400, "9" * 5000, "\u0661.\u0665", "\uff12",
                     "\u0663e-1", "0.1", "2", "", "x"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-3, 1e3).map(repr),
)
GRID_STEPS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["10001", str(2**63), "9" * 5000, "\u0663", "\uff11\uff10", "1.0", "", "-0"]),
)


@pytest.mark.filterwarnings("error")  # a leaked warning would be a second line
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from([["curve"], ["ci-scan", "--nmax", "4"]]),
       flags=st.lists(st.tuples(st.sampled_from(["--lambda-min", "--lambda-max"]), GRID_VALUES)
                      | st.tuples(st.just("--steps"), GRID_STEPS), max_size=3))
def test_fuzzed_grid_flags_exit_0_2_or_3_with_one_error_line(command, flags):
    argv = [command[0], "he-clamped", *command[1:], *(f"{flag}={value}" for flag, value in flags)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")


# any JSON value nested two deep, and keys that are field names, non-ASCII,
# control characters or a field name with a line break
DOCUMENT_KEYS = st.one_of(
    st.sampled_from(["particles", "reference", "rc_bohr", "lam", "mass", "charge", "clamped",
                     "\u00e9", "\x00", "mass\n"]),
    st.text(max_size=4),
)
DOCUMENT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**400, 10**400),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
)


def document_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(DOCUMENT_KEYS, inner, max_size=3)


DOCUMENT_VALUES = DOCUMENT_SCALARS | document_containers(
    DOCUMENT_SCALARS | document_containers(DOCUMENT_SCALARS))


@st.composite
def fuzz_document(draw):
    """An accepted helium-like document with up to two values replaced or added."""
    nucleus = {"mass": 7296.3, "charge": 2.0, "clamped": draw(st.booleans())}
    electrons = [{"mass": 1.0, "charge": -1.0} for _ in range(2)]
    doc = {"particles": [*electrons, nucleus], "reference": 0,
           draw(st.sampled_from(["rc_bohr", "lam"])): 1.0}
    # a top-level field or a field of one particle
    for target in draw(st.lists(st.sampled_from([doc, *doc["particles"]]), max_size=2)):
        target[draw(DOCUMENT_KEYS)] = draw(DOCUMENT_VALUES)
    return doc


@pytest.mark.filterwarnings("error")  # a leaked warning would be a second line
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=fuzz_document(), ensure_ascii=st.booleans(),
       command=st.sampled_from([["coeffs"], ["curve"], ["nuclear-motion"],
                                ["ci-scan", "--nmax", "4", "--steps", "3"]]))
def test_fuzzed_system_documents_exit_0_2_or_3_with_one_error_line(doc, ensure_ascii, command):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, ensure_ascii=ensure_ascii)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command[0], path, *command[1:]])
    assert code in (0, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert err.getvalue().endswith("\n")


def test_quad_points_environment_variable_is_not_read(capsys, monkeypatch):
    # --quad-points is the one way to set the resolution
    monkeypatch.setenv("BOXATOM_QUAD_POINTS", "bogus")
    code, out, err = run(capsys, "coeffs", "he-clamped")
    assert code == 0 and err == ""
    assert parse_csv(out)[0]["quadrature_points"] == "200"
