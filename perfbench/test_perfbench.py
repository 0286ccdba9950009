"""Tests of the benchmark's own code: output checks, generator, span arithmetic."""

import filecmp
import os

import pytest

import checks
import run
import tracer
import workloads

HE_COEFFS_CSV = """\
# command=coeffs
# system=he-clamped
# quadrature_points=200
# lambda=1
# a_bohr=1
# energy_prefactor_hartree=1
# eps0=9.869604401
# eps1=-7.964540404
term,kind,prefactor,integral,value
kinetic[0],kinetic,1,4.934802201,4.934802201
kinetic[1],kinetic,1,4.934802201,4.934802201
"pair[0,1]",pair,1,1.786073168,1.786073168
"central[0,2]",central,-2,2.437653393,-4.875306786
"central[1,2]",central,-2,2.437653393,-4.875306786
"""

HE_COEFFS = {"command": "coeffs", "format": "csv", "system": checks.PRESETS["he-clamped"],
             "system_arg": "he-clamped", "quad_points": 200}


def test_closed_forms_match_reference_digits():
    assert checks.PAIR_11 == pytest.approx(1.7860731681516873, abs=1e-15)
    assert checks.CENTRAL_11 == pytest.approx(2.437653393057225, abs=1e-15)


def test_checker_accepts_the_documented_coeffs_output():
    checks.check_output(HE_COEFFS_CSV, HE_COEFFS)


def test_checker_rejects_eps1_off_by_1e8():
    bad = HE_COEFFS_CSV.replace("# eps1=-7.964540404", "# eps1=-7.964540414")
    with pytest.raises(checks.CheckFailed, match="eps1"):
        checks.check_output(bad, HE_COEFFS)


def _ci_scan_csv(energy_ci_shift: float) -> tuple[str, dict]:
    inv = {"command": "ci-scan", "format": "csv", "system": checks.PRESETS["he-clamped"],
           "system_arg": "he-clamped", "quad_points": 200, "nmax": 8,
           "lambda_min": 0.5, "lambda_max": 1.0, "steps": 2}
    eps0, eps1 = checks.first_order(inv["system"])["eps0"], checks.first_order(inv["system"])["eps1"]
    lines = ["# command=ci-scan", "# system=he-clamped", "# quadrature_points=200", "# nmax=8",
             "# z=2", f"# eps0={eps0:.10g}", f"# eps1={eps1:.10g}", "# s_limited_eps2=-0.25",
             "lambda,energy_ci,energy_first_order,overlap0"]
    for lam in (0.5, 1.0):
        first = eps0 + eps1 * lam
        lines.append(f"{lam:.10g},{first - 0.25 * lam * lam + energy_ci_shift:.10g},{first:.10g},0.99")
    return "\n".join(lines) + "\n", inv


def test_checker_accepts_ci_energy_below_first_order():
    text, inv = _ci_scan_csv(0.0)
    checks.check_output(text, inv)


def test_checker_rejects_ci_energy_above_first_order():
    text, inv = _ci_scan_csv(0.25 * 1.0 + 1e-6)
    with pytest.raises(checks.CheckFailed, match="above first order"):
        checks.check_output(text, inv)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    first, second, other = (tmp_path / name for name in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    a = workloads.build(workload, 7, str(first))
    b = workloads.build(workload, 7, str(second))
    c = workloads.build(workload, 8, str(other))
    assert a == b
    assert a != c
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    assert filecmp.cmpfiles(first, second, names, shallow=False)[0] == names


def test_quick_outputs_pass_the_checks(tmp_path, monkeypatch, capsys):
    from boxatom.cli import main

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BOXATOM_QUAD_POINTS", raising=False)
    invocations = workloads.build("quick", 3, str(tmp_path))
    assert {inv["command"] for inv in invocations} == {"coeffs", "curve", "nuclear-motion"}
    for inv in invocations:
        assert main(inv["args"]) == 0
        checks.check_output(capsys.readouterr().out, inv)


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    parent = [tracer.NO_PARENT, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


class _Table:
    def __init__(self):
        self._values = {}

    def get(self, key):
        return self._values.setdefault(key, key.upper())


def test_recorder_round_trip_nests_and_classifies_cold_calls(tmp_path):
    recorder = tracer.Recorder()
    table = _Table()
    leaf = recorder.wrap("leaf", _Table.get, cache="_values")
    root = recorder.wrap("root", lambda keys: [leaf(table, k) for k in keys])
    assert root(["x", "y", "x"]) == ["X", "Y", "X"]
    path = str(tmp_path / "spans.bin")
    recorder.write(path, {"startup": {}})
    spans = tracer.read_spans(path)
    assert [spans["names"][i] for i in spans["name"]] == ["root", "leaf", "leaf", "leaf"]
    assert list(spans["parent"]) == [tracer.NO_PARENT, 0, 0, 0]
    assert spans["cold"] == [1, 2]
    summary = tracer.summarize(spans)
    assert summary["leaf"]["calls"] == 3 and summary["leaf"]["cold"] == 2
    leaf_total = summary["leaf"]["total_s"]
    assert summary["root"]["self_s"] == pytest.approx(summary["root"]["total_s"] - leaf_total)


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([float(i) for i in range(1, 20)]) is None
    assert run.tail([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
