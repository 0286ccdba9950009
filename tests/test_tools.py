import importlib.util
import json
import math
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare():
    return load_tool("compare_cli_outputs")


def test_compare_builds_every_benchmark_invocation(compare, tmp_path):
    cases = compare.invocations(str(tmp_path))
    assert len(cases) == 178
    assert ["nuclear-motion", "he-moving", "--quad-points", "512"] in [a for _, a in cases]
    commands = [args[0] for _, args in cases]
    assert commands.count("ci-scan") == 20 + 3 * 8
    assert ["ci-scan", "he-clamped", "--nmax", "49"] in [a for _, a in cases]
    assert ["ci-scan", "he-clamped", "--nmax", "0"] in [a for _, a in cases]
    # 333 nodes end the s-wave block's inner sweep in a partial batch
    assert ["ci-scan", "he-clamped", "--nmax", "12", "--quad-points", "333"] in [a for _, a in cases]
    # one system document for each refused number, a degenerate one, one at a fractional
    # charge, two that nuclear-motion refuses and three large charges, each run by `coeffs`
    assert [(str(tmp_path), ["coeffs", name]) for name in compare.DOCUMENTS] == cases[-15:-2]
    assert cases[-2:] == [(str(tmp_path), ["nuclear-motion", "clamped-light.json"]),
                          (str(tmp_path), ["nuclear-motion", "heavy-reference.json"])]
    doc = {name: json.loads((tmp_path / name).read_text()) for name in compare.DOCUMENTS}
    assert doc["mass-true.json"]["particles"][0]["mass"] is True
    assert doc["charge-text.json"]["particles"][0]["charge"] == "2"
    assert doc["lam-text.json"]["lam"] == "1.0"
    assert doc["rc-bohr-inf.json"]["rc_bohr"] == math.inf
    assert type(doc["reference-float.json"]["reference"]) is float
    assert doc["reference-true.json"]["reference"] is True
    assert [p["mass"] for p in doc["degenerate.json"]["particles"]] == [1, 7, 1.8e16]
    assert doc["z-fraction.json"]["particles"][2] == {"mass": 9000, "charge": 2.5, "clamped": True}
    assert [p.get("clamped", False) for p in doc["clamped-light.json"]["particles"]] == [False, True, False]
    assert [p["charge"] for p in doc["heavy-reference.json"]["particles"]] == [-3, -1, 2]
    assert doc["heavy-reference.json"]["reference"] == 0
    # the eps2 fit grid shrinks as 4 / Z above Z = 4
    for name, charge in (("z-8.json", 8), ("z-10.json", 10), ("z-1e20.json", 1e20)):
        assert doc[name]["particles"][2] == {"mass": 1e6, "charge": charge, "clamped": True}
    for args in (["ci-scan", "z-8.json", "--nmax", "8", "--steps", "3"],
                 ["ci-scan", "z-10.json", "--nmax", "8", "--steps", "3"],
                 ["ci-scan", "z-1e20.json", "--nmax", "8", "--steps", "3",
                  "--lambda-min", "1e-22", "--lambda-max", "1e-21"]):
        assert args in [a for _, a in cases]
    # the check order: each of these has two bad values
    for args in (["curve", "he-clamped", "--steps", "0", "--lambda-min", "nan"],
                 ["curve", "he-clamped", "--lambda-min", "inf", "--quad-points", "15"],
                 ["ci-scan", "he-clamped", "--quad-points", "15", "--nmax", "49"],
                 ["ci-scan", "no-such.json", "--nmax", "3"],
                 ["coeffs", "he-clamped", "--quad-points", "15", "-o", "no-such-dir/out.csv"]):
        assert args in [a for _, a in cases]
    assert ["ci-scan", "z-fraction.json", "--nmax", "12"] in [a for _, a in cases]
    assert ["ci-scan", "he-clamped", "--nmax", "10", "--quad-points", "16"] in [a for _, a in cases]
    assert ["curve", "he-clamped", "--steps", "10000", "--format", "json"] in [a for _, a in cases]
    assert ["coeffs", "--help"] in [a for _, a in cases]
    assert ["curve", "he-clamped", "--format", "json", "-o", "/dev/full"] in [a for _, a in cases]
    # every input file a case names exists in the directory it runs in (`--help` names none,
    # and no-such.json is missing on purpose: the nmax check comes before the file is read)
    for cwd, args in cases:
        assert (args[1] in ("--help", "no-such.json") or args[1] in compare.workloads.PRESETS
                or os.path.isfile(os.path.join(cwd, args[1])))


def test_compare_reports_only_real_differences(compare, tmp_path):
    src = os.path.join(ROOT, "src")
    cases = [(str(tmp_path), ["coeffs", "he-clamped"]),
             (str(tmp_path), ["ci-scan", "he-clamped", "--nmax", "10", "--quad-points", "16"])]
    assert compare.differences(src, src, cases) == []
    # a tree without boxatom fails to import it: exit code and stderr differ, stdout does not
    broken = tmp_path / "broken"
    shutil.copytree(src, broken, ignore=shutil.ignore_patterns("cli.py", "__pycache__"))
    found = compare.differences(src, str(broken), cases[:1])
    assert len(found) == 1 and "exit code, stdout, stderr differ" in found[0]


# (source, total lines, code lines): one module per kind of line that is not code
LINE_KINDS = {
    "blank": ("x = 1\n\n\ny = 2\n", 4, 2),
    "comment": ("# a note\nx = 1  # code with a comment\n", 2, 1),
    "docstring": ('"""Module\ndocstring."""\n\n\ndef f():\n    """One line."""\n    return 1\n'
                  '\n\nclass C:\n    """Two\n    lines."""\n', 12, 3),
    "other string": ('TEXT = """not a\ndocstring"""\nprint(TEXT)\n', 3, 3),
}


@pytest.mark.parametrize("kind", LINE_KINDS)
def test_count_lines_leaves_out_blank_comment_and_docstring_lines(kind):
    source, total, code = LINE_KINDS[kind]
    assert load_tool("count_lines").count(source) == (total, code)


def test_count_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(LINE_KINDS["blank"][0])
    (tmp_path / "pkg" / "b.py").write_text(LINE_KINDS["comment"][0])
    (tmp_path / "notes.txt").write_text("not python\n")
    assert load_tool("count_lines").main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["4", "2", "a.py"], ["2", "1", os.path.join("pkg", "b.py")], ["6", "3", "total"]]
