import importlib.util
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location(
        "compare_cli_outputs", os.path.join(ROOT, "tools", "compare_cli_outputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_builds_every_benchmark_invocation(compare, tmp_path):
    cases = compare.invocations(str(tmp_path))
    assert len(cases) == 144
    commands = [args[0] for _, args in cases]
    assert commands.count("ci-scan") == 7 + 3 * 8
    assert ["ci-scan", "he-clamped", "--nmax", "10", "--quad-points", "16"] in [a for _, a in cases]
    assert ["curve", "he-clamped", "--steps", "10000", "--format", "json"] in [a for _, a in cases]
    assert ["coeffs", "--help"] in [a for _, a in cases]
    # every input file a case names exists in the directory it runs in (`--help` names none)
    for cwd, args in cases:
        assert (args[1] == "--help" or args[1] in compare.workloads.PRESETS
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
