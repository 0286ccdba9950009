import os
import pathlib
import re
import subprocess
import sys

import boxatom
from boxatom.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_python_example_runs_cleanly(tmp_path):
    blocks = python_blocks()
    assert blocks, "README has no python block"
    src = str(pathlib.Path(boxatom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for code in blocks:
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


def test_every_public_name_resolves():
    # a deleted name must leave __all__ with it
    missing = [name for name in boxatom.__all__ if not hasattr(boxatom, name)]
    assert missing == []
    assert len(set(boxatom.__all__)) == len(boxatom.__all__)


def test_readme_coeffs_transcript_matches_the_cli(capsys):
    transcript = re.search(r"^\$ boxatom coeffs he-clamped\n(.*?)^```", (ROOT / "README.md").read_text(),
                           re.M | re.S)
    assert transcript, "README has no coeffs he-clamped transcript"
    assert main(["coeffs", "he-clamped"]) == 0
    assert capsys.readouterr().out == transcript.group(1)
