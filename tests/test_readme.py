import os
import pathlib
import re
import subprocess
import sys

import boxatom

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
