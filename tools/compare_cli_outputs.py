"""Compare the CLI's stdout, stderr and exit codes with those of another revision.

    python3 tools/compare_cli_outputs.py BASE_REV

BASE_REV is a revision of the checkout that holds this script; `git archive`
extracts it into a temporary directory. The invocations are the benchmark's,
built by `perfbench/workloads.py`: the quick, ci-scan and ci-fine workloads for seeds
1-3, plus `ci-scan he-clamped --nmax 40`, `ci-scan he-clamped --nmax 10
--quad-points 16` (which exits 3), the largest block and W (`--nmax 48
--lambda-max 50`), strong coupling that reaches the per-point Cholesky tier
(`--nmax 24 --lambda-min 100 --lambda-max 200`), the same tier on H and
H_QQ of 561 and 560 rows, neither a whole number of the factorization's
64-row tiles (`--nmax 33 --lambda-min 50 --lambda-max 120`), the longest outputs,
`curve he-clamped --steps 10000` in CSV and in JSON, the scans where what a
row keeps outweighs W (`ci-scan he-clamped --nmax 24 --steps 10000` and
`--nmax 48 --steps 2000`), the quadrature bound
check on either side (`coeffs he-clamped --quad-points 15` and `513`, which
exit 2) and `coeffs --help`, which prints the default resolution. Each runs
as `python -m boxatom.cli`, one at a time, once against the working tree's
`src` and once against BASE_REV's, in the same directory with the same input
files.

Exit status: 0 when every stdout, stderr and exit code is byte-identical,
1 when any differs (each difference is listed), 2 when BASE_REV cannot be
extracted.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)

SEEDS = (1, 2, 3)
EXTRA = (
    ["ci-scan", "he-clamped", "--nmax", "40"],
    ["ci-scan", "he-clamped", "--nmax", "10", "--quad-points", "16"],
    ["ci-scan", "he-clamped", "--nmax", "48", "--lambda-max", "50"],
    ["ci-scan", "he-clamped", "--nmax", "24", "--lambda-min", "100", "--lambda-max", "200"],
    ["ci-scan", "he-clamped", "--nmax", "33", "--lambda-min", "50", "--lambda-max", "120"],
    ["ci-scan", "he-clamped", "--nmax", "24", "--steps", "10000"],
    ["ci-scan", "he-clamped", "--nmax", "48", "--steps", "2000"],
    ["curve", "he-clamped", "--steps", "10000"],
    ["curve", "he-clamped", "--steps", "10000", "--format", "json"],
    ["coeffs", "he-clamped", "--quad-points", "15"],
    ["coeffs", "he-clamped", "--quad-points", "513"],
    ["coeffs", "--help"],
)


def invocations(workdir: str) -> list[tuple[str, list[str]]]:
    """(directory to run in, CLI arguments) for every compared invocation.

    Each workload and seed writes its input files into its own directory
    under `workdir`, since seeds reuse file names.
    """
    cases = []
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            cwd = os.path.join(workdir, f"{name}-{seed}")
            os.makedirs(cwd)
            cases += [(cwd, inv["args"]) for inv in workloads.build(name, seed, cwd)]
    return cases + [(workdir, list(args)) for args in EXTRA]


def run_cli(src: str, cwd: str, args: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `python -m boxatom.cli ARGS` importing boxatom from `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    for name in ("BOXATOM_QUAD_POINTS", "PYTHONSTARTUP"):
        env.pop(name, None)
    proc = subprocess.run([sys.executable, "-m", "boxatom.cli", *args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def differences(base_src: str, head_src: str, cases: list[tuple[str, list[str]]]) -> list[str]:
    """One line per invocation whose exit code, stdout or stderr differs between the trees."""
    found = []
    for cwd, args in cases:
        base, head = run_cli(base_src, cwd, args), run_cli(head_src, cwd, args)
        differing = [what for what, a, b in zip(("exit code", "stdout", "stderr"), base, head) if a != b]
        if differing:
            found.append(f"{' '.join(args)}: {', '.join(differing)} differ "
                         f"(exit {base[0]} -> {head[0]})")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        print(f"error: cannot archive {rev}: {archive.stderr.decode(errors='replace').strip()}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        os.makedirs(base)
        subprocess.run(["tar", "-x", "-C", base], input=archive.stdout, check=True)
        workdir = os.path.join(tmp, "inputs")
        os.makedirs(workdir)
        cases = invocations(workdir)
        found = differences(os.path.join(base, "src"), os.path.join(ROOT, "src"), cases)
    for line in found:
        print(line)
    print(f"{len(cases)} invocations, {len(found)} differ from {rev}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
