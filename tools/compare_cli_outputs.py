"""Compare the CLI's stdout, stderr and exit codes with those of another revision.

    python3 tools/compare_cli_outputs.py BASE_REV

BASE_REV is a revision of the checkout that holds this script; `git archive`
extracts it into a temporary directory. The invocations are the benchmark's,
built by `perfbench/workloads.py` for the quick, ci-scan and ci-fine
workloads and seeds 1-3, plus every EXTRA entry, `coeffs` on every DOCUMENTS
entry and `nuclear-motion` on two of them; a comment beside each says what
it covers. Each runs as `python -m boxatom.cli`, one at a time, once against
the working tree's `src` and once against BASE_REV's, in the same directory
with the same input files.

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
    # nmax 40, the largest basis that the ROADMAP times
    ["ci-scan", "he-clamped", "--nmax", "40"],
    # 16 points fail the block check, exit 3: the central check at nmax 10, the Slater check at nmax 4
    ["ci-scan", "he-clamped", "--nmax", "10", "--quad-points", "16"],
    ["ci-scan", "he-clamped", "--nmax", "4", "--quad-points", "16"],
    # the largest block and W
    ["ci-scan", "he-clamped", "--nmax", "48", "--lambda-max", "50"],
    # strong coupling that reaches the per-point Cholesky tier
    ["ci-scan", "he-clamped", "--nmax", "24", "--lambda-min", "100", "--lambda-max", "200"],
    # the same tier on H and H_QQ of 561 and 560 rows, neither a whole number of 64-row tiles
    ["ci-scan", "he-clamped", "--nmax", "33", "--lambda-min", "50", "--lambda-max", "120"],
    # one repeated strong-coupling lambda: every point on the top knot, every point on the
    # Cholesky tier, and the concavity check at zero spacing
    ["ci-scan", "he-clamped", "--nmax", "24", "--lambda-min", "150", "--lambda-max", "150", "--steps", "5"],
    # scans where what a row keeps outweighs W
    ["ci-scan", "he-clamped", "--nmax", "24", "--steps", "10000"],
    ["ci-scan", "he-clamped", "--nmax", "48", "--steps", "2000"],
    # the north star's long scan at nmax 40
    ["ci-scan", "he-clamped", "--nmax", "40", "--steps", "3000"],
    # the longest outputs, in CSV and in JSON
    ["curve", "he-clamped", "--steps", "10000"],
    ["curve", "he-clamped", "--steps", "10000", "--format", "json"],
    # the quadrature bound on either side, exit 2
    ["coeffs", "he-clamped", "--quad-points", "15"],
    ["coeffs", "he-clamped", "--quad-points", "513"],
    # prints the default resolution
    ["coeffs", "--help"],
    # -o files that cannot be written, exit 2
    ["coeffs", "he-clamped", "-o", "no-such-dir/out.csv"],
    ["curve", "he-clamped", "--format", "json", "-o", "/dev/full"],
    # nmax on either side of its bounds, exit 2
    ["ci-scan", "he-clamped", "--nmax", "49"],
    ["ci-scan", "he-clamped", "--nmax", "0"],
    # the smallest bases: the eps2 fit needs nmax >= 4, so 3 exits 2
    ["ci-scan", "he-clamped", "--nmax", "3"],
    ["ci-scan", "he-clamped", "--nmax", "4"],
    # one row, plus the lambda = 0 row of the concavity check, in CSV and in JSON
    ["ci-scan", "he-clamped", "--steps", "1"],
    ["ci-scan", "he-clamped", "--steps", "1", "--format", "json"],
    # first order at a resolution other than the default
    ["nuclear-motion", "he-moving", "--quad-points", "512"],
    # -Z W at a fractional nuclear charge
    ["ci-scan", "z-fraction.json", "--nmax", "12"],
    # 333 nodes end the block's inner sweep in a partial batch of 8
    ["ci-scan", "he-clamped", "--nmax", "12", "--quad-points", "333"],
    # two bad values each: the message names the check that comes first
    ["curve", "he-clamped", "--steps", "0", "--lambda-min", "nan"],
    ["curve", "he-clamped", "--lambda-min", "inf", "--quad-points", "15"],
    ["ci-scan", "he-clamped", "--quad-points", "15", "--nmax", "49"],
    ["ci-scan", "no-such.json", "--nmax", "3"],
    ["coeffs", "he-clamped", "--quad-points", "15", "-o", "no-such-dir/out.csv"],
    # nuclear charges above 4, where the eps2 fit grid shrinks as 4 / Z; the
    # 1e20 scan's own grid is moved into the solver's range at that charge.
    # Against a revision with the fixed fit grid they differ: it printed
    # another s_limited_eps2 at Z = 8 and exited 3 and 2 at the other two
    ["ci-scan", "z-8.json", "--nmax", "8", "--steps", "3"],
    ["ci-scan", "z-10.json", "--nmax", "8", "--steps", "3"],
    ["ci-scan", "z-1e20.json", "--nmax", "8", "--steps", "3", "--lambda-min", "1e-22", "--lambda-max", "1e-21"],
)
# one electron in a box of lambda 1; each document changes one value of it
ELECTRON = '{"particles": [{"mass": 1, "charge": -1}], "reference": 0, "lam": 1.0}'
# two electrons around a clamped nucleus whose charge each document sets
ION = ('{"particles": [{"mass": 1, "charge": -1}, {"mass": 1, "charge": -1}, '
       '{"mass": 1e6, "charge": CHARGE, "clamped": true}], "reference": 0, "lam": 1.0}')
DOCUMENTS = {
    # one value each that the library's number rule refuses, exit 2 (JSON reads 1e999 as inf)
    "mass-true.json": ELECTRON.replace('"mass": 1', '"mass": true'),
    "charge-text.json": ELECTRON.replace('"charge": -1', '"charge": "2"'),
    "lam-text.json": ELECTRON.replace('"lam": 1.0', '"lam": "1.0"'),
    "rc-bohr-inf.json": ELECTRON.replace('"lam": 1.0', '"rc_bohr": 1e999'),
    "reference-float.json": ELECTRON.replace('"reference": 0', '"reference": 1.0'),
    "reference-true.json": ELECTRON.replace('"reference": 0', '"reference": true'),
    # a particle so heavy that its n = 2 mode leaves the ground occupation degenerate,
    # which first order refuses, exit 2
    "degenerate.json": ('{"particles": [{"mass": 1, "charge": -1}, {"mass": 7, "charge": -1}, '
                        '{"mass": 1.8e16, "charge": -1}], "reference": 0, "rc_bohr": 0.5}'),
    # two electrons around a clamped nucleus of fractional charge, for -Z W at a non-integer Z
    "z-fraction.json": ('{"particles": [{"mass": 1, "charge": -1}, {"mass": 1, "charge": -1}, '
                        '{"mass": 9000, "charge": 2.5, "clamped": true}], "reference": 0, "lam": 1.0}'),
    # a clamped electron beside a free nucleus, so clamping the nucleus clamps two particles
    "clamped-light.json": ('{"particles": [{"mass": 1, "charge": -1}, {"mass": 1, "charge": -1, "clamped": true}, '
                           '{"mass": 7296.3, "charge": 2}], "reference": 0, "lam": 1.0}'),
    # a reference of charge -3 leaves every |q'| <= 1, so no particle is the nucleus
    "heavy-reference.json": ('{"particles": [{"mass": 1, "charge": -3}, {"mass": 1, "charge": -1}, '
                             '{"mass": 7296.3, "charge": 2}], "reference": 0, "lam": 1.0}'),
    # charges where the eps2 fit grid shrinks as 4 / Z, exit 0
    "z-8.json": ION.replace("CHARGE", "8"),
    "z-10.json": ION.replace("CHARGE", "10"),
    "z-1e20.json": ION.replace("CHARGE", "1e20"),
}


def invocations(workdir: str) -> list[tuple[str, list[str]]]:
    """(directory to run in, CLI arguments) for every compared invocation.

    Each workload and seed writes its input files into its own directory
    under `workdir`, since seeds reuse file names; DOCUMENTS are written
    into `workdir` itself.
    """
    cases = []
    for seed in SEEDS:
        for name in workloads.WORKLOADS:
            cwd = os.path.join(workdir, f"{name}-{seed}")
            os.makedirs(cwd)
            cases += [(cwd, inv["args"]) for inv in workloads.build(name, seed, cwd)]
    for name, text in DOCUMENTS.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return (cases + [(workdir, list(args)) for args in EXTRA]
            + [(workdir, ["coeffs", name]) for name in DOCUMENTS]
            # both exit 0 under `coeffs` and 2 under `nuclear-motion`
            + [(workdir, ["nuclear-motion", name]) for name in ("clamped-light.json", "heavy-reference.json")])


def run_cli(src: str, cwd: str, args: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `python -m boxatom.cli ARGS` importing boxatom from `src`."""
    env = dict(os.environ, PYTHONPATH=src)
    # builds before --quad-points became the one way to set the resolution read this variable
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
