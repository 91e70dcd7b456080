"""Whether the checks can fail: a committed list of one-line mutants of
src/evfaraday, each run against tier-1 and the README commands.

Each mutant is one exact-text replacement in one file of the package.  It
is applied to a temporary copy of the repository (src, tests, checks,
README.md, pyproject.toml); tier-1 then runs there with -x, and so do the
four README commands below, each in its own output directory.  Tier-1
runs without tests/test_mutants.py, which checks this list against the
unmutated package and so fails on every mutant.  One table
is printed: per mutant, whether tier-1 killed it (and the first failing
test) and the exit codes of the README commands.  The first row is the
unmutated copy, whose tier-1 passes and whose commands all exit 0; a
mutant that tier-1 survives and the commands exit 0 on is not seen by any
check.  Uses only the standard library and the repository.

    python checks/mutants.py

A run takes a few minutes: one tier-1 run per mutant, cut short at the
first failure.  Exit status: 0 when the unmutated copy passes, 1 when it
does not (every row is then meaningless).
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: What is copied for a mutant run, relative to the repository root.
COPIED = ("src", "tests", "checks", "README.md", "pyproject.toml")

#: The README commands run on every mutant, in the table's column order;
#: each is an `evf` line of README.md, given its own output directory.
README_COMMANDS = {
    "rotate": "evf rotate -E 60keV -B 1T -l 1 --phi-max 0.5rad -o out/",
    "breathe": "evf breathe -E 60keV -B 1T --w0-rel 0.5 --periods 2 -o out/",
    "plane": "evf grating -l 1 --plane --kx 2.5e8m-1 --diffract -o out/",
    "spherical": "evf grating -l 1 --spherical --curvature 1.5e14m-2 "
                 "--grid-n 128 --diffract -o out/",
}

#: (file under src/evfaraday, exact old text, new text, why).  Every old
#: text occurs exactly once in the package, so a refactor that moves one
#: must update it here.
MUTANTS = [
    ("propagation.py", "lines *= plan.kinetic_phase",
     "lines *= plan.kinetic_phase ** 1.1",
     "kinetic phase of every sweep step 10 % too strong"),
    ("propagation.py",
     "y[rows] += (coeff * cmath.exp(-1j * l * k_l_z)) * part",
     "y[rows] += (coeff * cmath.exp(-1.005j * l * k_l_z)) * part",
     "Zeeman rate +0.5 % where a superposition's outputs are summed"),
    ("propagation.py",
     "y[rows] += (coeff * cmath.exp(-1j * l * k_l_z)) * part",
     "y[rows] += (coeff * cmath.exp(-1.03j * l * k_l_z)) * part",
     "Zeeman rate +3 % where a superposition's outputs are summed"),
    ("propagation.py", "zeeman = cmath.exp(-1j * l * k_l_z)",
     "zeeman = cmath.exp(-1.005j * l * k_l_z)",
     "Zeeman rate +0.5 % in propagate_definite_l"),
    ("propagation.py", "half_length = math.tan(0.5 * omega * dz) / omega",
     "half_length = math.sin(0.5 * omega * dz) / omega",
     "exact-scheme half-potential length sin for tan"),
    ("gratings.py", "0.5 / 255 * peak * (1 - 1e-3)",
     "0.5 / 255 * peak * 4",
     "frame dark-row margin so wide that lit rows are skipped"),
    ("gratings.py", "if not dark[lo:lo + QUANTISE_BLOCK_ROWS].all()]",
     "if not dark[lo:lo + QUANTISE_BLOCK_ROWS].all()\n"
     "               and lo + QUANTISE_BLOCK_ROWS > self.first]",
     "frame leaves lit blocks below the kept order band unfinished"),
    ("gratings.py",
     "c = np.arange(cols[order] - half, cols[order] + half)",
     "c = np.arange(cols[order] - half + 1, cols[order] + half + 1)",
     "order crop one column right of its window"),
    ("gratings.py",
     "return _band_power(upper), int(np.count_nonzero(disk))",
     "return _band_power(upper) / 2, int(np.count_nonzero(disk))",
     "aperture kernel's spread halved in the leakage estimate"),
    ("gratings.py", "z_focus = -k0 * rp / (2.0 * p2)",
     "z_focus = -1.003 * k0 * rp / (2.0 * p2)",
     "moment-law focus 0.3 % long"),
    ("gratings.py",
     "return base_wavenumber(p) / (2.0 * abs(spec.reference.curvature))",
     "return base_wavenumber(p) / (2.04 * abs(spec.reference.curvature))",
     "expected spherical focus k0/(2|C|) 2 % short"),
    ("analysis.py",
     "return 2.0 * abs(circular_harmonic(profile, k)) / mean",
     "return 2.1 * abs(circular_harmonic(profile, k)) / mean",
     "harmonic fraction 5 % high"),
    ("analysis.py", "return math.sqrt(2.0 * mean_r2 / (abs(l) + 1))",
     "return math.sqrt(2.0 * mean_r2 / (abs(l) + 1.002))",
     "effective_width calibration off by (l + 1.002)"),
    ("analysis.py", "return (-np.angle(c) / (2.0 * la)) % period",
     "return (-np.angle(c) / (2.0 * la) + 1e-4) % period",
     "pattern orientation 1e-4 rad late"),
    ("cli.py", "ROTATION_SELF_CHECK_RTOL = 0.02",
     "ROTATION_SELF_CHECK_RTOL = 0.2",
     "rotate self-check bound ten times looser"),
    ("cli.py", "BREATHING_SELF_CHECK_RTOL = 0.01",
     "BREATHING_SELF_CHECK_RTOL = 0.1",
     "breathe self-check bound ten times looser"),
    ("gratings.py",
     "is_open = design_value(spec, x[col], x[probe]) > 0.5",
     "is_open = design_value(spec, x[col], x[probe]) > 0.51",
     "plane rasteriser threshold 0.5 -> 0.51"),
    ("modes.py", "            return y.T @ x",
     "            object.__setattr__(self, \"plane\", y.T @ x)\n"
     "            return self.plane",
     "a field built from factors keeps the first plane read from it"),
]

TIER1_TIMEOUT_S = 900
COMMAND_TIMEOUT_S = 300


def package_sources(root: str) -> dict[str, str]:
    """{file name: text} of every .py file of root's src/evfaraday."""
    package = os.path.join(root, "src", "evfaraday")
    sources = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                sources[name] = f.read()
    return sources


def apply(root: str, mutant) -> None:
    """Replace the mutant's old text, which must occur exactly once, in
    its file under root's src/evfaraday."""
    name, old, new, _ = mutant
    path = os.path.join(root, "src", "evfaraday", name)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if text.count(old) != 1:
        raise ValueError(f"{name}: {old!r} occurs {text.count(old)} times")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text.replace(old, new))


def _env(copy: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.join(copy, "src"), env.get("PYTHONPATH"))))
    return env


def tier1(copy: str) -> str:
    """'passed', 'killed by <first failing test>', or what else ended the
    run of the copy's tier-1 suite with -x."""
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors",
             "--ignore=tests/test_mutants.py", "tests"],
            cwd=copy, env=_env(copy), capture_output=True, text=True,
            timeout=TIER1_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIER1_TIMEOUT_S} s"
    if run.returncode == 0:
        return "passed"
    if run.returncode == 1:
        first = next((line.split(" - ")[0].split(" ", 1)[1]
                      for line in run.stdout.splitlines()
                      if line.startswith(("FAILED ", "ERROR "))), "?")
        return f"killed by {first}"
    return f"pytest exit {run.returncode}"


def readme_exit_codes(copy: str) -> list[str]:
    """Exit code of each README command run from the copy, each in its own
    temporary working directory; 'timeout' for one that did not end."""
    codes = []
    for command in README_COMMANDS.values():
        argv = [sys.executable, "-m", "evfaraday"] + shlex.split(command)[1:]
        with tempfile.TemporaryDirectory() as work:
            try:
                run = subprocess.run(argv, cwd=work, env=_env(copy),
                                     capture_output=True,
                                     timeout=COMMAND_TIMEOUT_S)
                codes.append(str(run.returncode))
            except subprocess.TimeoutExpired:
                codes.append("timeout")
    return codes


def run_row(mutant) -> tuple[str, list[str]]:
    """(tier-1 result, README exit codes) of a fresh copy of the
    repository with the mutant applied; None runs the unmutated copy."""
    with tempfile.TemporaryDirectory() as copy:
        for name in COPIED:
            source, target = os.path.join(ROOT, name), os.path.join(copy, name)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, target)
        if mutant is not None:
            apply(copy, mutant)
        return tier1(copy), readme_exit_codes(copy)


def main() -> int:
    header = ", ".join(README_COMMANDS)
    print(f"| mutant | tier-1 | README exit codes ({header}) |")
    print("| --- | --- | --- |")
    for mutant in [None] + MUTANTS:
        result, codes = run_row(mutant)
        label = "(unmutated)" if mutant is None else (
            f"{mutant[0]}: {mutant[3]}")
        print(f"| {label} | {result} | {', '.join(codes)} |", flush=True)
        if mutant is None and (result != "passed" or set(codes) != {"0"}):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
