"""Whether a change keeps what the CLI writes: one committed command list run
against a git revision and against the working tree, every output compared.

REV is extracted with `git archive REV | tar -x` into a temporary
directory.  Each command of COMMANDS then runs twice, once from REV's src
and once from the working tree's, each time in a fresh temporary working
directory, so both sides write under the same relative paths.  The exit
code, stdout, stderr and the bytes of every file a command leaves in its
working directory are compared, and one table is printed: per command, the
two exit codes, the number of files, and either "identical" or what
differs.  A differing CSV or JSON file is shown with the largest numeric
delta between its two versions.  Uses only the standard library and git.

    python checks/outputs.py REV

A run takes well under a minute.  Exit status: 0 when every row is
identical, 1 when any differs.
"""

from __future__ import annotations

import io
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The compared commands, each an `evf` line with relative output paths:
#: the README's examples, rotate runs that write every kind of plane file,
#: breathe and grating variants, the 13 benchmark hologram ops at seed 3701
#: written out literally, far fields whose lit rows cover the whole frame or
#: lie below the order band, and one refusal of each guard named in the
#: comments.
COMMANDS = [
    # README
    "evf quantities -E 60keV -B 1T --thickness 100nm",
    "evf quantities -E 60keV -B 1T --thickness 100nm --json out.json",
    "evf verdet-curve --e-min 1keV --e-max 300keV -n 64",
    "evf verdet-curve --e-min 1keV --e-max 300keV -n 64 -o verdet.csv",
    "evf rotate -E 60keV -B 1T -l 1 --phi-max 0.5rad -o out/",
    "evf breathe -E 60keV -B 1T --w0-rel 0.5 --periods 2 -o out/",
    "evf grating -l 1 --phi0 0rad --plane -o out/",
    "evf grating -l 1 --phi0 0rad --plane --kx 2.5e8m-1 -o out/",
    "evf grating -l 1 --plane --kx 2.5e8m-1 --diffract -o out/",
    "evf grating -l 1 --spherical --curvature 1.5e14m-2 --grid-n 128 "
    "--diffract -o out/",
    # rotate writing field files and frames
    "evf rotate -E 60keV -B 1T -l 1 --phi-max 0.5rad --snapshot-every 6 "
    "--pgm-every 4 -o out/",
    "evf rotate --field=-1T -l 2 --grid-n 256 --outputs 12 "
    "--snapshot-every 1 --pgm-every 1 -o out/",
    "evf rotate -B 0T --w0 26nm --grid-side 400nm --z-max 1um "
    "--snapshot-every 8 --pgm-every 12 -o out/",
    # breathe and grating variants
    "evf breathe -l 1 --grid-n 128 -o out/",
    "evf grating -l 3 --phi0 0.4rad -o out/",
    # the benchmark's hologram workload at seed 3701
    "evf grating -l 1 --phi0 0.164090588rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane00",
    "evf grating -l 1 --phi0 1.211288139rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane01",
    "evf grating -l 1 --phi0 2.258485690rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane02",
    "evf grating -l 2 --phi0 0.144071806rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane03",
    "evf grating -l 2 --phi0 0.667670582rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane04",
    "evf grating -l 2 --phi0 1.191269357rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane05",
    "evf grating -l 4 --phi0 0.245213983rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane06",
    "evf grating -l 4 --phi0 0.507013370rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane07",
    "evf grating -l 4 --phi0 0.768812758rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane08",
    "evf grating -l 3 --phi0 0.253412820rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane09",
    "evf grating -l 3 --phi0 0.602478671rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane10",
    "evf grating -l 3 --phi0 0.951544521rad --plane --kx 2.5e8m-1 "
    "--grid-n 512 --pad 4 -E 60keV --diffract -o out/plane11",
    "evf grating -l 1 --spherical --curvature 1.5e14m-2 --grid-n 128 "
    "-E 60keV --diffract -o out/spherical",
    # far fields with every block of rows lit, and with lit rows below the
    # order band
    "evf grating -l 2 --plane --kx 2.5e8m-1 --diffract --pad 1 -o out/",
    "evf grating -l 12 --plane --kx 2.5e8m-1 --diffract --pad 8 -o out/",
    # refusals: order leakage, a carrier too weak to separate the orders,
    # the step total, the plane side, modes beyond the grid, and an |l|
    # whose petal harmonic the probe ring cannot resolve, with a ring the
    # grid holds and with an l no float holds
    "evf grating -l 3 --plane --kx 2.01e8m-1 --diffract -o out/",
    "evf grating -l 1 --plane --kx 2e7m-1 --diffract -o out/",
    "evf rotate --grid-n 64 --grid-side 1e-12m --w0 1e-13m --outputs 1 "
    "-o out/",
    "evf grating --kx 2.5e8m-1 --pad 9 --diffract -o out/",
    "evf rotate -l 150 --grid-n 64 -o out/",
    "evf rotate -l 2000 --grid-n 64 -o out/",
    "evf rotate -l 2000 --grid-n 64 --w0 10nm --grid-side 2um -o out/",
    "evf rotate -l 1" + "0" * 400 + " --grid-n 64 -o out/",
]

#: A decimal number as the CLI writes it in CSV and JSON files.
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

COMMAND_TIMEOUT_S = 300


def extract(rev: str, target: str) -> None:
    """Write the tree of rev, as git archive gives it, under target."""
    blob = subprocess.run(["git", "-C", ROOT, "archive", rev],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as archive:
        archive.extractall(target, filter="data")


def run(src: str, command: str) -> tuple:
    """(exit code, stdout, stderr, {relative path: bytes}) of command run
    from the package under src in a fresh temporary working directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    argv = [sys.executable, "-m", "evfaraday"] + shlex.split(command)[1:]
    with tempfile.TemporaryDirectory() as work:
        try:
            done = subprocess.run(argv, cwd=work, env=env,
                                  capture_output=True,
                                  timeout=COMMAND_TIMEOUT_S)
            result = (str(done.returncode), done.stdout, done.stderr)
        except subprocess.TimeoutExpired:
            result = ("timeout", b"", b"")
        files = {}
        for directory, _, names in os.walk(work):
            for name in names:
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    files[os.path.relpath(path, work)] = handle.read()
    return result + (files,)


def numeric_delta(old: bytes, new: bytes) -> str:
    """The largest absolute and relative difference of the numbers of two
    versions of a CSV or JSON file, taken in order of appearance; or what
    keeps them from being paired."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if len(a) != len(b):
        return f"{len(a)} → {len(b)} numbers"
    if NUMBER.sub(b"#", old) != NUMBER.sub(b"#", new):
        return "text between the numbers differs"
    pairs = [(float(x), float(y)) for x, y in zip(a, b)]
    absolute = max((abs(x - y) for x, y in pairs), default=0.0)
    relative = max((abs(x - y) / max(abs(x), abs(y))
                    for x, y in pairs if x != y), default=0.0)
    return f"largest delta {absolute:.3e}, {relative:.3e} relative"


def differences(old: tuple, new: tuple) -> list[str]:
    """What differs between two run results: 'exit', 'stdout', 'stderr'
    and each output file whose bytes differ or that one side lacks, a CSV
    or JSON file present on both sides with its numeric delta."""
    found = [what for what, a, b in zip(("exit", "stdout", "stderr"),
                                        old, new) if a != b]
    for path in sorted(set(old[3]) | set(new[3])):
        before, after = old[3].get(path), new[3].get(path)
        if before == after:
            continue
        if (before is not None and after is not None
                and path.endswith((".csv", ".json"))):
            path += f" ({numeric_delta(before, after)})"
        found.append(path)
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python checks/outputs.py REV", file=sys.stderr)
        return 2
    rev = args[0]
    identical = True
    with tempfile.TemporaryDirectory() as tree:
        extract(rev, tree)
        print(f"| command | exit ({rev} → tree) | files | outputs |")
        print("| --- | --- | --- | --- |")
        for command in COMMANDS:
            old = run(os.path.join(tree, "src"), command)
            new = run(os.path.join(ROOT, "src"), command)
            differ = differences(old, new)
            identical = identical and not differ
            shown = "differ: " + ", ".join(differ) if differ else "identical"
            print(f"| `{command}` | {old[0]} → {new[0]} | {len(new[3])} "
                  f"| {shown} |", flush=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
