"""Run the pinned qpoly commands under every Python 3.10 or later that
pyenv holds, and check that each command prints the same bytes under all.

    python3 tools/interpreters.py

Run from anywhere; the package is read from this checkout's src/. The
interpreters are ~/.pyenv/versions/<x.y.z>/bin/python. Each command's
stdout is hashed as it streams (the table prints 177 MB), and one line
per interpreter and command gives the version, the exit code and the
sha256. Exit code 0 when every command's exit code and digest agree
across the interpreters, 1 when one does not, 2 when none is found.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERSIONS = Path.home() / ".pyenv" / "versions"
COMMANDS = [
    "verify --scope all",
    "verify --scope gf",
    "verify --scope identities",
    "verify --scope oracle",
    "verify --nmax 30",
    "table polyBernoulli --nmax 50 --k -10",
]


def interpreters() -> list[tuple[str, Path]]:
    """(version, python) for each pyenv version 3.10 or later, ascending."""
    found = []
    for path in VERSIONS.glob("*/bin/python"):
        version = path.parent.parent.name
        parts = version.split(".")
        if all(p.isdigit() for p in parts):
            key = tuple(map(int, parts))
            if key >= (3, 10):
                found.append((key, version, path))
    return [(version, path) for _, version, path in sorted(found)]


def run(python: Path, command: str) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of `python -m qpoly command`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    digest = hashlib.sha256()
    with subprocess.Popen([str(python), "-m", "qpoly", *command.split()],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
    return proc.returncode, digest.hexdigest()


def main() -> int:
    found = interpreters()
    if not found:
        print("no Python 3.10 or later in %s" % VERSIONS)
        return 2
    disagree = []
    for command in COMMANDS:
        outcomes = set()
        for version, python in found:
            code, digest = run(python, command)
            outcomes.add((code, digest))
            print("%-8s exit %d  %s  %s" % (version, code, digest, command))
        if len(outcomes) > 1:
            disagree.append(command)
    for command in disagree:
        print("DISAGREE: %s" % command)
    print("%d of %d commands agree under %s" % (
        len(COMMANDS) - len(disagree), len(COMMANDS),
        ", ".join(version for version, _ in found)))
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
