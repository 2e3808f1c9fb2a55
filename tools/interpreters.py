"""Run the pinned qpoly commands under every Python 3.10 or later that
pyenv holds, and check each command's stdout against its pinned sha256.

    python3 tools/interpreters.py

Run from anywhere; the package is read from this checkout's src/. The
interpreters are ~/.pyenv/versions/<x.y.z>/bin/python. Each command's
stdout is hashed as it streams (the table prints 177 MB), and one line
per interpreter and command gives the version, the exit code and the
sha256. Exit code 0 when every command exits 0 with its pinned digest
under every interpreter, 1 when one does not (each such command is
named), 2 when no interpreter is found. A change that moves an output
edits its pin here.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERSIONS = Path.home() / ".pyenv" / "versions"
# command: sha256 of its stdout
PINS = {
    "verify --scope all":
        "e8d9a33c814331abaaf60c86214ee84824839c644fb0aad2a1fbd012cbf42201",
    "verify --scope gf":
        "da4ab9be7e0f0d1f4f73a1564f05f78f626b71c68f10eafe674ef0ba0c1edd58",
    "verify --scope identities":
        "292b2d07271044956001ba48357f13b9119d6e301d62d0ed09fc6a207d543bfe",
    "verify --scope oracle":
        "83b6744b943390c571d6d673a952afed3f5f0066ac2f8eb53d9281dbbd278d07",
    "verify --nmax 30":
        "4c6240fbbd9b1e1ad95a36110020846cd6b25ca712cc5029462ccff9351440af",
    "table polyBernoulli --nmax 50 --k -10":
        "fe851325d05abc8cc76137eb6f6519e7e67d6f4107a42bc2bcc781074ee3b81f",
}


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
    off_pin = []
    for command, pin in PINS.items():
        for version, python in found:
            code, digest = run(python, command)
            print("%-8s exit %d  %s  %s" % (version, code, digest, command))
            if (code, digest) != (0, pin):
                off_pin.append("%s under %s" % (command, version))
    for miss in off_pin:
        print("OFF PIN: %s" % miss)
    print("%d of %d runs match their pins under %s" % (
        len(PINS) * len(found) - len(off_pin), len(PINS) * len(found),
        ", ".join(version for version, _ in found)))
    return 1 if off_pin else 0


if __name__ == "__main__":
    sys.exit(main())
