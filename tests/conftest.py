"""Put this checkout's src/ on the path of the subprocesses that tests start
(`python -m qpoly ...`), as pyproject's pythonpath does for the test process,
so `python3 -m pytest` works from a checkout without installing the package."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
