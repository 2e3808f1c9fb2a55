"""Put this checkout's src/ on the path of the subprocesses that tests start
(`python -m qpoly ...`), as pyproject's pythonpath does for the test process,
so `python3 -m pytest` works from a checkout without installing the package.

The fresh_caches fixture gives the identity and generating-function tables
empty caches of their own for one test, and empties the families' t-basis
caches before and after it; bump_weight plants a fault in the weighted
Stirling rows that one module reads."""

import os
from functools import lru_cache
from pathlib import Path

import pytest

import qpoly.families as families
import qpoly.identities as identities
import qpoly.series as series

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# the lru_caches keyed by n (and family) alone, which a rebound name they
# read would otherwise not reach
CACHED_TABLES = (
    (identities, ("_inverse_lhs", "_inverse_t", "_reciprocity_t", "_mixed_t")),
    (series, ("_gf_row", "_gf_t_row")),
)


def use_fresh_caches(monkeypatch):
    """Rebind each cached table to a fresh lru_cache of the same function,
    so a fault planted while monkeypatch is active never reaches the shared
    caches, and undoing monkeypatch restores them."""
    for module, names in CACHED_TABLES:
        for name in names:
            monkeypatch.setattr(module, name, lru_cache(maxsize=None)(
                getattr(module, name).__wrapped__))


def bump_weight(monkeypatch, module, n, m, second):
    """Rebind module's _weighted_row so that S(n, m, x) of the given kind
    has its constant coefficient bumped by 1: the fault reaches only what
    that module builds, and the shared triangle is left as it is."""
    true_row = module._weighted_row

    def bumped(n_, second_):
        row = true_row(n_, second_)
        if (n_, second_) != (n, second):
            return row
        w = row[m]
        return row[:m] + ((w[0] + 1,) + w[1:],) + row[m + 1:]

    monkeypatch.setattr(module, "_weighted_row", bumped)


def clear_t_basis():
    """Empty families' _t_rows and family_t in place: other modules import
    them by name, so a rebound name would not reach them."""
    families._t_rows.cache_clear()
    families.family_t.cache_clear()


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty caches for the tables for this test, the t-basis caches
    emptied again when it ends; calling the fixture's value empties them
    all again."""
    def fresh():
        use_fresh_caches(monkeypatch)
        clear_t_basis()

    fresh()
    yield fresh
    clear_t_basis()
