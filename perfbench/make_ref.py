"""Pin the reference outputs the benchmark checks against.

    python3 perfbench/make_ref.py

Writes perfbench/ref/grid.json, the sha256 of format_param_poly for every
(family, n <= 25, k in -2..3), and perfbench/ref/identity.json, the sha256
of reports_to_json_lines for each identity op and for the whole sweep in
run_identity_sweep's order. Run it only on a commit whose outputs are
known good; the committed files were made at the commit the benchmark was
defined on.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qpoly.families as families  # noqa: E402
import qpoly.identities as identities  # noqa: E402
import qpoly.textform as textform  # noqa: E402
import workloads as w  # noqa: E402


def main() -> int:
    grid = {}
    for fam in w.FAMILY_NAMES:
        for k in w.K_VALUES:
            for n in range(w.VALUE_NMAX + 1):
                value = families.family_value(fam, n, k)
                grid[w.grid_key(fam, n, k)] = w.digest(
                    textform.format_param_poly(value))
    ops, reports = {}, []
    for op in sorted(w.build_ops("identity_sweep", 0, 0), key=w.op_key):
        out = w.execute(op)
        assert all(r.status == "verified" for r in out), op
        ops[w.op_key(op)] = w.digest(identities.reports_to_json_lines(out))
        reports.extend(out)
    sweep = w.digest(identities.reports_to_json_lines(
        identities.run_identity_sweep(nmax=w.NMAX, nmax_mixed=w.NMAX_MIXED,
                                      k_values=w.K_VALUES)))
    assert sweep == w.sweep_digest(reports)
    w.REF_DIR.mkdir(exist_ok=True)
    with open(w.REF_DIR / "grid.json", "w") as fh:
        json.dump(grid, fh, indent=0, sort_keys=True)
    with open(w.REF_DIR / "identity.json", "w") as fh:
        json.dump({"sweep": sweep, "reports": len(reports), "ops": ops},
                  fh, indent=0, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
