"""Command line interface.

Subcommands: table (reference rows), value (one record), verify (symbolic
and numeric sweeps, JSON lines), oracle (one numeric comparison). Output
is deterministic byte for byte for a fixed invocation. Exit codes: 0 on
success, 1 when a verification or comparison fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .core import DenominatorVanishes, ParamPoly, eval_numeric
from .families import FAMILIES, family_value
from .identities import run_identity_sweep
from .jackson import NonconvergedTruncation, OracleConfig, oracle_family
from .series import (
    egf_coefficient,
    gf_poly_bernoulli,
    gf_poly_cauchy1,
    gf_poly_cauchy2,
)
from .textform import format_param_poly, latex_param_poly

__all__ = ["DEFAULT_CONFIG", "load_config", "main"]

DEFAULT_CONFIG = {
    "series_order": 12,      # order of the generating-function sweep
    "oracle_truncation": 200,
    "tolerance": 1e-9,
    "k_range": (-2, 3),      # inclusive sweep bounds
    "nmax_identities": 10,
    "nmax_mixed": 8,
    "nmax_oracle": 5,
}

_GF_BUILDERS = {
    "polyBernoulli": gf_poly_bernoulli,
    "polyCauchy1": gf_poly_cauchy1,
    "polyCauchy2": gf_poly_cauchy2,
}


def _parse_k_range(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) == 1:
        v = int(parts[0])
        return (v, v)
    if len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
        if lo > hi:
            raise ValueError("empty k range %r" % text)
        return (lo, hi)
    raise ValueError("k range must be 'v' or 'lo,hi', got %r" % text)


def load_config(path: str) -> dict:
    """Read key = value lines; '#' starts a comment. Unknown keys are
    rejected so typos do not silently fall back to defaults."""
    cfg = dict(DEFAULT_CONFIG)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key = value" % (path, lineno))
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in cfg:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            if key == "k_range":
                cfg[key] = _parse_k_range(value)
            elif key == "tolerance":
                cfg[key] = float(value)
            else:
                cfg[key] = int(value)
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpoly",
        description="Exact q-analog polynomial families: tables, values, "
                    "verification sweeps and the numeric integral oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eval_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rho", default=None,
                       help="rho value as a fraction or decimal, e.g. 1/2; "
                            "rounded to a float with --q")
        p.add_argument("--z", default=None,
                       help="z value as a fraction or decimal, e.g. 1/3; "
                            "rounded to a float with --q")
        p.add_argument("--q", type=float, default=None,
                       help="numeric q in (0, 1); switches to float evaluation")
        p.add_argument("--at-q1", action="store_true",
                       help="exact q = 1 specialization")

    t = sub.add_parser("table", help="reference rows n = 0..nmax")
    t.add_argument("family", choices=FAMILIES)
    t.add_argument("--nmax", type=int, required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--format", choices=("csv", "json", "latex"), default="csv")
    add_eval_flags(t)

    v = sub.add_parser("value", help="a single value record")
    v.add_argument("--family", choices=FAMILIES, required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--format", choices=("csv", "json", "latex"), default="json")
    add_eval_flags(v)

    r = sub.add_parser("verify", help="verification sweeps, JSON lines out")
    r.add_argument("--scope", choices=("gf", "identities", "oracle", "all"),
                   default="all")
    r.add_argument("--nmax", type=int, default=None,
                   help="cap for the gf and identity sweeps")
    r.add_argument("--k", default=None,
                   help="k sweep as 'lo,hi' (inclusive) or a single value")
    r.add_argument("--q", type=float, default=None,
                   help="restrict the oracle grid to one q")
    r.add_argument("--config", default=None)

    o = sub.add_parser("oracle", help="one numeric oracle comparison")
    o.add_argument("--family", choices=("polyCauchy1", "polyCauchy2"),
                   required=True)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--k", type=int, required=True)
    o.add_argument("--q", type=float, required=True)
    o.add_argument("--rho", type=float, default=1.0)
    o.add_argument("--z", type=float, default=0.0)
    o.add_argument("--config", default=None)
    return parser


def _get_config(args) -> dict:
    if args.config:
        return load_config(args.config)
    return dict(DEFAULT_CONFIG)


def _exact_arg(text: str | None) -> Fraction | None:
    """Parse an optional --rho/--z value as an exact fraction."""
    if text is None:
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def _evaluate(value: ParamPoly, args) -> tuple[dict, object, ParamPoly | None]:
    """Apply the evaluation flags; returns (vars, printable value, exact
    value), the exact value None under --q."""
    if args.at_q1 and args.q is not None:
        raise ValueError("--at-q1 and --q are mutually exclusive")
    rho, z = _exact_arg(args.rho), _exact_arg(args.z)
    if args.q is not None:
        # Fraction -> float is correctly rounded, as float(text) is
        rho = float(rho) if rho is not None else 1.0
        z = float(z) if z is not None else 0.0
        num = eval_numeric(value, q=args.q, rho=rho, z=z, y=0.0)
        return {"q": args.q, "rho": rho, "z": z}, num, None
    if args.at_q1:
        out = value.at_q1().substitute(rho=rho, z=z)
        vars_ = {"q": 1,
                 "rho": str(rho) if rho is not None else "symbolic",
                 "z": str(z) if z is not None else "symbolic"}
        if out.is_constant():
            return vars_, str(out.constant_term().eval_at_q1()), out
        return vars_, format_param_poly(out), out
    if args.rho is not None or args.z is not None:
        raise ValueError("--rho/--z need --at-q1 or --q")
    return ({"q": "symbolic", "rho": "symbolic", "z": "symbolic"},
            format_param_poly(value), value)


def _record(family: str, n: int, k: int, vars_: dict, value,
            provenance: str) -> dict:
    return {"family": family, "n": n, "k": k, "vars": vars_,
            "value": value, "provenance_path": provenance}


def _emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["family", "n", "k", "value"])
        for rec in records:
            writer.writerow([rec["family"], rec["n"], rec["k"], rec["value"]])
    else:
        out.write("\\begin{tabular}{rl}\n")
        for rec in records:
            out.write("%d & $%s$ \\\\\n" % (rec["n"], rec["latex"]))
        out.write("\\end{tabular}\n")


def _cmd_values(args, out) -> int:
    """table (rows n = 0..nmax) and value (the one row n)."""
    if args.command == "table":
        flag, last, ns = "--nmax", args.nmax, range(args.nmax + 1)
    else:
        flag, last, ns = "--n", args.n, (args.n,)
    if last < 0:
        raise ValueError("%s must be nonnegative" % flag)
    records = []
    for n in ns:
        value = family_value(args.family, n, args.k)
        vars_, printable, exact = _evaluate(value, args)
        rec = _record(args.family, n, args.k, vars_, printable, "closed_form")
        if args.format == "latex":
            # a --q row is a float, printed as its repr
            rec["latex"] = (str(printable) if exact is None
                            else latex_param_poly(exact))
        records.append(rec)
    _emit_records(records, args.format, out)
    return 0


def _verify_gf(nmax: int, k_range: tuple[int, int]) -> list[dict]:
    records = []
    for family in FAMILIES:
        builder = _GF_BUILDERS[family]
        for k in range(k_range[0], k_range[1] + 1):
            series = builder(k, nmax)
            for n in range(nmax + 1):
                same = egf_coefficient(series, n) == family_value(family, n, k)
                rec = {"identity": "GF_%s" % family, "n": n, "k": k,
                       "status": "verified" if same else "failed"}
                records.append(rec)
    records.sort(key=lambda r: (r["identity"], r["n"], r["k"]))
    return records


def _verify_identities(nmax: int, nmax_mixed: int,
                       k_range: tuple[int, int]) -> list[dict]:
    reports = run_identity_sweep(
        nmax=nmax, nmax_mixed=min(nmax_mixed, nmax),
        k_values=range(k_range[0], k_range[1] + 1))
    return [{"identity": r.identity_id, "n": r.n, "k": r.k,
             "status": r.status, "witness": r.witness} for r in reports]


def _verify_oracle(nmax: int, truncation: int, tolerance: float,
                   q_values) -> list[dict]:
    records = []
    for family in ("polyCauchy1", "polyCauchy2"):
        for n in range(nmax + 1):
            for k in (1, 2):
                for q in q_values:
                    cfg = OracleConfig(q=q, truncation=truncation,
                                       tolerance=tolerance)
                    for rho in (1.0, 2.0, -0.5):
                        for z in (0.0, 1 / 3):
                            closed = eval_numeric(family_value(family, n, k),
                                                  q=q, rho=rho, z=z, y=0.0)
                            numeric = oracle_family(family, n, k, rho, z, cfg)
                            err = abs(closed - numeric)
                            records.append({
                                "identity": "ORACLE_%s" % family,
                                "n": n, "k": k, "q": q, "rho": rho, "z": z,
                                "abs_err": err,
                                "status": ("verified" if err < tolerance
                                           else "failed"),
                            })
    records.sort(key=lambda r: (r["identity"], r["n"], r["k"],
                                r["q"], r["rho"], r["z"]))
    return records


def _cmd_verify(args, out) -> int:
    cfg = _get_config(args)
    if args.nmax is not None:
        if args.nmax < 0:
            raise ValueError("--nmax must be nonnegative")
        nmax_gf = args.nmax
        nmax_ids = args.nmax
    else:
        nmax_gf = cfg["series_order"]
        nmax_ids = cfg["nmax_identities"]
    k_range = _parse_k_range(args.k) if args.k is not None else cfg["k_range"]
    q_values = (args.q,) if args.q is not None else (0.3, 0.7)

    records: list[dict] = []
    if args.scope in ("gf", "all"):
        records.extend(_verify_gf(nmax_gf, k_range))
    if args.scope in ("identities", "all"):
        records.extend(_verify_identities(nmax_ids, cfg["nmax_mixed"], k_range))
    if args.scope in ("oracle", "all"):
        records.extend(_verify_oracle(cfg["nmax_oracle"],
                                      cfg["oracle_truncation"],
                                      cfg["tolerance"], q_values))
    failed = [r for r in records if r["status"] != "verified"]
    for rec in records:
        out.write(json.dumps(rec) + "\n")
    if failed:
        sys.stderr.write("verify: %d of %d checks failed; first: %s\n"
                         % (len(failed), len(records), json.dumps(failed[0])))
        return 1
    sys.stderr.write("verify: %d checks passed\n" % len(records))
    return 0


def _cmd_oracle(args, out) -> int:
    cfg = _get_config(args)
    ocfg = OracleConfig(q=args.q, truncation=cfg["oracle_truncation"],
                        tolerance=cfg["tolerance"])
    value = family_value(args.family, args.n, args.k)
    closed = eval_numeric(value, q=args.q, rho=args.rho, z=args.z, y=0.0)
    numeric = oracle_family(args.family, args.n, args.k, args.rho, args.z, ocfg)
    vars_ = {"q": args.q, "rho": args.rho, "z": args.z}
    out.write(json.dumps(_record(args.family, args.n, args.k, vars_,
                                 closed, "closed_form")) + "\n")
    out.write(json.dumps(_record(args.family, args.n, args.k, vars_,
                                 numeric, "jackson_oracle")) + "\n")
    err = abs(closed - numeric)
    ok = err < ocfg.tolerance
    out.write(json.dumps({"abs_err": err, "tolerance": ocfg.tolerance,
                          "status": "verified" if ok else "failed"}) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        if args.command in ("table", "value"):
            return _cmd_values(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        return _cmd_oracle(args, out)
    except (NonconvergedTruncation, DenominatorVanishes) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
