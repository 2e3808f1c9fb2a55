"""Command line interface.

Subcommands: table (reference rows), value (one record), verify (symbolic
and numeric sweeps, JSON lines), oracle (one numeric comparison). Output
is deterministic byte for byte for a fixed invocation. Exit codes: 0 on
success, 1 when a verification or comparison fails, 2 on usage errors,
each naming its flag, or its config file's path:line and key.
An oracle comparison passes when |closed - oracle| < tolerance *
max(1, |closed|): the tolerance is relative for values of size above 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Iterable, Sequence

from .core import DenominatorVanishes, ParamPoly, eval_numeric
from .families import FAMILIES, family_t, specialize
from .identities import report_record, run_gf_sweep, run_identity_sweep
from .jackson import NonconvergedTruncation, OracleConfig, oracle_family
from .textform import (_huge_exponent, _print_limit, format_param_poly,
                       latex_param_poly)

__all__ = ["DEFAULT_CONFIG", "load_config", "main"]

DEFAULT_CONFIG = {
    "series_order": 12,      # order of the generating-function sweep
    "oracle_truncation": OracleConfig._field_defaults["truncation"],
    "tolerance": OracleConfig._field_defaults["tolerance"],
    "k_range": (-2, 3),      # inclusive sweep bounds
    "nmax_identities": 10,
    "nmax_mixed": 8,
    "nmax_oracle": 5,
}

# The largest --n (value, oracle) and --nmax (table, verify, and the n
# bounds in a verify config) accepted. At n = 50 one value builds and
# formats in about 0.1 s (3 MB of text at k = -2); at n = 100 it takes
# 0.7 s and 50 MB.
N_LIMIT = 50
# The largest |--k| (and |k| in a verify config's k_range) accepted: the
# q-degree of [m+1]_q^k grows with n*|k|. At n = 50, k = -10 one value takes
# about 0.4 s and 17 MB of text, and table --nmax 50 prints 177 MB.
K_LIMIT = 10
# The largest oracle_truncation T accepted: the oracle sums k(T-1)+1 nodes.
# At T = 10,000 an n = 50, k = 10 comparison takes 0.5 s, verify --scope
# oracle 6 s.
TRUNCATION_LIMIT = 10_000
# Digits per order n that a family's own coefficients add to an exact value
# at q = 1: at most 5.4 for |k| <= K_LIMIT, n <= N_LIMIT and rho, z = +-1.
OWN_DIGITS_PER_ORDER = 6
# A --rho/--z decimal exponent this far past the text's length puts a value
# past the float range (10^308), or below it (10^-324) to round to zero.
FLOAT_EXPONENT = 400


def _check_bounds(flag: str, lo: int, hi: int, *values: int) -> None:
    """Refuse a size or depth outside lo..hi before any value is built."""
    for v in values:
        if not lo <= v <= hi:
            raise ValueError("%s must lie in %d..%d, got %d" % (flag, lo, hi, v))


def _parse_k_range(text: str) -> tuple[int, int]:
    """'v' or 'lo,hi' as the inclusive range (lo, hi)."""
    try:
        lo, hi = map(int, text.split(",") if "," in text else (text, text))
    except ValueError:   # not an integer, or more than two parts
        raise ValueError("expected 'v' or 'lo,hi' in integers, got %r"
                         % text) from None
    if lo > hi:
        raise ValueError("empty range %r" % text)
    return lo, hi


def _config_value(key: str, value: str):
    """One config value, parsed and held to its key's bound or oracle
    rule."""
    if key == "k_range":
        lo, hi = _parse_k_range(value)
        _check_bounds(key, -K_LIMIT, K_LIMIT, lo, hi)
        return lo, hi
    if key == "tolerance":
        tolerance = float(value)
        OracleConfig(0.5, tolerance=tolerance)   # any q in (0, 1) will do
        return tolerance
    v = int(value)
    if key == "oracle_truncation":
        _check_bounds(key, 1, TRUNCATION_LIMIT, v)
    else:
        _check_bounds(key, 0, N_LIMIT, v)
    return v


def load_config(path: str) -> dict:
    """Read key = value lines; '#' starts a comment. Unknown keys are
    rejected so typos do not silently fall back to defaults, and a bad
    line or value, one past its bound included, is named by its path:line
    (and key) as the line is read."""
    cfg = dict(DEFAULT_CONFIG)
    with open(path, "r", encoding="utf-8-sig") as fh:   # skips a BOM
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
            try:
                cfg[key] = _config_value(key, value)
            except ValueError as exc:
                raise ValueError("%s:%d: %s: %s"
                                 % (path, lineno, key, exc)) from None
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
    v = sub.add_parser("value", help="a single value record")
    v.add_argument("--family", choices=FAMILIES, required=True)
    v.add_argument("--n", type=int, required=True)
    for p, fmt in ((t, "csv"), (v, "json")):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", choices=("csv", "json", "latex"),
                       default=fmt)
        add_eval_flags(p)

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
    o.add_argument("--rho", help="fraction or decimal, e.g. 1/2; default 1")
    o.add_argument("--z", help="fraction or decimal, e.g. 1/3; default 0")
    o.add_argument("--config", default=None)
    o.set_defaults(at_q1=False)
    return parser


def _get_config(args) -> dict:
    return load_config(args.config) if args.config else dict(DEFAULT_CONFIG)


def _point_arg(flag: str, text: str | None,
               numeric: bool) -> Fraction | float | None:
    """An optional --rho/--z value as an exact fraction, or when numeric
    as its float, correctly rounded as float(text) is. A decimal exponent
    past the text's length plus FLOAT_EXPONENT or the print limit
    (_huge_exponent) is cut to just past the bound first."""
    if text is None:
        return None
    try:
        limit = FLOAT_EXPONENT if numeric else _print_limit()
        huge = _huge_exponent(text, limit)
        # an exponent just past the bound gives the same float or refusal
        value = Fraction("%se%d" % (huge[0], (len(text) + limit + 1) * (
            1 if huge[1] > 0 else -1)) if huge else text)
        if numeric:
            return float(value)
        if not (huge and value):
            return value
    except ZeroDivisionError:
        raise ValueError("%s %s has a zero denominator"
                         % (flag, text)) from None
    except OverflowError:
        raise ValueError("%s %s is past the float range"
                         % (flag, text)) from None
    except ValueError:
        raise ValueError("%s %s is not a fraction or decimal"
                         % (flag, text)) from None
    raise ValueError("%s %s would have over %d digits, past the %d that "
                     "Python prints"
                     % (flag, text, abs(huge[1]) - len(text), limit))


def _digits(i: int) -> int:
    """The decimal digits of i, read off its bit length (at most one
    over), since str(i) may itself be past the print limit."""
    return int(abs(i).bit_length() * 0.30103) + 1


def _check_print_size(args, n: int, rho, z) -> None:
    """Refuse an exact --rho/--z at which values up to order n may hold
    an int longer than Python prints (_print_limit()). Such a value is of
    degree n in rho and z, so its numerator and denominator have at most
    about n times the digits of the point's, plus the family's own
    (OWN_DIGITS_PER_ORDER)."""
    limit = _print_limit()
    given = [(flag, text, v) for flag, text, v in (("--rho", args.rho, rho),
                                                   ("--z", args.z, z))
             if v is not None]
    digits = sum(_digits(v.numerator) + _digits(v.denominator)
                 for _, _, v in given)
    size = max(n, 1) * (digits + OWN_DIGITS_PER_ORDER)
    if given and size > limit:
        raise ValueError("%s: values up to n = %d would have about %d "
                         "digits, past the %d that Python prints"
                         % (" ".join("%s %s" % g[:2] for g in given), n,
                            size, limit))


def _eval_point(args, n: int) -> tuple:
    """Check the evaluation flags and return (rho, z): exact, or rounded to
    floats under --q. Every flag error is raised here, before any output;
    n is the largest order that will be evaluated."""
    numeric = args.q is not None
    if args.at_q1 and numeric:
        raise ValueError("--at-q1 and --q are mutually exclusive")
    rho = _point_arg("--rho", args.rho, numeric)
    z = _point_arg("--z", args.z, numeric)
    if numeric:
        return 1.0 if rho is None else rho, 0.0 if z is None else z
    if not args.at_q1 and (rho is not None or z is not None):
        raise ValueError("--rho/--z need --at-q1 or --q")
    _check_print_size(args, n, rho, z)
    return rho, z


def _evaluate(value: ParamPoly, args, rho, z) -> tuple:
    """(vars, printable value, exact value) of value at the point that
    _eval_point returned; the exact value is None under --q."""
    if args.q is not None:
        num = eval_numeric(value, q=args.q, rho=rho, z=z)
        return {"q": args.q, "rho": rho, "z": z}, num, None
    if args.at_q1:
        out = value.at_q1().substitute(rho=rho, z=z)
        vars_ = {"q": 1,
                 "rho": str(rho) if rho is not None else "symbolic",
                 "z": str(z) if z is not None else "symbolic"}
        if out.is_constant():
            return vars_, str(out.constant_term()), out
        return vars_, format_param_poly(out), out
    return ({"q": "symbolic", "rho": "symbolic", "z": "symbolic"},
            format_param_poly(value), value)


def _record(family: str, n: int, k: int, vars_: dict, value,
            provenance: str) -> dict:
    return {"family": family, "n": n, "k": k, "vars": vars_,
            "value": value, "provenance_path": provenance}


def _emit_records(records: Iterable[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec) + "\n")
    elif fmt == "csv":
        # no field can hold a comma, a quote or a line break: none is quoted
        out.write("family,n,k,value\n")
        for rec in records:
            out.write("%(family)s,%(n)d,%(k)d,%(value)s\n" % rec)
    else:
        out.write("\\begin{tabular}{rl}\n")
        for rec in records:
            out.write("%d & $%s$ \\\\\n" % (rec["n"], rec["latex"]))
        out.write("\\end{tabular}\n")


def _cmd_values(args, out) -> int:
    """table (rows n = 0..nmax) and value (the one row n).

    Each row is specialized from the t-basis form rather than looked up in
    the closed-form cache, so a streamed table keeps no printed row."""
    if args.command == "table":
        flag, last, ns = "--nmax", args.nmax, range(args.nmax + 1)
    else:
        flag, last, ns = "--n", args.n, (args.n,)
    _check_bounds(flag, 0, N_LIMIT, last)
    _check_bounds("--k", -K_LIMIT, K_LIMIT, args.k)
    rho, z = _eval_point(args, last)

    def record(n: int) -> dict:
        value = specialize(family_t(args.family, n), args.k)
        vars_, printable, exact = _evaluate(value, args, rho, z)
        rec = _record(args.family, n, args.k, vars_, printable, "closed_form")
        if args.format == "latex":
            # a --q row is a float, printed as its repr
            rec["latex"] = (str(printable) if exact is None
                            else latex_param_poly(exact))
        return rec

    # --q rows are floats: build all first, so a failing one prints nothing
    rows = map(record, ns)
    _emit_records(rows if args.q is None else list(rows), args.format, out)
    return 0


def _oracle_verdict(closed: float, numeric: float,
                    tolerance: float) -> tuple[float, bool]:
    """The absolute error, and whether it is below tolerance relative to
    the closed form's size (absolute for values below 1 in size)."""
    err = abs(closed - numeric)
    return err, err < tolerance * max(1.0, abs(closed))


def _verify_oracle(nmax: int, configs: Sequence[OracleConfig]) -> list[dict]:
    """Records in (identity, n, k, q, rho, z) order: every loop ascends."""
    records = []
    for family in ("polyCauchy1", "polyCauchy2"):
        for n in range(nmax + 1):
            for k in (1, 2):
                value = specialize(family_t(family, n), k)
                for cfg in configs:
                    for rho in (-0.5, 1.0, 2.0):
                        for z in (0.0, 1 / 3):
                            closed = eval_numeric(value, q=cfg.q, rho=rho,
                                                  z=z)
                            numeric = oracle_family(family, n, k, rho, z, cfg)
                            err, ok = _oracle_verdict(closed, numeric,
                                                      cfg.tolerance)
                            records.append({
                                "identity": "ORACLE_%s" % family,
                                "n": n, "k": k, "q": cfg.q, "rho": rho,
                                "z": z, "abs_err": err,
                                "status": "verified" if ok else "failed",
                            })
    return records


def _cmd_verify(args, out) -> int:
    cfg = _get_config(args)
    nmax_gf, nmax_ids = cfg["series_order"], cfg["nmax_identities"]
    if args.nmax is not None:
        _check_bounds("--nmax", 0, N_LIMIT, args.nmax)
        nmax_gf = nmax_ids = args.nmax
    if args.k is None:
        lo, hi = cfg["k_range"]
    else:
        try:
            lo, hi = _parse_k_range(args.k)
        except ValueError as exc:
            raise ValueError("--k: %s" % exc) from None
        _check_bounds("--k", -K_LIMIT, K_LIMIT, lo, hi)
    ks = range(lo, hi + 1)
    qs = (args.q,) if args.q is not None else (0.3, 0.7)
    oracle_configs = [OracleConfig(q, cfg["oracle_truncation"],
                                   cfg["tolerance"]) for q in qs]

    records: list[dict] = []
    if args.scope in ("gf", "all"):
        # a passing gf record has no witness key
        records.extend({key: v for key, v in report_record(r).items()
                        if v is not None} for r in run_gf_sweep(nmax_gf, ks))
    if args.scope in ("identities", "all"):
        records.extend(map(report_record, run_identity_sweep(
            nmax_ids, min(cfg["nmax_mixed"], nmax_ids), ks)))
    if args.scope in ("oracle", "all"):
        records.extend(_verify_oracle(cfg["nmax_oracle"], oracle_configs))
    failed = [r for r in records if r["status"] != "verified"]
    for rec in records:
        out.write(json.dumps(rec) + "\n")
    if (args.scope in ("identities", "all")
            and (args.nmax or 0) > cfg["nmax_mixed"]):
        sys.stderr.write("verify: T7 checked up to n = %d (nmax_mixed)\n"
                         % cfg["nmax_mixed"])
    if failed:
        sys.stderr.write("verify: %d of %d checks failed; first: %s\n"
                         % (len(failed), len(records), json.dumps(failed[0])))
        return 1
    sys.stderr.write("verify: %d checks passed\n" % len(records))
    return 0


def _cmd_oracle(args, out) -> int:
    _check_bounds("--n", 0, N_LIMIT, args.n)
    _check_bounds("--k", 1, K_LIMIT, args.k)
    cfg = _get_config(args)
    rho, z = _eval_point(args, args.n)
    ocfg = OracleConfig(q=args.q, truncation=cfg["oracle_truncation"],
                        tolerance=cfg["tolerance"])
    # a value past the float range is refused before the closed form is built
    numeric = oracle_family(args.family, args.n, args.k, rho, z, ocfg)
    closed = eval_numeric(specialize(family_t(args.family, args.n), args.k),
                          q=args.q, rho=rho, z=z)
    vars_ = {"q": args.q, "rho": rho, "z": z}
    out.write(json.dumps(_record(args.family, args.n, args.k, vars_,
                                 closed, "closed_form")) + "\n")
    out.write(json.dumps(_record(args.family, args.n, args.k, vars_,
                                 numeric, "jackson_oracle")) + "\n")
    err, ok = _oracle_verdict(closed, numeric, ocfg.tolerance)
    out.write(json.dumps({"abs_err": err, "tolerance": ocfg.tolerance,
                          "status": "verified" if ok else "failed"}) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        # every command takes --q; a bad one is refused before any build
        if args.q is not None and not 0.0 < args.q < 1.0:
            raise ValueError("--q must lie strictly between 0 and 1, got %r"
                             % args.q)
        if args.command in ("table", "value"):
            return _cmd_values(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        return _cmd_oracle(args, out)
    except (NonconvergedTruncation, DenominatorVanishes) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
