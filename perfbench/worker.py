"""One pass of one workload in a fresh process, so that every cache starts
cold, as on a CLI call.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACED SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; setup is measured from it to the end of `import qpoly`. Prints one
JSON object. A traced pass also writes its spans and counters to
perfbench/out/.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
import qpoly  # noqa: E402  (setup ends here)

SETUP_DONE = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import qpoly.core as core  # noqa: E402
import qpoly.families as families  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def reference_loop_s() -> float:
    """Time of a fixed stdlib Fraction loop, about 2 ms here.

    The machine's speed drifts by up to a factor of 1.7 within seconds, as
    other tenants load its cores. Each op's latency is scaled by the time of
    this loop run just before it, which removes most of that drift.
    """
    t0 = time.perf_counter()
    a, s = Fraction(1, 3), Fraction(0)
    for i in range(1, 400):
        s = s * a + Fraction(i, 7)
    return time.perf_counter() - t0


def cache_hit_frac(fns) -> float:
    infos = [fn.cache_info() for fn in fns]
    hits = sum(i.hits for i in infos)
    total = hits + sum(i.misses for i in infos)
    return hits / total if total else 0.0


def run_pass(ops, refs, tracer=None) -> dict:
    """Time every op, then check every output. The checks run after the
    tracer is removed, so they neither count as layer work nor as op time."""
    latencies, speeds, outputs = [], [], []
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(ops):
            speeds.append(reference_loop_s())
            t0 = time.perf_counter()
            try:
                out = (tracer.run_op(i, workloads.execute, op) if tracer
                       else workloads.execute(op))
            except Exception as exc:  # an op that raises is a failed op
                out = exc
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "latency_s": latencies, "reference_s": speeds,
        "failed": 0, "errors": [],
        "peak_rss_mb": peak_rss_mb,
        "qnpi_hit_frac": cache_hit_frac([core.q_number_power_inverse]),
        "families_hit_frac": cache_hit_frac(
            [families.poly_bernoulli, families.poly_cauchy1,
             families.poly_cauchy2]),
        "numeric": [], "oracle": [],
    }
    seen, repeats = set(), 0
    for op in ops:
        key = (op[1], op[2], op[3]) if op[0] == "value" else op
        repeats += key in seen
        seen.add(key)
    result["repeat_frac"] = repeats / len(ops) if ops else 0.0
    reports = []
    for op, out in zip(ops, outputs):
        # an op fails when it raised or its output does not check out
        if not isinstance(out, Exception):
            try:
                verdict = workloads.check(op, out, refs)
                error = "output differs from the reference"
            except Exception as exc:
                out = exc
        if isinstance(out, Exception):
            verdict = {"ok": False}
            error = "%s: %s" % (type(out).__name__, out)
        if op[0] in workloads.IDENTITY_CHECKS and verdict["ok"]:
            reports.extend(out)
        if not verdict["ok"]:
            result["failed"] += 1
            if len(result["errors"]) < 5:
                result["errors"].append("%s: %s"
                                        % (workloads.op_key(op), error))
        if "rel_err" in verdict:
            result["numeric"].append([verdict["rel_err"],
                                      verdict["scaled_err"]])
        if "oracle" in verdict:
            result["oracle"].append(verdict["oracle"])
    if reports and len(reports) == refs["identity"]["reports"]:
        result["sweep_ok"] = (workloads.sweep_digest(reports)
                              == refs["identity"]["sweep"])
    return result


def main(argv) -> int:
    workload, seed, pass_index, traced, spawn = argv
    if not os.path.realpath(qpoly.__file__).startswith(
            os.path.realpath(os.path.join(ROOT, "src")) + os.sep):
        print("qpoly was imported from %s, not from this checkout"
              % qpoly.__file__, file=sys.stderr)
        return 2
    ops = workloads.build_ops(workload, int(seed), int(pass_index))
    tracer = tracing.Tracer() if traced == "1" else None
    result = {"setup_s": SETUP_DONE - float(spawn),
              "setup_reference_s": min(reference_loop_s() for _ in range(3))}
    result.update(run_pass(ops, workloads.load_refs(), tracer))
    if tracer is not None:
        result["trace"] = tracer.summary()
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "trace-%s-seed%s.json" % (workload, seed))
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": int(seed),
                       "pass": int(pass_index), "counters": result["trace"],
                       "spans": [dict(zip(("id", "name", "start", "end",
                                           "parent", "op"), s))
                                 for s in tracer.spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
