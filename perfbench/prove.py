"""Repeat run.py over seeds and report how steady each end-to-end metric is.

    python3 perfbench/prove.py --workloads value_mix --seeds 1-5 [--out FILE]

For each workload it runs run.py once per seed, then prints per metric the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance over the median, next to the bound BENCHMARK.json
sets. A metric is steady when its spread is below a third of its bound;
setup_s has no spread requirement. It exits 1 if any metric is not steady
or any output differs from the references.

--out also runs one traced run per workload (the first seed) and writes a
baseline: the environment, every run's metrics, the summaries, the traced
per-layer metrics and LAYER_MAP, which says which end-to-end metric each
layer metric should move, on which workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# Which end-to-end metric each layer's metrics should move, on which
# workload, and where the prediction is no change.
LAYER_MAP = [
    {"layer": ["core.qpoly_mul.*", "core.qpoly_gcd.*", "core.qrat_add.*",
               "core.qrat_mul.*", "core.parampoly_mul.*",
               "core.coeff_bits_max", "core.qdeg_max"],
     "moves": ["identity_sweep:ops_per_s", "value_mix:op_p50_ms"]},
    {"layer": ["core.eval_numeric.*", "numeric_err_max"],
     "moves": ["value_mix:op_p50_ms", "value_mix:numeric_err_max"],
     "unchanged": ["identity_sweep", "gf_sweep"]},
    {"layer": ["core.qnpi.hit_frac", "families.calls", "families.self_s",
               "families.hit_frac", "families.repeat_frac"],
     "moves": ["value_mix:op_tail_ms", "value_mix:peak_rss_mb"]},
    {"layer": ["stirling.*"], "moves": ["value_mix:op_p50_ms"]},
    {"layer": ["series.gf.*", "series.compose.*", "series.mul.*",
               "series.egf.*"],
     "moves": ["gf_sweep:ops_per_s"],
     "unchanged": ["identity_sweep", "value_mix"]},
    {"layer": ["identities.*"], "moves": ["identity_sweep:ops_per_s"],
     "unchanged": ["gf_sweep", "value_mix"]},
    {"layer": ["textform.*"], "moves": ["value_mix:op_p50_ms"]},
    {"layer": ["jackson.*"], "moves": ["value_mix:op_tail_ms"]},
]


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One run.py run's JSON result, with its wall time as wall_s."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed: %s"
                           % (workload, seed, proc.stderr[-2000:]))
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                wall_s=time.monotonic() - start)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    report = {"commit": git.stdout.strip() or None,
              "environment": {"python": platform.python_version(),
                              "numpy": numpy.__version__,
                              "nproc": os.cpu_count(),
                              "machine": platform.machine()},
              "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            out = run_once(workload, seed, bench["run_seconds"])
            if not out["correct"]:
                print("%s seed %d: outputs differ from the references"
                      % (workload, seed))
                steady = False
            runs.append({"seed": seed, "attempted": out["attempted"],
                         "failed": out["failed"], "wall_s": out["wall_s"],
                         "metrics": {k: v["value"]
                                     for k, v in out["metrics"].items()}})
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                runs[-1]["metrics"])), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "bound": bound}
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print("  %-12s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f"
                  "  bound %.3f %s" % (name, med, q1, q3, spread, bound,
                                       "" if ok else "NOT STEADY"))
        print("  wall time per run: median %.1f s, max %.1f s"
              % (statistics.median(r["wall_s"] for r in runs),
                 max(r["wall_s"] for r in runs)))
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        if args.out:
            traced = run_once(workload, runs[0]["seed"],
                              bench["run_seconds"], trace=1)
            report["workloads"][workload]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        report["layer_map"] = LAYER_MAP
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
