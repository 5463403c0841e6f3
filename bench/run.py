"""Benchmark entry point: one workload in a fresh interpreter, one result line.

    python3 bench/run.py --workload structure --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The workload runs in a child interpreter
(`workloads.py`) with BLAS and OpenMP pools pinned to one thread; the import
of geoshift is timed in separate fresh interpreters.  The report prints
every metric by name and unit, the environment and the sha256 of each
rendered report, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every time is in reference seconds (see `speed.py`): the
program's time rescaled by the CPU speed sampled while it ran, so that the
swings of a shared host's speed stay out of the figures.  Exit code 0
means every report passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

from speed import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")
IMPORT_PROBES = 11
# `import geoshift` in reference seconds; argv[1] is the benchmark directory.
IMPORT_PROBE = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); "
                "from speed import reference_seconds; "
                "print(reference_seconds("
                "lambda: importlib.import_module('geoshift'))[0])")
DEADLINE_S = 170.0
WORKLOADS = ("structure", "tau")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_seconds(env: dict) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(BENCH)],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=60, check=True)
    return float(out.stdout.strip())


def environment() -> dict:
    return {"git": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            **{lib: version(lib) for lib in ("numpy", "scipy")}}


def main(argv=None) -> int:
    t_start = time.monotonic()
    p = argparse.ArgumentParser(description="geoshift benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [path for path in (ROOT / "src" / "geoshift" / "__init__.py",
                                 ROOT / "groups" / "genus2.grp",
                                 ROOT / "BENCHMARK.json")
               if not path.is_file()]
    if missing:
        print("bench: run from the root of a geoshift checkout; missing "
              + ", ".join(str(m.relative_to(ROOT)) for m in missing),
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    imports = [import_seconds(env) for _ in range(IMPORT_PROBES)]
    cmd = [sys.executable, str(BENCH / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_file = (ROOT / ".bench_out"
                      / f"trace-{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--trace-file", str(trace_file)]
    budget = DEADLINE_S - (time.monotonic() - t_start)
    child = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=budget)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"bench: workload process exited with {child.returncode}",
              file=sys.stderr)
        return child.returncode or 1
    res = json.loads(lines[-1])

    import_s = statistics.median(imports)
    values = dict(res.get("per_layer", {}))
    values.update({
        "setup_s": import_s + res["state_setup_s"],
        "wall_s": res["wall_s"],
        "peak_rss_mb": res["peak_rss_mb"],
    })

    print(f"geoshift benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(environment()))
    print("times in reference seconds: rescaled to a CPU on which the "
          f"kernel of bench/speed.py takes {REFERENCE_S:g} s")
    print(f"iterations: {res['iterations']} (untraced walls: "
          + ", ".join(f"{w:.3f}" for w in res["walls"]) + " s; speed factors "
          + ", ".join(f"{f:.3f}" for f in res["speed_factors"]) + ")")
    print(f"setup: import {import_s:.4f} s (median of {IMPORT_PROBES}), "
          f"state {res['state_setup_s']:.4f} s (median of "
          f"{len(res['state_setups'])})")
    for name, value in res["phases"].items():
        unit = "1/s" if name.endswith("_per_s") else "s"
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for m in declared:
        print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"reports: {res['attempted']} attempted, {res['failed']} failed, "
          f"fail_ratio {ratio:g}")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    print(f"fingerprints (sha256 of each rendered report, seed {args.seed}):")
    for label, digest in res["fingerprints"].items():
        print(f"  {label:<20} {digest}")
    if trace_file is not None:
        print(f"spans written to {trace_file.relative_to(ROOT)}")

    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
