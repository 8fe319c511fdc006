"""Record a baseline: every workload over several seeds, plus one traced run each.

Usage: python3 bench/baseline.py [--out bench/baseline.json]

For each end-to-end metric it stores the median of the runs and their spread,
the distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median. It also stores the environment, the per-layer
values of one traced run per workload and the layer map of ``metrics.py``.
Runs go one at a time, in a fresh process each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import checkout

checkout.require_sources()

import numpy as np  # noqa: E402

import metrics  # noqa: E402

SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _blas() -> str:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": checkout.BLAS_THREADS["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(checkout.ROOT / "bench" / "baseline.json"))
    args = parser.parse_args(argv)
    with open(checkout.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    results = {}
    for w in spec["workloads"]:
        runs = [_run(w["name"], seed, spec["run_seconds"], 0) for seed in SEEDS]
        assert all(r["correct"] for r in runs), f"{w['name']}: failed output checks"
        e2e = {}
        for m in metrics.END_TO_END:
            values = [r["metrics"][m.name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            e2e[m.name] = {"median": med, "spread": (q3 - q1) / med, "bound": m.bound,
                           "unit": m.unit, "values": values}
            print(f"{w['name']:10s} {m.name:14s} median {med:12.6g} {m.unit:3s} "
                  f"spread {(q3 - q1) / med:.3f} (bound {m.bound})", flush=True)
        traced = _run(w["name"], SEEDS[0], spec["run_seconds"], 1)
        results[w["name"]] = {
            "why": w["why"],
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    record = {
        "seeds": [SEEDS[0], SEEDS[-1]],
        "run_seconds": spec["run_seconds"],
        "environment": environment(),
        "workloads": results,
        "layer_map": metrics.LAYER_MAP,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
