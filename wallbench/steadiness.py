"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the repository root::

    python3 wallbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --traced 3 --out wallbench/results/seeds_1-10.json

Runs ``wallbench/run.py`` once per (workload, seed), one at a time, and
reports for every end-to-end metric the median, the quartiles, and the
interquartile distance as a share of the median next to the bound
``BENCHMARK.json`` fixes for it.  Error responses and wrong results are
recorded apart, with the label of every wrong read.  ``--traced N`` adds N
traced runs per workload, from which the tracing overhead (traced minus
untraced ``throughput_sps``) and the per-layer medians are reported.

``--compare A B`` reads two such reports instead and prints, for every
metric both hold, how much worse B's median is than A's, against the
bound::

    python3 wallbench/steadiness.py --compare \
        wallbench/results/seeds_1-10.json wallbench/results/seeds_1-10_repeat.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from wallbench.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join("wallbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = time.perf_counter() - started
    counts = re.search(r"(\d+) error\(s\), (\d+) wrong result\(s\)",
                       proc.stdout)
    result["errors"], result["wrong"] = int(counts[1]), int(counts[2])
    result["wrong_reads"] = [
        line.split(":", 2)[1].strip()
        for line in lines
        if line.startswith("  wrong: ")
    ]
    return result


def compare(path_a: str, path_b: str, bench: dict) -> int:
    """Print how far B's medians are from A's; 1 if any is worse than its
    bound allows."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)["workloads"]
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)["workloads"]
    status = 0
    for workload in sorted(a.keys() & b.keys()):
        for name, m in metrics.items():
            ma = a[workload]["metrics"][name]["median"]
            mb = b[workload]["metrics"][name]["median"]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok = worse <= m["bound"]
            status |= not ok
            print(f"{workload} {name}: {ma:.6g} -> {mb:.6g}, "
                  f"{worse:+.3f} worse (bound {m['bound']}) "
                  f"{'ok' if ok else 'OVER BOUND'}")
    return status


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(prog="wallbench/steadiness.py")
    parser.add_argument(
        "--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, bench)
    if not args.seeds:
        parser.error("--seeds is required unless --compare is given")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "run_seconds": bench["run_seconds"],
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, bench["run_seconds"], 0))
            print(f"{workload} seed={seed} run_s={runs[-1]['run_s']:.1f} "
                  f"errors={runs[-1]['errors']} wrong={runs[-1]['wrong']} "
                  f"of {runs[-1]['attempted']}", flush=True)
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "errors": [r["errors"] for r in runs],
            "wrong": [r["wrong"] for r in runs],
            "wrong_reads": [r["wrong_reads"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "run_s": [round(r["run_s"], 1) for r in runs],
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            s.update(
                bound=bound,
                within_third_of_bound=s["spread"] < bound / 3,
                values=values,
            )
            entry["metrics"][name] = s
            print(f"  {name}: median {s['median']:.6g} spread "
                  f"{s['spread']:.4f} (bound {bound})", flush=True)
        traced = [
            run_once(workload, seed, bench["run_seconds"], 1)
            for seed in args.seeds[: args.traced]
        ]
        if traced:
            layers = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            }
            overhead = (
                layers["trace.throughput_sps"]
                - entry["metrics"]["throughput_sps"]["median"]
            )
            entry["traced_runs"] = len(traced)
            entry["per_layer_median"] = layers
            entry["tracing_overhead_sps"] = overhead
            print(f"  tracing overhead: {overhead:+.4g} statements/s", flush=True)
        report["workloads"][workload] = entry
        if args.out:
            with open(os.path.join(ROOT, args.out), "w", encoding="utf-8") as f:
                json.dump(report, f, indent=2)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
