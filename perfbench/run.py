#!/usr/bin/env python3
"""Runs one workload of the cluster-simulator benchmark and prints its result.

    python3 perfbench/run.py --workload two-class --seed 7 --seconds 10 --trace 0

Run from the repository root. Builds the `perfbench` package (release
profile) into $CARGO_TARGET_DIR (default `.bench_build`, relative to the
working directory), runs it, forwards its report, and prints as the last
line one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the `end_to_end` metrics of BENCHMARK.json with `--trace 0`,
its `per_layer` metrics with `--trace 1`, each with the unit declared
there. Exits non-zero without printing a result when the build or the
run fails, or when the run reports other metrics than BENCHMARK.json
declares.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    subprocess.run(build + ["--manifest-path", str(HERE / "Cargo.toml")], env=env, check=True, stdout=sys.stderr)

    mode = "trace" if args.trace else "run"
    command = [str(target / "release" / "perfbench"), mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    # Pin glibc's mmap threshold at its default. Left dynamic, it rises
    # after the first large free, and whether later builds reuse warm heap
    # or fault in fresh pages then differs from process to process, which
    # makes setup_s and peak_rss_mb bimodal.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    lines = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    values = report["metrics"]
    if sorted(values) != sorted(m["name"] for m in declared):
        sys.exit("perfbench: reported metrics differ from those BENCHMARK.json declares")
    if not all(math.isfinite(v) for v in values.values()):
        sys.exit("perfbench: a reported metric is not a finite number")
    attempted, failed = report["attempted"], report["failed"]
    print(f"{args.workload} seed {args.seed}:")
    for m in declared:
        print(f"  {m['name']:<34} {values[m['name']]:.6g} {m['unit']}")
    print(f"  {'failed_frac':<34} {failed / attempted:.6g} ratio ({failed} of {attempted} runs failed the output checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))


if __name__ == "__main__":
    main()
