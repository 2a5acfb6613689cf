#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload once per seed (ten seeds by default), and prints for every
workload x end-to-end metric the median and the spread: the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. A metric is steady when every spread is below a third of its
bound; the driver refuses the benchmark when a spread exceeds the bound.

    octobench/spread.py [--seeds N] [--first-seed S] [--workload NAME ...] [--json FILE]

Run from the repository root after `cargo build --release --manifest-path
octobench/Cargo.toml`.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=MANIFEST["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--binary", default=str(ROOT / "octobench/target/release/octobench"))
    ap.add_argument("--json", help="also write every value to this file")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in MANIFEST["workloads"]]
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    values = {}
    worst = 0.0
    for workload in workloads:
        runs = [run(args.binary, workload, args.first_seed + i, args.seconds) for i in range(args.seeds)]
        values[workload] = runs
        print(f"\n{workload}: {args.seeds} seeds from {args.first_seed}")
        print(f"  {'metric':<28}{'median':>14}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            xs = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            flag = ""
            if name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "  > bound" if spread > bound else "  > bound/3" if spread > bound / 3 else ""
            print(f"  {name:<28}{med:>14.4f}{spread:>8.1%}{bound:>8.0%}{flag}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(values, indent=1))
    print(f"\nworst spread / bound: {worst:.2f} (steady below 0.33, refused above 1)")


if __name__ == "__main__":
    main()
