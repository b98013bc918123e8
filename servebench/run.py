#!/usr/bin/env python3
"""Builds the servebench package and runs the benchmark of record.

One run (from the repository root):

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the benchmark from source (`cargo build --release`, into
`$CARGO_TARGET_DIR` or `servebench/target`), runs it, and passes its output
through: comment lines starting with `#`, then one JSON result line.

Steadiness mode:

    python3 servebench/run.py --steady [--runs 10] [--first-seed 1]
        [--workloads a,b] [--seconds S] [--bin PATH] [--json OUT]

runs every workload of BENCHMARK.json `--runs` times, each with another
seed, and prints for each end-to-end metric its median, its spread (the
distance between the first and third quartile as a share of the median,
as `statistics.quantiles(values, n=4)` gives them) and the metric's bound.
`--bin` runs an already-built binary instead (for example a parent
commit's build, for paired parent-versus-change runs); `--json` also
writes every value measured.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the benchmark; returns the binary's path or exits non-zero."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Cargo's progress goes to stderr; stdout stays the benchmark's own.
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("servebench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(target, "release", "ohmflow-servebench")


def flag(args, name, default):
    if name in args:
        return args[args.index(name) + 1]
    return default


def steady(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = flag(args, "--bin", None) or build()
    runs = int(flag(args, "--runs", "10"))
    first = int(flag(args, "--first-seed", "1"))
    seconds = flag(args, "--seconds", str(spec["run_seconds"]))
    names = [w["name"] for w in spec["workloads"]]
    names = flag(args, "--workloads", ",".join(names)).split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    measured = {}
    for name in names:
        values = {m: [] for m in bounds}
        for seed in range(first, first + runs):
            cmd = [binary, "--workload", name, "--seed", str(seed), "--seconds", seconds, "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if out.returncode != 0:
                sys.exit(f"servebench: {name} seed {seed} exited {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: correct=false")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        measured[name] = values
        print(f"{name}  ({runs} runs, seeds {first}..{first + runs - 1})")
        for m, vals in values.items():
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds[m]["bound"]
            verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            print(f"  {m:<20} median {med:12.6g} {bounds[m]['unit']:<6} spread {spread:6.3f}  bound {bound:.2f}  {verdict}")
    out = flag(args, "--json", None)
    if out:
        with open(out, "w") as f:
            json.dump(measured, f, indent=1)


def main():
    args = sys.argv[1:]
    if "--steady" in args:
        steady(args)
        return
    binary = build()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
