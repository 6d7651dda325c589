#!/usr/bin/env python3
"""Build and run the fleet benchmark.

One run (the BENCHMARK.json command), from the repository root:

    python3 perfbench/run.py --workload interactive_day --seed 1 \
        --seconds 20 --trace 0

builds perfbench/ (and with it the simulator library from src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
benchmark program and passes its output through; the last stdout line
is the JSON result. `--seed held-back` selects the seed kept out of
tuning.

Steadiness mode repeats every workload over consecutive seeds and
prints the median, quartiles and quartile spread of every end-to-end
metric against its BENCHMARK.json bound:

    python3 perfbench/run.py --steadiness --runs 10 [--workload NAME]

`--test` builds and runs the benchmark's own tests.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configure (once) and build; returns the build dir or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def run_bench(out, argv, echo=True):
    """Run the benchmark program; returns (exit code, stdout lines)."""
    cmd = [os.path.join(out, "perfbench")] + argv
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark exceeded {BENCH_TIMEOUT_S}s: " + " ".join(argv))
        return 1, []
    if echo:
        sys.stdout.write(stdout)
        sys.stdout.flush()
    return proc.returncode, stdout.splitlines()


def steadiness(out, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    worst = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            code, lines = run_bench(
                out, ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"],
                echo=False)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct"):
                log(f"{workload} seed {seed} failed")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            log(f"{workload} seed {seed} done")
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<24} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0.0)
            worst = max(worst, spread / bound if bound else spread)
            verdict = ("ok" if spread < bound / 3
                       else "within" if spread < bound else "WIDE")
            print(f"  {name:<24} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.2f} {verdict}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in vals))
    print(f"worst spread / bound: {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    out = build()
    if out is None:
        return 1
    if args.test:
        return subprocess.run(["ctest", "--test-dir", out,
                               "--output-on-failure"],
                              stdout=sys.stderr).returncode
    if args.steadiness:
        return steadiness(out, args)
    if not args.workload:
        parser.error("--workload is required")
    argv = ["--workload", args.workload, "--seed", args.seed,
            "--trace", args.trace,
            "--trace-dir", os.path.join(os.path.dirname(out), "traces")]
    if args.seconds:
        argv += ["--seconds", str(args.seconds)]
    code, _ = run_bench(out, argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
