#!/usr/bin/env bash
# Perf-smoke driver: build and run the benchmarks that exercise the
# audited and bulk AES paths (bench_fig11_aes_throughput), dm-crypt and
# its kcryptd write path (bench_fig9_dmcrypt), the fleet scenario engine
# (bench_fleet), the boot-once unlock path (bench_fig2_unlock), the
# full security matrix with the adversary-v2 rows and the
# 3-backend x 7-attack defense comparison
# (bench_table3_security_matrix), the cold-boot remanence path
# (bench_table2_remanence) and the paper's section 4.2 PL310 masked-vs-
# raw flush validation (bench_sec42_pl310_validation), then compare every `sim_`-prefixed metric
# in their BENCH_*.json records against the committed references in
# bench/reference/.
# Simulated quantities are deterministic, so ANY drift is a
# correctness regression and fails the run. One rule covers every
# record: its key set must equal its reference's, `sim_` values must
# match, and every other key (`host_*` timings, `host_cpu_features`) is
# checked for *presence* only, since its value is machine-dependent: a
# bench silently losing a key or a timing is drift too.
#
# When the build was configured with -DSENTRY_TSAN=ON, the fleet,
# snapshot, and defense test labels also run under ThreadSanitizer at
# the end. With
# -DSENTRY_ASAN=ON or -DSENTRY_UBSAN=ON the full tier-1 test suite
# runs under that sanitizer instead.
#
# Usage: bench/run_benches.sh
#   BUILD_DIR=...  override the build tree (default: <repo>/build)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
    cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD" -j --target bench_fig11_aes_throughput \
    bench_fig9_dmcrypt bench_fleet bench_fig2_unlock \
    bench_table3_security_matrix bench_table2_remanence \
    bench_sec42_pl310_validation

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

for bench in fig11_aes_throughput fig9_dmcrypt fleet fig2_unlock \
             table3_security_matrix table2_remanence sec42_pl310_validation; do
    echo "== bench_$bench =="
    SENTRY_BENCH_JSON_DIR="$OUT" "$BUILD/bench/bench_$bench"
done

python3 - "$ROOT/bench/reference" "$OUT" <<'EOF'
import json, math, sys
from pathlib import Path

refdir, outdir = Path(sys.argv[1]), Path(sys.argv[2])
failures = 0
for ref_path in sorted(refdir.glob("BENCH_*.json")):
    new_path = outdir / ref_path.name
    if not new_path.exists():
        print(f"DRIFT: {ref_path.name} was not produced by this run")
        failures += 1
        continue
    ref = json.load(ref_path.open())["metrics"]
    new = json.load(new_path.open())["metrics"]
    for key in sorted(ref.keys() - new.keys()):
        print(f"DRIFT: {ref_path.name}: lost key {key}")
        failures += 1
    for key in sorted(new.keys() - ref.keys()):
        print(f"DRIFT: {ref_path.name}: new key {key} not in reference "
              f"(regenerate bench/reference/)")
        failures += 1
    for key, want in ref.items():
        if not key.startswith("sim_") or key not in new:
            continue
        got = new[key]
        if isinstance(want, float):
            ok = math.isclose(want, got, rel_tol=1e-12, abs_tol=1e-12)
        else:
            ok = want == got
        if not ok:
            print(f"DRIFT: {ref_path.name}: {key}: "
                  f"reference {want!r} != current {got!r}")
            failures += 1
if failures:
    print(f"{failures} key(s) drifted from the committed references")
    sys.exit(1)
print("every record matches its committed reference")
EOF

# TSAN builds: run the fleet, snapshot, and defense concurrency tests
# under the sanitizer (the scenario engine, the per-device stacks, the
# shared COW snapshots, and the multi-backend differential harness all
# cross real threads).
if grep -q "^SENTRY_TSAN:BOOL=ON$" "$BUILD/CMakeCache.txt"; then
    echo "== fleet + snapshot + defense tests under ThreadSanitizer =="
    cmake --build "$BUILD" -j --target sentry_fleet_tests \
        sentry_snapshot_tests sentry_defense_tests
    ctest --test-dir "$BUILD" -L 'fleet|snapshot|defense' \
        --output-on-failure
fi

# ASAN/UBSAN builds: the whole tier-1 suite runs under the sanitizer
# (memory errors and UB hide anywhere, not just in the threaded code).
for san in ASAN UBSAN; do
    if grep -q "^SENTRY_${san}:BOOL=ON$" "$BUILD/CMakeCache.txt"; then
        echo "== tier-1 tests under SENTRY_${san} =="
        cmake --build "$BUILD" -j
        ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"
    fi
done
