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
# correctness regression and fails the run. `host_wall_*` keys are
# checked for *presence* only (their values are machine-dependent): a
# bench silently losing its timing is drift too.
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
    for key, want in ref.items():
        if not key.startswith("sim_"):
            continue
        got = new.get(key)
        if isinstance(want, float):
            ok = got is not None and math.isclose(
                want, got, rel_tol=1e-12, abs_tol=1e-12)
        else:
            ok = want == got
        if not ok:
            print(f"DRIFT: {ref_path.name}: {key}: "
                  f"reference {want!r} != current {got!r}")
            failures += 1
    for key in new:
        if key.startswith("sim_") and key not in ref:
            print(f"DRIFT: {ref_path.name}: new metric {key} not in "
                  f"reference (regenerate bench/reference/)")
            failures += 1
    # host_wall_* values are machine-dependent, but the *set* of keys
    # is part of the record format: compare presence both directions.
    ref_wall = {k for k in ref if k.startswith("host_wall_")}
    new_wall = {k for k in new if k.startswith("host_wall_")}
    for key in sorted(ref_wall ^ new_wall):
        where = "lost" if key in ref_wall else "gained"
        print(f"DRIFT: {ref_path.name}: {where} host timing key {key}")
        failures += 1
    # Every record names the host CPU features and active kernel tiers
    # (host/kernels.hh), so a perf number can always be traced to the
    # tier that produced it.
    if "host_cpu_features" not in new:
        print(f"DRIFT: {ref_path.name}: missing host_cpu_features key")
        failures += 1
# The three tier-parity benchmarks time the active kernel tier against
# the pinned portable tier (and exit nonzero themselves if the outputs
# diverge); losing either timing key means the comparison stopped
# running.
for name in ("BENCH_fig9_dmcrypt.json", "BENCH_fleet.json",
             "BENCH_table2_remanence.json"):
    path = outdir / name
    if not path.exists():
        continue
    record = json.load(path.open())["metrics"]
    for key in ("host_wall_tier_active_seconds",
                "host_wall_tier_portable_seconds"):
        if key not in record:
            print(f"DRIFT: {name}: missing kernel-tier timing key {key}")
            failures += 1
# The sharded fleet engine must publish its streaming-aggregation
# layout (sim_shard_*) and the population-scale per-device host-time
# series. Values are covered above (sim_) or machine-dependent (host_);
# here we pin that the keys exist at all.
fleet_new = outdir / "BENCH_fleet.json"
if fleet_new.exists():
    fleet = json.load(fleet_new.open())["metrics"]
    required = ["sim_shard_count", "sim_shard_size",
                "sim_shard_sample_cap", "sim_shard_samples_retained",
                "sim_defense_kind", "sim_defense_claim_breaches",
                "sim_defense_vulnerable_hits", "sim_defense_rekeys",
                "sim_defense_evictions", "sim_defense_extra_seconds",
                "sim_defense_extra_joules",
                "host_per_device_ns_1000", "host_per_device_ns_10000",
                "host_per_device_ns_100000",
                "host_scale_flatness_100k_vs_1k"]
    # The ten-verb gauntlet runs the DMA and bus-monitor verbs through
    # the fleet runner on every backend; no other record pins them.
    required += [f"sim_gauntlet_{b}_{m}"
                 for b in ("sentry", "amnesia", "memshield")
                 for m in ("attacks_total", "sensitive_probes",
                           "sensitive_leaks", "nonsensitive_leaks",
                           "trace_bus_bytes_total", "trace_dma_bytes_total",
                           "defense_claim_breaches",
                           "defense_vulnerable_hits", "cycles_total")]
    for key in required:
        if key not in fleet:
            print(f"DRIFT: BENCH_fleet.json: missing required sharded-"
                  f"engine key {key}")
            failures += 1
# The security matrix must carry the adversary-v2 rows (defense off
# and on for each new attack); values are pinned by the sim_ check
# above, presence is pinned here so a silently dropped row is drift.
matrix_new = outdir / "BENCH_table3_security_matrix.json"
if matrix_new.exists():
    matrix = json.load(matrix_new.open())["metrics"]
    required = ["sim_unsafe_prime_probe_open",
                "sim_unsafe_prime_probe_locked",
                "sim_v2_prime_probe_locked_writebacks",
                "sim_unsafe_evict_reload_open",
                "sim_unsafe_evict_reload_locked",
                "sim_unsafe_rowhammer_open",
                "sim_unsafe_rowhammer_catt",
                "sim_v2_rowhammer_victim_flips_catt",
                "sim_unsafe_tz_sidechannel_open",
                "sim_unsafe_tz_sidechannel_hardened",
                "sim_v2_tz_recovered_nibbles_hardened"]
    for key in required:
        if key not in matrix:
            print(f"DRIFT: BENCH_table3_security_matrix.json: missing "
                  f"required adversary-v2 key {key}")
            failures += 1
    # The defense-backend comparison (DESIGN.md section 13): the full
    # 3-backend x 7-attack verdict grid, the cross-backend schedule
    # parity counter, and each backend's simulated overhead ledger.
    backends = ["sentry", "amnesia", "memshield"]
    verbs = ["cold_boot", "bus_monitor", "dma", "prime_probe",
             "evict_reload", "rowhammer", "tz_side_channel"]
    required = [f"sim_defense_breached_{b}_{v}"
                for b in backends for v in verbs]
    required.append("sim_defense_schedule_mismatches")
    required += [f"sim_defense_{b}_{cost}" for b in backends
                 for cost in ("rekeys", "evictions", "extra_seconds",
                              "extra_joules")]
    for key in required:
        if key not in matrix:
            print(f"DRIFT: BENCH_table3_security_matrix.json: missing "
                  f"required defense-backend key {key}")
            failures += 1
if failures:
    print(f"{failures} deterministic metric(s) drifted")
    sys.exit(1)
print("all sim_ metrics match the committed references")
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
