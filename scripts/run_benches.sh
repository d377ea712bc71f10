#!/usr/bin/env bash
# Run the bench suite with machine-readable JSON output (one BENCH_*.json
# per binary) for the CI perf-trajectory pipeline.
#
#   BUILD_DIR=build OUT_DIR=bench-json scripts/run_benches.sh
#
# Figure/ablation benches run at their paper-scale defaults — a few
# seconds each in a Release build — so every shape check runs exactly as
# documented and the virtual-time metrics are comparable across commits.
# google-benchmark micro-benches run with a short min time — their ns/op
# is hardware-dependent, which is why scripts/check_bench.py gates them
# only at gross (several-x) tolerances.
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
OUT_DIR="${OUT_DIR:-bench-json}"
mkdir -p "$OUT_DIR"

fig() { # fig <binary> [key=value ...]
  local b="$1"
  shift
  echo "=== $b $*"
  "$BUILD_DIR/bench/$b" "$@" --json "$OUT_DIR/BENCH_$b.json"
}

gbench() { # gbench <binary>
  local b="$1"
  shift
  echo "=== $b"
  "$BUILD_DIR/bench/$b" --json "$OUT_DIR/BENCH_$b.json" \
    --benchmark_min_time=0.05 "$@"
}

# Front-tier ablation and the multi-worker coordinator: the headline
# benches the regression gate reads.
fig micro_fronttier
fig micro_parallel

# Figure reproductions at paper scale.
fig fig3_speedup
fig fig4_split_overhead
fig fig5_window_speedup
fig fig6_reuse_eviction
fig fig7_decay

# Elasticity-policy ablation: $cost + hit rate per policy, with the
# cost-ttl-beats-the-window shape checks the regression gate holds.
fig ablation_policy

# The other ablations: shape checks only so far (numeric metrics are
# ROADMAP item 2), but check_bench.py fails on any failed check.
fig ablation_async_split
fig ablation_batch_size
fig ablation_buckets
fig ablation_dynamic_window
fig ablation_replication
fig ablation_spill_tier
fig ablation_victim_policies
fig ablation_warmpool

# Subsystem benches.
fig micro_overload
fig micro_obs
fig micro_recovery
fig micro_durability
fig micro_fault

# google-benchmark micro-benches (hardware-dependent ns/op).
gbench micro_cache
gbench micro_btree
gbench micro_hashring
gbench micro_sfc
gbench micro_net
gbench micro_tcp

echo "wrote $(ls "$OUT_DIR"/BENCH_*.json | wc -l) reports to $OUT_DIR"
