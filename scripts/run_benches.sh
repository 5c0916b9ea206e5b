#!/usr/bin/env bash
# Build the Release configuration and run the benchmark suites that feed
# the repo's tracked result files, all written into the repo root:
#
#   BENCH_perf.json        google-benchmark microbenches (latency/alloc)
#   BENCH_robustness.json  detection accuracy vs sensor-fault severity
#   BENCH_recovery.json    crash-drill accuracy/downtime vs checkpoint
#                          interval (the supervisor's snapshot cadence)
#
# CI compares fresh runs of all three (plus BENCH_perf_stages.json,
# which bench_perf_pipeline writes alongside) against these files with
# scripts/compare_bench.py. Fleet, ingest and telemetry cost end to end
# is measured by the repo's benchmark, fleetbench/ (see its README).
# Figure-reproduction harnesses are not run here — they print paper
# tables and take minutes; run them from build/bench/ directly.
#
# Usage: scripts/run_benches.sh [extra google-benchmark args...]
#   BLINKRADAR_THREADS=N  pin the shared pool size for BM_BatchSessions.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-release"

cmake --preset release -S "${repo_root}"
cmake --build "${build_dir}" \
    --target bench_perf_pipeline bench_robustness_faults bench_recovery \
    -j "$(nproc)"

# A user-supplied --benchmark_out in "$@" comes later and wins.
out="${repo_root}/BENCH_perf.json"
for arg in "$@"; do
    case "${arg}" in --benchmark_out=*) out="${arg#--benchmark_out=}" ;; esac
done

cd "${repo_root}"
"${build_dir}/bench/bench_perf_pipeline" \
    --benchmark_out="${repo_root}/BENCH_perf.json" \
    --benchmark_out_format=json \
    "$@"
echo "wrote ${out}"

"${build_dir}/bench/bench_robustness_faults" \
    "${repo_root}/BENCH_robustness.json"
echo "wrote ${repo_root}/BENCH_robustness.json"

"${build_dir}/bench/bench_recovery" "${repo_root}/BENCH_recovery.json"
echo "wrote ${repo_root}/BENCH_recovery.json"
