#!/usr/bin/env bash
# Sanitizer smoke run: builds the tree under each requested sanitizer and
# runs the matching test label. ASan and UBSan run the robustness, plan and
# kernels suites — the checkpoint/resume and fault-injection paths exercise
# raw byte I/O, partial writes, and injected corruption, the recorded-plan
# executor indexes raw arena offsets computed by the memory planner, the
# registry kernels both paths share index raw operand pointers (tensor_test
# drives each one eagerly, with its shape rejections), and request
# admission rejects deadlines whose arithmetic would overflow — exactly
# where memory and UB bugs like to hide. TSan runs the obs and serve suites —
# the metrics registry, trace ring buffers, and telemetry sink are written
# from worker threads and scraped concurrently, and the judgement server's
# submit/batch/drain paths cross client, batcher, and pool threads — exactly
# where data races like to hide. The obs label includes the standalone
# first-read trace-clock check (obs_trace_clock_first_read).
# serve_robustness_test carries both the `serve` and `robustness` labels, so
# its cancel-vs-drain, deadline-vs-flush, and registry-swap-vs-Shutdown races
# run under TSan and its failpoint faults (serve.slow_batch,
# serve.score_abort, registry.corrupt_load) and admission-validation cases
# run under ASan/UBSan as well. The router suite
# rides along under TSan: shard fan-out, fleet swaps, and the routed_
# counters cross the router, shard batchers, and registry threads. So does
# the `train` label (parallel_training_test): every training step runs its
# shards' replica tapes on pool threads and reduces their gradients into
# the shared parameters, at 0, 1, 3 and 4 shards over 1, 2 and 4 threads.
#
# Knobs:
#   SANITIZERS   space-separated subset of "address undefined thread"
#                (default: all three)
#   BUILD_ROOT   prefix for the build trees (default: build-san)
#   CTEST_LABEL  ctest -L selector override; empty picks per-sanitizer
#                defaults (robustness|plan|fusion|kernels for
#                address/undefined,
#                obs|serve|fusion|router|train for thread)
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZERS=${SANITIZERS:-"address undefined thread"}
BUILD_ROOT=${BUILD_ROOT:-build-san}
CTEST_LABEL=${CTEST_LABEL:-}

label_for() {
  case "$1" in
    thread) echo "obs|serve|fusion|router|train" ;;  # ctest -L takes a regex
    *) echo "robustness|plan|fusion|kernels" ;;
  esac
}

for sanitizer in $SANITIZERS; do
  build_dir="${BUILD_ROOT}-${sanitizer}"
  label=${CTEST_LABEL:-$(label_for "$sanitizer")}
  echo "=== sanitize_smoke: ${sanitizer} -> ${build_dir} (ctest -L ${label}) ==="
  cmake -B "$build_dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHISRECT_SANITIZE="$sanitizer"
  cmake --build "$build_dir" -j "$(nproc)"
  (cd "$build_dir" && ctest -L "$label" --output-on-failure)
done

echo "sanitize_smoke: OK (${SANITIZERS})"
