#!/usr/bin/env bash
# One-shot tier-1 verify: configure, build everything (library, tests,
# benches, examples) with warnings-as-errors, then run the full test suite.
# This mirrors .github/workflows/ci.yml exactly; if this passes locally,
# CI should be green.
#
# Usage: scripts/check.sh [--tsan|--asan|--torture] [build-dir]
#   default:  full build + full test suite in ./build, then the
#             benchmark's driver and tests (perfbench/) in
#             ./build/perfbench, then the bench smokes
#   --tsan:   rebuild with -fsanitize=thread in ./build-tsan (or the given
#             build dir) and run the concurrency test suites under
#             ThreadSanitizer — the data-race gate for ShardedStore and
#             its spinning shard locks (including more client threads
#             than cores), the lock-free PageTable, the per-shard async
#             seal pipeline
#             (AsyncSeal* cases in tests/core/sharded_store_test.cc), the
#             latch-striped buffer pool (BufferPoolParallel*, which
#             includes the every-policy latch-free hit-path stress), the
#             bounded MPSC queue under racing producers
#             (BoundedMpscQueueParallel*), the
#             latch-coupled B+-tree (BTreeParallel*: N-writer/M-reader
#             stress and delete-churn over one shared tree), the
#             multi-worker TPC-C engine (TpccParallel*), the
#             multi-thread runner (ShardedStoreTest.ParallelRun*,
#             ShardedStoreTest.OneThreadRunSyntheticGolden) and
#             parallel trace replay (TraceReplayParallel*: per-page
#             order, the 1- and 4-shard golden pins, deletes + oracle).
#   --asan:   rebuild with -fsanitize=address,undefined in ./build-asan
#             (or the given build dir) and run the FULL test suite — the
#             memory-safety gate for the raw-I/O backend (pwrite buffers,
#             recovery scans) and everything else.
#   --torture: normal build, then the crash-recovery torture harness
#             (tests/integration/crash_recovery_test.cc) with extra
#             randomized kill points per geometry (LSS_TORTURE_ITERS,
#             default 600 here vs 200 in the tier-1 run). Every
#             geometry audits strict zero-loss — there is no tolerated
#             residual window — and the diverting geometries fail
#             unless withheld-slot reuse goes through entry re-homing
#             (withheld_slot_reuses_rehomed; a plain reuse of a slot
#             with still-needed entries cannot happen by construction
#             and any loss it would cause fails the audit).
# Any other --flag prints the usage line and exits 2.
set -euo pipefail

cd "$(dirname "$0")/.."

TSAN=0
ASAN=0
TORTURE=0
if [[ "${1:-}" == "--tsan" ]]; then
  TSAN=1
  shift
elif [[ "${1:-}" == "--asan" ]]; then
  ASAN=1
  shift
elif [[ "${1:-}" == "--torture" ]]; then
  TORTURE=1
  shift
fi
# A leftover flag would otherwise be taken as the build directory.
if [[ "${1:-}" == --* ]]; then
  echo "check.sh: unknown option '$1'" >&2
  echo "usage: scripts/check.sh [--tsan|--asan|--torture] [build-dir]" >&2
  exit 2
fi

if [[ $TSAN -eq 1 ]]; then
  BUILD_DIR="${1:-build-tsan}"
elif [[ $ASAN -eq 1 ]]; then
  BUILD_DIR="${1:-build-asan}"
elif [[ $TORTURE -eq 1 ]]; then
  # Own build dir: the bench/example-OFF cache values must not poison
  # the tier-1 ./build.
  BUILD_DIR="${1:-build-torture}"
else
  BUILD_DIR="${1:-build}"
fi
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [[ $TSAN -eq 1 ]]; then
  # Benches and examples are irrelevant to the race check; skipping them
  # keeps the instrumented build quick.
  cmake -B "$BUILD_DIR" -S . -DLSS_TSAN=ON \
    -DLSS_BUILD_BENCHES=OFF -DLSS_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
  # TSAN_OPTIONS makes any reported race fail the run even if the test
  # binary would otherwise exit 0. The suppression file silences only
  # the false-positive potential-deadlock report on recycled buffer-pool
  # frame latches (rationale in scripts/tsan.supp); races stay fatal.
  # 'Parallel' already covers BTreeParallel/BufferPoolParallel/
  # TpccParallel/TraceReplayParallel; they are named anyway so the
  # gate's scope is explicit.
  TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/scripts/tsan.supp" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
      -R 'Sharded|PageTableConcurrency|Parallel|AsyncSeal|BTreeParallel|BufferPoolParallel|TpccParallel|TraceReplayParallel'
  echo "check.sh: tsan green"
  exit 0
fi

if [[ $TORTURE -eq 1 ]]; then
  cmake -B "$BUILD_DIR" -S . \
    -DLSS_BUILD_BENCHES=OFF -DLSS_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
  LSS_TORTURE_ITERS="${LSS_TORTURE_ITERS:-600}" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
      -R 'CrashRecovery'
  echo "check.sh: torture green"
  exit 0
fi

if [[ $ASAN -eq 1 ]]; then
  cmake -B "$BUILD_DIR" -S . -DLSS_ASAN=ON \
    -DLSS_BUILD_BENCHES=OFF -DLSS_BUILD_EXAMPLES=OFF
  cmake --build "$BUILD_DIR" -j "$JOBS"
  # abort_on_error turns any leak/overflow/UB report into a test failure.
  ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
  echo "check.sh: asan green"
  exit 0
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# The benchmark (perfbench/) compiles its own copy of src/, so a src/
# change that breaks it would otherwise surface only when the benchmark
# runs. Build its driver and tests in a subdirectory of the build tree
# and run the tests there (they write their scratch files to the cwd).
cmake -B "$BUILD_DIR/perfbench" -S perfbench
cmake --build "$BUILD_DIR/perfbench" -j "$JOBS" \
  --target perfbench_driver perfbench_test
(cd "$BUILD_DIR/perfbench" && ./perfbench_test)
echo "check.sh: perfbench build + tests green"

# Small-scale parallel TPC-C smoke: 2-worker trace generation, replay
# through RunTrace over 2 shards, machine-readable output — the
# end-to-end gate for the concurrent fig6 pipeline (seconds, not
# minutes; the full bench is LSS_BENCH_SCALE/LSS_BENCH_THREADS).
if [[ -x "$BUILD_DIR/bench/fig6_tpcc" ]]; then
  LSS_BENCH_SMOKE=1 LSS_BENCH_THREADS=2 LSS_BENCH_NO_CACHE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/fig6_smoke.json" \
    "$BUILD_DIR/bench/fig6_tpcc"
  grep -q '"bench":"fig6_tpcc"' "$BUILD_DIR/fig6_smoke.json"
  echo "check.sh: fig6 parallel smoke green"

  # Workers-beyond-warehouses smoke: 4 worker sessions over the fixed
  # 2 smoke warehouses — the end-to-end gate for the latch-coupled
  # engine's headline capability (the old engine clamped workers to the
  # warehouse count). The JSON must confirm the layout actually ran at
  # 4 threads / 2 warehouses and produced a non-empty measured trace.
  LSS_BENCH_SMOKE=1 LSS_BENCH_THREADS=4 LSS_BENCH_NO_CACHE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/fig6_smoke_4w.json" \
    "$BUILD_DIR/bench/fig6_tpcc"
  grep -q '"bench":"fig6_tpcc"' "$BUILD_DIR/fig6_smoke_4w.json"
  grep -q '"row":"generation"' "$BUILD_DIR/fig6_smoke_4w.json"
  grep -q '"threads":4' "$BUILD_DIR/fig6_smoke_4w.json"
  grep -q '"warehouses":2' "$BUILD_DIR/fig6_smoke_4w.json"
  if grep -q '"trace_records":0[,}]' "$BUILD_DIR/fig6_smoke_4w.json"; then
    echo "check.sh: fig6 workers>warehouses smoke produced an empty trace" >&2
    exit 1
  fi
  echo "check.sh: fig6 workers>warehouses smoke green"
fi

# Buffer-pool eviction-policy smoke: runs all three policies (exact
# LRU / CLOCK / 2Q) through the hit-path, TPC-C and scan-flood panels
# and sanity-checks the JSON — the gate for the pluggable-eviction
# seam (latch-free hits under every policy, 2Q scan resistance). Every
# policy's hit_path row must show zero latches per pin hit and at most
# 0.01 per unpin: a hit or unpin that takes the partition latch fails.
if [[ -x "$BUILD_DIR/bench/buffer_pool" ]]; then
  LSS_BENCH_SMOKE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/buffer_pool_smoke.json" \
    "$BUILD_DIR/bench/buffer_pool"
  grep -q '"bench":"buffer_pool"' "$BUILD_DIR/buffer_pool_smoke.json"
  grep -q '"row":"scan_flood"' "$BUILD_DIR/buffer_pool_smoke.json"
  if ! grep '"row":"hit_path"' "$BUILD_DIR/buffer_pool_smoke.json" | awk '
      { rows++
        pin = $0; sub(/.*"latches_per_pin_hit":/, "", pin); sub(/[,}].*/, "", pin)
        unpin = $0; sub(/.*"latches_per_unpin":/, "", unpin); sub(/[,}].*/, "", unpin)
        if (pin != "0" || unpin + 0 > 0.01) bad++ }
      END { exit !(rows == 3 && bad == 0) }'; then
    echo "check.sh: buffer_pool hit_path rows show latched hits or unpins:" >&2
    grep '"row":"hit_path"' "$BUILD_DIR/buffer_pool_smoke.json" >&2
    exit 1
  fi
  echo "check.sh: buffer_pool policy smoke green"
fi

# Delta-checkpoint smoke: the io_backend checkpoint sweep on a small
# device, shortest barrier interval only — the end-to-end gate for
# suffix-only open-segment persistence. The JSON must carry both a
# full-mode and a delta-mode row, and the delta row must have actually
# emitted suffix records (a silent fallback to full checkpoints would
# drop the checkpoint_delta_records field's nonzero value). The row
# must also carry keys from the StoreStats::ForEach emitter and the
# derived blocking time, so an emitter that silently drops a key fails.
if [[ -x "$BUILD_DIR/bench/io_backend" ]]; then
  LSS_BENCH_SMOKE=1 \
    LSS_BENCH_JSON="$BUILD_DIR/io_backend_smoke.json" \
    "$BUILD_DIR/bench/io_backend"
  grep -q '"bench":"io_backend_ckpt_sweep"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"mode":"delta"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"ckpt_bytes_full_over_delta"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"device_fsyncs"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"checkpoint_bytes_written"' "$BUILD_DIR/io_backend_smoke.json"
  grep -q '"backend_blocking_seconds"' "$BUILD_DIR/io_backend_smoke.json"
  echo "check.sh: io_backend delta-checkpoint smoke green"
fi

# Multi-threaded TPC-C micro-bench smoke: BM_TpccWorkersPerWarehouse at
# 1/2/4/8 threads, one short repetition each — the gate for its
# thread-start race (non-zero threads must look their session up only
# after google-benchmark's start barrier). Every thread count must
# report a result.
if [[ -x "$BUILD_DIR/bench/micro_btree" ]]; then
  "$BUILD_DIR/bench/micro_btree" \
    --benchmark_filter=BM_TpccWorkersPerWarehouse \
    --benchmark_min_time=0.01 \
    --benchmark_out="$BUILD_DIR/micro_btree_smoke.json" \
    --benchmark_out_format=json
  for threads in 1 2 4 8; do
    grep -q "\"BM_TpccWorkersPerWarehouse/real_time/threads:$threads\"" \
      "$BUILD_DIR/micro_btree_smoke.json"
  done
  echo "check.sh: micro_btree multi-thread TPC-C smoke green"
fi

# Concurrent store smoke: the thread-scaling sweep at 1 and 4 client
# threads over a 4-shard ShardedStore — runs the shared page table, the
# shard locks and the per-shard write inboxes under real contention in a
# bench. Both thread counts must emit a row, and the 4-thread Wamp must
# be within 5% of the 1-thread Wamp: a deferral bug that drops or
# reorders writes shows up there without relying on timing.
if [[ -x "$BUILD_DIR/bench/scale_threads" ]]; then
  LSS_BENCH_THREADS=1,4 \
    LSS_BENCH_JSON="$BUILD_DIR/scale_threads_smoke.json" \
    "$BUILD_DIR/bench/scale_threads"
  scale_wamp() {
    sed -n "s/.*\"bench\":\"scale_threads\",\"threads\":$1,.*\"wamp\":\([0-9.eE+-]*\),.*/\1/p" \
      "$BUILD_DIR/scale_threads_smoke.json"
  }
  wamp1="$(scale_wamp 1)"
  wamp4="$(scale_wamp 4)"
  if ! awk -v a="$wamp1" -v b="$wamp4" \
      'BEGIN { exit !(a > 0 && b > 0 && b <= 1.05 * a && b >= 0.95 * a) }'; then
    echo "check.sh: scale_threads Wamp at 4 threads ($wamp4) is not within" \
      "5% of 1 thread ($wamp1)" >&2
    exit 1
  fi
  echo "check.sh: scale_threads smoke green (Wamp $wamp1 / $wamp4)"
fi

# Paper-reproduction bench smokes: every table/figure bench and the
# cost-benefit ablation at one fill factor, skew or buffer size
# (LSS_BENCH_SMOKE), so a harness crash in any of them fails here. Each
# run must emit its JSON row.
for bench in table1_uniform table2_hotcold fig3_breakdown fig4_sort_buffer \
             fig5_synthetic ablation_costbenefit; do
  if [[ -x "$BUILD_DIR/bench/$bench" ]]; then
    LSS_BENCH_SMOKE=1 LSS_BENCH_JSON="$BUILD_DIR/${bench}_smoke.json" \
      "$BUILD_DIR/bench/$bench"
    grep -q "\"bench\":\"$bench\"" "$BUILD_DIR/${bench}_smoke.json"
    echo "check.sh: $bench smoke green"
  fi
done

# Store micro-bench smoke: one short repetition of each micro_core case.
if [[ -x "$BUILD_DIR/bench/micro_core" ]]; then
  "$BUILD_DIR/bench/micro_core" \
    --benchmark_min_time=0.01 \
    --benchmark_out="$BUILD_DIR/micro_core_smoke.json" \
    --benchmark_out_format=json
  for bm in BM_StoreWrite BM_VictimSelection; do
    grep -q "\"name\": \"$bm/" "$BUILD_DIR/micro_core_smoke.json"
  done
  echo "check.sh: micro_core smoke green"
fi

echo "check.sh: all green"
