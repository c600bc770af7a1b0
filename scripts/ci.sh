#!/usr/bin/env bash
# Tier-1 CI gate: the default build + full test suite, then the same suite
# under ThreadSanitizer (the collective engine, FSDP runtime, loader, and
# trace recorder are all concurrency-heavy — TSan is the real reviewer).
#
# Usage:  scripts/ci.sh [--skip-tsan]
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: default build + ctest =="
# ctest runs every gtest (gtest_discover_tests) — the fault matrix,
# postmortem/telemetry, serving and overload suites included — plus the
# bench_e2e smoke tests, so no leg below re-runs a suite in this build.
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

echo "== kernel engine: scalar-oracle cross-check =="
# The default build above ran everything under the SIMD kernel engine
# (GEOFM_KERNELS default). Re-run the kernel-facing suites against the
# scalar oracle so both sides of the dispatch seam stay green, plus the
# parity suite which compares the two implementations directly. The
# parameterized gradcheck grids carry an instantiation prefix
# (Shapes/AttentionGrid.*, Widths/BlockGrid.*), hence the leading '*'.
GEOFM_KERNELS=scalar ./build/tests/geofm_tests \
    --gtest_filter='Kernel*:Ops.*:Linear.*:LayerNorm.*:Attention.*:Mlp.*:TransformerBlock.*:*AttentionGrid.*:*BlockGrid.*:PatchEmbed.*:AdamW.*:Sgd.*:Lars.*:Mae.*:ViT.*'

echo "== trace-span budget gate =="
# Structural perf tripwires: comm wait, unshard, the exposed
# checkpoint-snapshot cost, the elastic-recovery path (recover.*, including
# grow-back readmission), and the uploader's publish-side hook
# (upload.exposed) as fractions of step time (budgets in
# scripts/span_budgets.txt), plus exact counts: loader renders, and the
# telemetry sampler's visited events and ticks.
./build/bench/bench_span_budget_gate scripts/span_budgets.txt

echo "== observability overhead =="
# Overhead anchor: BENCH_obs.json records trace-scope, flight-capture,
# and sampler cost (the budget gate above counts the sampler's work).
GEOFM_BENCH_QUICK=1 GEOFM_BENCH_CACHE=/tmp/geofm_ci_bench_cache \
    ./build/bench/bench_obs_overhead

echo "== serving tier: latency/throughput anchor =="
# Latency/throughput anchor: closed-loop sweep over (max_batch,
# max_delay_us), p50/p99 per config, plus the overload phase's shed rate
# and admitted-request p50/p99, into BENCH_serve.json.
GEOFM_BENCH_QUICK=1 GEOFM_BENCH_CACHE=/tmp/geofm_ci_bench_cache \
    ./build/bench/bench_serve

echo "== chaos soak: seeded campaigns + invariant audit =="
# Full-stack failure drill: generated campaigns land correlated comm +
# storage + loader faults on an elastic run with a checkpoint mirror,
# flood the serving tier, then audit the system invariants (futures
# conserved, publications atomic, recovery bounded AND bitwise,
# postmortems present/replayable). Fixed seed so CI is deterministic;
# the wall-clock budget bounds the leg, and any violation exits nonzero
# with the offending campaign's seed and kept roots. Longer soaks:
# scripts/soak.sh <seconds>.
./build/bench/soak_chaos --seconds 45 --campaigns 8 --seed 806661

echo "== kernel engine + serving admission under AddressSanitizer =="
# The SIMD kernels do tail-masked loads/stores and packed-panel staging;
# ASan is the reviewer for off-by-one lane handling. The batcher moves
# PendingRequests between its lanes and its shed list, so the overload
# and shutdown suites ride along for erase/move slips. Tests-only target
# — the full ASan ctest pass is not in tier-1 budget.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGEOFM_SANITIZE=address
cmake --build build-asan -j "$JOBS" --target geofm_tests
./build-asan/tests/geofm_tests \
    --gtest_filter='Kernel*:ThreadPool.*:ServeOverload.*:ServeShutdown.*'
GEOFM_KERNELS=scalar ./build-asan/tests/geofm_tests --gtest_filter='Kernel*'

if [[ "$SKIP_TSAN" == "0" ]]; then
  echo "== tier-1: ThreadSanitizer build + ctest =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGEOFM_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure
  echo "== TSan: kernel parity suite =="
  # The kernel engine parallelizes over the pool with grain hints and
  # thread-local packing buffers; run the parity suite under TSan in both
  # dispatch modes.
  ./build-tsan/tests/geofm_tests --gtest_filter='Kernel*:ThreadPool.*'
  GEOFM_KERNELS=scalar ./build-tsan/tests/geofm_tests --gtest_filter='Kernel*'
  echo "== TSan: FSDP step plan, extra schedules =="
  # Forward lookahead and HYBRID wait-then-post chaining keep several
  # collectives per rank in flight across two sub-communicators, and DDP
  # posts bucket all-reduces from the backward hooks while later stages
  # still compute; repeat the FSDP and DDP suites for schedule diversity.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='*FsdpEquivalence.*:FsdpSchedule.*:FsdpLimiter.*:FsdpPlan.*:Ddp.*' \
      --gtest_repeat=3
  echo "== TSan: rendezvous engine, extra schedules =="
  # Collectives, barriers and splits share one ticketed engine; abort, the
  # watchdog and the flight recorder race the ranks joining its ops.
  # Repeat the engine suites for schedule diversity.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='Comm.*:*CollectivesAcrossRanks*:Watchdog.*:Fault.*:Postmortem.*' \
      --gtest_repeat=3
  echo "== TSan: fault-injected restart, extra schedules =="
  # The abort -> unwind -> async-writer-drain -> resume path is the most
  # concurrency-dense sequence in the repo; ctest above ran it once, this
  # repeats it for schedule diversity under TSan.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='FaultTolerance.*' --gtest_repeat=3
  echo "== TSan: in-run elastic recovery, extra schedules =="
  # Kill-triggered and watchdog-triggered recovery race the supervisor,
  # the dying rank, survivors, the watchdog thread, and checkpoint I/O;
  # repeat for schedule diversity.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='ElasticRecovery.KillMidStepShrinksAndContinues:ElasticRecovery.StallQuarantinedByWatchdog' \
      --gtest_repeat=2
  echo "== TSan: uploader vs retention GC, extra schedules =="
  # The background uploader races checkpoint publication (enqueue from the
  # publishing rank) and the retention GC (anchor protection); repeat so
  # the slow-copy/GC interleaving sees multiple schedules.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='Uploader.*' --gtest_repeat=3
  echo "== TSan: serving hot-swap under load, extra schedules =="
  # The serving tier races the batch worker (pinning + cache inserts), the
  # reload poller (restore + atomic swap + cache invalidation), and client
  # threads (submit/futures); repeat the reload and E2E suites for
  # schedule diversity.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='ServeE2E.*:ServeReload.*' --gtest_repeat=2
  echo "== TSan: serving overload + failover, extra schedules =="
  # Admission control races submitters against the worker's drain and
  # the shed paths (expiry sweeps, displacement, shutdown completion);
  # failover/breaker race the poller's source scan against serving.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='ServeOverload.*:ServeShutdown.*:ServeFailover.*:ServeBreaker.*' \
      --gtest_repeat=2
  echo "== TSan: mixed chaos campaign, extra schedules =="
  # One mixed comm+storage+loader campaign under TSan: the campaign layers
  # loader worker kills/respawns and watchdog takeovers on top of the
  # elastic recovery and uploader races above — the densest cross-subsystem
  # interleaving the repo has. Fixed seed; repeated via --campaigns for
  # schedule diversity.
  cmake --build build-tsan -j "$JOBS" --target soak_chaos
  ./build-tsan/bench/soak_chaos --seconds 120 --campaigns 2 --seed 806662
  echo "== TSan: grow-back at a checkpoint boundary, extra schedules =="
  # Shrink -> probationary rendezvous -> re-formed communicator layers the
  # probe group, the supervisor pad rank, the watchdog, and a fresh
  # restore on top of the recovery machinery above.
  ./build-tsan/tests/geofm_tests \
      --gtest_filter='Strategies/ElasticGrowBack.ShrinkThenGrowBackBitwise/full_shard' \
      --gtest_repeat=2
fi

echo "== ci.sh: all suites passed =="
