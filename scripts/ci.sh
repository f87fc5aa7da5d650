#!/usr/bin/env bash
# CI entry point.
#
# Stages, in order:
#   plain  — RelWithDebInfo build + full test suite (lock-rank detector
#            compiled out; NDEBUG). The suite includes scripts/dpc_lint.py:
#            its fixture selftest and its src/ pass are ctest entries.
#            clang-tidy and the clang-format check follow when those tools
#            are installed, and are skipped when they are not.
#   check  — deterministic model checker (src/check/dpc_check): the
#            exhaustive tier fully enumerates the small bounded scenarios,
#            and the mutation sweep arms each DPC_CHECK_MUTATE fence drop
#            and requires the checker to catch it with a replayable
#            schedule. The tsan leg adds an 8-seed PCT sweep.
#   regress— bench/regress: figure-bench transport counters gated for
#            exact equality against bench/baselines/.
#   tsan   — ThreadSanitizer build + full test suite. DPC_LOCKRANK defaults
#            on under TSan, so this leg also runs the runtime lock-order
#            detector across every test.
#   asan   — AddressSanitizer + UndefinedBehaviorSanitizer build + full
#            test suite (UB stays fatal: -fno-sanitize-recover=all).
#   chaos  — fault-injection tests and the seeded KV index differential
#            tests (KvIndex.*) swept over several seeds (plain + tsan).
#   crash  — crash-point chaos over a wider seed set (plain + tsan), plus
#            the crash-restart recovery bench (BENCH_crash_recovery.json).
#   scrub  — data-corruption sweep: the integrity-envelope chaos tests and
#            scrubber tests over several seeds (plain + tsan), plus the
#            corruption-recovery bench (BENCH_scrub_recovery.json with its
#            detected == repaired + unrecoverable invariant).
#   qos    — overload robustness: the per-tenant QoS tests (plain + tsan)
#            and the antagonist bench (BENCH_qos.json), which asserts the
#            isolation SLO internally: victim p99 ≤ 2× solo with isolation
#            on, ≥ 5× degradation with it off.
#   nvm    — NVM write-ahead durability tier: the WAL unit + system tests
#            (plain + tsan; the CrashChaosWal sweeps already ride the crash
#            stage) and the nvmlog bench (BENCH_nvmlog.json), which asserts
#            fsync p99(WAL off) ≥ 5× p99(WAL on) and graceful ring-full
#            degradation internally.
#   tail   — gray-failure tolerance tier: the fail-slow / health-scoreboard
#            / hedged-read tests swept over several seeds (plain + tsan) and
#            the tail_tolerance bench (BENCH_tail.json), which asserts the
#            tail SLO internally: limping-peer p99 ≤ 2× healthy with the
#            scoreboard on, ≥ 10× with it off.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"
CHAOS_SEEDS=(1 7 1337)
CRASH_SEEDS=(1 2 3 5 7 11 13 1337)
SCRUB_SEEDS=(1 7 42 1337 90210)
TAIL_SEEDS=(1 7 1337)

echo "=== plain build ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# clang-tidy wants compile_commands.json, which the plain configure exports.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "--- clang-tidy ---"
  mapfile -t TIDY_SRCS < <(find src -name '*.cpp' | sort)
  clang-tidy -p build --quiet "${TIDY_SRCS[@]}"
else
  echo "--- clang-tidy not installed; skipping (config: .clang-tidy) ---"
fi
if command -v clang-format >/dev/null 2>&1; then
  echo "--- clang-format check (src/sim + lint-era files) ---"
  clang-format --dry-run --Werror \
    src/sim/thread_annotations.hpp src/sim/lockrank.hpp \
    src/sim/lockrank.cpp tests/test_lockrank.cpp
else
  echo "--- clang-format not installed; skipping (config: .clang-format) ---"
fi

echo "=== check stage ==="
# Deterministic model checker (src/check). The exhaustive tier fully
# enumerates the small bounded scenarios on every build; the mutation sweep
# proves each scenario still CATCHES its paired protocol mutation — a
# passing checker that couldn't flag a broken fence would be worthless.
echo "--- dpc_check exhaustive tier ---"
./build/src/check/dpc_check --tier exhaustive
echo "--- dpc_check mutation sweep ---"
./build/src/check/dpc_check --mutate all

echo "=== regress stage ==="
./bench/regress

echo "=== tsan build ==="
cmake -B build-tsan -S . -DDPC_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
echo "--- dpc_check PCT sweep (tsan) ---"
# The randomized-priority tier under TSan: eight seeds per PCT scenario, so
# the big-bound scenarios get fresh schedules on every CI run with the data
# race detector watching the same interleavings the checker drives.
./build-tsan/src/check/dpc_check --tier pct --seeds 8

echo "=== asan+ubsan build ==="
cmake -B build-asan -S . -DDPC_SANITIZE=address,undefined >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "=== chaos stage ==="
for seed in "${CHAOS_SEEDS[@]}"; do
  echo "--- chaos seed $seed (plain) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build --output-on-failure \
    -j "$JOBS" -R 'Chaos|Fault|KvIndex'
  echo "--- chaos seed $seed (tsan) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'Chaos|Fault|KvIndex'
done

echo "=== crash stage ==="
for seed in "${CRASH_SEEDS[@]}"; do
  echo "--- crash seed $seed (plain) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build --output-on-failure \
    -j "$JOBS" -R 'CrashChaos'
  echo "--- crash seed $seed (tsan) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'CrashChaos'
done
echo "--- crash-restart recovery bench ---"
(cd build && ./bench/chaos_recovery --csv >/dev/null)
test -f build/BENCH_crash_recovery.json

echo "=== scrub stage ==="
for seed in "${SCRUB_SEEDS[@]}"; do
  echo "--- scrub seed $seed (plain) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build --output-on-failure \
    -j "$JOBS" -R 'Scrub|SilentCorruption'
  echo "--- scrub seed $seed (tsan) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'Scrub|SilentCorruption'
done
test -f build/BENCH_scrub_recovery.json  # emitted by chaos_recovery above

echo "=== qos stage ==="
echo "--- qos tests (plain) ---"
ctest --test-dir build --output-on-failure -j "$JOBS" -R 'Qos'
echo "--- qos tests (tsan) ---"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R 'Qos'
echo "--- qos antagonist bench ---"
# The bench DPC_CHECKs its own isolation SLO (victim p99 ≤ 2× solo with
# QoS on, ≥ 5× degradation with it off) and aborts non-zero on violation.
(cd build && ./bench/qos_antagonist --csv >/dev/null)
test -f build/BENCH_qos.json

echo "=== nvm stage ==="
echo "--- nvm wal tests (plain) ---"
ctest --test-dir build --output-on-failure -j "$JOBS" -R 'NvmWal'
echo "--- nvm wal tests (tsan) ---"
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R 'NvmWal'
echo "--- nvm log bench ---"
# The bench DPC_CHECKs its own durability SLO (fsync p99 ≥ 5× faster with
# the log on, ring-full pressure degrades without dropping an ack) and
# aborts non-zero on violation.
(cd build && ./bench/nvmlog --csv >/dev/null)
test -f build/BENCH_nvmlog.json

echo "=== tail stage ==="
for seed in "${TAIL_SEEDS[@]}"; do
  echo "--- tail seed $seed (plain) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build --output-on-failure \
    -j "$JOBS" -R 'Tail|Hedge'
  echo "--- tail seed $seed (tsan) ---"
  DPC_FAULT_SEED="$seed" ctest --test-dir build-tsan --output-on-failure \
    -j "$JOBS" -R 'Tail|Hedge'
done
echo "--- tail tolerance bench ---"
# The bench DPC_CHECKs its own tail SLO (limping-peer p99 ≤ 2× healthy with
# the health scoreboard + hedging on, ≥ 10× with them off; hedge budget
# respected; quarantine round-trips) and aborts non-zero on violation.
(cd build && ./bench/tail_tolerance --csv >/dev/null)
test -f build/BENCH_tail.json

echo "=== ci OK ==="
