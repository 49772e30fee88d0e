#!/usr/bin/env bash
# check.sh — the one-shot PR gate.
#
#   tools/check.sh [jobs]
#
# Runs, in order, everything a PR must pass:
#   (a) normal build (-Wall -Wextra promoted to -Werror) + full ctest
#       — which already includes `ctest -L lint` via the rrp_lint test;
#   (a') configure + build of the perfbench/ package (no run): it
#       compiles ../src itself and reaches into the frame engine's public
#       surface, so a src/ refactor that breaks it fails here;
#   (b) the lint label on its own, so a lint failure is called out, plus
#       rrp_lint --self-test and a --json report parsed back through
#       python3's json module (the machine-readable round-trip);
#   (c) the fault-injection / integrity campaign suite (ctest -L faults),
#       the scenario-DSL / Monte-Carlo campaign suite (-L campaign), the
#       multi-stream serving suite (-L serve), the fleet observability
#       suite (-L obs) and the allocation-free inference suite (-L alloc),
#       so a robustness, serving, observability or allocation regression
#       is called out by name;
#   (d) the ThreadSanitizer smoke suite (pool mechanics and the
#       spin-then-park job handoff, parallel GEMM, fleet frames stepped on
#       the pool, parallel provisioning);
#   (e) a UBSan build of the unit tests and the scenario-DSL/campaign
#       suite, -fno-sanitize-recover=all, with float-cast-overflow (not
#       part of GCC's -fsanitize=undefined);
#   (e') an AddressSanitizer build of the conv parity and liveness tests,
#       the gemm_bt / Linear / effective-MAC tests (the AVX2 nonzero count
#       included), the integrity digest / scrub / repair tests, the render
#       parity tests (render_into writes a caller's raw buffer), the
#       batched-normal tests (the AVX2 noise kernel stores 8 floats per
#       step into a caller's buffer and pads its tail on the stack), the pool
#       handoff tests, the BatchNorm batch-statistics and BN calibration
#       parity tests (the statistics pass reads several strided channel
#       planes per step, and calibration runs on reused activation
#       buffers) and the allocation-free inference and frame suite — the
#       implicit-GEMM conv reads its B operand straight out of a padded
#       slot and indexes it through the live-row and live-channel lists,
#       the AVX2 gemm_bt tile loads 4 floats of 8 B rows per step, and the
#       word digest reads a zero-padded tail word; an out-of-bounds read
#       there is the failure mode neither TSan nor UBSan reports;
#   (f) a line-coverage summary of the unit tests (-DRRP_COVERAGE=ON +
#       gcovr or llvm-cov), skipped gracefully when no coverage tool is
#       installed — informational, not a gate;
#   (g) the bench-regression gate (tools/bench_gate.py): re-runs the
#       deterministic --gate benches and compares every metric against
#       bench/baselines/ within RRP_BENCH_TOLERANCE (default 0.05),
#       skipped with a warning when python3 is unavailable;
#   (h) an -DRRP_SIMD=OFF build of the unit + perf + alloc tests +
#       rrp_lint — the micro-kernel variants are bit-identical by contract
#       (DESIGN.md invariant 13), so the scalar-dispatch build must pass
#       the exact same suite (golden traces included), infer_into must
#       stay allocation-free, and the frame-path pass must hold with the
#       AVX2 TU out of the build.
# Build trees are kept per-configuration (build-check,
# build-check-perfbench, build-check-tsan, build-check-ubsan,
# build-check-asan, build-check-cov, build-check-nosimd) so re-runs are
# incremental.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"

step() { printf '\n== %s ==\n' "$*"; }

step "(a) build -Werror + full ctest"
cmake -B build-check -S . -DRRP_WERROR=ON
cmake --build build-check -j "$JOBS"
ctest --test-dir build-check --output-on-failure -j "$JOBS"

step "(a') perfbench build (configure + build only)"
cmake -S perfbench -B build-check-perfbench -DCMAKE_BUILD_TYPE=Release
cmake --build build-check-perfbench -j "$JOBS"

step "(b) static analysis (ctest -L lint + rrp_lint --json)"
ctest --test-dir build-check --output-on-failure -L lint
./build-check/tools/rrp_lint --self-test
./build-check/tools/rrp_lint --root . --json > build-check/rrp_lint.json
if command -v python3 >/dev/null 2>&1; then
  # json.load IS the round-trip check: a malformed emitter dies here.
  python3 - <<'EOF'
import json
with open('build-check/rrp_lint.json') as f:
    r = json.load(f)
assert r['schema_version'] == 1
fp = r['frame_path']
print('rrp_lint.json: %d files, %d lex passes, frame path %d roots -> %d '
      'reachable (%d stops), %d active / %d suppressed finding(s), %.1f ms'
      % (r['files_scanned'], r['lex_passes'], fp['roots'], fp['reachable'],
         fp['stops'], r['active_count'], r['suppressed_count'], r['wall_ms']))
EOF
else
  echo "warning: python3 not found: skipping rrp_lint.json summary"
fi

step "(c) fault-injection campaign suite (ctest -L faults)"
ctest --test-dir build-check --output-on-failure -L faults

step "(c') scenario-DSL / Monte-Carlo campaign suite (ctest -L campaign)"
ctest --test-dir build-check --output-on-failure -L campaign

step "(c'') multi-stream serving suite (ctest -L serve)"
ctest --test-dir build-check --output-on-failure -L serve

step "(c''') fleet observability suite (ctest -L obs)"
ctest --test-dir build-check --output-on-failure -L obs

step "(c'''') allocation-free inference suite (ctest -L alloc)"
ctest --test-dir build-check --output-on-failure -L alloc

step "(d) ThreadSanitizer smoke suite"
cmake -B build-check-tsan -S . -DRRP_SANITIZE=thread
cmake --build build-check-tsan -j "$JOBS" --target rrp_tsan_smoke
ctest --test-dir build-check-tsan --output-on-failure -L tsan

step "(e) UndefinedBehaviorSanitizer unit tests"
cmake -B build-check-ubsan -S . -DRRP_SANITIZE=undefined
cmake --build build-check-ubsan -j "$JOBS" --target rrp_tests \
  rrp_campaign_suite
./build-check-ubsan/tests/rrp_tests
# The scenario-DSL suite feeds malformed spec lines (outside input).
./build-check-ubsan/tests/rrp_campaign_suite

step "(e') AddressSanitizer conv/gemm_bt/BN-statistics parity + integrity + allocation-free inference"
cmake -B build-check-asan -S . -DRRP_SANITIZE=address
cmake --build build-check-asan -j "$JOBS" --target rrp_tests rrp_alloc_suite
./build-check-asan/tests/rrp_tests \
  --gtest_filter='Conv2D.*:ConvLiveness.*:InferPlan.*:FastPath.FusedConv*:IntegrityFixture.*:IntegrityDigest.*:IntegrityCompare.*:Gemm.Bt*:Linear.*:EffectiveMacs.*:RenderParity.*:RngNormals.*:ThreadPoolHandoff.*:BatchNormStats.*:BnCalibrationParity.*'
./build-check-asan/tests/rrp_alloc_suite

step "(f) line coverage (informational)"
if command -v gcovr >/dev/null 2>&1; then
  COV_TOOL="gcovr"
elif command -v gcov >/dev/null 2>&1; then
  COV_TOOL="gcov"
elif command -v llvm-cov >/dev/null 2>&1; then
  COV_TOOL="llvm-cov gcov"
else
  COV_TOOL=""
fi
if [ -n "$COV_TOOL" ]; then
  cmake -B build-check-cov -S . -DRRP_COVERAGE=ON
  cmake --build build-check-cov -j "$JOBS" --target rrp_tests
  (cd build-check-cov && ./tests/rrp_tests >/dev/null)
  if [ "$COV_TOOL" = "gcovr" ]; then
    gcovr --root . --filter 'src/' build-check-cov \
      --print-summary 2>/dev/null | tail -3
  else
    # gcov / llvm-cov-gcov print "Lines executed:NN.NN% of M" per file;
    # aggregate the library-wide line percentage ourselves.  Only src/
    # objects count (tests and gtest are not the measured surface).
    (cd build-check-cov &&
     find src -name '*.gcda' -exec $COV_TOOL -n {} + 2>/dev/null |
     awk '/^Lines executed:/ {
            split($2, a, ":"); pct = a[2]; gsub(/%/, "", pct);
            covered += $4 * pct / 100; total += $4
          }
          END {
            if (total > 0)
              printf "src/ line coverage: %.1f%% (%.0f of %d lines)\n",
                     100 * covered / total, covered, total
            else print "no coverage data produced"
          }')
  fi
else
  echo "gcovr / gcov / llvm-cov not found: skipping coverage summary"
fi

step "(g) bench-regression gate (tools/bench_gate.py)"
if command -v python3 >/dev/null 2>&1; then
  cmake --build build-check -j "$JOBS" --target bench_micro bench_t2_endtoend \
    bench_campaign bench_serve
  python3 tools/bench_gate.py --build-dir build-check \
    --tolerance "${RRP_BENCH_TOLERANCE:-0.05}"
else
  echo "warning: python3 not found: skipping bench-regression gate"
fi

step "(h) RRP_SIMD=OFF build (scalar kernel dispatch, same suite)"
cmake -B build-check-nosimd -S . -DRRP_SIMD=OFF -DRRP_WERROR=ON
cmake --build build-check-nosimd -j "$JOBS" --target rrp_tests rrp_perf_smoke \
  rrp_alloc_suite rrp_lint
./build-check-nosimd/tests/rrp_tests
./build-check-nosimd/tests/rrp_perf_smoke
./build-check-nosimd/tests/rrp_alloc_suite
# The frame-path pass must hold in both dispatch configurations: the AVX2
# TU's roots are annotated and the scalar tree must be just as clean.
./build-check-nosimd/tools/rrp_lint --root .

echo
echo "check.sh: all gates passed"
