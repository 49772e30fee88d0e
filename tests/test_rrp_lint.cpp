// test_rrp_lint.cpp — the linter linted.
//
// Drives the rrp_lint rule engine (tools/rrp_lint/lint.cpp) against the
// fixture tree in tests/lint_fixtures/: every rule must fire on exactly
// the seeded lines, valid suppressions must silence their target, the
// whitelists must hold, and — the actual gate — the real source tree must
// come back clean.  Paths are injected by tests/CMakeLists.txt as
// RRP_LINT_FIXTURE_DIR / RRP_LINT_REPO_ROOT.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace {

using rrp::lint::Finding;

std::vector<Finding> fixture_findings() {
  static const std::vector<Finding> findings =
      rrp::lint::lint_tree(RRP_LINT_FIXTURE_DIR);
  return findings;
}

/// Findings for one fixture file, as (line, rule) pairs.
std::vector<std::pair<int, std::string>> fired(const std::string& file) {
  std::vector<std::pair<int, std::string>> out;
  for (const Finding& f : fixture_findings())
    if (f.file == file) out.push_back({f.line, f.rule});
  return out;
}

bool has(const std::vector<std::pair<int, std::string>>& v, int line,
         const std::string& rule) {
  return std::find(v.begin(), v.end(), std::make_pair(line, rule)) != v.end();
}

TEST(RrpLint, DeterminismRandomRule) {
  const auto v = fired("src/nn/bad_random.cpp");
  EXPECT_TRUE(has(v, 3, "determinism-random")) << "#include <random>";
  EXPECT_TRUE(has(v, 6, "determinism-random")) << "srand(42)";
  EXPECT_TRUE(has(v, 7, "determinism-random")) << "std::random_device";
  EXPECT_TRUE(has(v, 8, "determinism-random")) << "system_clock::now()";
  EXPECT_TRUE(has(v, 11, "determinism-random")) << "rand()";
  // The raw system_clock read trips the chrono rule too (R5 closes the
  // steady/high_resolution gap; system_clock is banned by both).
  EXPECT_TRUE(has(v, 8, "determinism-chrono"));
  // Banned names inside comments or string literals never fire.
  EXPECT_FALSE(has(v, 14, "determinism-random"));
  EXPECT_FALSE(has(v, 15, "determinism-random"));
  EXPECT_EQ(v.size(), 6u);
}

TEST(RrpLint, DeterminismChronoRule) {
  const auto v = fired("src/nn/bad_chrono.cpp");
  EXPECT_TRUE(has(v, 3, "determinism-chrono")) << "#include <chrono>";
  EXPECT_TRUE(has(v, 5, "determinism-chrono")) << "std::chrono::steady_clock";
  EXPECT_TRUE(has(v, 6, "determinism-chrono")) << "bare high_resolution_clock";
  EXPECT_TRUE(has(v, 7, "determinism-chrono")) << "std::chrono duration type";
  // A documented suppression silences its line; comments and string
  // literals never fire.
  EXPECT_FALSE(has(v, 10, "determinism-chrono"));
  EXPECT_EQ(v.size(), 4u);
}

TEST(RrpLint, ChronoWhitelistCoversTimeFacades) {
  // The Timer facade, the span tracer's wall capture and the pool's timed
  // waits are the sanctioned chrono users.
  EXPECT_TRUE(
      rrp::lint::lint_file("src/util/timer.h", "#include <chrono>\n").empty());
  EXPECT_TRUE(rrp::lint::lint_file("src/util/trace.cpp",
                                   "using c = std::chrono::steady_clock;\n")
                  .empty());
  // Everyone else goes through Timer.
  const auto v =
      rrp::lint::lint_file("src/core/controller.cpp", "#include <chrono>\n");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "determinism-chrono");
  // Telemetry records modeled time only, so it is no time facade.
  const auto t =
      rrp::lint::lint_file("src/core/telemetry.cpp", "#include <chrono>\n");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].rule, "determinism-chrono");
}

// The flight recorder's determinism contract is lint-enforced: a bundle's
// bytes must be identical on every host, so core/flight_recorder.* and
// core/slo.* stay OFF kChronoWhitelist (all record time is modeled
// platform time or frame indices), and core may never reach up into sim
// for scenario state (R3).
TEST(RrpLint, FlightRecorderStaysOffTheChronoWhitelist) {
  const auto v = fired("src/core/bad_recorder_chrono.cpp");
  EXPECT_TRUE(has(v, 6, "determinism-chrono")) << "#include <chrono>";
  EXPECT_TRUE(has(v, 7, "layering")) << "core -> sim is upward";
  EXPECT_TRUE(has(v, 11, "determinism-chrono")) << "wall-clock timestamp";
  EXPECT_EQ(v.size(), 3u);
  // The contract holds for the real recorder/SLO translation units, not
  // just the fixture name: any future <chrono> include there must fire.
  EXPECT_FALSE(rrp::lint::lint_file("src/core/flight_recorder.cpp",
                                    "#include <chrono>\n")
                   .empty());
  EXPECT_FALSE(
      rrp::lint::lint_file("src/core/slo.cpp", "#include <chrono>\n").empty());
}

// The fault-injection layer is intentionally not random-whitelisted: it
// must draw exclusively from the seeded rrp::Rng, so ambient entropy under
// src/sim/ still fires R1a.
TEST(RrpLint, FaultSimTreeIsNotRandomWhitelisted) {
  const auto v = fired("src/sim/bad_faults.cpp");
  EXPECT_TRUE(has(v, 4, "determinism-random")) << "#include <random>";
  EXPECT_TRUE(has(v, 7, "determinism-random")) << "std::random_device";
  EXPECT_EQ(v.size(), 2u);
}

// The scenario DSL and the Monte-Carlo campaign carry the same contract:
// (spec, seed) expands byte-identically and aggregates are thread-count
// invariant, so sim/scenario_gen.* stays off kRandomWhitelist and
// sim/campaign.* stays off both kRandomWhitelist and kChronoWhitelist.
TEST(RrpLint, ScenarioGenAndCampaignStayOffTheDeterminismWhitelists) {
  const auto gen = fired("src/sim/bad_scenario_gen.cpp");
  EXPECT_TRUE(has(gen, 5, "determinism-random")) << "#include <random>";
  EXPECT_TRUE(has(gen, 8, "determinism-random")) << "std::random_device";
  EXPECT_EQ(gen.size(), 2u);

  const auto camp = fired("src/sim/bad_campaign.cpp");
  EXPECT_TRUE(has(camp, 5, "determinism-chrono")) << "#include <chrono>";
  EXPECT_TRUE(has(camp, 8, "determinism-chrono")) << "steady_clock::now()";
  EXPECT_TRUE(has(camp, 9, "determinism-chrono")) << "duration + clock read";
  EXPECT_GE(camp.size(), 3u);

  // The contract holds for the real translation units, not just the
  // fixture names: ambient entropy or a raw clock there must fire.
  EXPECT_FALSE(rrp::lint::lint_file("src/sim/scenario_gen.cpp",
                                    "#include <random>\n")
                   .empty());
  EXPECT_FALSE(
      rrp::lint::lint_file("src/sim/campaign.cpp", "#include <chrono>\n")
          .empty());
  EXPECT_FALSE(
      rrp::lint::lint_file("src/sim/campaign.cpp", "#include <random>\n")
          .empty());
}

// The serving engine carries the strongest determinism contract in the
// tree (DESIGN.md invariant 16: per-stream reports and the admission
// trace are byte-identical at any RRP_THREADS), so src/serve stays off
// kRandomWhitelist, kThreadWhitelist AND kChronoWhitelist — and, sitting
// below models in the layer DAG, must never include upward.
TEST(RrpLint, ServeStaysOffEveryDeterminismWhitelist) {
  const auto v = fired("src/serve/bad_serve.cpp");
  EXPECT_TRUE(has(v, 8, "determinism-chrono")) << "#include <chrono>";
  EXPECT_TRUE(has(v, 9, "determinism-random")) << "#include <random>";
  EXPECT_TRUE(has(v, 10, "determinism-thread")) << "#include <thread>";
  EXPECT_TRUE(has(v, 12, "layering")) << "serve -> models is upward";
  EXPECT_TRUE(has(v, 15, "determinism-random")) << "std::random_device";
  EXPECT_TRUE(has(v, 17, "determinism-thread")) << "raw std::thread";
  EXPECT_GE(v.size(), 6u);

  // The contract holds for the real translation units, not just the
  // fixture name.
  EXPECT_FALSE(rrp::lint::lint_file("src/serve/serve_engine.cpp",
                                    "#include <random>\n")
                   .empty());
  EXPECT_FALSE(rrp::lint::lint_file("src/serve/serve_engine.cpp",
                                    "#include <chrono>\n")
                   .empty());
  EXPECT_FALSE(rrp::lint::lint_file("src/serve/admission.cpp",
                                    "#include <thread>\n")
                   .empty());
  // Downward includes (serve -> sim) stay legal.
  EXPECT_TRUE(rrp::lint::lint_file("src/serve/serve_engine.cpp",
                                   "#include \"sim/runner.h\"\n")
                  .empty());
}

// The observability plane's whitelist boundary (DESIGN.md §7/§8): the
// exporters (core/metrics_export.*, serve/obs.*) are pure functions of
// registry state and sit on NO whitelist at all (invariant 17).
TEST(RrpLint, ObservabilityPlaneWhitelistBoundaries) {
  const auto obs = fired("src/serve/bad_obs.cpp");
  EXPECT_TRUE(has(obs, 8, "determinism-chrono")) << "#include <chrono>";
  EXPECT_TRUE(has(obs, 11, "determinism-chrono")) << "steady_clock::now()";
  EXPECT_TRUE(has(obs, 11, "determinism-random")) << "argless now()";
  EXPECT_TRUE(has(obs, 12, "determinism-chrono")) << "duration_cast";
  EXPECT_EQ(obs.size(), 4u);

  // The contract holds for the real translation units, not just the
  // fixture name.
  EXPECT_FALSE(rrp::lint::lint_file("src/core/metrics_export.cpp",
                                    "#include <chrono>\n")
                   .empty());
  EXPECT_FALSE(
      rrp::lint::lint_file("src/serve/obs.cpp", "#include <chrono>\n").empty());
  EXPECT_FALSE(
      rrp::lint::lint_file("src/serve/obs.cpp", "#include <random>\n").empty());
}

TEST(RrpLint, DeterminismThreadRule) {
  const auto v = fired("src/nn/bad_thread.cpp");
  EXPECT_TRUE(has(v, 3, "determinism-thread")) << "#include <thread>";
  EXPECT_TRUE(has(v, 6, "determinism-thread")) << "std::mutex";
  EXPECT_TRUE(has(v, 7, "determinism-thread")) << "std::thread";
  EXPECT_TRUE(has(v, 8, "determinism-thread")) << "std::async";
  // hardware_concurrency is a read-only query, allowed everywhere.
  EXPECT_FALSE(has(v, 10, "determinism-thread"));
  EXPECT_EQ(v.size(), 4u);
}

TEST(RrpLint, FloatAccumulatorRule) {
  const auto v = fired("src/nn/gemm_fixture.cpp");
  EXPECT_TRUE(has(v, 6, "float-accumulator")) << "float acc += in loop";
  // double accumulator and per-iteration float both stay silent.
  EXPECT_EQ(v.size(), 1u);
}

TEST(RrpLint, FloatAccumulatorCoversMicroKernelFiles) {
  // "kernel" in the file name is enough — no gemm/conv/depthwise needed —
  // so new SIMD micro-kernel TUs are covered the day they are added.
  const auto v = fired("src/nn/bad_kernels.cpp");
  EXPECT_TRUE(has(v, 8, "float-accumulator")) << "float acc += in loop";
  // Per-term accumulation into C memory (the sanctioned micro-kernel
  // contract) stays silent.
  EXPECT_EQ(v.size(), 1u);
  // The real micro-kernel TUs are in scope for R2 by name:
  const auto real = rrp::lint::lint_file(
      "src/nn/gemm_kernels_avx2.cpp",
      "float f(const float* a, int n) {\n"
      "  float s = 0.0f;\n"
      "  for (int i = 0; i < n; ++i) s += a[i];\n"
      "  return s;\n"
      "}\n");
  ASSERT_EQ(real.size(), 1u);
  EXPECT_EQ(real[0].rule, "float-accumulator");
}

TEST(RrpLint, FloatAccumulatorScopedToKernels) {
  // The same float-accumulator pattern outside gemm/conv/depthwise files
  // is not part of the contract.  bad_logging.cpp is an nn file but not a
  // kernel: synthesize the check directly.
  const auto findings = rrp::lint::lint_file(
      "src/nn/layers_pool.cpp",
      "float m(const float* a, int n) {\n"
      "  float acc = 0.0f;\n"
      "  for (int i = 0; i < n; ++i) acc += a[i];\n"
      "  return acc;\n"
      "}\n");
  EXPECT_TRUE(findings.empty());
  const auto kernel = rrp::lint::lint_file(
      "src/nn/layers_conv.cpp",
      "float m(const float* a, int n) {\n"
      "  float acc = 0.0f;\n"
      "  for (int i = 0; i < n; ++i) acc += a[i];\n"
      "  return acc;\n"
      "}\n");
  ASSERT_EQ(kernel.size(), 1u);
  EXPECT_EQ(kernel[0].rule, "float-accumulator");
  EXPECT_EQ(kernel[0].line, 3);
}

TEST(RrpLint, LayeringRule) {
  const auto v = fired("src/nn/bad_layering.cpp");
  EXPECT_TRUE(has(v, 2, "layering")) << "nn -> core is upward";
  EXPECT_TRUE(has(v, 3, "layering")) << "nn -> models is upward";
  // Same-module and downward includes are fine.
  EXPECT_FALSE(has(v, 4, "layering"));
  EXPECT_FALSE(has(v, 5, "layering"));
  EXPECT_EQ(v.size(), 2u);
}

TEST(RrpLint, HygieneHeaderRules) {
  const auto v = fired("src/nn/bad_header.h");
  EXPECT_TRUE(has(v, 7, "hygiene-using-namespace"));
  EXPECT_TRUE(has(v, 16, "hygiene-override")) << "virtual without override";
  // Base-class virtuals, override'd members and destructors are silent.
  EXPECT_EQ(v.size(), 2u);
}

TEST(RrpLint, HygieneLoggingRule) {
  const auto v = fired("src/nn/bad_logging.cpp");
  EXPECT_TRUE(has(v, 6, "hygiene-logging")) << "std::cout";
  EXPECT_TRUE(has(v, 7, "hygiene-logging")) << "std::cerr";
  EXPECT_TRUE(has(v, 8, "hygiene-logging")) << "printf";
  EXPECT_EQ(v.size(), 3u);
}

TEST(RrpLint, SuppressionsSilenceFindings) {
  EXPECT_TRUE(fired("src/nn/suppressed_ok.cpp").empty());
}

TEST(RrpLint, MalformedSuppressionsAreFindings) {
  const auto v = fired("src/nn/bad_suppression.cpp");
  EXPECT_TRUE(has(v, 4, "bad-suppression")) << "missing reason";
  EXPECT_TRUE(has(v, 5, "determinism-random"))
      << "reason-less marker must not silence the violation";
  EXPECT_TRUE(has(v, 7, "bad-suppression")) << "unknown rule id";
  EXPECT_EQ(v.size(), 3u);
}

TEST(RrpLint, WhitelistsAndScopes) {
  // thread_pool.* may use every threading primitive.
  EXPECT_TRUE(fired("src/util/thread_pool.fixture.cpp").empty());
  // Apps own their stdout and may include any module.
  EXPECT_TRUE(fired("tools/clean_tool.cpp").empty());
  // A clean header stays clean.
  EXPECT_TRUE(fired("src/util/clean_util.h").empty());
}

TEST(RrpLint, TopLevelBlobCheck) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "rrp_lint_blob_test";
  fs::remove_all(root);
  fs::create_directories(root / "cache");
  {
    std::ofstream txt(root / "README.md");
    txt << "text is fine\n";
    std::ofstream blob(root / "cache_mlp.rrpn", std::ios::binary);
    const char nulbuf[4] = {'\0', '\1', '\2', '\3'};
    blob.write(nulbuf, sizeof nulbuf);
    std::ofstream sneaky(root / "weights.dat", std::ios::binary);
    sneaky.write(nulbuf, sizeof nulbuf);  // NUL sniff, unknown extension
    std::ofstream nested(root / "cache" / "model.rrpn", std::ios::binary);
    nested.write(nulbuf, sizeof nulbuf);  // cache/ is the sanctioned home
  }
  const auto findings = rrp::lint::check_top_level(root.string());
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].file, "cache_mlp.rrpn");
  EXPECT_EQ(findings[0].rule, "top-level-blob");
  EXPECT_EQ(findings[1].file, "weights.dat");
  fs::remove_all(root);
}

TEST(RrpLint, ScannerBlanksLiteralsAndComments) {
  const rrp::lint::FileView view = rrp::lint::scan_file(
      "int a; // srand(1)\n"
      "const char* s = \"std::mutex\";\n"
      "/* time(0) */ int b;\n"
      "const char* r = R\"(rand())\";\n");
  ASSERT_EQ(view.code.size(), 5u);  // trailing newline yields an empty line
  EXPECT_EQ(view.code[0].find("srand"), std::string::npos);
  EXPECT_EQ(view.code[1].find("mutex"), std::string::npos);
  EXPECT_EQ(view.code[2].find("time"), std::string::npos);
  EXPECT_NE(view.code[2].find("int b;"), std::string::npos);
  EXPECT_EQ(view.code[3].find("rand"), std::string::npos);
  EXPECT_NE(view.comments[0].find("srand(1)"), std::string::npos);
}

TEST(RrpLint, RealTreeIsClean) {
  const auto findings = rrp::lint::lint_tree(RRP_LINT_REPO_ROOT);
  for (const Finding& f : findings) ADD_FAILURE() << rrp::lint::to_string(f);
}

// --------------------------------------------------------------------------
// R6/R7 interprocedural frame-path analysis (tools/rrp_lint/callgraph.cpp).
// --------------------------------------------------------------------------

TEST(RrpLintFramePath, AllocationRule) {
  const auto v = fired("src/core/fp_alloc.cpp");
  EXPECT_TRUE(has(v, 6, "frame-path-alloc")) << "new[] one hop from root";
  EXPECT_TRUE(has(v, 10, "frame-path-alloc")) << "malloc";
  EXPECT_TRUE(has(v, 11, "frame-path-alloc")) << "free";
  EXPECT_TRUE(has(v, 19, "frame-path-alloc")) << "delete[] in the root body";
  EXPECT_EQ(v.size(), 4u);
}

TEST(RrpLintFramePath, ContainerGrowthRule) {
  const auto v = fired("src/core/fp_growth.cpp");
  EXPECT_TRUE(has(v, 11, "frame-path-alloc")) << "push_back";
  EXPECT_TRUE(has(v, 12, "frame-path-alloc")) << "emplace_back";
  EXPECT_TRUE(has(v, 16, "frame-path-alloc")) << "resize";
  EXPECT_TRUE(has(v, 17, "frame-path-alloc")) << "reserve";
  EXPECT_TRUE(has(v, 18, "frame-path-alloc")) << "insert";
  EXPECT_EQ(v.size(), 5u);
}

TEST(RrpLintFramePath, OwningDeclarationRule) {
  const auto v = fired("src/core/fp_decl.cpp");
  EXPECT_TRUE(has(v, 12, "frame-path-alloc")) << "std::vector local";
  EXPECT_TRUE(has(v, 13, "frame-path-alloc")) << "std::string local";
  EXPECT_TRUE(has(v, 20, "frame-path-alloc")) << "Tensor copy";
  EXPECT_TRUE(has(v, 21, "frame-path-alloc")) << "brace-initialized Shape";
  EXPECT_TRUE(has(v, 24, "frame-path-alloc")) << "nested template vector";
  // Header types (lines 11 and 19), references and pointers own nothing.
  EXPECT_EQ(v.size(), 5u);
}

TEST(RrpLintFramePath, LockRule) {
  const auto v = fired("src/core/fp_lock.cpp");
  EXPECT_TRUE(has(v, 12, "frame-path-lock")) << "RAII lock_guard token";
  EXPECT_TRUE(has(v, 16, "frame-path-lock")) << "explicit .lock()";
  // core is not thread-whitelisted, so R4 fires alongside — expected.
  EXPECT_TRUE(has(v, 4, "determinism-thread"));
  EXPECT_TRUE(has(v, 9, "determinism-thread"));
  EXPECT_TRUE(has(v, 12, "determinism-thread"));
  EXPECT_EQ(v.size(), 5u);
}

TEST(RrpLintFramePath, IoRule) {
  const auto v = fired("src/core/fp_io.cpp");
  EXPECT_TRUE(has(v, 8, "frame-path-io")) << "printf one hop from root";
  EXPECT_TRUE(has(v, 12, "frame-path-io")) << "ofstream token";
  // One printf is one frame-path-io finding — the resolver must not add a
  // spurious frame-path-unresolved for a printf-family name.
  EXPECT_FALSE(has(v, 8, "frame-path-unresolved"));
  // The per-file logging rule fires on the same line independently.
  EXPECT_TRUE(has(v, 8, "hygiene-logging"));
  // A parameter named `cin` is not IO; std::cout << and std::cin >> are.
  EXPECT_FALSE(has(v, 19, "frame-path-io")) << "local 'cin'";
  EXPECT_TRUE(has(v, 23, "frame-path-io")) << "std::cout <<";
  EXPECT_TRUE(has(v, 23, "hygiene-logging"));
  EXPECT_TRUE(has(v, 27, "frame-path-io")) << "std::cin >>";
  EXPECT_EQ(v.size(), 6u);
}

TEST(RrpLintFramePath, ThrowRule) {
  const auto v = fired("src/core/fp_throw.cpp");
  EXPECT_TRUE(has(v, 5, "frame-path-throw")) << "throw two hops from root";
  EXPECT_EQ(v.size(), 1u);
}

TEST(RrpLintFramePath, RecursionRule) {
  const auto v = fired("src/core/fp_recursion.cpp");
  EXPECT_TRUE(has(v, 5, "frame-path-recursion")) << "direct self-recursion";
  EXPECT_TRUE(has(v, 12, "frame-path-recursion")) << "mutual cycle, even_step";
  EXPECT_TRUE(has(v, 17, "frame-path-recursion")) << "mutual cycle, odd_step";
  EXPECT_EQ(v.size(), 3u);
}

TEST(RrpLintFramePath, MarkerHygiene) {
  const auto v = fired("src/core/fp_marker.cpp");
  EXPECT_TRUE(has(v, 7, "bad-frame-path-marker")) << "stop without a reason";
  EXPECT_TRUE(has(v, 10, "bad-frame-path-marker")) << "unknown marker suffix";
  EXPECT_TRUE(has(v, 15, "bad-frame-path-marker")) << "dangling marker";
  EXPECT_EQ(v.size(), 3u);
}

TEST(RrpLintFramePath, LambdaBodyAttributedToEnclosingDef) {
  const auto v = fired("src/core/fp_lambda.cpp");
  EXPECT_TRUE(has(v, 11, "frame-path-alloc")) << "growth inside the lambda";
  EXPECT_TRUE(has(v, 12, "frame-path-alloc"));
  // The reasoned suppression silences the lambda-variable call site.
  EXPECT_EQ(v.size(), 2u);
}

TEST(RrpLintFramePath, OverloadsLinkConservatively) {
  const auto v = fired("src/core/fp_overload.cpp");
  EXPECT_TRUE(has(v, 11, "frame-path-alloc"))
      << "the dirty overload fires even though the clean one is called";
  EXPECT_EQ(v.size(), 1u);
}

TEST(RrpLintFramePath, TemplatesAreIndexed) {
  const auto v = fired("src/core/fp_template.cpp");
  EXPECT_TRUE(has(v, 9, "frame-path-alloc")) << "growth inside the template";
  EXPECT_EQ(v.size(), 1u);
}

TEST(RrpLintFramePath, MemberFunctionPointersAreUnresolved) {
  const auto v = fired("src/core/fp_memfn_ptr.cpp");
  EXPECT_TRUE(has(v, 10, "frame-path-unresolved")) << "(obj->*hook_)(v)";
  EXPECT_TRUE(has(v, 14, "frame-path-unresolved")) << "(obj.*hook_)(v)";
  EXPECT_EQ(v.size(), 2u);
}

TEST(RrpLintFramePath, VirtualDispatchAndExternCallees) {
  const auto v = fired("src/core/fp_virtual.cpp");
  EXPECT_TRUE(has(v, 21, "frame-path-alloc"))
      << "virtual call links to every override: the dirty one fires";
  EXPECT_TRUE(has(v, 42, "frame-path-unresolved")) << "undefined extern callee";
  // The stop-marked override's `new` is exempt (line 34), and the
  // suppressed vendor intrinsic stays silent (line 45).
  EXPECT_EQ(v.size(), 2u);
}

TEST(RrpLintFramePath, CleanRootStaysClean) {
  EXPECT_TRUE(fired("src/core/fp_clean.cpp").empty());
}

TEST(RrpLintFramePath, SingleLexPassPerFile) {
  rrp::lint::reset_lex_count();
  const rrp::lint::LintReport report =
      rrp::lint::lint_tree_report(RRP_LINT_FIXTURE_DIR);
  // Per-file rules, suppression scan and the interprocedural pass all
  // share ONE lex of each file.
  EXPECT_EQ(rrp::lint::lex_count(), report.files_scanned);
  EXPECT_EQ(report.lex_passes, report.files_scanned);
  EXPECT_GT(report.files_scanned, 0u);
}

TEST(RrpLintFramePath, ReportCountsRootsAndSuppressions) {
  const rrp::lint::LintReport report =
      rrp::lint::lint_tree_report(RRP_LINT_FIXTURE_DIR);
  // One root per fp_ fixture that declares one (alloc, growth, decl, lock,
  // io, throw, recursion, lambda, overload, template, memfn, virtual,
  // clean).
  EXPECT_EQ(report.frame_path_roots, 13);
  EXPECT_GT(report.frame_path_reachable, report.frame_path_roots)
      << "roots must drag their callees into the reachable set";
  EXPECT_GE(report.frame_path_stops, 1) << "fp_virtual's audited override";
  // The reasoned suppressions in the fixtures are retained, not dropped.
  EXPECT_FALSE(report.suppressed.empty());
}

TEST(RrpLintFramePath, RealTreeReport) {
  const rrp::lint::LintReport report =
      rrp::lint::lint_tree_report(RRP_LINT_REPO_ROOT);
  // The annotated real tree: controller step, provider set_levels and
  // infer_intos, sync_masked, scrub/repair, recorder, the planned network
  // forward, GEMM entry points and kernel variants, conv/depthwise
  // forward_intos.
  EXPECT_GE(report.frame_path_roots, 15);
  EXPECT_GT(report.frame_path_reachable, report.frame_path_roots);
  EXPECT_GE(report.frame_path_stops, 8);
  // Zero silent allowances: every suppression in the tree carries a
  // reason (reason-less markers are bad-suppression findings, and the
  // RealTreeIsClean gate above already proved there are none).
  EXPECT_GE(report.suppressed.size(), 10u);
}

TEST(RrpLintFramePath, JsonRoundTrip) {
  std::string err;
  EXPECT_TRUE(rrp::lint::json_self_test(&err)) << err;
  // The real report serializes without choking on message punctuation.
  const rrp::lint::LintReport report =
      rrp::lint::lint_tree_report(RRP_LINT_FIXTURE_DIR);
  const std::string json = rrp::lint::to_json(report);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"frame-path-alloc\""), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\":true"), std::string::npos);
}

}  // namespace
