// rrp_perfbench — the benchmark binary (perfbench/run.py builds and calls
// it).
//
//   rrp_perfbench provision --cache DIR
//   rrp_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                     --cache DIR [--spans FILE]
//
// `run` prints one "name value unit" line per metric (plus sample counts
// and the failed fraction), then, as its last line, one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {…}}.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rrp_perfbench provision --cache DIR\n"
               "       rrp_perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --cache DIR [--spans FILE]\n");
  return 2;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) return usage();
  const std::string mode = argv[1];
  try {
    perfbench::Options opt;
    bool have_workload = false;
    for (int i = 2; i < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--cache") {
        opt.cache_dir = value;
      } else if (key == "--spans") {
        opt.spans_path = value;
      } else {
        return usage();
      }
    }
    if (mode == "provision") {
      perfbench::provision_models(opt.cache_dir);
      return 0;
    }
    if (mode != "run" || !have_workload || !(opt.seconds > 0)) return usage();
    const perfbench::Result r = perfbench::run_workload(opt);

    for (const perfbench::Metric& m : r.metrics)
      std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    for (const perfbench::Metric& m : r.info)
      std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%-40s %.6g %s\n", "failed_frac",
                r.attempted > 0 ? static_cast<double>(r.failed) /
                                      static_cast<double>(r.attempted)
                                : 0.0,
                "fraction");
    for (const std::string& e : r.errors)
      std::printf("output check FAILED: %s\n", e.c_str());
    for (const perfbench::Metric& m : r.metrics) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
        return 1;
      }
    }

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<long long>(r.attempted),
                static_cast<long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      if (i > 0) std::printf(", ");
      print_json_string(r.metrics[i].name);
      std::printf(": {\"value\": %.17g, \"unit\": ", r.metrics[i].value);
      print_json_string(r.metrics[i].unit);
      std::printf("}");
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrp_perfbench: %s\n", e.what());
    return 1;
  }
}
