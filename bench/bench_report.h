#ifndef ARIEL_BENCH_BENCH_REPORT_H_
#define ARIEL_BENCH_BENCH_REPORT_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/metrics.h"

// The CMake build type the bench was compiled under; bench/CMakeLists.txt
// defines it for every bench target.
#ifndef ARIEL_BUILD_TYPE
#define ARIEL_BUILD_TYPE "unknown"
#endif

namespace ariel::bench {

/// True when the harness should run a minimal workload (one small
/// configuration, one trial): set ARIEL_BENCH_SMOKE=1. CI uses this to
/// verify the benches run and report, not to collect numbers.
inline bool SmokeMode() {
  const char* v = std::getenv("ARIEL_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Snapshots the engine metrics registry on construction and writes
/// BENCH_<name>.json on destruction with the host shape (`nproc`, the
/// build type), the bench's wall time and the counter deltas it caused. Output directory: $ARIEL_BENCH_JSON_DIR if
/// set, else the working directory.
///
///   int main() {
///     ariel::bench::BenchReporter reporter("fig9_one_var_rules");
///     ... run and print the bench as usual ...
///   }
class BenchReporter {
 public:
  explicit BenchReporter(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    for (const auto& [counter_name, value] :
         Metrics().registry.Counters()) {
      baseline_[counter_name] = value;
    }
  }

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  /// Records a bench-specific headline number (throughput, a percentile…)
  /// emitted under the report's "results" object, e.g.
  /// AddResult("c8_commands_per_sec", 12345.6).
  void AddResult(const std::string& key, double value) {
    results_.emplace_back(key, value);
  }

  ~BenchReporter() {
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const std::string path = OutputPath();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", name_.c_str());
    std::fprintf(f, "  \"schema_version\": 1,\n");
    std::fprintf(f, "  \"nproc\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"build_type\": \"%s\",\n", ARIEL_BUILD_TYPE);
    std::fprintf(f, "  \"wall_time_seconds\": %.6f,\n", wall_seconds);
    std::fprintf(f, "  \"results\": {\n");
    for (size_t i = 0; i < results_.size(); ++i) {
      std::fprintf(f, "    \"%s\": %.6f%s\n", results_[i].first.c_str(),
                   results_[i].second, i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"counters\": {\n");
    auto counters = Metrics().registry.Counters();
    for (size_t i = 0; i < counters.size(); ++i) {
      uint64_t before = 0;
      auto it = baseline_.find(counters[i].first);
      if (it != baseline_.end()) before = it->second;
      std::fprintf(f, "    \"%s\": %llu%s\n", counters[i].first.c_str(),
                   static_cast<unsigned long long>(counters[i].second - before),
                   i + 1 < counters.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"histograms\": {\n");
    auto histograms = Metrics().registry.Histograms();
    for (size_t i = 0; i < histograms.size(); ++i) {
      const HistogramData& data = histograms[i].second;
      std::fprintf(
          f, "    \"%s\": {\"count\": %llu, \"sum\": %llu, \"mean\": %.2f}%s\n",
          histograms[i].first.c_str(),
          static_cast<unsigned long long>(data.count),
          static_cast<unsigned long long>(data.sum), data.Mean(),
          i + 1 < histograms.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("bench report written to %s\n", path.c_str());
  }

 private:
  std::string OutputPath() const {
    std::string dir;
    const char* env = std::getenv("ARIEL_BENCH_JSON_DIR");
    if (env != nullptr && env[0] != '\0') {
      dir = env;
      if (dir.back() != '/') dir += '/';
    }
    return dir + "BENCH_" + name_ + ".json";
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::map<std::string, uint64_t> baseline_;
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace ariel::bench

#endif  // ARIEL_BENCH_BENCH_REPORT_H_
