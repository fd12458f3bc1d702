// ariel_e2e: one workload of the end-to-end benchmark per invocation.
//
//   ariel_e2e --workload NAME --seed N --seconds S --trace 0|1
//   ariel_e2e --selftest
//   ariel_e2e --serve NAME [REP]   (the server child the runs spawn)
//
// Prints human-readable notes (host shape, sample counts, state digests,
// the layer table), then, as its last line, one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// the per-layer metrics of the traced run. Exit status is 0 only when
// every output checked out.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"
#include "stats.h"

namespace {

using e2e::Report;

void PrintHost(const e2e::Workload& w, int trace) {
#ifdef ARIEL_NO_METRICS
  const char* metrics = "OFF";
#else
  const char* metrics = "ON";
#endif
  std::printf("# host: nproc=%ld build=%s ARIEL_METRICS=%s compiler=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN), E2E_BUILD_TYPE, metrics,
              E2E_COMPILER);
  std::printf("# workload=%s seed=%llu trace=%d clients=%d batch_tokens=%zu "
              "match_threads=%zu server_read_threads=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed), trace,
              w.clients, w.options.batch_tokens, w.options.match_threads,
              w.read_threads);
}

std::string Json(const Report& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + r.metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

/// The generator and statistics checks: one seed yields a byte-identical
/// stream, two seeds differ, and percentiles without ten samples beyond
/// them are refused.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  auto text = [](const std::string& name, uint64_t seed) {
    e2e::Workload w;
    if (!e2e::MakeWorkload(name, seed, &w)) return std::string();
    std::string all;
    for (const auto* part : {&w.setup.data, &w.setup.rules, &w.setup.settle}) {
      for (const std::string& s : *part) all += s + "\n";
    }
    for (int c = 0; c < w.clients; ++c) {
      std::unique_ptr<e2e::StreamGen> gen = w.Stream(c);
      for (int i = 0; i < 20000; ++i) all += gen->Next().text + "\n";
    }
    return all;
  };
  for (const std::string& name : e2e::WorkloadNames()) {
    const std::string a = text(name, 7), b = text(name, 7), c = text(name, 8);
    expect(!a.empty() && a == b,
           name + ": seed 7 twice gives byte-identical setup and stream (" +
               std::to_string(a.size()) + " bytes)");
    expect(a != c, name + ": seeds 7 and 8 give different inputs");
  }
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  expect(!e2e::NearestRank(v, 0.99).ok, "p99 of 999 samples is refused");
  v.push_back(1000);
  const e2e::Percentile p99 = e2e::NearestRank(v, 0.99);
  expect(p99.ok && p99.value == 990 && p99.beyond == 10,
         "p99 of 1..1000 is 990 with 10 samples beyond");
  const std::vector<double> small = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                     11, 12, 13, 14, 15, 16, 17, 18, 19};
  expect(!e2e::NearestRank(small, 0.5).ok, "p50 of 19 samples is refused");
  expect(e2e::Median({3, 1, 2, 10}) == 2.5, "median averages the middle pair");
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: ariel_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1\n       ariel_e2e --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    if (arg == "--serve") {
      return e2e::Serve(argv[i + 1], i + 2 < argc ? std::atoi(argv[i + 2]) : 0);
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  e2e::Workload w;
  if (!e2e::MakeWorkload(workload, seed, &w) || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  PrintHost(w, trace);
  std::fflush(stdout);

  Report report = trace == 1      ? e2e::RunTraced(w, seconds)
                  : w.server      ? e2e::RunServer(w, seconds)
                                  : e2e::RunInProcess(w, seconds);
  for (e2e::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.correct = false;
      report.notes.push_back("metric " + m.name + " is not finite");
      m.value = 0;
    }
  }
  if (report.attempted == 0) {
    report.correct = false;
    report.attempted = 1;
    report.failed = 1;
  }
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  std::printf("%s\n", Json(report).c_str());
  return report.correct ? 0 : 1;
}
