#include "runner.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "stats.h"
#include "util/metrics.h"

namespace e2e {

namespace {

/// Requests generated per chunk; the clock is stopped while a chunk is
/// generated, so text generation never counts as engine time.
constexpr size_t kChunk = 32768;

/// With rotation on, the calling thread moves to the next CPU after each
/// sub-window of this length.
constexpr double kSubWindow = 0.5;

bool InTxn(Kind kind) {
  return kind == Kind::kBegin || kind == Kind::kTxnWrite;
}

}  // namespace

void Samples::Merge(const Samples& other) {
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
  write_ms.insert(write_ms.end(), other.write_ms.begin(), other.write_ms.end());
  abort_ms.insert(abort_ms.end(), other.abort_ms.begin(), other.abort_ms.end());
  requests += other.requests;
  attempted += other.attempted;
  failed += other.failed;
  busy_ms += other.busy_ms;
  total_requests += other.total_requests;
  if (first_failure.empty()) first_failure = other.first_failure;
}

std::string CheckOutcome(const Request& request, const Outcome& outcome) {
  if (!outcome.ok) return "error reply: " + outcome.error;
  if (request.expect < 0) return "";
  const int64_t got =
      request.kind == Kind::kRead ? outcome.rows : outcome.affected;
  if (got == request.expect) return "";
  return std::string(request.kind == Kind::kRead ? "rows" : "affected") +
         " = " + std::to_string(got) + ", expected " +
         std::to_string(request.expect);
}

Outcome OutcomeFromReply(char kind, const std::string& payload) {
  Outcome out;
  if (kind != '+') {
    out.error = payload;
    return out;
  }
  out.ok = true;
  const size_t open = payload.rfind('(');
  if (open == std::string::npos) return out;
  char* end = nullptr;
  const long long n = std::strtoll(payload.c_str() + open + 1, &end, 10);
  const std::string rest(end);
  if (rest.rfind(" rows)", 0) == 0) {
    out.rows = n;
  } else if (rest.rfind(" tuples affected)", 0) == 0) {
    out.affected = n;
  }
  return out;
}

CpuRotation::CpuRotation(bool enabled, pid_t tid, size_t start)
    : tid_(tid), next_(start) {
  if (!enabled ||
      ::sched_getaffinity(tid_, sizeof(original_), &original_) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) cpus_.clear();
  Next();
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) ::sched_setaffinity(tid_, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  ::sched_setaffinity(tid_, sizeof(one), &one);
}

Samples Drive(StreamGen* gen, const DriveOptions& options,
              const ExecFn& exec) {
  const double warmup = options.warmup;
  const double seconds = options.seconds;
  const uint64_t max_requests = options.max_requests;
  CpuRotation rotation(options.rotate_cpus);
  Samples s;
  std::vector<Request> chunk;
  chunk.reserve(kChunk);
  bool in_txn = false;
  bool warming = warmup > 0;
  double sub_start = 0;  // measured time at the current sub-window start
  double elapsed = 0;    // measured time of finished chunks
  bool done = false;
  while (!done) {
    chunk.clear();
    for (size_t i = 0; i < kChunk; ++i) chunk.push_back(gen->Next());
    const Clock::time_point window = Clock::now();
    for (const Request& request : chunk) {
      const double now = elapsed + SecondsSince(window);
      if (!in_txn && warming && now >= warmup) {
        // Warm-up over: what follows is the measured window.
        warming = false;
        Samples measured;
        measured.attempted = s.attempted;
        measured.failed = s.failed;
        measured.total_requests = s.total_requests;
        measured.first_failure = s.first_failure;
        s = std::move(measured);
        elapsed -= now;  // measured time restarts at zero
        sub_start = elapsed + SecondsSince(window);
      }
      const bool full = max_requests > 0
                            ? s.requests >= max_requests
                            : elapsed + SecondsSince(window) >= seconds;
      if (!in_txn && !warming && full) {
        done = true;
        break;
      }
      const Clock::time_point t0 = Clock::now();
      const Outcome outcome = exec(request);
      const Clock::time_point t1 = Clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      ++s.total_requests;
      ++s.attempted;
      in_txn = InTxn(request.kind);
      const std::string problem = CheckOutcome(request, outcome);
      if (!problem.empty()) {
        ++s.failed;
        if (s.first_failure.empty()) {
          s.first_failure = request.text + ": " + problem;
        }
      }
      if (warming) continue;
      s.busy_ms += ms;
      ++s.requests;
      const double end =
          elapsed + std::chrono::duration<double>(t1 - window).count();
      if (end - sub_start >= kSubWindow) {
        sub_start = end;
        // A migration can wait for the target CPU; that wait is the
        // benchmark's, so it is left out of the measured time.
        const Clock::time_point before = Clock::now();
        rotation.Next();
        elapsed -= SecondsSince(before);
      }
      if (!problem.empty()) continue;
      switch (request.kind) {
        case Kind::kRead: s.read_ms.push_back(ms); break;
        case Kind::kWrite: s.write_ms.push_back(ms); break;
        case Kind::kAbort: s.abort_ms.push_back(ms); break;
        case Kind::kBegin:
        case Kind::kTxnWrite: break;
      }
    }
    elapsed += SecondsSince(window);
  }
  s.seconds = elapsed;
  return s;
}

std::string RunSetup(ariel::Database* db, const Setup& setup) {
  auto run = [&](const std::string& script) -> std::string {
    auto result = db->ExecuteAll(script);
    return result.ok() ? "" : result.status().ToString();
  };
  for (const std::string& script : setup.data) {
    if (std::string e = run(script); !e.empty()) return e;
  }
  for (const std::string& rule : setup.rules) {
    if (std::string e = run(rule); !e.empty()) return e;
  }
  for (const std::string& script : setup.settle) {
    if (std::string e = run(script); !e.empty()) return e;
  }
  return "";
}

std::string Digest(const std::string& text) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

double SelfPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddEndToEnd(const Samples& s, double setup_s, uint64_t tokens,
                 uint64_t firings, double peak_rss_mb, Report* report) {
  auto percentile = [&](const char* name, const std::vector<double>& v,
                        double p, size_t block) {
    const Percentile q = BlockPercentile(v, p, block);
    report->notes.push_back(
        std::string(name) + ": n=" + std::to_string(q.samples) + " in " +
        std::to_string(std::max<size_t>(1, q.samples / block)) +
        " blocks, min beyond=" + std::to_string(q.beyond) +
        (q.ok ? "" : " (REFUSED: fewer than 10 beyond)"));
    if (!q.ok) report->correct = false;
    report->metrics.push_back({name, q.value, "ms"});
  };
  const double throughput =
      static_cast<double>(s.requests) / std::max(s.seconds, 1e-9);
  // Tokens and firings per request over warm-up and window, at the
  // reported request rate.
  const double per_request = 1.0 / std::max<double>(1, s.total_requests);
  report->metrics.push_back({"setup_s", setup_s, "s"});
  report->metrics.push_back({"throughput_cmd_s", throughput, "cmd/s"});
  percentile("read_p50_ms", s.read_ms, 0.50, kBlockP50);
  percentile("read_p99_ms", s.read_ms, 0.99, kBlockP99);
  percentile("write_p50_ms", s.write_ms, 0.50, kBlockP50);
  percentile("write_p99_ms", s.write_ms, 0.99, kBlockP99);
  percentile("abort_p50_ms", s.abort_ms, 0.50, kBlockP50);
  report->metrics.push_back(
      {"tokens_per_s", tokens * per_request * throughput, "1/s"});
  report->metrics.push_back(
      {"firings_per_s", firings * per_request * throughput, "1/s"});
  report->metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  report->attempted += s.attempted;
  report->failed += s.failed;
  if (s.failed > 0) {
    report->correct = false;
    report->notes.push_back("first failure: " + s.first_failure);
  }
  report->notes.push_back(
      "window: " + std::to_string(s.seconds) + " s, " +
      std::to_string(s.requests) + " requests (" +
      std::to_string(s.total_requests) + " with warm-up), fail_ratio = " +
      std::to_string(s.attempted > 0
                         ? static_cast<double>(s.failed) / s.attempted
                         : 0.0));
}

Report RunInProcess(const Workload& w, double seconds) {
  Report report;
  std::unique_ptr<ariel::Database> db;
  std::vector<double> setup_s;
  {
    CpuRotation rotation(true);  // each repetition on another CPU
    for (int rep = 0; rep < w.setup_reps; ++rep) {
      db.reset();  // at most one engine alive: peak RSS is one engine's
      ariel::Metrics().firing_trace.Clear();
      const Clock::time_point t0 = Clock::now();
      db = std::make_unique<ariel::Database>(w.options);
      const std::string error = RunSetup(db.get(), w.setup);
      setup_s.push_back(SecondsSince(t0));
      if (!error.empty()) {
        report.correct = false;
        report.notes.push_back("setup failed: " + error);
        return report;
      }
      rotation.Next();
    }
  }

  ariel::EngineMetrics& m = ariel::Metrics();
  const uint64_t tokens0 = m.tokens_emitted.value();
  const uint64_t firings0 = m.rules_fired.value();
  std::unique_ptr<StreamGen> gen = w.Stream(0);
  ariel::Database* engine = db.get();
  DriveOptions options;
  options.warmup = kWarmupSeconds;
  options.seconds = seconds;
  // The caller is rotated; bulk_cascade's one match worker is left to the
  // scheduler, which keeps it off the caller's CPU.
  options.rotate_cpus = true;
  const Samples s = Drive(gen.get(), options, [engine](const Request& r) {
    Outcome out;
    auto result = engine->Execute(r.text);
    if (!result.ok()) {
      out.error = result.status().ToString();
      return out;
    }
    out.ok = true;
    if (result->rows.has_value()) {
      out.rows = static_cast<int64_t>(result->rows->num_rows());
    }
    out.affected = static_cast<int64_t>(result->affected);
    return out;
  });
  const uint64_t tokens = m.tokens_emitted.value() - tokens0;
  const uint64_t firings = m.rules_fired.value() - firings0;

  AddEndToEnd(s, Median(setup_s), tokens, firings, SelfPeakRssMb(), &report);

  auto audit = db->AuditNetwork();
  if (!audit.ok() || !audit->empty()) {
    report.correct = false;
    ++report.failed;
    report.notes.push_back(
        "AuditNetwork: " +
        (audit.ok() ? audit->front().ToString() : audit.status().ToString()));
  } else {
    report.notes.push_back("AuditNetwork: clean");
  }
  report.notes.push_back("state digest: " + Digest(db->DebugDumpState()));
  return report;
}

}  // namespace e2e
