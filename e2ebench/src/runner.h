#ifndef E2EBENCH_RUNNER_H_
#define E2EBENCH_RUNNER_H_

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ariel/database.h"
#include "stream.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Untimed warm-up before each measured window: the first seconds of a
/// fresh engine run measurably slower.
inline constexpr double kWarmupSeconds = 2;

/// Samples per block of a block percentile (see BlockPercentile).
inline constexpr size_t kBlockP50 = 100;
inline constexpr size_t kBlockP99 = 1000;

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Moves one thread (0 = the caller) to the next CPU the process may run
/// on at every Next(), round robin from the `start`-th (modulo the CPU
/// count); restores its affinity when destroyed.
/// On a shared host one CPU can be persistently slower than the others for
/// a whole run, and a thread left where it started would make the whole run
/// slow; rotating samples every CPU alike, and means over sample blocks or
/// setup repetitions then discard the slow ones. A no-op when disabled or
/// when only one CPU is allowed.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled, pid_t tid = 0, size_t start = 0);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  pid_t tid_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// What one request produced, as far as the correctness checks need.
struct Outcome {
  bool ok = false;
  int64_t rows = -1;      // result rows of a read (-1 = no result set)
  int64_t affected = 0;   // tuples affected by a write
  std::string error;
};

/// Everything a closed-loop pass measured.
struct Samples {
  std::vector<double> read_ms;
  std::vector<double> write_ms;   // committed mutating commands
  std::vector<double> abort_ms;   // explicit `abort`
  uint64_t requests = 0;          // top-level requests completed
  uint64_t attempted = 0;         // requests checked (== requests)
  uint64_t failed = 0;            // errors and wrong results
  double seconds = 0;             // measured window (generation excluded)
  double busy_ms = 0;             // Σ request latencies, every kind
  uint64_t total_requests = 0;    // requests including the warm-up
  std::string first_failure;

  void Merge(const Samples& other);
};

/// Executes one request and reports its outcome.
using ExecFn = std::function<Outcome(const Request&)>;

struct DriveOptions {
  double warmup = 0;          // seconds checked but not measured
  double seconds = 0;         // measured window (when max_requests == 0)
  uint64_t max_requests = 0;  // measured requests instead (0 = by time)
  /// Move the calling thread to the next CPU at every sub-window (see
  /// CpuRotation); migration time is left out of the measured time.
  bool rotate_cpus = false;
};

/// Runs a closed loop over `gen`: the next request is sent when the
/// previous one returned. Never stops inside an open transaction. Request
/// text is generated in chunks with the clock stopped.
Samples Drive(StreamGen* gen, const DriveOptions& options,
              const ExecFn& exec);

/// Checks an outcome against the request's expectation; returns "" when
/// correct, else a description of the mismatch.
std::string CheckOutcome(const Request& request, const Outcome& outcome);

/// Parses a wire reply payload ("(N rows)", "(N tuples affected)", "ok").
Outcome OutcomeFromReply(char kind, const std::string& payload);

/// Executes setup text on an engine: every data script, every rule, every
/// settle script. Returns "" or the first error.
std::string RunSetup(ariel::Database* db, const Setup& setup);

/// 64-bit FNV-1a digest of a DebugDumpState rendering, in hex.
std::string Digest(const std::string& text);

/// Peak resident set of this process in MiB.
double SelfPeakRssMb();

/// Result of one benchmark invocation.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines printed first
};

/// End-to-end metrics shared by every workload, from a pass's samples and
/// the counter deltas of its window. Fails the report when a percentile
/// lacks the samples to be reported.
void AddEndToEnd(const Samples& s, double setup_s, uint64_t tokens,
                 uint64_t firings, double peak_rss_mb, Report* report);

/// trace = 0: the timed, untraced run of one workload.
Report RunInProcess(const Workload& w, double seconds);
Report RunServer(const Workload& w, double seconds);

/// trace = 1: per-layer attribution (trace.cc).
Report RunTraced(const Workload& w, double seconds);

// --- server child and load generator (server_load.cc) ----------------------

struct ServerPass {
  Samples samples;
  std::vector<double> setup_s;      // per spawned server
  double peak_rss_mb = 0;           // VmHWM of the measured child
  std::vector<uint64_t> per_client; // requests each connection completed
  /// `show stats` counters of the child: after setup and after the window.
  std::vector<std::pair<std::string, uint64_t>> stats_before, stats_after;
  bool final_state_ok = true;
  std::string final_state_note;
  std::string error;
};

/// Spawns `reps` server children in turn (setting each up over the wire),
/// then drives the last one with the workload's closed-loop connections,
/// each measured for `seconds` after `warmup`.
ServerPass RunServerPass(const Workload& w, int reps, double warmup,
                         double seconds);

/// --serve: an ArielServer over a Database with the workload's options, on
/// an ephemeral loopback port (announced on stdout) until SIGTERM; its event
/// loop starts on the `first_cpu`-th allowed CPU.
int Serve(const std::string& workload, int first_cpu);

uint64_t StatValue(const std::vector<std::pair<std::string, uint64_t>>& stats,
                   const std::string& name);

}  // namespace e2e

#endif  // E2EBENCH_RUNNER_H_
