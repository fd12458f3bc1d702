// Adaptive network optimization: can a rule that starts on the wrong
// network shape find the right one from live statistics — and does the
// adapted rule match the best statically-configured engine?
//
// Three experiments:
//   join sweep   probe-heavy equijoin tokens against a joined relation of
//                10^2..10^4 tuples. Statics: scan (virtual, no B+tree: each
//                probe scans the base relation), hash (stored + hash
//                index), btree (virtual + B+tree probe). The adaptive
//                engine STARTS as scan and must converge.
//   churn sweep  bulk append/delete churn through the joined relation with
//                a quiet probe side. Statics: stored + hash, all-virtual.
//                The per-memory split (probed side stored, churn side
//                virtual) is only reachable adaptively.
//   mid-run shift one engine, workload flips from probe-heavy to
//                churn-heavy halfway; measures re-plan latency
//                (adaptive_replan_ns) and post-adaptation throughput
//                against statics stuck on their install-time shape. The
//                adaptive engine again starts as scan.
//
// All workloads run through Database::Execute so every command ends at a
// quiescence point where the adaptive optimizer may re-plan.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/paper_workload.h"

namespace {

using namespace ariel;
using namespace ariel::bench;

enum class Config { kScan, kHash, kBtree, kAdaptive };

const char* ConfigName(Config c) {
  switch (c) {
    case Config::kScan: return "scan";
    case Config::kHash: return "hash";
    case Config::kBtree: return "btree";
    case Config::kAdaptive: return "adaptive";
  }
  return "?";
}

/// α-memory policy for the join sweep and the shift: scan (the
/// mis-installed start, also the adaptive engine's) and btree run virtual
/// memories, hash runs stored ones. Only btree gets a B+tree on s.
AlphaMemoryPolicy::Mode ModeFor(Config c) {
  return c == Config::kHash ? AlphaMemoryPolicy::Mode::kAllStored
                            : AlphaMemoryPolicy::Mode::kAllVirtual;
}

/// ARIEL_ADAPTIVE overrides DatabaseOptions, so pin it per configuration.
void PinAdaptiveEnv(bool on) {
  setenv("ARIEL_ADAPTIVE", on ? "1" : "0", /*overwrite=*/1);
}

HistogramData ReplanHistogram() {
  for (const auto& [name, data] : Metrics().registry.Histograms()) {
    if (name == "adaptive_replan_ns") return data;
  }
  return {};
}

uint64_t TotalReplans(Database* db) {
  uint64_t total = 0;
  for (const Rule* rule : db->rules().ActiveRules()) total += rule->replans;
  return total;
}

// ---------------------------------------------------------------------------
// Join sweep: probe-heavy tokens, adaptive starts on the scan shape.
// ---------------------------------------------------------------------------

struct JoinPoint {
  double token_ms;
  uint64_t replans;
};

JoinPoint RunJoinPoint(Config config, int size, int trials) {
  PinAdaptiveEnv(config == Config::kAdaptive);
  DatabaseOptions options;
  options.auto_activate_rules = false;
  // The adaptive engine starts on the worst static shape (virtual memories
  // without a B+tree: every probe scans s) and has to find the hash path
  // itself.
  options.alpha_policy.mode = ModeFor(config);
  Database db(options);

  CheckOk(db.Execute("create r (k = int, pad = int)").status(), "create r");
  CheckOk(db.Execute("create s (k = int, pad = int)").status(), "create s");
  CheckOk(db.Execute("create sink (x = int)").status(), "create sink");
  if (config == Config::kBtree) {
    CheckOk(db.Execute("define index on s (k)").status(), "index s");
  }
  CheckOk(db.Execute("define rule sweep if r.k = s.k "
                     "then append to sink (x = 1)")
              .status(),
          "define rule");

  HeapRelation* r = db.catalog().GetRelation("r");
  HeapRelation* s = db.catalog().GetRelation("s");
  for (int i = 0; i < size; ++i) {
    CheckOk(db.transitions()
                .Insert(s, Tuple(std::vector<Value>{Value::Int(i),
                                                    Value::Int(i % 17)}))
                .status(),
            "populate s");
  }
  CheckOk(db.rules().ActivateRule("sweep"), "activate");

  auto probe_tokens = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int key = (i * 37) % size;
      CheckOk(db.Execute("append r (k = " + std::to_string(key) +
                         ", pad = 0)")
                  .status(),
              "probe token");
      if ((i + 1) % 16 == 0) {
        for (TupleId tid : r->AllTupleIds()) {
          CheckOk(db.transitions().Delete(r, tid), "probe cleanup");
        }
      }
    }
  };

  // Warmup: enough quiescence points (and tokens past adaptive_min_tokens)
  // for the adaptive engine to settle on its shape.
  probe_tokens(96);

  const int kTokensPerTrial = 32;
  std::vector<double> samples;
  Timer timer;
  for (int trial = 0; trial < trials; ++trial) {
    timer.Reset();
    probe_tokens(kTokensPerTrial);
    samples.push_back(timer.ElapsedMillis() / kTokensPerTrial);
  }
  JoinPoint out;
  out.token_ms = Median(&samples);
  out.replans = TotalReplans(&db);
  return out;
}

// ---------------------------------------------------------------------------
// Churn sweep: bulk append/delete through s, quiet probe side r. The best
// shape — r stored + hash, s virtual — is a per-memory split no uniform
// static config expresses.
// ---------------------------------------------------------------------------

double RunChurnPoint(Config config, int commands, uint64_t* replans) {
  PinAdaptiveEnv(config == Config::kAdaptive);
  DatabaseOptions options;
  options.auto_activate_rules = false;
  options.alpha_policy.mode = config == Config::kBtree
                                  ? AlphaMemoryPolicy::Mode::kAllVirtual
                                  : AlphaMemoryPolicy::Mode::kAllStored;
  Database db(options);

  CheckOk(db.Execute("create r (k = int, pad = int)").status(), "create r");
  CheckOk(db.Execute("create s (k = int, pad = int)").status(), "create s");
  CheckOk(db.Execute("create sink (x = int)").status(), "create sink");
  // B+tree paths on both join keys: every shape the engines might pick has
  // an index probe available.
  CheckOk(db.Execute("define index on r (k)").status(), "index r");
  CheckOk(db.Execute("define index on s (k)").status(), "index s");
  CheckOk(db.Execute("define rule churn if r.k = s.k "
                     "then append to sink (x = 1)")
              .status(),
          "define rule");

  HeapRelation* r = db.catalog().GetRelation("r");
  for (int i = 0; i < 8; ++i) {
    CheckOk(db.transitions()
                .Insert(r, Tuple(std::vector<Value>{Value::Int(1000000 + i),
                                                    Value::Int(0)}))
                .status(),
            "populate r");
  }
  CheckOk(db.rules().ActivateRule("churn"), "activate");

  int next_key = 0;
  auto churn_round = [&]() {
    // One bulk transition of 32 appends, then a bulk delete of the same
    // rows: 64 tokens through s per round, none matching r.
    std::string block = "do";
    for (int i = 0; i < 32; ++i) {
      block += " append s (k = " + std::to_string(next_key++) + ", pad = 0)";
    }
    block += " end";
    CheckOk(db.Execute(block).status(), "churn append");
    CheckOk(db.Execute("delete s where s.k >= 0").status(), "churn delete");
  };

  for (int i = 0; i < 8; ++i) churn_round();  // adaptive settles

  Timer timer;
  for (int i = 0; i < commands; ++i) churn_round();
  const double seconds = timer.ElapsedSeconds();
  if (replans != nullptr) *replans = TotalReplans(&db);
  return seconds > 0 ? (2.0 * commands) / seconds : 0;
}

// ---------------------------------------------------------------------------
// Mid-run shift: probe-heavy, then churn-heavy; the adaptive engine starts
// on the scan shape, converges, then re-plans again when the workload
// flips. Statics stay where they were installed.
// ---------------------------------------------------------------------------

struct ShiftResult {
  double phase1_token_ms;
  double phase2_cmds_per_sec;
  uint64_t replans;
  double replan_latency_us;  // adaptive config only
};

ShiftResult RunShift(Config config, int size, int phase_scale) {
  PinAdaptiveEnv(config == Config::kAdaptive);
  DatabaseOptions options;
  options.auto_activate_rules = false;
  options.alpha_policy.mode = ModeFor(config);
  Database db(options);

  CheckOk(db.Execute("create r (k = int, pad = int)").status(), "create r");
  CheckOk(db.Execute("create s (k = int, pad = int)").status(), "create s");
  CheckOk(db.Execute("create sink (x = int)").status(), "create sink");
  CheckOk(db.Execute("define index on r (k)").status(), "index r");
  if (config == Config::kBtree) {
    CheckOk(db.Execute("define index on s (k)").status(), "index s");
  }
  CheckOk(db.Execute("define rule shift if r.k = s.k "
                     "then append to sink (x = 1)")
              .status(),
          "define rule");

  HeapRelation* r = db.catalog().GetRelation("r");
  HeapRelation* s = db.catalog().GetRelation("s");
  for (int i = 0; i < size; ++i) {
    CheckOk(db.transitions()
                .Insert(s, Tuple(std::vector<Value>{Value::Int(i),
                                                    Value::Int(0)}))
                .status(),
            "populate s");
  }
  CheckOk(db.rules().ActivateRule("shift"), "activate");

  const HistogramData replans_before = ReplanHistogram();

  // Phase 1: probe-heavy (tokens through r, s static).
  auto probe_tokens = [&](int count) {
    for (int i = 0; i < count; ++i) {
      CheckOk(db.Execute("append r (k = " + std::to_string((i * 37) % size) +
                         ", pad = 0)")
                  .status(),
              "probe token");
      if ((i + 1) % 16 == 0) {
        for (TupleId tid : r->AllTupleIds()) {
          CheckOk(db.transitions().Delete(r, tid), "probe cleanup");
        }
      }
    }
  };
  probe_tokens(96);  // adaptive converges scan -> stored + hash here
  const int phase1_tokens = 32 * phase_scale;
  Timer timer;
  probe_tokens(phase1_tokens);
  ShiftResult out;
  out.phase1_token_ms = timer.ElapsedMillis() / phase1_tokens;

  // Phase 2: the workload flips to churn through s (appends above the key
  // range so nothing matches, bulk-deleted each round). The delete selects
  // on pad, not k, so every config's delete scans s alike and only the
  // network differs, with or without a B+tree on s.
  int next_key = size;
  auto churn_round = [&]() {
    std::string block = "do";
    for (int i = 0; i < 32; ++i) {
      block += " append s (k = " + std::to_string(size + (next_key++ % 4096)) +
               ", pad = 1)";
    }
    block += " end";
    CheckOk(db.Execute(block).status(), "shift churn append");
    CheckOk(db.Execute("delete s where s.pad = 1").status(),
            "shift churn delete");
  };
  for (int i = 0; i < 8; ++i) churn_round();  // adaptive re-plans here
  const int phase2_rounds = 4 * phase_scale;
  timer.Reset();
  for (int i = 0; i < phase2_rounds; ++i) churn_round();
  const double seconds = timer.ElapsedSeconds();
  out.phase2_cmds_per_sec = seconds > 0 ? (2.0 * phase2_rounds) / seconds : 0;

  out.replans = TotalReplans(&db);
  const HistogramData replans_after = ReplanHistogram();
  const uint64_t count = replans_after.count - replans_before.count;
  out.replan_latency_us =
      count > 0 ? static_cast<double>(replans_after.sum - replans_before.sum) /
                      static_cast<double>(count) / 1000.0
                : 0;
  return out;
}

}  // namespace

int main() {
  BenchReporter reporter("adaptive_optimizer");
  const bool smoke = SmokeMode();
  const int trials = smoke ? 1 : 3;
  const std::vector<int> sizes = smoke ? std::vector<int>{200}
                                       : std::vector<int>{100, 1000, 10000};

  std::printf("=== adaptive vs static: probe-heavy join sweep ===\n");
  std::printf("(adaptive starts on the scan shape and must converge)\n");
  std::printf("%-10s %-10s %-16s %-8s\n", "config", "size", "token test(ms)",
              "replans");
  for (int size : sizes) {
    double best_static = 0;
    double adaptive_ms = 0;
    for (Config config : {Config::kScan, Config::kHash, Config::kBtree,
                          Config::kAdaptive}) {
      JoinPoint point = RunJoinPoint(config, size, trials);
      std::printf("%-10s %-10d %-16.4f %-8llu\n", ConfigName(config), size,
                  point.token_ms,
                  static_cast<unsigned long long>(point.replans));
      reporter.AddResult("join_" + std::string(ConfigName(config)) + "_n" +
                             std::to_string(size) + "_token_ms",
                         point.token_ms);
      if (config == Config::kAdaptive) {
        adaptive_ms = point.token_ms;
      } else if (best_static == 0 || point.token_ms < best_static) {
        best_static = point.token_ms;
      }
    }
    std::printf("  -> adaptive %.4f ms vs best static %.4f ms\n", adaptive_ms,
                best_static);
  }

  std::printf("\n=== adaptive vs static: bulk churn sweep ===\n");
  std::printf("(best shape is a per-memory split only adaptation reaches)\n");
  std::printf("%-10s %-18s %-8s\n", "config", "commands/sec", "replans");
  const int churn_commands = smoke ? 4 : 32;
  for (Config config :
       {Config::kHash, Config::kBtree, Config::kAdaptive}) {
    // The whole scenario repeats per trial (adaptation is one-way within a
    // database, so repetition means fresh engines) and the median tames the
    // run-to-run noise of wall-clock throughput.
    uint64_t replans = 0;
    std::vector<double> samples;
    for (int t = 0; t < trials; ++t) {
      samples.push_back(RunChurnPoint(config, churn_commands, &replans));
    }
    const double cps = Median(&samples);
    std::printf("%-10s %-18.1f %-8llu\n", ConfigName(config), cps,
                static_cast<unsigned long long>(replans));
    reporter.AddResult(
        "churn_" + std::string(ConfigName(config)) + "_cmds_per_sec", cps);
  }

  std::printf("\n=== mid-run workload shift ===\n");
  std::printf("(probe-heavy, then churn-heavy; statics keep their installed "
              "shape)\n");
  std::printf("%-10s %-20s %-20s %-8s %-16s\n", "config", "p1 token(ms)",
              "p2 commands/sec", "replans", "replan lat(us)");
  const int shift_size = smoke ? 200 : 4000;
  const int phase_scale = smoke ? 1 : 4;
  for (Config config : {Config::kScan, Config::kHash, Config::kBtree,
                        Config::kAdaptive}) {
    std::vector<double> p1_samples, p2_samples;
    ShiftResult result{};
    for (int t = 0; t < trials; ++t) {
      result = RunShift(config, shift_size, phase_scale);
      p1_samples.push_back(result.phase1_token_ms);
      p2_samples.push_back(result.phase2_cmds_per_sec);
    }
    result.phase1_token_ms = Median(&p1_samples);
    result.phase2_cmds_per_sec = Median(&p2_samples);
    std::printf("%-10s %-20.4f %-20.1f %-8llu %-16.1f\n", ConfigName(config),
                result.phase1_token_ms, result.phase2_cmds_per_sec,
                static_cast<unsigned long long>(result.replans),
                result.replan_latency_us);
    const std::string prefix = "shift_" + std::string(ConfigName(config));
    reporter.AddResult(prefix + "_phase1_token_ms", result.phase1_token_ms);
    reporter.AddResult(prefix + "_phase2_cmds_per_sec",
                       result.phase2_cmds_per_sec);
    if (config == Config::kAdaptive) {
      reporter.AddResult("shift_replans",
                         static_cast<double>(result.replans));
      reporter.AddResult("shift_replan_latency_us", result.replan_latency_us);
    }
  }
  return 0;
}
