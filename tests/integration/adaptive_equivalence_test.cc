// Re-plan equivalence: rebuilding a rule's network at run time — same shape
// or a different one — must be invisible to every observable output,
// because the α/β state is a pure function of the base relations and the
// history-dependent conflict set is carried across the swap
// (PNode::CaptureState/RestoreState). The suite runs one scripted workload
// under {TREAT, Rete} × {all-stored, all-virtual} × {batch 0, 1024} ×
// {row, columnar} and asserts byte-identical DebugDumpState plus a clean
// NetworkAuditor for:
//   1. a twin that re-plans every rule onto its *current* shape after every
//      command (rebuild-in-place), against a twin that never re-plans;
//   2. a twin running the adaptive optimizer in forced mode
//      (adaptive_min_gain < 0 re-plans at every quiescence), normalized
//      back onto the install-time shape before the final comparison.
//
// The workload keeps joins on unique keys (each emp token matches at most
// one dept and one job row) so P-node insertion order — and therefore tid
// assignment — is independent of probe order and memory layout.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "network/adaptive_optimizer.h"
#include "util/metrics.h"
#include "util/random.h"

namespace ariel {
namespace {

struct AdaptiveParams {
  const char* name;
  JoinBackend backend;
  AlphaMemoryPolicy::Mode mode;
  size_t batch_tokens;
  bool columnar;
};

enum class Variant {
  kBaseline,           // never re-plans
  kRebuildEachCommand, // re-plans onto the current shape after every command
  kForcedAdaptive,     // ARIEL_ADAPTIVE with a negative hysteresis margin
};

struct Snapshot {
  std::string dump;
  uint64_t replans = 0;  // summed over the workload rules
};

void PinEnv(const AdaptiveParams& p, Variant variant) {
  // These env vars override DatabaseOptions, so pin them per scenario: the
  // suite must behave identically no matter what the surrounding CI job
  // exports.
  ASSERT_EQ(setenv("ARIEL_ADAPTIVE",
                   variant == Variant::kForcedAdaptive ? "1" : "0",
                   /*overwrite=*/1),
            0);
  ASSERT_EQ(setenv("ARIEL_BATCH_TOKENS",
                   std::to_string(p.batch_tokens).c_str(), 1),
            0);
}

const char* const kRules[] = {"r2", "r3"};

/// The install-time shape every network starts from under `p` — and the
/// shape the forced-adaptive twin is normalized back onto before the dump
/// comparison.
NetworkStrategy InstallShape(const AdaptiveParams& p, size_t num_vars) {
  NetworkStrategy s;
  s.backend = p.backend;
  const bool stored = p.mode == AlphaMemoryPolicy::Mode::kAllStored;
  s.alpha = stored ? NetworkStrategy::AlphaChoice::kAllStored
                   : NetworkStrategy::AlphaChoice::kAllVirtual;
  s.alpha_stored.assign(num_vars, stored ? 1 : 0);
  return s;
}

void RunScenario(const AdaptiveParams& p, Variant variant, Snapshot* snap) {
  PinEnv(p, variant);
  // The firing-trace ring is process-global and cumulative; clear it so
  // DebugDumpState's trace section only covers this scenario's firings.
  Metrics().firing_trace.Clear();

  DatabaseOptions options;
  options.alpha_policy.mode = p.mode;
  options.join_backend = p.backend;
  options.batch_tokens = p.batch_tokens;
  options.optimizer.columnar_exec = p.columnar;
  options.auto_activate_rules = false;
  if (variant == Variant::kForcedAdaptive) {
    options.adaptive_optimize = true;
    options.adaptive_min_gain = -1.0;  // re-plan at every quiescence
    options.adaptive_min_tokens = 0;
  }
  Database db(options);

  auto exec = [&](const std::string& script) {
    auto r = db.Execute(script);
    EXPECT_TRUE(r.ok()) << script << ": " << r.status().ToString();
  };

  // Re-plans the rule onto the shape it runs right now: a pure
  // rebuild-from-heap that must preserve every observable.
  auto rebuild_in_place = [&]() {
    for (const char* name : kRules) {
      Rule* rule = db.rules().GetRule(name);
      ASSERT_NE(rule, nullptr);
      RuleObservation obs = CollectObservation(
          *rule->network, &db.network().selection_network());
      ASSERT_OK(db.rules().ReplanRule(
          name, AdaptiveOptimizer::CurrentStrategy(obs)));
    }
  };

  auto audit = [&](int op) {
    auto violations = db.AuditNetwork();
    ASSERT_OK(violations.status());
    for (const AuditViolation& v : *violations) {
      ADD_FAILURE() << "op " << op << ": network violation " << v.ToString();
    }
  };

  exec("create emp (name = string, sal = int, dno = int, jno = int)");
  exec("create dept (dno = int, name = string)");
  exec("create job (jno = int, paygrade = int)");
  exec("create sink (x = int)");
  // B+tree paths on the join keys give the virtual shapes an index probe
  // and the adaptive cost model a real stored-vs-virtual tradeoff.
  exec("define index on dept (dno)");
  exec("define index on job (jno)");
  exec("define index on emp (dno)");

  exec("define rule r2 if emp.sal > 10 and emp.dno = dept.dno "
       "then append to sink (x = 1)");
  exec("define rule r3 if emp.sal > 5 and emp.dno = dept.dno and "
       "emp.jno = job.jno and job.paygrade >= 2 "
       "then append to sink (x = 2)");

  // Unique join keys, loaded before activation and never touched after:
  // every emp token matches at most one dept and one job.
  for (int d = 1; d <= 8; ++d) {
    exec("append dept (dno = " + std::to_string(d) + ", name = \"d" +
         std::to_string(d) + "\")");
  }
  for (int j = 1; j <= 5; ++j) {
    exec("append job (jno = " + std::to_string(j) + ", paygrade = " +
         std::to_string(j) + ")");
  }
  for (int i = 0; i < 10; ++i) {
    exec("append emp (name = \"seed" + std::to_string(i) + "\", sal = " +
         std::to_string(20 + i * 13) + ", dno = " +
         std::to_string(1 + i % 8) + ", jno = " +
         std::to_string(1 + i % 5) + ")");
  }
  for (const char* name : kRules) {
    ASSERT_OK(db.rules().ActivateRule(name));
  }

  // Deterministic emp-only update stream through the full command path
  // (each command is a quiescence point, so the forced-adaptive twin
  // re-plans after every one of them).
  Random rng(41);
  std::vector<std::string> live;
  int next_emp = 0;
  auto append_cmd = [&]() {
    std::string name = "e" + std::to_string(next_emp++);
    live.push_back(name);
    return "append emp (name = \"" + name + "\", sal = " +
           std::to_string(rng.UniformRange(0, 150)) + ", dno = " +
           std::to_string(rng.UniformRange(1, 8)) + ", jno = " +
           std::to_string(rng.UniformRange(1, 5)) + ")";
  };
  for (int op = 0; op < 90; ++op) {
    if (op % 15 == 14) {
      // A multi-command transition: under batch_tokens > 0 its tokens are
      // staged and flushed as one Δ-set.
      exec("do " + append_cmd() + " " + append_cmd() + " " + append_cmd() +
           " end");
    } else {
      const int choice = static_cast<int>(rng.Uniform(100));
      if (choice < 55 || live.size() < 4) {
        exec(append_cmd());
      } else if (choice < 80) {
        const size_t victim = rng.Uniform(live.size());
        exec("delete emp where emp.name = \"" + live[victim] + "\"");
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      } else {
        const size_t victim = rng.Uniform(live.size());
        exec("replace emp (sal = " +
             std::to_string(rng.UniformRange(0, 150)) + ", dno = " +
             std::to_string(rng.UniformRange(1, 8)) + ") where emp.name = \"" +
             live[victim] + "\"");
      }
    }
    if (variant == Variant::kRebuildEachCommand) rebuild_in_place();
    if (op % 15 == 0) audit(op);
  }

  for (const char* name : kRules) {
    Rule* rule = db.rules().GetRule(name);
    ASSERT_NE(rule, nullptr);
    snap->replans += rule->replans;
  }
  if (variant == Variant::kForcedAdaptive) {
    // The adaptive twin may be running any shape by now; re-plan it back
    // onto the install-time shape so the dump's layout-dependent sections
    // (stored-α entries, β rows) line up with the baseline's.
    for (const char* name : kRules) {
      Rule* rule = db.rules().GetRule(name);
      ASSERT_NE(rule, nullptr);
      ASSERT_OK(db.rules().ReplanRule(
          name, InstallShape(p, rule->network->num_vars())));
    }
  }
  audit(90);
  snap->dump = db.DebugDumpState();
}

class AdaptiveEquivalenceTest
    : public ::testing::TestWithParam<AdaptiveParams> {};

TEST_P(AdaptiveEquivalenceTest, RebuildInPlaceIsInvisible) {
  Snapshot baseline, rebuilt;
  RunScenario(GetParam(), Variant::kBaseline, &baseline);
  RunScenario(GetParam(), Variant::kRebuildEachCommand, &rebuilt);
  EXPECT_EQ(baseline.replans, 0u);
  EXPECT_GT(rebuilt.replans, 0u);
  EXPECT_EQ(rebuilt.dump, baseline.dump) << "DebugDumpState drifted";
}

TEST_P(AdaptiveEquivalenceTest, ForcedAdaptationPreservesState) {
  Snapshot baseline, adapted;
  RunScenario(GetParam(), Variant::kBaseline, &baseline);
  const uint64_t replans_before = Metrics().adaptive_replans.value();
  RunScenario(GetParam(), Variant::kForcedAdaptive, &adapted);
  // The forced margin re-planned at quiescence points (the final
  // normalization adds a few more to the per-rule counters).
  EXPECT_GT(adapted.replans, 2u);
  EXPECT_GT(Metrics().adaptive_replans.value(), replans_before);
  EXPECT_EQ(adapted.dump, baseline.dump) << "DebugDumpState drifted";
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, AdaptiveEquivalenceTest,
    ::testing::Values(
        AdaptiveParams{"treat_stored_b0_row", JoinBackend::kTreat,
                       AlphaMemoryPolicy::Mode::kAllStored, 0, false},
        AdaptiveParams{"treat_stored_b0_col", JoinBackend::kTreat,
                       AlphaMemoryPolicy::Mode::kAllStored, 0, true},
        AdaptiveParams{"treat_stored_b1024_row", JoinBackend::kTreat,
                       AlphaMemoryPolicy::Mode::kAllStored, 1024, false},
        AdaptiveParams{"treat_stored_b1024_col", JoinBackend::kTreat,
                       AlphaMemoryPolicy::Mode::kAllStored, 1024, true},
        AdaptiveParams{"treat_virtual_b0_row", JoinBackend::kTreat,
                       AlphaMemoryPolicy::Mode::kAllVirtual, 0, false},
        AdaptiveParams{"treat_virtual_b0_col", JoinBackend::kTreat,
                       AlphaMemoryPolicy::Mode::kAllVirtual, 0, true},
        AdaptiveParams{"treat_virtual_b1024_row", JoinBackend::kTreat,
                       AlphaMemoryPolicy::Mode::kAllVirtual, 1024, false},
        AdaptiveParams{"treat_virtual_b1024_col", JoinBackend::kTreat,
                       AlphaMemoryPolicy::Mode::kAllVirtual, 1024, true},
        AdaptiveParams{"rete_stored_b0_row", JoinBackend::kRete,
                       AlphaMemoryPolicy::Mode::kAllStored, 0, false},
        AdaptiveParams{"rete_stored_b0_col", JoinBackend::kRete,
                       AlphaMemoryPolicy::Mode::kAllStored, 0, true},
        AdaptiveParams{"rete_stored_b1024_row", JoinBackend::kRete,
                       AlphaMemoryPolicy::Mode::kAllStored, 1024, false},
        AdaptiveParams{"rete_stored_b1024_col", JoinBackend::kRete,
                       AlphaMemoryPolicy::Mode::kAllStored, 1024, true},
        AdaptiveParams{"rete_virtual_b0_row", JoinBackend::kRete,
                       AlphaMemoryPolicy::Mode::kAllVirtual, 0, false},
        AdaptiveParams{"rete_virtual_b0_col", JoinBackend::kRete,
                       AlphaMemoryPolicy::Mode::kAllVirtual, 0, true},
        AdaptiveParams{"rete_virtual_b1024_row", JoinBackend::kRete,
                       AlphaMemoryPolicy::Mode::kAllVirtual, 1024, false},
        AdaptiveParams{"rete_virtual_b1024_col", JoinBackend::kRete,
                       AlphaMemoryPolicy::Mode::kAllVirtual, 1024, true}),
    [](const ::testing::TestParamInfo<AdaptiveParams>& info) {
      return info.param.name;
    });

// The observability surface: `show stats` gains an adaptive section and
// `explain rule` reports the live strategy plus the re-plan count.
TEST(AdaptiveObservabilityTest, ShowStatsAndExplainReportStrategy) {
  ASSERT_EQ(setenv("ARIEL_ADAPTIVE", "1", 1), 0);
  ASSERT_EQ(setenv("ARIEL_BATCH_TOKENS", "0", 1), 0);
  DatabaseOptions options;
  options.adaptive_min_gain = -1.0;
  options.adaptive_min_tokens = 0;
  Database db(options);
  ASSERT_OK(db.Execute("create emp (sal = int, dno = int)").status());
  ASSERT_OK(db.Execute("create dept (dno = int, lo = int)").status());
  ASSERT_OK(db.Execute("create sink (x = int)").status());
  ASSERT_OK(db.Execute("define rule watch if emp.sal > 10 and "
                       "emp.dno = dept.dno then append to sink (x = 1)")
                .status());
  ASSERT_OK(db.Execute("append dept (dno = 1, lo = 0)").status());
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(db.Execute("append emp (sal = " + std::to_string(20 + i) +
                         ", dno = 1)")
                  .status());
  }
  const Rule* rule = db.rules().GetRule("watch");
  ASSERT_NE(rule, nullptr);
  EXPECT_GT(rule->replans, 0u) << "forced margin should have re-planned";

  auto stats = db.Execute("show stats");
  ASSERT_OK(stats.status());
  EXPECT_NE(stats->message.find("adaptive optimizer: on"), std::string::npos)
      << stats->message;
  EXPECT_NE(stats->message.find("watch:"), std::string::npos)
      << stats->message;

  auto explain = db.Execute("explain rule watch");
  ASSERT_OK(explain.status());
  EXPECT_NE(explain->message.find("strategy:"), std::string::npos)
      << explain->message;
  EXPECT_NE(explain->message.find("re-planned"), std::string::npos)
      << explain->message;
}

}  // namespace
}  // namespace ariel
