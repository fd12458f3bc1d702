// Unit tests for the adaptive network optimizer's cost model and hysteresis
// (DESIGN.md §14). The model is exercised on hand-built observations — no
// database needed — so every test pins one qualitative property the
// re-planner relies on: keyed hash probes beat scans, columnar amortizes
// only from the network's prefilter gate on, churn-heavy rarely-probed
// memories demote to virtual, probe-heavy ones promote to stored, Rete wins
// late-arrival workloads and loses minus-heavy ones, and the derived TREAT
// probe order binds keyed memories before expensive scans. The hysteresis tests prove
// the Evaluate gate never flip-flops on stable statistics.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "network/adaptive_optimizer.h"

namespace ariel {
namespace {

VarObservation Var(const char* name, size_t relation_size,
                   size_t stored_entries, double selectivity, bool equijoin,
                   bool btree, uint64_t arrivals,
                   AlphaKind kind = AlphaKind::kStored) {
  VarObservation v;
  v.name = name;
  v.kind = kind;
  v.relation_id = 0;
  v.relation_size = relation_size;
  v.stored_entries = stored_entries;
  v.selectivity = selectivity;
  v.has_equijoin = equijoin;
  v.has_btree_path = btree;
  v.replannable = kind == AlphaKind::kStored || kind == AlphaKind::kVirtual;
  v.arrivals = arrivals;
  return v;
}

RuleObservation Obs(const char* rule, std::vector<VarObservation> vars) {
  RuleObservation obs;
  obs.rule = rule;
  obs.vars = std::move(vars);
  for (const VarObservation& v : obs.vars) obs.arrivals += v.arrivals;
  obs.plus_tokens = obs.arrivals;
  return obs;
}

NetworkStrategy AllStored(size_t n) {
  NetworkStrategy s;
  s.alpha = NetworkStrategy::AlphaChoice::kAllStored;
  s.alpha_stored.assign(n, 1);
  return s;
}

TEST(AdaptiveCostModelTest, ZeroTrafficCostsNothing) {
  RuleObservation obs = Obs("idle", {Var("a", 100, 100, 1.0, true, false, 0),
                                     Var("b", 100, 100, 1.0, true, false, 0)});
  EXPECT_EQ(AdaptiveOptimizer::ModelCost(obs, AllStored(2)), 0.0);
}

TEST(AdaptiveCostModelTest, HashIndexCheapensEquijoinProbes) {
  // Stored memories always hash their equijoin keys: the keyed rule probes
  // a bucket where the same rule without a bound key scans every entry.
  auto rule = [](bool keyed) {
    return Obs("r", {Var("emp", 10000, 10000, 1.0, keyed, false, 1000),
                     Var("dept", 10000, 10000, 1.0, keyed, false, 1000)});
  };
  EXPECT_LT(AdaptiveOptimizer::ModelCost(rule(true), AllStored(2)),
            AdaptiveOptimizer::ModelCost(rule(false), AllStored(2)));
}

TEST(AdaptiveCostModelTest, ColumnarAmortizesOnlyAboveBreakEven) {
  // A banded (non-equijoin) probe has to scan the partner memory. From the
  // network's prefilter gate on, a columnar mask cuts the per-row cost but
  // pays a per-scan setup; below it every entry is tested row by row.
  auto banded = [](size_t entries) {
    return AdaptiveOptimizer::ModelCost(
        Obs("band", {Var("emp", entries, entries, 1.0, false, false, 100),
                     Var("dept", entries, entries, 1.0, false, false, 0)}),
        AllStored(2));
  };
  const size_t gate = kColumnarPrefilterMinEntries;
  // The mask setup is paid off right at the gate: one more entry makes
  // the scan cheaper, not dearer.
  EXPECT_LT(banded(gate), banded(gate - 1));
  // Above the gate an added entry costs less than it does below it.
  EXPECT_LT(banded(gate + 1) - banded(gate),
            banded(gate - 1) - banded(gate - 2));
}

TEST(AdaptiveCostModelTest, ChurnHeavyRarelyProbedMemoryDemotesToVirtual) {
  // dept absorbs almost all tokens but is probed only by emp's ten
  // arrivals, and a B+tree on the join attribute gives the virtual shape a
  // log-cost probe path: storing dept buys nothing and pays upkeep on
  // every arrival.
  RuleObservation obs =
      Obs("churn", {Var("emp", 1000, 900, 0.9, true, true, 10),
                    Var("dept", 1000, 1000, 1.0, true, true, 100000)});
  AdaptiveOptimizer opt;
  double best_cost = 0;
  NetworkStrategy best = opt.BestStrategy(obs, &best_cost);
  ASSERT_EQ(best.alpha_stored.size(), 2u);
  EXPECT_EQ(best.alpha_stored[1], 0) << "churn-heavy dept should be virtual";
  EXPECT_EQ(best.alpha_stored[0], 1) << "probe-heavy emp should stay stored";
  EXPECT_LT(best_cost, AdaptiveOptimizer::ModelCost(obs, AllStored(2)));
}

TEST(AdaptiveCostModelTest, ProbeHeavyMemoryPromotesToStored) {
  // The mirror image: dept is probed 100000 times, has no B+tree path (a
  // virtual probe is a full base-relation scan), and almost never changes.
  RuleObservation obs =
      Obs("probe", {Var("emp", 1000, 0, 0.9, true, false, 100000,
                        AlphaKind::kVirtual),
                    Var("dept", 1000, 0, 1.0, true, false, 10,
                        AlphaKind::kVirtual)});
  AdaptiveOptimizer opt;
  AdaptiveOptimizer::Decision decision = opt.Evaluate(obs);
  EXPECT_TRUE(decision.replan) << decision.reason;
  ASSERT_EQ(decision.strategy.alpha_stored.size(), 2u);
  EXPECT_EQ(decision.strategy.alpha_stored[1], 1)
      << "probe-heavy dept should be promoted to stored";
}

TEST(AdaptiveCostModelTest, ReteWinsWhenTokensArriveLate) {
  // All tokens arrive at the last variable of a three-variable chain: Rete
  // answers each with one β probe where TREAT re-walks both earlier
  // memories.
  RuleObservation obs =
      Obs("late", {Var("a", 1000, 1000, 1.0, true, false, 0),
                   Var("b", 1000, 1000, 1.0, true, false, 0),
                   Var("c", 1000, 1000, 1.0, true, false, 10000)});
  NetworkStrategy treat = AllStored(3);
  NetworkStrategy rete = AllStored(3);
  rete.backend = JoinBackend::kRete;
  EXPECT_LT(AdaptiveOptimizer::ModelCost(obs, rete),
            AdaptiveOptimizer::ModelCost(obs, treat));
  AdaptiveOptimizer opt;
  NetworkStrategy best = opt.BestStrategy(obs, nullptr);
  EXPECT_EQ(best.backend, JoinBackend::kRete);
}

TEST(AdaptiveCostModelTest, TreatWinsMinusHeavyEarlyArrivals) {
  // Tokens arrive at the first variable and half of them are retractions:
  // Rete pays β upkeep on every assert and a β retraction walk on every
  // delete, on top of the same rightward extension TREAT does.
  RuleObservation obs =
      Obs("churny", {Var("a", 1000, 1000, 1.0, true, false, 10000),
                     Var("b", 1000, 1000, 1.0, true, false, 0),
                     Var("c", 1000, 1000, 1.0, true, false, 0)});
  obs.plus_tokens = 5000;
  obs.minus_tokens = 5000;
  NetworkStrategy treat = AllStored(3);
  NetworkStrategy rete = AllStored(3);
  rete.backend = JoinBackend::kRete;
  EXPECT_LT(AdaptiveOptimizer::ModelCost(obs, treat),
            AdaptiveOptimizer::ModelCost(obs, rete));
  AdaptiveOptimizer opt;
  NetworkStrategy best = opt.BestStrategy(obs, nullptr);
  EXPECT_EQ(best.backend, JoinBackend::kTreat);
}

TEST(AdaptiveCostModelTest, DerivedJoinOrderBindsKeyedMemoriesFirst) {
  // Variable 1 is an unkeyed 300-entry scan with heavy fan-out; variable 2
  // is a hash-keyed 5000-entry memory. The built-in heuristic probes by
  // ascending cardinality (b before c) and lets b's fan-out amplify the c
  // probe; the derived walk orders by access cost and binds the keyed
  // memory first, so an explicit plan strictly beats the heuristic.
  RuleObservation obs =
      Obs("order3", {Var("a", 100, 100, 1.0, true, false, 1000),
                     Var("b", 300, 300, 1.0, false, false, 0),
                     Var("c", 5000, 5000, 1.0, true, false, 0)});
  AdaptiveOptimizer opt;
  NetworkStrategy best = opt.BestStrategy(obs, nullptr);
  ASSERT_EQ(best.backend, JoinBackend::kTreat);
  ASSERT_EQ(best.join_order.size(), 3u);
  size_t pos_scan = 0, pos_keyed = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (best.join_order[i] == 1) pos_scan = i;
    if (best.join_order[i] == 2) pos_keyed = i;
  }
  EXPECT_LT(pos_keyed, pos_scan);

  // The model itself agrees: an explicit keyed-first order undercuts the
  // scan-first one.
  NetworkStrategy keyed_first = AllStored(3);
  keyed_first.join_order = {0, 2, 1};
  NetworkStrategy scan_first = AllStored(3);
  scan_first.join_order = {0, 1, 2};
  EXPECT_LT(AdaptiveOptimizer::ModelCost(obs, keyed_first),
            AdaptiveOptimizer::ModelCost(obs, scan_first));
}

TEST(AdaptiveCostModelTest, StrategyEqualityComparesResolvedSplit) {
  // The enum + threshold are a derivation; two strategies resolving to the
  // same per-variable split describe the same network.
  NetworkStrategy a = AllStored(2);
  NetworkStrategy b = AllStored(2);
  b.alpha = NetworkStrategy::AlphaChoice::kThreshold;
  b.virtual_threshold = 1e9;
  EXPECT_TRUE(a == b);
  b.alpha_stored[1] = 0;
  EXPECT_TRUE(a != b);
}

TEST(AdaptiveCostModelTest, NonReplannableKindsKeepTheirShape) {
  // An on-event (dynamic) memory must never be demoted by an all-virtual
  // candidate: its modeled cost is identical under both α choices.
  RuleObservation obs =
      Obs("evt", {Var("on_emp", 1000, 10, 1.0, true, false, 500,
                      AlphaKind::kDynamicOn),
                  Var("dept", 1000, 1000, 1.0, true, true, 500)});
  obs.pure_pattern = false;
  AdaptiveOptimizer opt;
  NetworkStrategy best = opt.BestStrategy(obs, nullptr);
  EXPECT_EQ(best.backend, JoinBackend::kTreat);  // Rete unavailable
  ASSERT_EQ(best.alpha_stored.size(), 2u);
  EXPECT_EQ(best.alpha_stored[0], 1) << "dynamic memory stays materialized";
}

// ---------------------------------------------------------------------------
// Hysteresis
// ---------------------------------------------------------------------------

/// A workload whose best shape clearly beats the all-virtual shape it
/// currently runs (the ProbeHeavyMemoryPromotesToStored scenario).
RuleObservation Lopsided(uint64_t scale) {
  RuleObservation obs =
      Obs("lop", {Var("emp", 1000, 0, 0.9, true, false, 100 * scale,
                      AlphaKind::kVirtual),
                  Var("dept", 1000, 0, 1.0, true, false, 1 * scale,
                      AlphaKind::kVirtual)});
  return obs;
}

TEST(AdaptiveHysteresisTest, NoFlipFlopOnStableStats) {
  AdaptiveOptimizer opt;
  AdaptiveOptimizer::Decision first = opt.Evaluate(Lopsided(1000));
  ASSERT_TRUE(first.replan) << first.reason;
  opt.NoteReplanned(Lopsided(1000));

  // The rule now runs the proposed shape; the workload keeps the same
  // proportions well past the cooldown window (the statistics window after
  // the re-plan sees the same lopsided traffic). The optimizer must leave
  // it alone.
  RuleObservation settled = Lopsided(2000);
  ASSERT_EQ(first.strategy.alpha_stored.size(), 2u);
  for (size_t i = 0; i < settled.vars.size(); ++i) {
    settled.vars[i].kind = first.strategy.alpha_stored[i] != 0
                               ? AlphaKind::kStored
                               : AlphaKind::kVirtual;
    if (settled.vars[i].kind == AlphaKind::kStored) {
      settled.vars[i].stored_entries = static_cast<size_t>(
          static_cast<double>(settled.vars[i].relation_size) *
          settled.vars[i].selectivity);
    }
  }
  settled.backend = first.strategy.backend;
  settled.planned_join_order = first.strategy.join_order;
  AdaptiveOptimizer::Decision second = opt.Evaluate(settled);
  EXPECT_FALSE(second.replan) << second.reason;
  EXPECT_TRUE(second.strategy == second.current) << second.reason;
}

TEST(AdaptiveHysteresisTest, MinTokensCooldownBlocksBackToBackReplans) {
  AdaptiveConfig config;
  config.min_tokens = 64;
  AdaptiveOptimizer opt(config);
  ASSERT_TRUE(opt.Evaluate(Lopsided(10)).replan);
  opt.NoteReplanned(Lopsided(10));

  // The same lopsided traffic continues (the caller deliberately did not
  // rebuild): only 63 further tokens have arrived since the re-plan, so
  // the gate holds even though the margin would pass.
  RuleObservation starved = Lopsided(10);
  starved.arrivals += 63;
  starved.vars[0].arrivals += 63;
  AdaptiveOptimizer::Decision blocked = opt.Evaluate(starved);
  EXPECT_FALSE(blocked.replan);
  EXPECT_EQ(blocked.reason, "cooldown");

  starved.arrivals += 1;
  starved.vars[0].arrivals += 1;
  EXPECT_TRUE(opt.Evaluate(starved).replan);
}

TEST(AdaptiveHysteresisTest, StatisticsWindowResetsAtReplan) {
  // Phase 1 is probe-heavy on emp; the optimizer re-plans and snapshots
  // the counters. Phase 2 sends traffic only through dept, so the window
  // must price dept as the hot memory and emp as the probed one —
  // lifetime totals would still be dominated by phase 1.
  AdaptiveConfig config;
  config.min_tokens = 0;
  AdaptiveOptimizer opt(config);
  RuleObservation phase1 = Lopsided(1000);  // emp 100000, dept 1000
  ASSERT_TRUE(opt.Evaluate(phase1).replan);
  opt.NoteReplanned(phase1);

  RuleObservation phase2 = Lopsided(1000);
  phase2.vars[1].arrivals += 100000;  // the shift: dept churns, emp idles
  phase2.arrivals += 100000;
  phase2.plus_tokens += 100000;
  AdaptiveOptimizer::Decision decision = opt.Evaluate(phase2);
  ASSERT_TRUE(decision.replan) << decision.reason;
  ASSERT_EQ(decision.strategy.alpha_stored.size(), 2u);
  EXPECT_EQ(decision.strategy.alpha_stored[0], 1)
      << "emp is now the probed side and must be materialized";
  EXPECT_EQ(decision.strategy.alpha_stored[1], 0)
      << "dept is pure churn and must not pay stored upkeep";
}

TEST(AdaptiveHysteresisTest, EvaluationCadenceFollowsMinTokens) {
  AdaptiveConfig config;
  config.min_tokens = 64;  // stride = min_tokens / 4 = 16
  AdaptiveOptimizer opt(config);
  EXPECT_FALSE(opt.ShouldEvaluate("r", 0));
  EXPECT_FALSE(opt.ShouldEvaluate("r", 15));
  EXPECT_TRUE(opt.ShouldEvaluate("r", 16));
  EXPECT_FALSE(opt.ShouldEvaluate("r", 31));
  EXPECT_TRUE(opt.ShouldEvaluate("r", 32));

  // min_tokens = 0 (the forced test/bench mode) degenerates to "any new
  // token", never "every command".
  AdaptiveConfig eager;
  eager.min_tokens = 0;
  AdaptiveOptimizer eager_opt(eager);
  EXPECT_FALSE(eager_opt.ShouldEvaluate("r", 0));
  EXPECT_TRUE(eager_opt.ShouldEvaluate("r", 1));
  EXPECT_FALSE(eager_opt.ShouldEvaluate("r", 1));
  EXPECT_TRUE(eager_opt.ShouldEvaluate("r", 2));
}

TEST(AdaptiveHysteresisTest, MarginBlocksSmallGains) {
  AdaptiveConfig config;
  config.min_gain = 0.999;  // only a 1000x improvement may re-plan
  AdaptiveOptimizer opt(config);
  AdaptiveOptimizer::Decision decision = opt.Evaluate(Lopsided(1000));
  EXPECT_FALSE(decision.replan);
  EXPECT_LT(decision.best_cost, decision.current_cost);
}

TEST(AdaptiveHysteresisTest, NegativeMinGainForcesInPlaceRebuild) {
  // Test/bench mode: a negative margin re-plans every evaluated rule with
  // modeled traffic, even onto the very shape it already runs.
  RuleObservation obs =
      Obs("stable", {Var("emp", 100, 90, 0.9, true, false, 50),
                     Var("dept", 8, 8, 1.0, true, false, 2)});
  AdaptiveConfig config;
  config.min_gain = -1.0;
  config.min_tokens = 0;
  AdaptiveOptimizer opt(config);
  AdaptiveOptimizer::Decision decision = opt.Evaluate(obs);
  EXPECT_TRUE(decision.replan) << decision.reason;

  // Zero-traffic rules stay untouched even in forced mode.
  RuleObservation idle = Obs("idle", {Var("a", 10, 10, 1.0, true, false, 0)});
  EXPECT_FALSE(opt.Evaluate(idle).replan);
}

TEST(AdaptiveHysteresisTest, ReplanCounterTracksNotes) {
  AdaptiveOptimizer opt;
  EXPECT_EQ(opt.replans("r"), 0u);
  RuleObservation obs;
  obs.rule = "r";
  opt.NoteReplanned(obs);
  opt.NoteReplanned(obs);
  EXPECT_EQ(opt.replans("r"), 2u);
  EXPECT_EQ(opt.replans("other"), 0u);
}

}  // namespace
}  // namespace ariel
