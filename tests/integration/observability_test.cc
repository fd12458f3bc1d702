// End-to-end checks for the engine observability layer: the global metrics
// registry tracks the token lifecycle with exact counts for a scripted
// transition sequence, and the `show stats` / `explain rule` commands
// render it.

#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "util/metrics.h"

namespace ariel {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  ObservabilityTest() : db_(MakeOptions()) {
    // The registry is process-global: start each test from zero.
    Metrics().registry.Reset();
    Metrics().firing_trace.Clear();
  }

  static DatabaseOptions MakeOptions() {
    DatabaseOptions options;
    // Pin the α-memory choice so insertion counts are deterministic.
    options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
    return options;
  }

  Status Exec(const std::string& script) {
    return db_.Execute(script).status();
  }

  static uint64_t Count(const std::string& name) {
    for (const auto& [n, v] : Metrics().registry.Counters()) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "counter not registered: " << name;
    return 0;
  }

  Database db_;
};

#ifndef ARIEL_NO_METRICS

TEST_F(ObservabilityTest, ExactCountersForScriptedAppendSequence) {
  ASSERT_OK(Exec("create t (x = int)"));
  ASSERT_OK(Exec("create out (v = int)"));
  // Bounded range → the condition's interval lives in the skip-list node
  // chain proper, so stabs traverse nodes (isl_node_visits).
  ASSERT_OK(Exec("define rule big on append t "
                 "if t.x > 100 and t.x < 1000 "
                 "then append out (v = 1)"));

  // Three non-matching appends and two matching ones. Each user command is
  // one transition followed by one recognize-act cycle; each of the two
  // rule firings runs its action (one more transition each).
  ASSERT_OK(Exec("append t (x = 5)"));
  ASSERT_OK(Exec("append t (x = 6)"));
  ASSERT_OK(Exec("append t (x = 7)"));
  ASSERT_OK(Exec("append t (x = 200)"));
  ASSERT_OK(Exec("append t (x = 300)"));

  EXPECT_EQ(Count("transitions"), 7u);  // 5 user + 2 rule actions
  EXPECT_EQ(Count("tokens_emitted"), 7u);
  EXPECT_EQ(Count("tokens_plus"), 7u);
  EXPECT_EQ(Count("tokens_minus"), 0u);
  EXPECT_EQ(Count("cycles_run"), 5u);

  // Selection layer: only `t` tokens reach it (`out` has no conditions).
  // One indexed condition on t.x → one index stab per token; the two
  // matching tokens are verified against the full predicate.
  EXPECT_EQ(Count("selection_tokens"), 5u);
  EXPECT_EQ(Count("selection_stabs"), 5u);
  EXPECT_EQ(Count("selection_residual_checks"), 0u);
  EXPECT_EQ(Count("selection_predicate_evals"), 2u);
  EXPECT_EQ(Count("selection_matches"), 2u);
  EXPECT_GT(Count("isl_node_visits"), 0u);

  // α-memory and P-node: the two matches arrive at the rule network and
  // both instantiations are consumed by firings. One-variable rules are
  // "simple" α-memories — matches go straight to the P-node, so no stored
  // entries are created (see the join-rule test below for those).
  EXPECT_EQ(Count("alpha_arrivals"), 2u);
  EXPECT_EQ(Count("alpha_insertions"), 0u);
  EXPECT_EQ(Count("alpha_removals"), 0u);
  EXPECT_EQ(Count("pnode_bindings_created"), 2u);
  EXPECT_EQ(Count("pnode_bindings_consumed"), 2u);
  EXPECT_EQ(Count("rules_fired"), 2u);

  // The firing trace recorded both firings in order.
  EXPECT_EQ(Metrics().firing_trace.total_recorded(), 2u);
  auto recent = Metrics().firing_trace.Recent(10);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].rule, "big");
  EXPECT_EQ(recent[1].rule, "big");
  EXPECT_NE(recent[0].trigger.find("+ token"), std::string::npos);
  EXPECT_EQ(recent[1].instantiations, 1u);
}

TEST_F(ObservabilityTest, JoinRuleCountsAlphaMemoryAndJoinProbes) {
  ASSERT_OK(Exec("create emp (name = string, sal = float, dno = int)"));
  ASSERT_OK(Exec("create dept (dno = int, dname = string)"));
  ASSERT_OK(Exec("create out (v = int)"));
  ASSERT_OK(Exec("define rule pay if emp.dno = dept.dno and "
                 "emp.sal > 100.0 then append out (v = 1)"));

  // dept has no selection predicate → its condition is residual; the token
  // is verified (no predicate to evaluate) and stored in the dept α-memory.
  ASSERT_OK(Exec("append dept (dno = 1, dname = \"sales\")"));
  EXPECT_EQ(Count("selection_residual_checks"), 1u);
  EXPECT_EQ(Count("alpha_insertions"), 1u);
  EXPECT_EQ(Count("join_probes"), 0u);  // emp α-memory is still empty
  EXPECT_EQ(Count("rules_fired"), 0u);

  // The dept token probed emp's (empty) memory through its hash index:
  // a keyed lookup that found nothing, not a scan.
  EXPECT_EQ(Count("join_hash_probes"), 1u);
  EXPECT_EQ(Count("join_hash_hits"), 0u);
  EXPECT_EQ(Count("join_scan_fallbacks"), 0u);

  // The emp token matches its indexed condition, is stored, and probes the
  // one dept entry; the join binds and the rule fires once.
  ASSERT_OK(Exec("append emp (name = \"ann\", sal = 200.0, dno = 1)"));
  EXPECT_EQ(Count("alpha_insertions"), 2u);
  EXPECT_EQ(Count("join_probes"), 1u);
  EXPECT_EQ(Count("join_hash_probes"), 2u);
  EXPECT_EQ(Count("join_hash_hits"), 1u);
  EXPECT_EQ(Count("join_scan_fallbacks"), 0u);
  EXPECT_EQ(Count("pnode_bindings_created"), 1u);
  EXPECT_EQ(Count("pnode_bindings_consumed"), 1u);
  EXPECT_EQ(Count("rules_fired"), 1u);
}

TEST_F(ObservabilityTest, ForcedScanFallbackCountsScansNotHashProbes) {
  // The same join written key-less (no `=` for a hash index to serve) must
  // produce identical firings with every probe downgraded to an entry scan.
  Database scan_db(MakeOptions());
  Metrics().registry.Reset();
  auto exec = [&](const std::string& s) { return scan_db.Execute(s).status(); };
  ASSERT_OK(exec("create emp (name = string, sal = float, dno = int)"));
  ASSERT_OK(exec("create dept (dno = int, dname = string)"));
  ASSERT_OK(exec("create out (v = int)"));
  ASSERT_OK(exec("define rule pay if emp.dno >= dept.dno and "
                 "emp.dno <= dept.dno and emp.sal > 100.0 "
                 "then append out (v = 1)"));
  ASSERT_OK(exec("append dept (dno = 1, dname = \"sales\")"));
  ASSERT_OK(exec("append emp (name = \"ann\", sal = 200.0, dno = 1)"));

  EXPECT_EQ(Count("join_hash_probes"), 0u);
  EXPECT_EQ(Count("join_hash_hits"), 0u);
  EXPECT_EQ(Count("join_scan_fallbacks"), 2u);  // one per token's probe
  EXPECT_EQ(Count("join_probes"), 1u);          // candidates seen, not entries
  EXPECT_EQ(Count("rules_fired"), 1u);
}

TEST_F(ObservabilityTest, VirtualMemoryProbesCountOnlyEmittedCandidates) {
  // Regression for the join_probes over-count: a virtual-memory scan counts
  // candidates actually emitted past the selection filter, not every base
  // tuple inspected.
  DatabaseOptions options;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllVirtual;
  Database vdb(options);
  Metrics().registry.Reset();
  auto exec = [&](const std::string& s) { return vdb.Execute(s).status(); };
  ASSERT_OK(exec("create emp (name = string, sal = float, dno = int)"));
  ASSERT_OK(exec("create dept (dno = int, dname = string)"));
  ASSERT_OK(exec("create out (v = int)"));
  ASSERT_OK(exec("define rule pay if emp.sal > 100.0 and "
                 "emp.dno = dept.dno then append out (v = 1)"));
  ASSERT_OK(exec("append emp (name = \"lo\", sal = 50.0, dno = 1)"));
  ASSERT_OK(exec("append emp (name = \"ann\", sal = 200.0, dno = 1)"));
  ASSERT_OK(exec("append emp (name = \"bob\", sal = 300.0, dno = 1)"));
  ASSERT_OK(exec("append dept (dno = 1, dname = \"sales\")"));

  // The dept token probed emp's join hash index on dno and found all three
  // emp base tuples, but only the two passing emp.sal > 100.0 are join
  // candidates. Both instantiations land in one cycle, so the rule fires
  // once over both.
  EXPECT_EQ(Count("join_probes"), 2u);
  EXPECT_EQ(Count("pnode_bindings_created"), 2u);
  EXPECT_EQ(Count("rules_fired"), 1u);
  // Every join probed a relation index (the two emp tokens found dept still
  // empty); none scanned a base relation.
  EXPECT_EQ(Count("join_hash_probes"), 3u);
  EXPECT_EQ(Count("join_hash_hits"), 3u);
  EXPECT_EQ(Count("virtual_alpha_scans"), 0u);
}

TEST_F(ObservabilityTest, DeltaCaseCountersForModifySequences) {
  ASSERT_OK(Exec("create t (x = int)"));
  ASSERT_OK(Exec("append t (x = 1)"));

  // Case 3 (m+): a pre-existing tuple modified twice in ONE transition —
  // the second modify is the "later modify" that retracts and re-asserts
  // the Δ pair. (Separate commands are separate transitions, and each
  // would be a fresh "first modify".)
  ASSERT_OK(Exec("do replace t (x = 2) where t.x = 1 "
                 "replace t (x = 3) where t.x = 2 end"));
  EXPECT_EQ(Count("delta_case3_first_modify"), 1u);
  EXPECT_EQ(Count("delta_case3_later_modify"), 1u);
  EXPECT_EQ(Count("tokens_delta_plus"), 2u);
  EXPECT_EQ(Count("tokens_delta_minus"), 1u);

  // Case 1 (im*) and case 2 (im*d) inside one explicit transition.
  ASSERT_OK(Exec("do append t (x = 10) replace t (x = 11) where t.x = 10 "
                 "delete t where t.x = 11 end"));
  EXPECT_EQ(Count("delta_case1_reexpressed"), 1u);
  EXPECT_EQ(Count("delta_case2_net_nothing"), 1u);

  // Case 4 (m*d): modify then delete of a pre-existing tuple.
  ASSERT_OK(Exec("do replace t (x = 4) where t.x = 3 "
                 "delete t where t.x = 4 end"));
  EXPECT_EQ(Count("delta_case4_modified_delete"), 1u);
}

TEST_F(ObservabilityTest, ShowStatsRendersNonzeroCountersAndResets) {
  ASSERT_OK(Exec("create t (x = int)"));
  ASSERT_OK(Exec("append t (x = 1)"));

  auto result = db_.Execute("show stats");
  ASSERT_OK(result);
  const std::string& text = result->message;
  EXPECT_NE(text.find("engine statistics:"), std::string::npos);
  EXPECT_NE(text.find("tokens_emitted = 1"), std::string::npos);
  EXPECT_NE(text.find("transitions = 1"), std::string::npos);
  // Zero counters stay out of the report.
  EXPECT_EQ(text.find("rules_fired"), std::string::npos);

  auto reset = db_.Execute("show stats reset");
  ASSERT_OK(reset);
  EXPECT_NE(reset->message.find("(statistics reset)"), std::string::npos);
  EXPECT_EQ(Count("tokens_emitted"), 0u);
}

TEST_F(ObservabilityTest, ShowStatsListsRecentFirings) {
  ASSERT_OK(Exec("create t (x = int)"));
  ASSERT_OK(Exec("create out (v = int)"));
  ASSERT_OK(Exec("define rule big on append t if t.x > 100 "
                 "then append out (v = 1)"));
  ASSERT_OK(Exec("append t (x = 500)"));

  auto result = db_.Execute("show stats");
  ASSERT_OK(result);
  EXPECT_NE(result->message.find("recent rule firings (1 of 1 recorded):"),
            std::string::npos);
  EXPECT_NE(result->message.find("big"), std::string::npos);
}

#endif  // ARIEL_NO_METRICS

// `explain rule` works regardless of whether metrics are compiled in: the
// structural description comes from the network itself.
TEST_F(ObservabilityTest, ExplainRuleShowsIndexedResidualSplit) {
  ASSERT_OK(Exec("create emp (name = string, sal = float, dno = int)"));
  // sal is range-indexable; name = name is not extractable as an interval
  // on a single attribute… use a non-indexable arithmetic residual.
  ASSERT_OK(Exec("define rule pay if emp.sal > 100.0 and "
                 "emp.sal * 2.0 < 1000.0 then delete emp"));

  auto result = db_.Execute("explain rule pay");
  ASSERT_OK(result);
  const std::string& text = result->message;
  EXPECT_NE(text.find("rule pay"), std::string::npos);
  EXPECT_NE(text.find("active"), std::string::npos);
  EXPECT_NE(text.find("selection layer"), std::string::npos);
  EXPECT_NE(text.find("indexed"), std::string::npos);
  EXPECT_NE(text.find("indexed on sal"), std::string::npos);
  EXPECT_NE(text.find("join network:"), std::string::npos);
  EXPECT_NE(text.find("P-node:"), std::string::npos);
}

TEST_F(ObservabilityTest, ExplainRuleUnknownRuleIsNotFound) {
  auto result = db_.Execute("explain rule nonesuch");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace ariel
