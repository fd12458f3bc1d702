// Tests for the engineered extensions the paper calls out as optimization
// opportunities: ruleset administration (§2.1), stored action plans vs
// always-reoptimize (§5.3), index-assisted virtual α-memory joins (§4.2),
// and network introspection.

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"

namespace ariel {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  void Setup(Database* db) {
    ASSERT_OK(db->Execute("create emp (name = string, sal = float, "
                          "dno = int)"));
    ASSERT_OK(db->Execute("create dept (dno = int, name = string)"));
    ASSERT_OK(db->Execute("create log (name = string)"));
    ASSERT_OK(db->Execute("append dept (dno=1, name=\"Sales\")"));
    ASSERT_OK(db->Execute("append dept (dno=2, name=\"Toy\")"));
  }

  size_t Count(Database* db, const std::string& retrieve) {
    auto result = db->Execute(retrieve);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->rows->num_rows() : SIZE_MAX;
  }
};

TEST_F(ExtensionsTest, RulesetActivationToggle) {
  Database db;
  Setup(&db);
  ASSERT_OK(db.Execute("define rule r1 in audit on append emp "
                       "then append to log (name = emp.name)"));
  ASSERT_OK(db.Execute("define rule r2 in audit on delete emp "
                       "then append to log (name = emp.name)"));
  ASSERT_OK(db.Execute("define rule other on append emp "
                       "if emp.sal > 1000000 then delete emp"));

  ASSERT_OK(db.Execute("deactivate ruleset audit"));
  ASSERT_OK(db.Execute("append emp (name=\"a\", sal=1.0, dno=1)"));
  EXPECT_EQ(Count(&db, "retrieve (log.all)"), 0u);

  ASSERT_OK(db.Execute("activate ruleset audit"));
  ASSERT_OK(db.Execute("append emp (name=\"b\", sal=1.0, dno=1)"));
  ASSERT_OK(db.Execute("delete emp where emp.name = \"a\""));
  EXPECT_EQ(Count(&db, "retrieve (log.all)"), 2u);

  // Unknown ruleset errors; partial activation states are tolerated.
  EXPECT_FALSE(db.Execute("activate ruleset ghost").ok());
  ASSERT_OK(db.Execute("deactivate rule r1"));
  ASSERT_OK(db.Execute("activate ruleset audit"));  // reactivates r1 only
  EXPECT_TRUE(db.rules().GetRule("r1")->active);
  EXPECT_TRUE(db.rules().GetRule("r2")->active);
}

TEST_F(ExtensionsTest, RulesInRulesetListing) {
  Database db;
  Setup(&db);
  ASSERT_OK(db.Execute("define rule r1 in audit on append emp "
                       "then append to log (name = emp.name)"));
  ASSERT_OK(db.Execute("define rule r2 on append emp "
                       "then append to log (name = emp.name)"));
  EXPECT_EQ(db.rules().RulesInRuleset("audit"),
            (std::vector<std::string>{"r1"}));
  EXPECT_EQ(db.rules().RulesInRuleset("default_rules"),
            (std::vector<std::string>{"r2"}));
  EXPECT_TRUE(db.rules().RulesInRuleset("ghost").empty());
}

TEST_F(ExtensionsTest, CachedActionPlansReuseAndBehaveIdentically) {
  DatabaseOptions cached;
  cached.cache_action_plans = true;
  Database db(cached);
  Setup(&db);
  ASSERT_OK(db.Execute("define rule watch on append emp "
                       "if emp.sal > 10 then do "
                       "  append to log (name = emp.name) "
                       "  replace emp (sal = 10.0) "
                       "end"));

  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(db.Execute("append emp (name=\"e" + std::to_string(i) +
                         "\", sal=100.0, dno=1)"));
  }
  EXPECT_EQ(Count(&db, "retrieve (log.all)"), 5u);
  EXPECT_EQ(Count(&db, "retrieve (emp.all) where emp.sal = 10"), 5u);

  // The two action commands planned once each; later firings reused them.
  EXPECT_GE(db.executor().plan_cache_hits(), 8u);
}

TEST_F(ExtensionsTest, CachedPlansInvalidatedByCatalogChanges) {
  DatabaseOptions cached;
  cached.cache_action_plans = true;
  Database db(cached);
  Setup(&db);
  ASSERT_OK(db.Execute("define rule watch on append emp "
                       "if emp.sal > 10 "
                       "then append to log (name = emp.name)"));
  ASSERT_OK(db.Execute("append emp (name=\"a\", sal=100.0, dno=1)"));
  uint64_t built_before = db.executor().plans_built();

  // A schema change (new index) must invalidate the stored plan...
  ASSERT_OK(db.Execute("define index on emp (sal)"));
  ASSERT_OK(db.Execute("append emp (name=\"b\", sal=100.0, dno=1)"));
  EXPECT_GT(db.executor().plans_built(), built_before);
  // ...and the rule still behaves correctly.
  EXPECT_EQ(Count(&db, "retrieve (log.all)"), 2u);
}

TEST_F(ExtensionsTest, CachedVsUncachedProduceSameResults) {
  for (bool cache : {false, true}) {
    DatabaseOptions options;
    options.cache_action_plans = cache;
    Database db(options);
    Setup(&db);
    ASSERT_OK(db.Execute("define rule cap on append emp "
                         "if emp.sal > 50 and emp.dno = dept.dno and "
                         "dept.name = \"Sales\" "
                         "then replace emp (sal = 50.0)"));
    for (int i = 0; i < 4; ++i) {
      ASSERT_OK(db.Execute("append emp (name=\"x\", sal=100.0, dno=" +
                           std::to_string(i % 2 + 1) + ")"));
    }
    // Sales employees capped; Toy employees untouched.
    EXPECT_EQ(Count(&db, "retrieve (emp.all) where emp.sal = 50"), 2u)
        << "cache=" << cache;
    EXPECT_EQ(Count(&db, "retrieve (emp.all) where emp.sal = 100"), 2u)
        << "cache=" << cache;
  }
}

TEST_F(ExtensionsTest, IndexProbeThroughVirtualMemoryCorrect) {
  DatabaseOptions options;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllVirtual;
  Database db(options);
  Setup(&db);
  ASSERT_OK(db.Execute("define index on emp (dno)"));
  ASSERT_OK(db.Execute("define rule watch "
                       "if emp.sal > 10 and emp.dno = dept.dno and "
                       "dept.name = \"Toy\" "
                       "then append to log (name = emp.name)"));
  ASSERT_OK(db.Execute("append emp (name=\"sales_guy\", sal=99.0, dno=1)"));
  ASSERT_OK(db.Execute("append emp (name=\"toy_guy\", sal=99.0, dno=2)"));
  // A dept token joins into the virtual emp memory via the dno index.
  ASSERT_OK(db.Execute("append dept (dno=2, name=\"Toy\")"));
  auto rows = db.Execute("retrieve (log.all)");
  ASSERT_OK(rows);
  // toy_guy logged twice: once on his own append, once via the new dept.
  EXPECT_EQ(rows->rows->num_rows(), 2u);
  for (const Tuple& t : rows->rows->rows) {
    EXPECT_EQ(t.at(0), Value::String("toy_guy"));
  }
}

TEST_F(ExtensionsTest, NetworkIntrospection) {
  Database db;
  Setup(&db);
  ASSERT_OK(db.Execute("create job (jno = int, title = string)"));
  ASSERT_OK(db.Execute(
      "define rule SalesClerkRule "
      "if emp.sal > 30000 and emp.dno = dept.dno and "
      "dept.name = \"Sales\" "
      "then append to log (name = emp.name)"));
  const Rule* rule = db.rules().GetRule("salesclerkrule");
  ASSERT_NE(rule, nullptr);
  std::string text = rule->network->ToString();
  EXPECT_NE(text.find("A-TREAT network"), std::string::npos) << text;
  EXPECT_NE(text.find("alpha(emp in emp)"), std::string::npos) << text;
  EXPECT_NE(text.find("emp.sal > 30000"), std::string::npos) << text;
  EXPECT_NE(text.find("join: emp.dno = dept.dno"), std::string::npos) << text;
  EXPECT_NE(text.find("P(salesclerkrule)"), std::string::npos) << text;
}

TEST_F(ExtensionsTest, SubscriptionsDeliverLogicalAppends) {
  Database db;
  Setup(&db);
  ASSERT_OK(db.Execute("define rule audit on append emp "
                       "if emp.sal > 100 "
                       "then append to log (name = emp.name)"));
  std::vector<std::string> received;
  Status sub = db.Subscribe("log", [&](const std::string& rel,
                                       const Tuple& t) {
    received.push_back(rel + ":" + t.at(0).string_value());
  });
  ASSERT_TRUE(sub.ok()) << sub.ToString();

  // Rule output reaches the subscriber after the cycle quiesces.
  ASSERT_OK(db.Execute("append emp (name=\"rich\", sal=500.0, dno=1)"));
  EXPECT_EQ(received, (std::vector<std::string>{"log:rich"}));

  // Non-matching appends produce no alert.
  ASSERT_OK(db.Execute("append emp (name=\"poor\", sal=1.0, dno=1)"));
  EXPECT_EQ(received.size(), 1u);

  // Direct appends to the watched relation also alert.
  ASSERT_OK(db.Execute("append log (name=\"manual\")"));
  EXPECT_EQ(received.back(), "log:manual");

  // Logical events: append+delete in one block delivers nothing.
  ASSERT_OK(db.Execute(
      "do\n"
      "  append log (name=\"ghost\")\n"
      "  delete log where log.name = \"ghost\"\n"
      "end"));
  EXPECT_EQ(received.size(), 2u);

  // A value rewritten inside the block is delivered with its final value.
  ASSERT_OK(db.Execute(
      "do\n"
      "  append log (name=\"draft\")\n"
      "  replace log (name=\"final\") where log.name = \"draft\"\n"
      "end"));
  EXPECT_EQ(received.back(), "log:final");

  // Subscribing to an unknown relation fails.
  EXPECT_FALSE(db.Subscribe("ghost", [](const std::string&, const Tuple&) {})
                   .ok());
}

TEST_F(ExtensionsTest, ReteBackendEndToEnd) {
  DatabaseOptions options;
  options.join_backend = JoinBackend::kRete;
  Database db(options);
  Setup(&db);
  ASSERT_OK(db.Execute("create job (jno = int, grade = int)"));
  ASSERT_OK(db.Execute("append job (jno=1, grade=5)"));
  ASSERT_OK(db.Execute("define rule chain "
                       "if emp.sal > 10 and emp.dno = dept.dno and "
                       "dept.name = \"Sales\" "
                       "then append to log (name = emp.name)"));
  const Rule* rule = db.rules().GetRule("chain");
  EXPECT_EQ(rule->network->backend(), JoinBackend::kRete);

  ASSERT_OK(db.Execute("append emp (name=\"s\", sal=99.0, dno=1)"));
  ASSERT_OK(db.Execute("append emp (name=\"t\", sal=99.0, dno=2)"));
  EXPECT_EQ(Count(&db, "retrieve (log.all)"), 1u);

  // Event rules silently fall back to TREAT under the Rete option.
  ASSERT_OK(db.Execute("define rule ev on delete emp "
                       "then append to log (name = emp.name)"));
  EXPECT_EQ(db.rules().GetRule("ev")->network->backend(),
            JoinBackend::kTreat);
  ASSERT_OK(db.Execute("delete emp where emp.name = \"t\""));
  EXPECT_EQ(Count(&db, "retrieve (log.all)"), 2u);
}

TEST_F(ExtensionsTest, RecencyConflictStrategy) {
  // Two equal-priority rules whose P-nodes fill in a known order inside
  // one transition: under recency the later-matched rule fires first;
  // under the default, the earlier-defined one does.
  for (auto strategy : {ConflictStrategy::kDefinitionOrder,
                        ConflictStrategy::kRecency}) {
    DatabaseOptions options;
    options.conflict_strategy = strategy;
    Database db(options);
    ASSERT_OK(db.Execute("create t1 (x = int)"));
    ASSERT_OK(db.Execute("create t2 (x = int)"));
    ASSERT_OK(db.Execute("create log (source = string)"));
    ASSERT_OK(db.Execute("define rule first_defined on append t1 "
                         "then append to log (source=\"first_defined\")"));
    ASSERT_OK(db.Execute("define rule later_matched on append t2 "
                         "then append to log (source=\"later_matched\")"));
    // One transition: t1's rule matches before t2's.
    ASSERT_OK(db.Execute("do\nappend t1 (x=1)\nappend t2 (x=2)\nend"));
    auto rows = db.Execute("retrieve (log.all)");
    ASSERT_OK(rows);
    ASSERT_EQ(rows->rows->num_rows(), 2u);
    const char* expected_first =
        strategy == ConflictStrategy::kRecency ? "later_matched"
                                               : "first_defined";
    EXPECT_EQ(rows->rows->rows[0].at(0), Value::String(expected_first));
  }

  // Two rules matched by the same token tie on the token; activation order
  // breaks the tie (the later-activated rule is fresher).
  {
    DatabaseOptions options;
    options.conflict_strategy = ConflictStrategy::kRecency;
    Database db(options);
    ASSERT_OK(db.Execute("create t1 (x = int)"));
    ASSERT_OK(db.Execute("create log (source = string)"));
    ASSERT_OK(db.Execute("define rule ra if t1.x > 0 "
                         "then append to log (source=\"a\")"));
    ASSERT_OK(db.Execute("define rule rb if t1.x > 0 "
                         "then append to log (source=\"b\")"));
    ASSERT_OK(db.Execute("append t1 (x=1)"));
    auto rows = db.Execute("retrieve (log.all)");
    ASSERT_OK(rows);
    ASSERT_EQ(rows->rows->num_rows(), 2u);
    EXPECT_EQ(rows->rows->rows[0].at(0), Value::String("b"));
    EXPECT_EQ(rows->rows->rows[1].at(0), Value::String("a"));
  }
}

TEST_F(ExtensionsTest, OnDeleteSelfJoinConsistentAcrossPolicies) {
  // When an on-delete rule joins back into its own relation, the dying
  // tuple must not pair with itself — and stored vs virtual α-memories
  // must agree on that.
  for (auto mode : {AlphaMemoryPolicy::Mode::kAllStored,
                    AlphaMemoryPolicy::Mode::kAllVirtual}) {
    DatabaseOptions options;
    options.alpha_policy.mode = mode;
    Database db(options);
    ASSERT_OK(db.Execute("create emp (name = string, dno = int)"));
    ASSERT_OK(db.Execute("create log (gone = string, peer = string)"));
    ASSERT_OK(db.Execute(
        "define rule peers on delete emp "
        "if emp.dno = e2.dno from e2 in emp "
        "then append to log (gone = emp.name, peer = e2.name)"));
    ASSERT_OK(db.Execute("append emp (name=\"a\", dno=1)"));
    ASSERT_OK(db.Execute("append emp (name=\"b\", dno=1)"));
    ASSERT_OK(db.Execute("delete emp where emp.name = \"a\""));
    auto rows = db.Execute("retrieve (log.all)");
    ASSERT_OK(rows);
    // Exactly one pairing: (a, b). Never (a, a).
    ASSERT_EQ(rows->rows->num_rows(), 1u)
        << "policy " << static_cast<int>(mode) << "\n"
        << rows->rows->ToString();
    EXPECT_EQ(rows->rows->rows[0].at(0), Value::String("a"));
    EXPECT_EQ(rows->rows->rows[0].at(1), Value::String("b"));
  }
}

TEST_F(ExtensionsTest, SystemCatalogsQueryable) {
  Database db;
  Setup(&db);
  ASSERT_OK(db.Execute("define index on emp (sal)"));
  ASSERT_OK(db.Execute("define rule r1 in audit priority 3 on append emp "
                       "then append to log (name = emp.name)"));
  ASSERT_OK(db.Execute("append emp (name=\"a\", sal=1.0, dno=1)"));

  auto rels = db.Execute("retrieve (sysrelations.all) "
                         "where sysrelations.name = \"emp\"");
  ASSERT_OK(rels);
  ASSERT_EQ(rels->rows->num_rows(), 1u);
  EXPECT_EQ(rels->rows->rows[0].at(1), Value::Int(1));  // tuples
  EXPECT_EQ(rels->rows->rows[0].at(2), Value::Int(1));  // indexes

  auto rules = db.Execute("retrieve (sysrules.all) "
                          "where sysrules.name = \"r1\"");
  ASSERT_OK(rules);
  ASSERT_EQ(rules->rows->num_rows(), 1u);
  EXPECT_EQ(rules->rows->rows[0].at(1), Value::String("audit"));
  EXPECT_EQ(rules->rows->rows[0].at(2), Value::Float(3.0));
  EXPECT_EQ(rules->rows->rows[0].at(3), Value::Int(1));  // active
  EXPECT_EQ(rules->rows->rows[0].at(4), Value::Int(1));  // fired once

  // Snapshots track changes.
  ASSERT_OK(db.Execute("deactivate rule r1"));
  rules = db.Execute("retrieve (sysrules.active) "
                     "where sysrules.name = \"r1\"");
  ASSERT_OK(rules);
  EXPECT_EQ(rules->rows->rows[0].at(0), Value::Int(0));

  // Aggregates over catalogs work too.
  auto count = db.Execute("retrieve (n = count(sysrules))");
  ASSERT_OK(count);
  EXPECT_EQ(count->rows->rows[0].at(0), Value::Int(1));
}

TEST_F(ExtensionsTest, CatalogVersioning) {
  Database db;
  uint64_t v0 = db.catalog().version();
  ASSERT_OK(db.Execute("create t (x = int)"));
  uint64_t v1 = db.catalog().version();
  EXPECT_GT(v1, v0);
  ASSERT_OK(db.Execute("define index on t (x)"));
  uint64_t v2 = db.catalog().version();
  EXPECT_GT(v2, v1);
  ASSERT_OK(db.Execute("destroy t"));
  EXPECT_GT(db.catalog().version(), v2);
}

}  // namespace
}  // namespace ariel
