// `explain rule` surface: clean Status error for unknown rule names,
// case-insensitive lookup, inactive rules, the analysis section
// (triggers / triggered-by / warnings), and the network shape chosen at
// activation (join backend and α-memory kinds).

#include <gtest/gtest.h>

#include "ariel/database.h"
#include "test_util.h"

namespace ariel {
namespace {

class ExplainRuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK(db_.Execute("create a (x = int)"));
    ASSERT_OK(db_.Execute("create b (x = int)"));
    ASSERT_OK(db_.Execute(
        "define rule feeder on append a then append to b (x = a.x)"));
    ASSERT_OK(db_.Execute("define rule drain on append b "
                          "if b.x > 0 then delete b"));
  }

  Database db_;
};

TEST_F(ExplainRuleTest, UnknownRuleIsCleanNotFound) {
  auto result = db_.Execute("explain rule no_such_rule");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("no rule named"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("no_such_rule"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(ExplainRuleTest, LookupIsCaseInsensitive) {
  auto result = db_.Execute("explain rule FEEDER");
  ASSERT_OK(result);
  EXPECT_NE(result->message.find("rule feeder"), std::string::npos)
      << result->message;
}

TEST_F(ExplainRuleTest, ReportsTriggerRelationships) {
  auto result = db_.Execute("explain rule feeder");
  ASSERT_OK(result);
  const std::string& message = result->message;
  EXPECT_NE(message.find("triggers:"), std::string::npos) << message;
  EXPECT_NE(message.find("triggered by:"), std::string::npos) << message;
  EXPECT_NE(message.find("warnings:"), std::string::npos) << message;
  // feeder's append into b wakes drain.
  EXPECT_NE(message.find("drain"), std::string::npos) << message;
}

TEST_F(ExplainRuleTest, RuleWithNoNeighborsShowsPlaceholders) {
  ASSERT_OK(db_.Execute("create island (x = int)"));
  ASSERT_OK(db_.Execute("define rule loner on append island "
                        "then append to a (x = island.x)"));
  // loner -> feeder exists (append into a), but nothing triggers loner.
  auto result = db_.Execute("explain rule loner");
  ASSERT_OK(result);
  EXPECT_NE(result->message.find("(none)"), std::string::npos)
      << result->message;
}

TEST_F(ExplainRuleTest, InactiveRuleStillExplains) {
  ASSERT_OK(db_.Execute("deactivate rule drain"));
  auto result = db_.Execute("explain rule drain");
  ASSERT_OK(result);
  EXPECT_NE(result->message.find("inactive"), std::string::npos)
      << result->message;
  EXPECT_NE(result->message.find("triggered by:"), std::string::npos)
      << result->message;
}

// A rule's network keeps the shape chosen at activation: the join dump
// names the configured backend and every α-memory's stored/virtual kind,
// and `show stats` reports no run-time re-planner.
TEST(ExplainRuleShapeTest, ReportsBackendAndAlphaKinds) {
  struct Shape {
    JoinBackend backend;
    AlphaMemoryPolicy::Mode alpha;
    const char* want_backend;
    const char* want_kind;
    const char* other_kind;
  };
  for (const Shape& shape :
       {Shape{JoinBackend::kTreat, AlphaMemoryPolicy::Mode::kAllStored,
              "[backend: treat]", "[stored]", "[virtual]"},
        Shape{JoinBackend::kRete, AlphaMemoryPolicy::Mode::kAllVirtual,
              "[backend: rete]", "[virtual]", "[stored]"}}) {
    SCOPED_TRACE(std::string(shape.want_backend) + shape.want_kind);
    DatabaseOptions options;
    options.join_backend = shape.backend;
    options.alpha_policy.mode = shape.alpha;
    Database db(options);
    ASSERT_OK(db.Execute("create emp (sal = int, dno = int)"));
    ASSERT_OK(db.Execute("create dept (dno = int, lo = int)"));
    ASSERT_OK(db.Execute("create sink (x = int)"));
    ASSERT_OK(db.Execute("define rule watch if emp.sal > 10 and "
                         "emp.dno = dept.dno then append to sink (x = 1)"));
    ASSERT_OK(db.Execute("append dept (dno = 1, lo = 0)"));
    for (int i = 0; i < 6; ++i) {
      ASSERT_OK(db.Execute("append emp (sal = " + std::to_string(20 + i) +
                           ", dno = 1)"));
    }

    auto explain = db.Execute("explain rule watch");
    ASSERT_OK(explain);
    const std::string& message = explain->message;
    EXPECT_NE(message.find(shape.want_backend), std::string::npos) << message;
    EXPECT_NE(message.find("alpha(emp in emp) " + std::string(shape.want_kind)),
              std::string::npos)
        << message;
    EXPECT_NE(
        message.find("alpha(dept in dept) " + std::string(shape.want_kind)),
        std::string::npos)
        << message;
    EXPECT_EQ(message.find(shape.other_kind), std::string::npos) << message;
    EXPECT_EQ(message.find("strategy:"), std::string::npos) << message;

    auto stats = db.Execute("show stats");
    ASSERT_OK(stats);
    EXPECT_EQ(stats->message.find("adaptive"), std::string::npos)
        << stats->message;
    EXPECT_EQ(stats->message.find("replan"), std::string::npos)
        << stats->message;
  }
}

// Under the default policy the selection-free dept joins through a virtual
// memory; `explain rule` names the relation join hash index it probes and
// how many distinct keys that index holds.
TEST(ExplainRuleShapeTest, NamesTheRelationIndexAVirtualMemoryProbes) {
  Database db;
  ASSERT_OK(db.Execute("create emp (sal = int, dno = int)"));
  ASSERT_OK(db.Execute("create dept (dno = int, lo = int)"));
  ASSERT_OK(db.Execute("create sink (x = int)"));
  ASSERT_OK(db.Execute("append dept (dno = 1, lo = 0)"));
  ASSERT_OK(db.Execute("append dept (dno = 2, lo = 0)"));
  ASSERT_OK(db.Execute("append dept (dno = 2, lo = 5)"));
  ASSERT_OK(db.Execute("define rule watch if emp.sal > 10 and "
                       "emp.dno = dept.dno then append to sink (x = 1)"));
  auto explain = db.Execute("explain rule watch");
  ASSERT_OK(explain);
  const std::string& message = explain->message;
  EXPECT_NE(message.find("alpha(dept in dept) [virtual]"), std::string::npos)
      << message;
  EXPECT_NE(message.find("probe dept.dno [relation hash, 2 keys] for dept"),
            std::string::npos)
      << message;
  EXPECT_EQ(message.find("index probe available"), std::string::npos)
      << message;
}

}  // namespace
}  // namespace ariel
