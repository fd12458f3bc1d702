// `explain rule` surface: clean Status error for unknown rule names,
// case-insensitive lookup, inactive rules, the analysis section
// (triggers / triggered-by / warnings), and the network shape chosen at
// activation (join backend, α-memory kinds, and the keyed accesses each
// join-conjunct shape derives).

#include <gtest/gtest.h>

#include "ariel/database.h"
#include "test_util.h"
#include "util/metrics.h"

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

// What activation derives from each join-conjunct shape, pinned under every
// α policy on both backends: the exact join-network dump (kinds, stored
// hash indexes, relation probes) and, for the keyed accesses the dump does
// not show (banded prefilters, Rete β keys), the probe counters one token
// moves.
struct ConditionShape {
  const char* name;
  const char* condition;
  const char* token;  // one command yielding one token on the last variable
};

constexpr ConditionShape kConditionShapes[] = {
    {"column_left", "emp.dno = dept.dno",
     "append dept (dno = 1, lo = 0, hi = 0)"},
    {"column_right", "dept.dno = emp.dno and emp.sal > 5",
     "append dept (dno = 1, lo = 0, hi = 0)"},
    {"expression_key", "emp.dno = dept.dno + 1",
     "append dept (dno = 0, lo = 0, hi = 0)"},
    {"self_reference", "emp.dno = dept.dno + emp.sal * 0",
     "append dept (dno = 1, lo = 0, hi = 0)"},
    {"previous", "previous emp.dno = dept.dno",
     "replace emp (dno = 9) where emp.sal = 3"},
    {"band", "emp.sal >= dept.lo and emp.sal <= dept.hi",
     "append dept (dno = 1, lo = 3, hi = 7)"},
    {"chain", "emp.dno = dept.dno and dept.dno = job.dno",
     "append job (dno = 1, pay = 0)"},
};

struct ShapeConfig {
  const char* name;
  JoinBackend backend;
  AlphaMemoryPolicy::Mode alpha;
};

constexpr ShapeConfig kShapeConfigs[] = {
    {"treat_stored", JoinBackend::kTreat, AlphaMemoryPolicy::Mode::kAllStored},
    {"treat_virtual", JoinBackend::kTreat,
     AlphaMemoryPolicy::Mode::kAllVirtual},
    {"treat_adaptive", JoinBackend::kTreat,
     AlphaMemoryPolicy::Mode::kAdaptive},
    {"rete_stored", JoinBackend::kRete, AlphaMemoryPolicy::Mode::kAllStored},
    {"rete_virtual", JoinBackend::kRete, AlphaMemoryPolicy::Mode::kAllVirtual},
    {"rete_adaptive", JoinBackend::kRete, AlphaMemoryPolicy::Mode::kAdaptive},
};

struct DerivedShape {
  std::string dump;  // the "join network:" section of `explain rule`
  uint64_t prefiltered = 0;  // columnar_join_prefiltered moved by the token
  uint64_t hash_probes = 0;  // join_hash_probes moved by the token
};

DerivedShape DeriveShape(const ConditionShape& shape,
                         const ShapeConfig& config) {
  DatabaseOptions options;
  options.join_backend = config.backend;
  options.alpha_policy.mode = config.alpha;
  Database db(options);
  DerivedShape out;
  for (const char* setup :
       {"create emp (sal = int, dno = int)",
        "create dept (dno = int, lo = int, hi = int)",
        "create job (dno = int, pay = int)", "create sink (x = int)",
        "define index on emp (sal)"}) {
    EXPECT_OK(db.Execute(setup));
  }
  // Descending salaries: the sal index orders emp against heap order.
  for (int i = 0; i < 20; ++i) {
    EXPECT_OK(db.Execute("append emp (sal = " + std::to_string(19 - i) +
                         ", dno = " + std::to_string(i % 4) + ")"));
  }
  for (int d = 0; d < 4; ++d) {
    EXPECT_OK(db.Execute("append dept (dno = " + std::to_string(d) +
                         ", lo = " + std::to_string(4 * d) +
                         ", hi = " + std::to_string(4 * d + 5) + ")"));
    EXPECT_OK(db.Execute("append job (dno = " + std::to_string(d) +
                         ", pay = 1)"));
  }
  EXPECT_OK(db.Execute(std::string("define rule r if ") + shape.condition +
                       " then append to sink (x = 1)"));
  auto explain = db.Execute("explain rule r");
  EXPECT_OK(explain);
  if (!explain.ok()) return out;
  const std::string& message = explain->message;
  const size_t begin = message.find("join network:\n");
  const size_t end = message.find("P-node: ");
  if (begin != std::string::npos && end != std::string::npos) {
    out.dump = message.substr(begin, end - begin);
  }
#ifndef ARIEL_NO_METRICS
  const uint64_t prefiltered = Metrics().columnar_join_prefiltered.value();
  const uint64_t hash_probes = Metrics().join_hash_probes.value();
  EXPECT_OK(db.Execute(shape.token));
  out.prefiltered = Metrics().columnar_join_prefiltered.value() - prefiltered;
  out.hash_probes = Metrics().join_hash_probes.value() - hash_probes;
#endif
  return out;
}

struct ShapeGolden {
  const char* dump;
  uint64_t prefiltered;
  uint64_t hash_probes;
};

// One golden derivation per (shape, configuration), in table order.
constexpr ShapeGolden kShapeGoldens[] = {
    // column_left/treat_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno\n"
        "  hash index on emp: emp.dno = dept.dno\n"
        "  hash index on dept: dept.dno = emp.dno\n"
        "  P(r): 20 instantiations\n",
        0, 1},
    // column_left/treat_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.dno = dept.dno\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  P(r): 20 instantiations\n",
        0, 1},
    // column_left/treat_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.dno = dept.dno\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  P(r): 20 instantiations\n",
        0, 1},
    // column_left/rete_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno\n"
        "  hash index on emp: emp.dno = dept.dno\n"
        "  hash index on dept: dept.dno = emp.dno\n"
        "  P(r): 20 instantiations\n",
        0, 1},
    // column_left/rete_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.dno = dept.dno\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  P(r): 20 instantiations\n",
        0, 1},
    // column_left/rete_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.dno = dept.dno\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  P(r): 20 instantiations\n",
        0, 1},
    // column_right/treat_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  alpha(emp in emp) [stored]: emp.sal > 5  {14 tuples}\n"
        "  join: dept.dno = emp.dno\n"
        "  hash index on dept: dept.dno = emp.dno\n"
        "  hash index on emp: emp.dno = dept.dno\n"
        "  P(r): 14 instantiations\n",
        0, 1},
    // column_right/treat_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(dept in dept) [virtual]\n"
        "  alpha(emp in emp) [virtual]: emp.sal > 5\n"
        "  join: dept.dno = emp.dno\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  P(r): 14 instantiations\n",
        0, 1},
    // column_right/treat_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(dept in dept) [virtual]\n"
        "  alpha(emp in emp) [stored]: emp.sal > 5  {14 tuples}\n"
        "  join: dept.dno = emp.dno\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  hash index on emp: emp.dno = dept.dno\n"
        "  P(r): 14 instantiations\n",
        0, 1},
    // column_right/rete_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  alpha(emp in emp) [stored]: emp.sal > 5  {14 tuples}\n"
        "  join: dept.dno = emp.dno\n"
        "  hash index on dept: dept.dno = emp.dno\n"
        "  hash index on emp: emp.dno = dept.dno\n"
        "  P(r): 14 instantiations\n",
        0, 1},
    // column_right/rete_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(dept in dept) [virtual]\n"
        "  alpha(emp in emp) [virtual]: emp.sal > 5\n"
        "  join: dept.dno = emp.dno\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  P(r): 14 instantiations\n",
        0, 1},
    // column_right/rete_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(dept in dept) [virtual]\n"
        "  alpha(emp in emp) [stored]: emp.sal > 5  {14 tuples}\n"
        "  join: dept.dno = emp.dno\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  hash index on emp: emp.dno = dept.dno\n"
        "  P(r): 14 instantiations\n",
        0, 1},
    // expression_key/treat_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno + 1\n"
        "  hash index on emp: emp.dno = dept.dno + 1\n"
        "  P(r): 15 instantiations\n",
        0, 1},
    // expression_key/treat_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.dno = dept.dno + 1\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  P(r): 15 instantiations\n",
        0, 1},
    // expression_key/treat_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno + 1\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  P(r): 15 instantiations\n",
        0, 1},
    // expression_key/rete_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno + 1\n"
        "  hash index on emp: emp.dno = dept.dno + 1\n"
        "  P(r): 15 instantiations\n",
        0, 1},
    // expression_key/rete_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.dno = dept.dno + 1\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  P(r): 15 instantiations\n",
        0, 1},
    // expression_key/rete_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno + 1\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  P(r): 15 instantiations\n",
        0, 1},
    // self_reference/treat_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno + emp.sal * 0\n"
        "  P(r): 20 instantiations\n",
        0, 0},
    // self_reference/treat_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.dno = dept.dno + emp.sal * 0\n"
        "  P(r): 20 instantiations\n",
        0, 0},
    // self_reference/treat_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno + emp.sal * 0\n"
        "  P(r): 20 instantiations\n",
        0, 0},
    // self_reference/rete_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno + emp.sal * 0\n"
        "  P(r): 20 instantiations\n",
        0, 0},
    // self_reference/rete_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.dno = dept.dno + emp.sal * 0\n"
        "  P(r): 20 instantiations\n",
        0, 0},
    // self_reference/rete_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno + emp.sal * 0\n"
        "  P(r): 20 instantiations\n",
        0, 0},
    // previous/treat_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [dynamic-trans]  {0 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: previous emp.dno = dept.dno\n"
        "  hash index on dept: dept.dno = previous emp.dno\n"
        "  P(r): 0 instantiations\n",
        0, 1},
    // previous/treat_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [dynamic-trans]  {0 tuples}\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: previous emp.dno = dept.dno\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  P(r): 0 instantiations\n",
        0, 1},
    // previous/treat_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [dynamic-trans]  {0 tuples}\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: previous emp.dno = dept.dno\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  P(r): 0 instantiations\n",
        0, 1},
    // previous/rete_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [dynamic-trans]  {0 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: previous emp.dno = dept.dno\n"
        "  hash index on dept: dept.dno = previous emp.dno\n"
        "  P(r): 0 instantiations\n",
        0, 1},
    // previous/rete_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [dynamic-trans]  {0 tuples}\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: previous emp.dno = dept.dno\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  P(r): 0 instantiations\n",
        0, 1},
    // previous/rete_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [dynamic-trans]  {0 tuples}\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: previous emp.dno = dept.dno\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  P(r): 0 instantiations\n",
        0, 1},
    // band/treat_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.sal >= dept.lo\n"
        "  join: emp.sal <= dept.hi\n"
        "  P(r): 24 instantiations\n",
        15, 0},
    // band/treat_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.sal >= dept.lo\n"
        "  join: emp.sal <= dept.hi\n"
        "  P(r): 24 instantiations\n",
        0, 0},
    // band/treat_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.sal >= dept.lo\n"
        "  join: emp.sal <= dept.hi\n"
        "  P(r): 24 instantiations\n",
        15, 0},
    // band/rete_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.sal >= dept.lo\n"
        "  join: emp.sal <= dept.hi\n"
        "  P(r): 24 instantiations\n",
        15, 0},
    // band/rete_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  join: emp.sal >= dept.lo\n"
        "  join: emp.sal <= dept.hi\n"
        "  P(r): 24 instantiations\n",
        0, 0},
    // band/rete_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  join: emp.sal >= dept.lo\n"
        "  join: emp.sal <= dept.hi\n"
        "  P(r): 24 instantiations\n",
        15, 0},
    // chain/treat_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  alpha(job in job) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno\n"
        "  join: dept.dno = job.dno\n"
        "  hash index on emp: emp.dno = dept.dno\n"
        "  hash index on dept: dept.dno = emp.dno\n"
        "  hash index on dept: dept.dno = job.dno\n"
        "  hash index on job: job.dno = dept.dno\n"
        "  P(r): 20 instantiations\n",
        0, 2},
    // chain/treat_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  alpha(job in job) [virtual]\n"
        "  join: emp.dno = dept.dno\n"
        "  join: dept.dno = job.dno\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe job.dno [relation hash, 4 keys] for job\n"
        "  P(r): 20 instantiations\n",
        0, 2},
    // chain/treat_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: treat]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  alpha(job in job) [virtual]\n"
        "  join: emp.dno = dept.dno\n"
        "  join: dept.dno = job.dno\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe job.dno [relation hash, 4 keys] for job\n"
        "  P(r): 20 instantiations\n",
        0, 2},
    // chain/rete_stored
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [stored]  {20 tuples}\n"
        "  alpha(dept in dept) [stored]  {4 tuples}\n"
        "  alpha(job in job) [stored]  {4 tuples}\n"
        "  join: emp.dno = dept.dno\n"
        "  join: dept.dno = job.dno\n"
        "  hash index on emp: emp.dno = dept.dno\n"
        "  hash index on dept: dept.dno = emp.dno\n"
        "  hash index on dept: dept.dno = job.dno\n"
        "  hash index on job: job.dno = dept.dno\n"
        "  P(r): 20 instantiations\n",
        0, 1},
    // chain/rete_virtual
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  alpha(job in job) [virtual]\n"
        "  join: emp.dno = dept.dno\n"
        "  join: dept.dno = job.dno\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe job.dno [relation hash, 4 keys] for job\n"
        "  P(r): 20 instantiations\n",
        0, 1},
    // chain/rete_adaptive
    {
        "join network:\n"
        "A-TREAT network for rule \"r\" [backend: rete]\n"
        "  root\n"
        "  alpha(emp in emp) [virtual]\n"
        "  alpha(dept in dept) [virtual]\n"
        "  alpha(job in job) [virtual]\n"
        "  join: emp.dno = dept.dno\n"
        "  join: dept.dno = job.dno\n"
        "  probe emp.dno [relation hash, 4 keys] for emp\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe dept.dno [relation hash, 4 keys] for dept\n"
        "  probe job.dno [relation hash, 4 keys] for job\n"
        "  P(r): 20 instantiations\n",
        0, 1},
};

TEST(ExplainRuleShapeTest, PinsWhatActivationDerivesFromEachConjunctShape) {
  const ShapeGolden* want = std::begin(kShapeGoldens);
  for (const ConditionShape& shape : kConditionShapes) {
    for (const ShapeConfig& config : kShapeConfigs) {
      SCOPED_TRACE(std::string(shape.name) + "/" + config.name);
      const DerivedShape got = DeriveShape(shape, config);
      EXPECT_EQ(got.dump, want->dump);
#ifndef ARIEL_NO_METRICS
      EXPECT_EQ(got.prefiltered, want->prefiltered);
      EXPECT_EQ(got.hash_probes, want->hash_probes);
#endif
      ++want;
    }
  }
  EXPECT_EQ(want, std::end(kShapeGoldens));
}

}  // namespace
}  // namespace ariel
