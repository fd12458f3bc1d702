// Tests for the top-level selection network (§4.1): interval anchor
// extraction from predicates, indexed vs residual routing, and match
// completeness/exactness for all token kinds.

#include "network/selection_network.h"

#include <gtest/gtest.h>

#include "test_util.h"

#include "catalog/catalog.h"
#include "parser/parser.h"

namespace ariel {
namespace {

class AnchorExtractionTest : public ::testing::Test {
 protected:
  AnchorExtractionTest()
      : schema_({Attribute{"name", DataType::kString},
                 Attribute{"sal", DataType::kFloat},
                 Attribute{"dno", DataType::kInt}}) {}

  bool Extract(const std::string& text, size_t* attr, Interval* interval) {
    auto expr = ParseExpression(text);
    EXPECT_TRUE(expr.ok()) << expr.status().ToString();
    return ExtractAnchorInterval(**expr, schema_, attr, interval);
  }

  Schema schema_;
};

TEST_F(AnchorExtractionTest, PaperCanonicalForm) {
  // C1 < emp.sal <= C2 — the paper's §4.1 closed-interval example.
  size_t attr;
  Interval iv;
  ASSERT_TRUE(Extract("30000 < emp.sal and emp.sal <= 31000", &attr, &iv));
  EXPECT_EQ(attr, 1u);
  EXPECT_EQ(iv.ToString(), "(30000, 31000]");
}

TEST_F(AnchorExtractionTest, PointAndHalfOpen) {
  size_t attr;
  Interval iv;
  ASSERT_TRUE(Extract("emp.name = \"Bob\"", &attr, &iv));
  EXPECT_EQ(attr, 0u);
  EXPECT_TRUE(iv.Contains(Value::String("Bob")));
  EXPECT_FALSE(iv.Contains(Value::String("Alice")));

  ASSERT_TRUE(Extract("emp.sal > 30000", &attr, &iv));
  EXPECT_EQ(iv.ToString(), "(30000, +inf)");
  ASSERT_TRUE(Extract("emp.sal <= 10", &attr, &iv));
  EXPECT_EQ(iv.ToString(), "(-inf, 10]");
}

TEST_F(AnchorExtractionTest, MirroredComparisons) {
  size_t attr;
  Interval iv;
  ASSERT_TRUE(Extract("100 >= emp.dno", &attr, &iv));
  EXPECT_EQ(attr, 2u);
  EXPECT_EQ(iv.ToString(), "(-inf, 100]");
}

TEST_F(AnchorExtractionTest, TightestAttributeWins) {
  // An equality anchor beats a range anchor on another attribute.
  size_t attr;
  Interval iv;
  ASSERT_TRUE(Extract("emp.sal > 10 and emp.dno = 3", &attr, &iv));
  EXPECT_EQ(attr, 2u);
  EXPECT_EQ(iv.ToString(), "[3, 3]");
}

TEST_F(AnchorExtractionTest, NonIndexableShapes) {
  size_t attr;
  Interval iv;
  EXPECT_FALSE(Extract("emp.sal > 1.1 * previous emp.sal", &attr, &iv));
  EXPECT_FALSE(Extract("emp.sal != 3", &attr, &iv));
  EXPECT_FALSE(Extract("emp.sal = emp.dno", &attr, &iv));
  EXPECT_FALSE(Extract("new(emp)", &attr, &iv));
  EXPECT_FALSE(Extract("emp.sal + 1 > 2", &attr, &iv));
}

TEST_F(AnchorExtractionTest, OrDoesNotContributeConjuncts) {
  // A top-level OR is one (unsplittable) conjunct: not indexable.
  size_t attr;
  Interval iv;
  EXPECT_FALSE(Extract("emp.sal = 1 or emp.sal = 2", &attr, &iv));
  // But an AND of an OR with an indexable conjunct is.
  ASSERT_TRUE(Extract("(emp.dno = 1 or emp.dno = 2) and emp.sal > 5", &attr,
                      &iv));
  EXPECT_EQ(attr, 1u);
}

class SelectionNetworkTest : public ::testing::Test {
 protected:
  SelectionNetworkTest() {
    rel_ = *catalog_.CreateRelation(
        "emp", Schema({Attribute{"name", DataType::kString},
                       Attribute{"sal", DataType::kFloat}}));
  }

  /// Builds a one-variable rule network over emp with this condition.
  RuleNetwork* AddRule(const std::string& name,
                       const std::string& condition) {
    AlphaSpec spec;
    spec.var_name = "emp";
    spec.relation = rel_;
    spec.kind = AlphaKind::kSimple;
    if (!condition.empty()) {
      auto expr = ParseExpression(condition);
      EXPECT_TRUE(expr.ok()) << expr.status().ToString();
      spec.selection = std::move(*expr);
    }
    std::vector<AlphaSpec> specs;
    specs.push_back(std::move(spec));
    auto network = std::make_unique<RuleNetwork>(name, next_pnode_id_++,
                                                 std::move(specs),
                                                 std::vector<ExprPtr>{});
    EXPECT_OK(network->Init());
    EXPECT_OK(selection_.AddRule(network.get()));
    rules_.push_back(std::move(network));
    return rules_.back().get();
  }

  std::vector<std::string> MatchNames(double sal, const std::string& name) {
    Token token;
    token.kind = TokenKind::kPlus;
    token.relation_id = rel_->id();
    token.tid = TupleId{rel_->id(), 0};
    token.value = Tuple(std::vector<Value>{Value::String(name),
                                           Value::Float(sal)});
    token.event = TokenEvent{EventKind::kAppend, {}};
    std::vector<std::vector<ConditionMatch>> matches;
    EXPECT_OK(selection_.MatchBatch({&token, 1}, &matches));
    std::vector<std::string> out;
    for (const ConditionMatch& m : matches[0]) {
      out.push_back(m.rule->rule_name());
    }
    return out;
  }

  Catalog catalog_;
  HeapRelation* rel_;
  SelectionNetwork selection_;
  std::vector<std::unique_ptr<RuleNetwork>> rules_;
  uint32_t next_pnode_id_ = 1000;
};

TEST_F(SelectionNetworkTest, IndexedAndResidualRouting) {
  AddRule("r_low", "emp.sal > 10 and emp.sal <= 20");
  AddRule("r_high", "emp.sal > 20");
  AddRule("r_bob", "emp.name = \"Bob\"");
  AddRule("r_all", "");             // no predicate: residual, matches all
  AddRule("r_odd", "emp.sal / 2 > 8");  // non-indexable: residual

  EXPECT_EQ(selection_.num_indexed(), 3u);
  EXPECT_EQ(selection_.num_residual(), 2u);

  EXPECT_EQ(MatchNames(15, "Alice"), (std::vector<std::string>{"r_low",
                                                               "r_all"}));
  EXPECT_EQ(MatchNames(25, "Bob"),
            (std::vector<std::string>{"r_high", "r_bob", "r_all", "r_odd"}));
  EXPECT_EQ(MatchNames(5, "Zed"), (std::vector<std::string>{"r_all"}));
}

TEST_F(SelectionNetworkTest, BoundaryExactness) {
  AddRule("r", "emp.sal > 10 and emp.sal <= 20");
  EXPECT_TRUE(MatchNames(10, "x").empty());
  EXPECT_EQ(MatchNames(10.0001, "x").size(), 1u);
  EXPECT_EQ(MatchNames(20, "x").size(), 1u);
  EXPECT_TRUE(MatchNames(20.0001, "x").empty());
}

TEST_F(SelectionNetworkTest, IndexedConditionStillChecksFullPredicate) {
  // The anchor is sal, but the name conjunct must still be verified.
  AddRule("r", "emp.sal = 10 and emp.name = \"Bob\"");
  EXPECT_EQ(selection_.num_indexed(), 1u);
  EXPECT_TRUE(MatchNames(10, "Alice").empty());
  EXPECT_EQ(MatchNames(10, "Bob").size(), 1u);
}

TEST_F(SelectionNetworkTest, RemoveRuleUnregisters) {
  RuleNetwork* r1 = AddRule("r1", "emp.sal > 0");
  AddRule("r2", "emp.name = \"Bob\"");
  EXPECT_EQ(MatchNames(5, "Bob").size(), 2u);
  selection_.RemoveRule(r1);
  EXPECT_EQ(MatchNames(5, "Bob"), (std::vector<std::string>{"r2"}));
  EXPECT_EQ(selection_.num_indexed(), 1u);
}

TEST_F(SelectionNetworkTest, TokensForOtherRelationsMatchNothing) {
  AddRule("r", "emp.sal > 0");
  Token token;
  token.kind = TokenKind::kPlus;
  token.relation_id = 9999;
  token.value = Tuple(std::vector<Value>{Value::Int(1)});
  std::vector<std::vector<ConditionMatch>> matches;
  ASSERT_OK(selection_.MatchBatch({&token, 1}, &matches));
  EXPECT_TRUE(matches[0].empty());
}

TEST_F(SelectionNetworkTest, MatchOrderIsRegistrationOrder) {
  AddRule("b_rule", "emp.sal > 0");
  AddRule("a_rule", "emp.sal > 0");
  // Registration order, not name order.
  EXPECT_EQ(MatchNames(1, "x"),
            (std::vector<std::string>{"b_rule", "a_rule"}));
}

}  // namespace
}  // namespace ariel
