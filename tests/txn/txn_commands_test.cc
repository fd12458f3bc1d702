// Engine-level transaction semantics: the begin/commit/abort shell
// commands (explicit multi-command transactions over DML and DDL), the
// on_action_error policies of the rule execution monitor, the halt
// control-flow regression (halt inside a nested do…end block stops the
// whole recognize-act cycle, both in rule actions and at top level), the
// DirectGateway updated-attrs contract, and the txn counters surfaced by
// `show stats`.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "exec/gateway.h"
#include "storage/heap_relation.h"

namespace ariel {
namespace {

class TxnCommandsTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset({}); }

  void Reset(DatabaseOptions options) {
    db_ = std::make_unique<Database>(options);
    ASSERT_OK(db_->Execute("create t (x = int)"));
    ASSERT_OK(db_->Execute("create log (msg = string)"));
  }

  size_t Count(const std::string& relation) {
    auto result = db_->Execute("retrieve (" + relation + ".all)");
    if (!result.ok() || !result->rows.has_value()) return SIZE_MAX;
    return result->rows->num_rows();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(TxnCommandsTest, ExplicitAbortRestoresMultiCommandState) {
  ASSERT_OK(db_->Execute("append t (x = 1)"));
  const std::string before = db_->DebugDumpState();

  ASSERT_OK(db_->Execute("begin"));
  ASSERT_OK(db_->Execute("append t (x = 2)"));
  ASSERT_OK(db_->Execute("append t (x = 3)"));
  ASSERT_OK(db_->Execute("delete t where t.x = 1"));
  EXPECT_EQ(Count("t"), 2u);
  ASSERT_OK(db_->Execute("abort"));

  EXPECT_EQ(Count("t"), 1u);
  EXPECT_EQ(before, db_->DebugDumpState());
}

TEST_F(TxnCommandsTest, ExplicitCommitKeepsState) {
  ASSERT_OK(db_->Execute("begin"));
  ASSERT_OK(db_->Execute("append t (x = 2)"));
  ASSERT_OK(db_->Execute("commit"));
  EXPECT_EQ(Count("t"), 1u);
  EXPECT_FALSE(db_->txn().in_explicit());
}

TEST_F(TxnCommandsTest, AbortUndoesRuleCascades) {
  ASSERT_OK(db_->Execute(
      "define rule echo on append t if t.x > 0 "
      "then append to log (msg = \"seen\")"));
  const std::string before = db_->DebugDumpState();

  ASSERT_OK(db_->Execute("begin"));
  ASSERT_OK(db_->Execute("append t (x = 5)"));
  EXPECT_EQ(Count("log"), 1u);  // rule fired inside the transaction
  ASSERT_OK(db_->Execute("abort"));

  EXPECT_EQ(Count("log"), 0u);
  EXPECT_EQ(before, db_->DebugDumpState());  // incl. times_fired and trace
}

TEST_F(TxnCommandsTest, AbortUndoesDdl) {
  ASSERT_OK(db_->Execute("append t (x = 1)"));
  const std::string before = db_->DebugDumpState();

  ASSERT_OK(db_->Execute("begin"));
  ASSERT_OK(db_->Execute("create extra (y = int)"));
  ASSERT_OK(db_->Execute("append extra (y = 9)"));
  ASSERT_OK(db_->Execute("define index on t (x)"));
  ASSERT_OK(db_->Execute("destroy log"));
  EXPECT_EQ(db_->catalog().GetRelation("log"), nullptr);
  ASSERT_OK(db_->Execute("abort"));

  // create undone, index undone, destroy undone (same relation object with
  // its data intact).
  EXPECT_EQ(db_->catalog().GetRelation("extra"), nullptr);
  ASSERT_NE(db_->catalog().GetRelation("log"), nullptr);
  EXPECT_EQ(Count("log"), 0u);
  EXPECT_EQ(before, db_->DebugDumpState());
}

// Rule administration is not undone, but a rule over a relation the
// aborted frame created cannot outlive that relation: the abort removes it
// with the relation instead of leaving its α-memories on a freed heap. A
// rule over another relation whose tuple variable is named after the
// dropped one stays.
TEST_F(TxnCommandsTest, AbortRemovesRulesOverRelationsItDrops) {
  ASSERT_OK(db_->Execute(
      "define rule alias if tmp.x > 0 from tmp in t "
      "then append to log (msg = \"alias\")"));
  ASSERT_OK(db_->Execute("begin"));
  ASSERT_OK(db_->Execute("create tmp (x = int)"));
  ASSERT_OK(db_->Execute(
      "define rule rt if tmp.x > 0 then append to log (msg = \"rt\")"));
  ASSERT_OK(db_->Execute(
      "define rule rz if z.x > 0 from z in tmp "
      "then append to log (msg = \"rz\")"));
  ASSERT_OK(db_->Execute("abort"));

  for (const char* gone : {"rt", "rz"}) {
    auto explain = db_->Execute(std::string("explain rule ") + gone);
    ASSERT_FALSE(explain.ok()) << gone;
    EXPECT_EQ(explain.status().code(), StatusCode::kNotFound) << gone;
  }
  ASSERT_OK(db_->Execute("explain rule alias"));
  auto violations = db_->AuditNetwork();
  ASSERT_OK(violations);
  EXPECT_TRUE(violations->empty());

  ASSERT_OK(db_->Execute("create tmp (x = int)"));
  ASSERT_OK(db_->Execute("append tmp (x = 5)"));
  EXPECT_EQ(Count("log"), 0u);
  ASSERT_OK(db_->Execute("append t (x = 5)"));
  EXPECT_EQ(Count("log"), 1u);
}

TEST_F(TxnCommandsTest, TransactionMisuseIsAnError) {
  EXPECT_NOT_OK(db_->Execute("commit"));
  EXPECT_NOT_OK(db_->Execute("abort"));
  ASSERT_OK(db_->Execute("begin"));
  EXPECT_NOT_OK(db_->Execute("begin"));  // no nesting
  ASSERT_OK(db_->Execute("commit"));
}

TEST_F(TxnCommandsTest, FailedCommandInsideExplicitTxnRollsBackJustItself) {
  ASSERT_OK(db_->Execute("begin"));
  ASSERT_OK(db_->Execute("append t (x = 1)"));
  db_->failpoint().Arm(1);
  EXPECT_NOT_OK(db_->Execute("append t (x = 2)"));
  db_->failpoint().Disarm();
  // The failed command rolled back; the earlier one is still pending and
  // commits with the transaction.
  EXPECT_EQ(Count("t"), 1u);
  ASSERT_OK(db_->Execute("commit"));
  EXPECT_EQ(Count("t"), 1u);
}

// --- on_action_error policies ------------------------------------------

/// A rule whose action fails halfway: the first action command appends to
/// log (succeeds), the second divides by zero.
constexpr const char* kFailingRule =
    "define rule boom on append t if t.x > 10 then do\n"
    "  append to log (msg = \"partial\")\n"
    "  append to log (msg = \"1/0\") where 1 / 0 > 0\n"
    "end";

TEST_F(TxnCommandsTest, AbortCommandPolicyRollsBackEverything) {
  ASSERT_OK(db_->Execute(kFailingRule));
  const std::string before = db_->DebugDumpState();

  auto result = db_->Execute("append t (x = 20)");
  ASSERT_NOT_OK(result.status());
  EXPECT_NE(result.status().message().find("boom"), std::string::npos)
      << result.status().ToString();

  // The triggering append AND the partial action are both gone.
  EXPECT_EQ(Count("t"), 0u);
  EXPECT_EQ(Count("log"), 0u);
  EXPECT_EQ(before, db_->DebugDumpState());
}

TEST_F(TxnCommandsTest, AbortRulePolicyKeepsTriggerDropsFiring) {
  DatabaseOptions options;
  options.on_action_error = ActionErrorPolicy::kAbortRule;
  Reset(options);
  ASSERT_OK(db_->Execute(kFailingRule));

  ASSERT_OK(db_->Execute("append t (x = 20)").status());

  // The firing's partial effects rolled back to its savepoint; the
  // triggering append survives and the command commits.
  EXPECT_EQ(Count("t"), 1u);
  EXPECT_EQ(Count("log"), 0u);
  auto violations = db_->AuditNetwork();
  ASSERT_OK(violations);
  EXPECT_TRUE(violations->empty());
}

TEST_F(TxnCommandsTest, IgnorePolicyKeepsPartialEffects) {
  DatabaseOptions options;
  options.on_action_error = ActionErrorPolicy::kIgnore;
  Reset(options);
  ASSERT_OK(db_->Execute(kFailingRule));

  ASSERT_OK(db_->Execute("append t (x = 20)").status());

  // Both the trigger and the action's first (successful) command survive.
  EXPECT_EQ(Count("t"), 1u);
  EXPECT_EQ(Count("log"), 1u);
}

// --- halt control flow --------------------------------------------------

TEST_F(TxnCommandsTest, HaltInsideTopLevelBlockStopsTheBlock) {
  // Regression: halt nested in a do…end block used to escape as an error.
  ASSERT_OK(db_->Execute(
      "do\n"
      "  append t (x = 1)\n"
      "  halt\n"
      "  append t (x = 2)\n"
      "end"));
  EXPECT_EQ(Count("t"), 1u);  // the command before halt applied, not after
}

TEST_F(TxnCommandsTest, HaltInsideRuleActionBlockStopsTheCycle) {
  // A halt nested inside a rule action's do…end block must stop the whole
  // recognize-act cycle, not just the block: the lower-priority rule never
  // fires on the same transition.
  ASSERT_OK(db_->Execute(
      "define rule stop priority 9 on append t if t.x > 10 then do\n"
      "  append to log (msg = \"halting\")\n"
      "  halt\n"
      "end"));
  ASSERT_OK(db_->Execute(
      "define rule after priority 1 on append t "
      "then append to log (msg = \"late\")"));

  ASSERT_OK(db_->Execute("append t (x = 20)"));

  auto result = db_->Execute("retrieve (log.msg)");
  ASSERT_OK(result.status());
  ASSERT_EQ(result->rows->num_rows(), 1u);
  EXPECT_EQ(result->rows->rows[0].at(0), Value::String("halting"));
}

// --- show stats ---------------------------------------------------------

TEST_F(TxnCommandsTest, ShowStatsReportsTransactionState) {
  auto result = db_->Execute("show stats");
  ASSERT_OK(result.status());
  EXPECT_NE(result->message.find("transactions:"), std::string::npos);
  EXPECT_NE(result->message.find("on_action_error=abort_command"),
            std::string::npos);

  ASSERT_OK(db_->Execute("begin"));
  result = db_->Execute("show stats");
  ASSERT_OK(result.status());
  EXPECT_NE(result->message.find("(explicit transaction open)"),
            std::string::npos);
  ASSERT_OK(db_->Execute("abort"));

  result = db_->Execute("show stats");
  ASSERT_OK(result.status());
  EXPECT_NE(result->message.find("rollbacks="), std::string::npos);
}

// --- DirectGateway updated-attrs contract -------------------------------

TEST(DirectGatewayTest, UpdateForwardsUpdatedAttrs) {
  // Regression: DirectGateway::Update used to drop `updated_attrs` on the
  // floor, so HeapRelation could not enforce that unlisted attributes stay
  // unchanged (and re-keyed every index on every replace).
  Schema schema;
  schema.AddAttribute(Attribute{"a", DataType::kInt});
  schema.AddAttribute(Attribute{"b", DataType::kInt});
  HeapRelation rel(1, "r", std::move(schema));
  DirectGateway gateway;

  auto tid = gateway.Insert(&rel, Tuple({Value::Int(1), Value::Int(2)}));
  ASSERT_OK(tid);

  // Listing only "b" while also changing "a" must now be rejected.
  Status bad = gateway.Update(&rel, *tid,
                              Tuple({Value::Int(99), Value::Int(3)}), {"b"});
  EXPECT_NOT_OK(bad);
  EXPECT_EQ(rel.Get(*tid)->at(0), Value::Int(1));  // unchanged on failure

  // A replace that honours its target list goes through.
  ASSERT_OK(gateway.Update(&rel, *tid,
                           Tuple({Value::Int(1), Value::Int(3)}), {"b"}));
  EXPECT_EQ(rel.Get(*tid)->at(1), Value::Int(3));
}

}  // namespace
}  // namespace ariel
