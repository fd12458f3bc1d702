// Unit tests for the transaction spine in isolation: the UndoLog's
// arm/disarm gating and record bookkeeping, and the TransactionContext's
// frame stack (command brackets, explicit transactions, savepoints) against
// a recording TransactionHooks fake. Engine-level rollback correctness is
// covered by rollback_equivalence_test.cc.

#include "txn/undo_log.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "catalog/schema.h"
#include "storage/heap_relation.h"
#include "txn/txn_context.h"

namespace ariel {
namespace {

Schema OneIntSchema() {
  Schema schema;
  schema.AddAttribute(Attribute{"x", DataType::kInt});
  return schema;
}

TEST(UndoLogTest, DisarmedAppendsAreNoOps) {
  UndoLog log;
  EXPECT_FALSE(log.enabled());
  log.AppendInsert(1, TupleId{1, 0});
  log.AppendDelete(1, TupleId{1, 1}, Tuple());
  log.AppendCreateRelation("t");
  EXPECT_TRUE(log.empty());
}

TEST(UndoLogTest, ArmedAppendsRecordInOrder) {
  UndoLog log;
  log.set_enabled(true);
  log.AppendInsert(7, TupleId{7, 3});
  log.AppendUpdate(7, TupleId{7, 3}, Tuple(), {"x"});
  log.AppendRuleFired("r", 4);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.record(0).kind, UndoKind::kInsert);
  EXPECT_EQ(log.record(1).kind, UndoKind::kUpdate);
  EXPECT_EQ(log.record(1).attrs, std::vector<std::string>{"x"});
  EXPECT_EQ(log.record(2).kind, UndoKind::kRuleFired);
  EXPECT_EQ(log.record(2).name, "r");
  EXPECT_EQ(log.record(2).prev_count, 4u);
}

TEST(UndoLogTest, TruncateToDropsSuffix) {
  UndoLog log;
  log.set_enabled(true);
  log.AppendInsert(1, TupleId{1, 0});
  log.AppendInsert(1, TupleId{1, 1});
  log.AppendInsert(1, TupleId{1, 2});
  log.TruncateTo(1);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.record(0).tid.slot, 0u);
}

TEST(UndoLogTest, RecordsRenderTheirKind) {
  UndoLog log;
  log.set_enabled(true);
  log.AppendCreateIndex(3, "sal");
  EXPECT_NE(log.record(0).ToString().find("create-index"), std::string::npos);
}

/// Records the replay a rollback drives: one string per ApplyUndo call plus
/// the compensation bracket, so tests assert both order and bracketing.
class RecordingHooks : public TransactionHooks {
 public:
  Status ApplyUndo(UndoRecord* record) override {
    calls.push_back(std::string(UndoKindToString(record->kind)));
    return Status::OK();
  }
  size_t PendingAlertMark() const override { return 0; }
  void TruncatePendingAlerts(size_t) override { ++restores; }
  void BeginCompensation() override { calls.push_back("begin-comp"); }
  void EndCompensation() override { calls.push_back("end-comp"); }

  std::vector<std::string> calls;
  int restores = 0;
};

TEST(TransactionContextTest, CommandBracketArmsLog) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  EXPECT_FALSE(txn.undo_log().enabled());
  ASSERT_OK(txn.BeginCommand());
  EXPECT_TRUE(txn.undo_log().enabled());
  EXPECT_TRUE(txn.in_command());
  txn.undo_log().AppendInsert(1, TupleId{1, 0});
  ASSERT_OK(txn.CommitCommand());
  EXPECT_FALSE(txn.undo_log().enabled());
  EXPECT_TRUE(txn.undo_log().empty());
  EXPECT_EQ(txn.rollbacks(), 0u);
}

TEST(TransactionContextTest, AbortReplaysInReverseInsideCompensation) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  ASSERT_OK(txn.BeginCommand());
  txn.undo_log().AppendInsert(1, TupleId{1, 0});
  txn.undo_log().AppendDelete(1, TupleId{1, 1}, Tuple());
  txn.undo_log().AppendRuleFired("r", 0);
  ASSERT_OK(txn.AbortCommand());
  const std::vector<std::string> expected = {
      "begin-comp", "rule-fired", "delete", "insert", "end-comp"};
  EXPECT_EQ(hooks.calls, expected);
  EXPECT_EQ(txn.rollbacks(), 1u);
  EXPECT_EQ(hooks.restores, 1);  // rollback truncates the pending alerts
  EXPECT_TRUE(txn.undo_log().empty());
  EXPECT_FALSE(txn.undo_log().enabled());
}

TEST(TransactionContextTest, NestedCommandFramesAreRejected) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  ASSERT_OK(txn.BeginCommand());
  EXPECT_NOT_OK(txn.BeginCommand());
  ASSERT_OK(txn.CommitCommand());
}

TEST(TransactionContextTest, SavepointRollbackKeepsOuterRecords) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  ASSERT_OK(txn.BeginCommand());
  txn.undo_log().AppendInsert(1, TupleId{1, 0});

  auto savepoint = txn.OpenSavepoint();
  ASSERT_OK(savepoint);
  txn.undo_log().AppendInsert(1, TupleId{1, 1});
  txn.undo_log().AppendInsert(1, TupleId{1, 2});
  ASSERT_OK(txn.RollbackToSavepoint(*savepoint));

  // Only the two post-savepoint inserts replayed; the outer one survives
  // for the command-level abort.
  const std::vector<std::string> expected = {"begin-comp", "insert", "insert",
                                             "end-comp"};
  EXPECT_EQ(hooks.calls, expected);
  EXPECT_EQ(txn.undo_log().size(), 1u);
  EXPECT_TRUE(txn.in_command());
  ASSERT_OK(txn.CommitCommand());
}

TEST(TransactionContextTest, ReleaseSavepointKeepsRecords) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  ASSERT_OK(txn.BeginCommand());
  auto savepoint = txn.OpenSavepoint();
  ASSERT_OK(savepoint);
  txn.undo_log().AppendInsert(1, TupleId{1, 0});
  ASSERT_OK(txn.ReleaseSavepoint(*savepoint));
  EXPECT_EQ(txn.undo_log().size(), 1u);  // effects kept, frame gone
  EXPECT_TRUE(hooks.calls.empty());
  ASSERT_OK(txn.AbortCommand());
  EXPECT_EQ(hooks.calls.size(), 3u);  // begin-comp, insert, end-comp
}

TEST(TransactionContextTest, SavepointTokensAreLifo) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  ASSERT_OK(txn.BeginCommand());
  auto outer = txn.OpenSavepoint();
  ASSERT_OK(outer);
  auto inner = txn.OpenSavepoint();
  ASSERT_OK(inner);
  EXPECT_NOT_OK(txn.RollbackToSavepoint(*outer));  // inner still open
  ASSERT_OK(txn.ReleaseSavepoint(*inner));
  ASSERT_OK(txn.ReleaseSavepoint(*outer));
  ASSERT_OK(txn.CommitCommand());
}

TEST(TransactionContextTest, ExplicitTransactionSpansCommands) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  ASSERT_OK(txn.BeginExplicit());
  EXPECT_TRUE(txn.in_explicit());

  // Two command frames inside: each commits, records accumulate under the
  // explicit frame for a possible explicit abort.
  ASSERT_OK(txn.BeginCommand());
  txn.undo_log().AppendInsert(1, TupleId{1, 0});
  ASSERT_OK(txn.CommitCommand());
  EXPECT_TRUE(txn.undo_log().enabled());  // explicit frame keeps it armed
  ASSERT_OK(txn.BeginCommand());
  txn.undo_log().AppendInsert(1, TupleId{1, 1});
  ASSERT_OK(txn.CommitCommand());
  EXPECT_EQ(txn.undo_log().size(), 2u);

  ASSERT_OK(txn.AbortExplicit());
  const std::vector<std::string> expected = {"begin-comp", "insert", "insert",
                                             "end-comp"};
  EXPECT_EQ(hooks.calls, expected);
  EXPECT_FALSE(txn.in_explicit());
  EXPECT_FALSE(txn.undo_log().enabled());
}

TEST(TransactionContextTest, ExplicitCommitDiscardsUndoRecords) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  ASSERT_OK(txn.BeginExplicit());
  ASSERT_OK(txn.BeginCommand());
  txn.undo_log().AppendInsert(1, TupleId{1, 0});
  ASSERT_OK(txn.CommitCommand());
  ASSERT_OK(txn.CommitExplicit());
  EXPECT_TRUE(txn.undo_log().empty());
  EXPECT_TRUE(hooks.calls.empty());
  EXPECT_EQ(txn.rollbacks(), 0u);
}

TEST(TransactionContextTest, ExplicitTransactionMisuseIsRejected) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  EXPECT_NOT_OK(txn.CommitExplicit());  // nothing open
  EXPECT_NOT_OK(txn.AbortExplicit());
  ASSERT_OK(txn.BeginExplicit());
  EXPECT_NOT_OK(txn.BeginExplicit());  // no nesting
  ASSERT_OK(txn.CommitExplicit());
}

TEST(TransactionContextTest, ResidueDetection) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  EXPECT_FALSE(txn.HasResidueAtQuiescence());

  // An idle explicit transaction (awaiting more commands) is legal residue.
  ASSERT_OK(txn.BeginExplicit());
  EXPECT_FALSE(txn.HasResidueAtQuiescence());

  // An unclosed command frame at quiescence is a leak.
  ASSERT_OK(txn.BeginCommand());
  EXPECT_TRUE(txn.HasResidueAtQuiescence());
  ASSERT_OK(txn.CommitCommand());
  EXPECT_FALSE(txn.HasResidueAtQuiescence());
  ASSERT_OK(txn.CommitExplicit());
}

TEST(TransactionContextTest, DropRelationRecordOwnsDetachedRelation) {
  RecordingHooks hooks;
  TransactionContext txn(&hooks);
  ASSERT_OK(txn.BeginCommand());
  auto rel = std::make_unique<HeapRelation>(9, "t", OneIntSchema());
  txn.undo_log().AppendDropRelation(std::move(rel));
  ASSERT_EQ(txn.undo_log().size(), 1u);
  EXPECT_EQ(txn.undo_log().record(0).kind, UndoKind::kDropRelation);
  ASSERT_NE(txn.undo_log().record(0).detached, nullptr);
  EXPECT_EQ(txn.undo_log().record(0).detached->name(), "t");
  ASSERT_OK(txn.CommitCommand());  // commit frees the owned relation
}

}  // namespace
}  // namespace ariel
