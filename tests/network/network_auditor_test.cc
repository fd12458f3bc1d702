// Corruption tests for the A-TREAT invariant auditor: each test hand-damages
// one piece of incremental network state (a stored α-memory, a P-node, a
// dynamic memory) and asserts the auditor reports exactly the planted
// violation. A clean engine must audit clean, otherwise ARIEL_AUDIT builds
// would reject every command.

#include "network/network_auditor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "isl/interval_skip_list.h"

namespace ariel {
namespace {

/// Builds a database with a two-variable pattern rule (both α-memories
/// stored) plus a two-variable event rule (one dynamic memory), and a little
/// data in each relation. The pattern rule's condition matches the seeded
/// tuple t(20)/u(20) exactly once; its firing appends to `log`, leaving the
/// P-node empty and the α-memories populated.
class NetworkAuditorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
    db_ = std::make_unique<Database>(options);
    ASSERT_OK(db_->Execute("create t (x = int)"));
    ASSERT_OK(db_->Execute("create u (y = int)"));
    ASSERT_OK(db_->Execute("create log (x = int)"));
    ASSERT_OK(db_->Execute(
        "define rule pair if t.x > 10 and u.y = t.x "
        "then append to log (x = t.x)"));
    ASSERT_OK(db_->Execute(
        "define rule mirror on append t if u.y >= 0 "
        "then append to log (x = 0)"));
    ASSERT_OK(db_->Execute("append u (y = 20)"));
    ASSERT_OK(db_->Execute("append t (x = 5)"));
    ASSERT_OK(db_->Execute("append t (x = 20)"));
  }

  AlphaMemory* FindAlpha(const std::string& rule_name,
                         const std::string& var_name) {
    Rule* rule = db_->rules().GetRule(rule_name);
    if (rule == nullptr || rule->network == nullptr) return nullptr;
    RuleNetwork* net = rule->network.get();
    for (size_t i = 0; i < net->num_vars(); ++i) {
      if (net->alpha(i)->spec().var_name == var_name) return net->alpha(i);
    }
    return nullptr;
  }

  std::vector<AuditViolation> Audit() {
    auto result = db_->AuditNetwork();
    EXPECT_OK(result);
    return result.ok() ? *result : std::vector<AuditViolation>{};
  }

  /// Asserts the audit finds exactly one violation, of `kind`, whose detail
  /// mentions `substring`.
  void ExpectSingleViolation(AuditViolationKind kind,
                             const std::string& substring) {
    std::vector<AuditViolation> violations = Audit();
    ASSERT_EQ(violations.size(), 1u)
        << (violations.empty() ? "no violations reported"
                               : violations.front().ToString());
    EXPECT_EQ(violations[0].kind, kind) << violations[0].ToString();
    EXPECT_NE(violations[0].detail.find(substring), std::string::npos)
        << violations[0].ToString();
  }

  std::unique_ptr<Database> db_;
};

TEST_F(NetworkAuditorTest, CleanEngineAuditsClean) {
  std::vector<AuditViolation> violations = Audit();
  EXPECT_TRUE(violations.empty())
      << "unexpected: " << violations.front().ToString();

  // Sanity: the fixture produced the stored state the tests corrupt.
  AlphaMemory* alpha_t = FindAlpha("pair", "t");
  ASSERT_NE(alpha_t, nullptr);
  EXPECT_EQ(alpha_t->kind(), AlphaKind::kStored);
  EXPECT_EQ(alpha_t->entries().size(), 1u);  // only t(20) passes t.x > 10
}

TEST_F(NetworkAuditorTest, DetectsAlphaEntryForDeadTuple) {
  AlphaMemory* alpha_t = FindAlpha("pair", "t");
  ASSERT_NE(alpha_t, nullptr);
  TupleId dead{db_->catalog().GetRelation("t")->id(), 9999};
  alpha_t->InsertEntry(
      AlphaEntry{dead, Tuple(std::vector<Value>{Value::Int(42)}), Tuple()});
  ExpectSingleViolation(AuditViolationKind::kAlphaExtra, "no longer live");
}

TEST_F(NetworkAuditorTest, DetectsAlphaEntryFailingSelection) {
  AlphaMemory* alpha_t = FindAlpha("pair", "t");
  ASSERT_NE(alpha_t, nullptr);
  // t(5) is live but fails the rule's selection predicate t.x > 10.
  HeapRelation* t = db_->catalog().GetRelation("t");
  for (TupleId tid : t->AllTupleIds()) {
    const Tuple* tuple = t->Get(tid);
    if (tuple->at(0).int_value() == 5) {
      alpha_t->InsertEntry(AlphaEntry{tid, *tuple, Tuple()});
    }
  }
  ExpectSingleViolation(AuditViolationKind::kAlphaExtra,
                        "fails the selection predicate");
}

TEST_F(NetworkAuditorTest, DetectsMissingAlphaEntry) {
  AlphaMemory* alpha_t = FindAlpha("pair", "t");
  ASSERT_NE(alpha_t, nullptr);
  ASSERT_EQ(alpha_t->entries().size(), 1u);
  ASSERT_TRUE(alpha_t->RemoveEntry(alpha_t->entries()[0].tid));
  ExpectSingleViolation(AuditViolationKind::kAlphaMissing,
                        "satisfies the selection predicate");
}

TEST_F(NetworkAuditorTest, DetectsStaleAlphaValue) {
  AlphaMemory* alpha_t = FindAlpha("pair", "t");
  ASSERT_NE(alpha_t, nullptr);
  ASSERT_EQ(alpha_t->entries().size(), 1u);
  TupleId tid = alpha_t->entries()[0].tid;
  ASSERT_TRUE(alpha_t->RemoveEntry(tid));
  alpha_t->InsertEntry(
      AlphaEntry{tid, Tuple(std::vector<Value>{Value::Int(99)}), Tuple()});
  ExpectSingleViolation(AuditViolationKind::kAlphaStale, "base tuple is");
}

TEST_F(NetworkAuditorTest, DetectsDuplicateAlphaEntry) {
  AlphaMemory* alpha_u = FindAlpha("pair", "u");
  ASSERT_NE(alpha_u, nullptr);
  ASSERT_EQ(alpha_u->entries().size(), 1u);
  alpha_u->InsertEntry(alpha_u->entries()[0]);
  ExpectSingleViolation(AuditViolationKind::kAlphaDuplicate, "twice");
}

TEST_F(NetworkAuditorTest, DetectsUnflushedDynamicMemory) {
  AlphaMemory* alpha_event = FindAlpha("mirror", "t");
  ASSERT_NE(alpha_event, nullptr);
  ASSERT_TRUE(alpha_event->is_dynamic());
  ASSERT_TRUE(alpha_event->entries().empty()) << "not flushed at quiescence";
  alpha_event->InsertEntry(
      AlphaEntry{TupleId{db_->catalog().GetRelation("t")->id(), 0},
                 Tuple(std::vector<Value>{Value::Int(1)}), Tuple()});
  ExpectSingleViolation(AuditViolationKind::kDynamicNotFlushed,
                        "at quiescence");
}

TEST_F(NetworkAuditorTest, DetectsPlantedJoinIndexBucketEntry) {
  // The equijoin u.y = t.x keys t's stored memory; a bucket entry planted
  // under the wrong key simulates a missed maintenance update and must
  // surface as exactly one join-index violation.
  AlphaMemory* alpha_t = FindAlpha("pair", "t");
  ASSERT_NE(alpha_t, nullptr);
  ASSERT_TRUE(alpha_t->join_index().has_specs());
  alpha_t->mutable_join_index()->PlantBucketEntryForTesting(0, Value::Int(123),
                                                            0);
  ExpectSingleViolation(AuditViolationKind::kJoinIndexInconsistent,
                        "hash index");
}

// Under the default policy the selection-free u joins through a virtual
// memory that leases u's join hash index on y. A bucket entry planted under
// a stale key (the dual of PlantBucketEntryForTesting for stored memories)
// must surface as a join-index violation against the relation, and so must
// a bucket that still lists a deleted tuple.
TEST(RelationJoinIndexAuditTest, DetectsStaleAndDeadBucketEntries) {
  Database db;
  ASSERT_OK(db.Execute("create t (x = int)"));
  ASSERT_OK(db.Execute("create u (y = int)"));
  ASSERT_OK(db.Execute("create log (x = int)"));
  ASSERT_OK(db.Execute("define rule pair if t.x > 10 and u.y = t.x "
                       "then append to log (x = t.x)"));
  ASSERT_OK(db.Execute("append u (y = 20)"));
  ASSERT_OK(db.Execute("append u (y = 30)"));
  ASSERT_OK(db.Execute("append t (x = 20)"));
  const RuleNetwork& net = *db.rules().GetRule("pair")->network;
  ASSERT_TRUE(net.alpha(1)->is_virtual()) << net.ToString();
  HeapRelation* u = db.catalog().GetRelation("u");
  ASSERT_EQ(u->num_join_indexes(), 1u);
  auto clean = db.AuditNetwork();
  ASSERT_OK(clean);
  EXPECT_TRUE(clean->empty()) << (*clean)[0].ToString();

  const TupleId first = u->AllTupleIds()[0];
  u->PlantJoinIndexEntryForTesting("y", Value::Int(99), first.slot);
  auto stale = db.AuditNetwork();
  ASSERT_OK(stale);
  ASSERT_FALSE(stale->empty());
  for (const AuditViolation& v : *stale) {
    EXPECT_EQ(v.kind, AuditViolationKind::kJoinIndexInconsistent)
        << v.ToString();
    EXPECT_EQ(v.rule, "relation u") << v.ToString();
  }
  EXPECT_NE((*stale)[0].detail.find("bucket 99 holds slot"),
            std::string::npos)
      << (*stale)[0].ToString();

  Database db2;
  ASSERT_OK(db2.Execute("create t (x = int)"));
  ASSERT_OK(db2.Execute("create u (y = int)"));
  ASSERT_OK(db2.Execute("create log (x = int)"));
  ASSERT_OK(db2.Execute("define rule pair if t.x > 10 and u.y = t.x "
                        "then append to log (x = t.x)"));
  ASSERT_OK(db2.Execute("append u (y = 20)"));
  ASSERT_OK(db2.Execute("append u (y = 30)"));
  HeapRelation* u2 = db2.catalog().GetRelation("u");
  const TupleId dying = u2->AllTupleIds()[1];
  ASSERT_OK(db2.Execute("delete u where u.y = 30"));
  u2->PlantJoinIndexEntryForTesting("y", Value::Int(30), dying.slot);
  auto dead = db2.AuditNetwork();
  ASSERT_OK(dead);
  ASSERT_EQ(dead->size(), 1u);
  EXPECT_EQ((*dead)[0].kind, AuditViolationKind::kJoinIndexInconsistent);
  EXPECT_NE((*dead)[0].detail.find("dead slot"), std::string::npos)
      << (*dead)[0].ToString();
}

TEST_F(NetworkAuditorTest, DetectsDanglingPnodeBinding) {
  Rule* rule = db_->rules().GetRule("pair");
  ASSERT_NE(rule, nullptr);
  PNode* pnode = rule->network->pnode();
  HeapRelation* t = db_->catalog().GetRelation("t");
  HeapRelation* u = db_->catalog().GetRelation("u");
  Row row(2);
  row.Set(0, Tuple(std::vector<Value>{Value::Int(20)}),
          TupleId{t->id(), 9999});  // dead slot
  row.Set(1, *u->Get(u->AllTupleIds()[0]), u->AllTupleIds()[0]);
  ASSERT_OK(pnode->Insert(row, {}));
  std::vector<AuditViolation> violations = Audit();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, AuditViolationKind::kPnodeDangling)
      << violations[0].ToString();
}

TEST_F(NetworkAuditorTest, DetectsStalePnodeBinding) {
  Rule* rule = db_->rules().GetRule("pair");
  ASSERT_NE(rule, nullptr);
  PNode* pnode = rule->network->pnode();
  HeapRelation* t = db_->catalog().GetRelation("t");
  HeapRelation* u = db_->catalog().GetRelation("u");
  TupleId t_tid;
  for (TupleId tid : t->AllTupleIds()) {
    if (t->Get(tid)->at(0).int_value() == 20) t_tid = tid;
  }
  ASSERT_TRUE(t_tid.valid());
  Row row(2);
  row.Set(0, Tuple(std::vector<Value>{Value::Int(77)}), t_tid);  // wrong value
  row.Set(1, *u->Get(u->AllTupleIds()[0]), u->AllTupleIds()[0]);
  ASSERT_OK(pnode->Insert(row, {}));
  std::vector<AuditViolation> violations = Audit();
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].kind, AuditViolationKind::kPnodeStale)
      << violations[0].ToString();
}

TEST_F(NetworkAuditorTest, DetectsPendingInstantiationOffTheAgenda) {
  // A valid instantiation written behind the discrimination network's back
  // is never scheduled, so conflict resolution would never fire it.
  Rule* rule = db_->rules().GetRule("pair");
  ASSERT_NE(rule, nullptr);
  HeapRelation* t = db_->catalog().GetRelation("t");
  HeapRelation* u = db_->catalog().GetRelation("u");
  TupleId t_tid;
  for (TupleId tid : t->AllTupleIds()) {
    if (t->Get(tid)->at(0).int_value() == 20) t_tid = tid;
  }
  ASSERT_TRUE(t_tid.valid());
  Row row(2);
  row.Set(0, *t->Get(t_tid), t_tid);
  row.Set(1, *u->Get(u->AllTupleIds()[0]), u->AllTupleIds()[0]);
  ASSERT_OK(rule->network->pnode()->Insert(row, {}));
  ExpectSingleViolation(AuditViolationKind::kAgendaMissing, "agenda");
}

TEST_F(NetworkAuditorTest, DeferredBatchTokensAtQuiescenceReported) {
  // Open a transition by hand and defer a token in the batch; the engine
  // never audits in this state (every flush point precedes quiescence), so
  // the auditor must flag it. Other violations (the α-memories haven't seen
  // the deferred insert) are expected alongside.
  db_->transitions().set_batch_tokens(100);
  db_->transitions().BeginTransition();
  HeapRelation* t = db_->catalog().GetRelation("t");
  ASSERT_OK(db_->transitions().Insert(t, Tuple(std::vector<Value>{
                                             Value::Int(30)})).status());
  EXPECT_GT(db_->transitions().pending_batch_tokens(), 0u);
  bool found = false;
  for (const AuditViolation& v : Audit()) {
    if (v.kind == AuditViolationKind::kBatchTokensPending) {
      found = true;
      EXPECT_EQ(v.rule, "transition-manager");
    }
  }
  EXPECT_TRUE(found) << "deferred batch tokens not reported";
  ASSERT_OK(db_->transitions().EndTransition());
  db_->transitions().set_batch_tokens(0);
  EXPECT_TRUE(Audit().empty());
}

TEST(IntervalSkipListAuditTest, PopulatedListAuditsConsistent) {
  IntervalSkipList isl;
  isl.Insert(1, Interval::Range(Value::Int(0), true, Value::Int(50), true));
  isl.Insert(2, Interval::Range(Value::Int(10), false, Value::Int(20), true));
  isl.Insert(3, Interval::Point(Value::Int(13)));
  isl.Insert(4, Interval::AtLeast(Value::Int(40), false));
  isl.Insert(5, Interval::AtMost(Value::Int(5), true));
  isl.Insert(6, Interval::All());
  EXPECT_EQ(isl.AuditStabConsistency(), "");
  ASSERT_TRUE(isl.Remove(2));
  ASSERT_TRUE(isl.Remove(4));
  EXPECT_EQ(isl.AuditStabConsistency(), "");
}

}  // namespace
}  // namespace ariel
