// The P-node journal: a P-node saves its conflict set as a kPNodeState undo
// record on its first write inside a transaction frame, and rollback puts
// back exactly the conflict sets the frame touched. These tests pin the
// edge cases to the semantics of the eager per-frame snapshot the journal
// replaced — every expected DebugDumpState below is the snapshot engine's
// output for the same script — plus the journal's cost claims: a command
// that matches no rule journals nothing and makes conflict resolution visit
// nothing, whatever the number of rules, and the undo log has the same
// content at every match-thread count.
//
// Suites are named Txn* so the TSan CI step (-R '...|Txn|...') runs them.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "network/adaptive_optimizer.h"
#include "util/metrics.h"

namespace ariel {
namespace {

uint64_t CounterValue(const char* name) {
  for (const auto& [n, v] : Metrics().registry.Counters()) {
    if (n == name) return v;
  }
  return 0;
}

class TxnJournalTest : public ::testing::Test {
 protected:
  // The firing trace and counters are process-wide; the dumps below count
  // from zero.
  void SetUp() override {
    Metrics().registry.Reset();
    Metrics().firing_trace.Clear();
  }

  static void Exec(Database& db, const std::string& script) {
    SCOPED_TRACE(script);
    ASSERT_OK(db.Execute(script).status());
  }
};

// A rule activated inside an open transaction had no conflict set when the
// transaction began, so the abort leaves its P-node alone — including the
// save a later command frame journaled for it.
TEST_F(TxnJournalTest, RuleActivatedInsideAbortedTransactionKeepsItsPNode) {
  Database db;
  Exec(db, "create t (x = int)");
  Exec(db, "create log (msg = string)");
  Exec(db, "append t (x = 10)");
  Exec(db, "begin");
  Exec(db, "define rule r if t.x > 5 then append to log (msg = \"hit\")");
  Exec(db, "append t (x = 20)");  // fires r on the primed 10 and on 20
  Exec(db, "abort");
  EXPECT_EQ(db.DebugDumpState(),
            "relation log (0 tuples)\n"
            "relation t (1 tuples)\n"
            "  (1:0) [10]\n"
            "rule r (active, fired 0)\n"
            "  pnode (0 instantiations, 2 lifetime)\n"
            "firing trace (0 recorded)\n"
            "pending alerts: 0\n"
            "txn: open_frames=0 undo_records=0\n");

  Exec(db, "append t (x = 30)");
  EXPECT_EQ(db.DebugDumpState(),
            "relation log (1 tuples)\n"
            "  (2:0) [\"hit\"]\n"
            "relation t (2 tuples)\n"
            "  (1:0) [10]\n"
            "  (1:1) [30]\n"
            "rule r (active, fired 1)\n"
            "  pnode (0 instantiations, 3 lifetime)\n"
            "firing trace (1 recorded)\n"
            "  r <- + token, relation 1, tuple (1:1) (1 instantiations)\n"
            "pending alerts: 0\n"
            "txn: open_frames=0 undo_records=0\n");
}

// A network rebuilt inside a transaction continues the old P-node's
// journal: its first write after the re-plan still saves the state the
// abort must return to.
TEST_F(TxnJournalTest, ReplannedRuleIsRestoredByAbort) {
  Database db;
  Exec(db, "create emp (name = string, sal = int, dno = int)");
  Exec(db, "create dept (dno = int, budget = int)");
  Exec(db, "create log (msg = string)");
  Exec(db, "define rule over if emp.dno = dept.dno and "
           "emp.sal > dept.budget then append to log (msg = emp.name)");
  Exec(db, "append dept (dno = 1, budget = 50)");
  Exec(db, "append emp (name = \"a\", sal = 60, dno = 1)");
  Exec(db, "begin");
  NetworkStrategy rete;
  rete.backend = JoinBackend::kRete;
  ASSERT_OK(db.rules().ReplanRule("over", rete));
  Exec(db, "append emp (name = \"b\", sal = 70, dno = 1)");
  Exec(db, "abort");
  EXPECT_EQ(db.DebugDumpState(),
            "relation dept (1 tuples)\n"
            "  (2:0) [1, 50]\n"
            "relation emp (1 tuples)\n"
            "  (1:0) [\"a\", 60, 1]\n"
            "relation log (1 tuples)\n"
            "  (3:0) [\"a\"]\n"
            "rule over (active, fired 1)\n"
            "  alpha[0] (1 entries)\n"
            "    (1:0) [\"a\", 60, 1]\n"
            "  alpha[1] (1 entries)\n"
            "    (2:0) [1, 50]\n"
            "  beta[0] (0 rows)\n"
            "  beta[1] (0 rows)\n"
            "  pnode (0 instantiations, 1 lifetime)\n"
            "firing trace (1 recorded)\n"
            "  over <- + token, relation 1, tuple (1:0) (1 instantiations)\n"
            "pending alerts: 0\n"
            "txn: open_frames=0 undo_records=0\n");
}

// Deactivation with a journal record still pending: the record has no
// conflict set to go back to at rollback and is skipped.
TEST_F(TxnJournalTest, DeactivatedRuleRecordIsSkipped) {
  Database db;
  Exec(db, "create t (x = int)");
  Exec(db, "create log (msg = string)");
  Exec(db, "define rule r if t.x > 5 then append to log (msg = \"hit\")");
  Exec(db, "append t (x = 10)");
  Exec(db, "begin");
  Exec(db, "append t (x = 20)");
  Exec(db, "deactivate rule r");
  Exec(db, "abort");
  EXPECT_EQ(db.DebugDumpState(),
            "relation log (1 tuples)\n"
            "  (2:0) [\"hit\"]\n"
            "relation t (1 tuples)\n"
            "  (1:0) [10]\n"
            "rule r (inactive, fired 1)\n"
            "firing trace (1 recorded)\n"
            "  r <- + token, relation 1, tuple (1:0) (1 instantiations)\n"
            "pending alerts: 0\n"
            "txn: open_frames=0 undo_records=0\n");

  Exec(db, "activate rule r");  // primes the surviving 10
  Exec(db, "append t (x = 1)");
  EXPECT_EQ(db.DebugDumpState(),
            "relation log (2 tuples)\n"
            "  (2:0) [\"hit\"]\n"
            "  (2:1) [\"hit\"]\n"
            "relation t (2 tuples)\n"
            "  (1:0) [10]\n"
            "  (1:1) [1]\n"
            "rule r (active, fired 2)\n"
            "  pnode (0 instantiations, 1 lifetime)\n"
            "firing trace (2 recorded)\n"
            "  r <- + token, relation 1, tuple (1:0) (1 instantiations)\n"
            "  r <- (primed data) (1 instantiations)\n"
            "pending alerts: 0\n"
            "txn: open_frames=0 undo_records=0\n");
}

// Deactivated and reactivated inside the transaction: the rule was active
// when the transaction began, so the abort returns its (fresh) P-node to
// the state of that moment, discarding what reactivation primed — whether
// the old P-node was written in the transaction (the command's save) or
// not (the save deactivation makes).
TEST_F(TxnJournalTest, ReactivatedRuleIsRestoredToTransactionStart) {
  for (bool write_before : {true, false}) {
    SCOPED_TRACE(write_before ? "append, then reactivate"
                              : "reactivate, then append");
    Metrics().firing_trace.Clear();
    Database db;
    Exec(db, "create t (x = int)");
    Exec(db, "create log (msg = string)");
    Exec(db, "define rule r if t.x > 5 then append to log (msg = \"hit\")");
    Exec(db, "append t (x = 10)");
    Exec(db, "begin");
    if (write_before) Exec(db, "append t (x = 20)");
    Exec(db, "deactivate rule r");
    Exec(db, "activate rule r");
    if (!write_before) Exec(db, "append t (x = 20)");
    Exec(db, "abort");
    EXPECT_EQ(db.DebugDumpState(),
              "relation log (1 tuples)\n"
              "  (2:0) [\"hit\"]\n"
              "relation t (1 tuples)\n"
              "  (1:0) [10]\n"
              "rule r (active, fired 1)\n"
              "  pnode (0 instantiations, 1 lifetime)\n"
              "firing trace (1 recorded)\n"
              "  r <- + token, relation 1, tuple (1:0) (1 instantiations)\n"
              "pending alerts: 0\n"
              "txn: open_frames=0 undo_records=0\n");
  }
}

// halt leaves an instantiation pending. Two later commands abort: one
// retracts it and adds another, one fires the rule (dropping it from the agenda)
// before a lower-priority action fails. Both must put the instantiation
// back, and it must stay eligible for the next cycle.
TEST_F(TxnJournalTest, HaltedConflictSetSurvivesAbortedCommands) {
  Database db;
  Exec(db, "create t (x = int)");
  Exec(db, "create log (msg = string)");
  Exec(db, "define rule stop priority 9 on append t if t.x > 10 then halt");
  Exec(db, "define rule slow priority 1 if t.x > 5 "
           "then append to log (msg = \"slow\")");
  Exec(db, "define rule bad on append t if t.x < 5 "
           "then append to log (msg = \"bad\") where 1 / 0 > 0");
  Exec(db, "append t (x = 20)");
  const std::string halted =
      "relation log (0 tuples)\n"
      "relation t (1 tuples)\n"
      "  (1:0) [20]\n"
      "rule bad (active, fired 0)\n"
      "  pnode (0 instantiations, 0 lifetime)\n"
      "rule slow (active, fired 0)\n"
      "  pnode (1 instantiations, 1 lifetime)\n"
      "    (1073741825:0) [4294967296, 20]\n"
      "rule stop (active, fired 1)\n"
      "  pnode (0 instantiations, 1 lifetime)\n"
      "firing trace (1 recorded)\n"
      "  stop <- + token, relation 1, tuple (1:0) (1 instantiations)\n"
      "pending alerts: 0\n"
      "txn: open_frames=0 undo_records=0\n";
  EXPECT_EQ(db.DebugDumpState(), halted);

  // The retraction of 20 is the first write to slow's P-node, then 7
  // arrives, then the append of 8 fails.
  db.failpoint().Arm(3);
  EXPECT_NOT_OK(db.Execute("do\n"
                           "  delete t where t.x = 20\n"
                           "  append t (x = 7)\n"
                           "  append t (x = 8)\n"
                           "end"));
  db.failpoint().Disarm();
  EXPECT_EQ(db.DebugDumpState(), halted);

  // slow fires on 20 and leaves the agenda, then bad's action fails.
  EXPECT_NOT_OK(db.Execute("append t (x = 2)"));
  EXPECT_EQ(db.DebugDumpState(), halted);

  Exec(db, "append log (msg = \"noop\")");  // matches nothing; slow fires
  EXPECT_EQ(db.DebugDumpState(),
            "relation log (2 tuples)\n"
            "  (2:0) [\"noop\"]\n"
            "  (2:1) [\"slow\"]\n"
            "relation t (1 tuples)\n"
            "  (1:0) [20]\n"
            "rule bad (active, fired 0)\n"
            "  pnode (0 instantiations, 0 lifetime)\n"
            "rule slow (active, fired 1)\n"
            "  pnode (0 instantiations, 1 lifetime)\n"
            "rule stop (active, fired 1)\n"
            "  pnode (0 instantiations, 1 lifetime)\n"
            "firing trace (2 recorded)\n"
            "  stop <- + token, relation 1, tuple (1:0) (1 instantiations)\n"
            "  slow <- + token, relation 1, tuple (1:0) (1 instantiations)\n"
            "pending alerts: 0\n"
            "txn: open_frames=0 undo_records=0\n");
}

/// boom's action writes the P-nodes of ok and late, then fails: under
/// abort_rule its firing savepoint rolls back, then ok and late fire.
void DefineFiringRollbackRules(Database& db) {
  for (const char* script :
       {"create t (x = int)", "create log (msg = string)",
        "define rule boom priority 5 on append t if t.x > 10 then do\n"
        "  append t (x = 6)\n"
        "  append to log (msg = \"1/0\") where 1 / 0 > 0\n"
        "end",
        "define rule ok priority 3 if t.x > 5 "
        "then append to log (msg = \"ok\")",
        "define rule late priority 1 if t.x > 5 "
        "then append to log (msg = \"late\")",
        "append t (x = 3)"}) {
    SCOPED_TRACE(script);
    ASSERT_OK(db.Execute(script).status());
  }
}

constexpr const char* kBeforeFiringRollback =
    "relation log (0 tuples)\n"
    "relation t (1 tuples)\n"
    "  (1:0) [3]\n"
    "rule boom (active, fired 0)\n"
    "  pnode (0 instantiations, 0 lifetime)\n"
    "rule late (active, fired 0)\n"
    "  pnode (0 instantiations, 0 lifetime)\n"
    "rule ok (active, fired 0)\n"
    "  pnode (0 instantiations, 0 lifetime)\n"
    "firing trace (0 recorded)\n"
    "pending alerts: 0\n"
    "txn: open_frames=0 undo_records=0\n";

// The firing savepoint journals ok's and late's P-nodes a second time
// (nested frame); the command abort then replays both saves and lands on
// the pre-command state.
TEST_F(TxnJournalTest, FiringRollbackThenCommandAbort) {
  DatabaseOptions options;
  options.on_action_error = ActionErrorPolicy::kAbortRule;
  options.max_rule_firings_per_cycle = 2;  // late's firing aborts the command
  Database db(options);
  DefineFiringRollbackRules(db);
  ASSERT_EQ(db.DebugDumpState(), kBeforeFiringRollback);

  auto result = db.Execute("append t (x = 20)");
  ASSERT_NOT_OK(result.status());
  EXPECT_NE(result.status().message().find("firing limit"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(db.txn().rollbacks(), 2u);  // boom's savepoint, then the command
  EXPECT_EQ(db.DebugDumpState(), kBeforeFiringRollback);
}

TEST_F(TxnJournalTest, FiringRollbackThenTransactionAbort) {
  DatabaseOptions options;
  options.on_action_error = ActionErrorPolicy::kAbortRule;
  Database db(options);
  DefineFiringRollbackRules(db);
  Exec(db, "begin");
  Exec(db, "append t (x = 20)");
  Exec(db, "abort");
  EXPECT_EQ(db.txn().rollbacks(), 2u);
  EXPECT_EQ(db.DebugDumpState(), kBeforeFiringRollback);
}

// --- cost: bookkeeping that does not grow with the number of rules -------

class TxnJournalScalingTest : public TxnJournalTest {
 protected:
  /// The §6 evaluation database with 300 one-variable rules: rule i holds
  /// 10000 + 1000i < emp.sal <= 11000 + 1000i; emp e earns 10000 + 1000e,
  /// so emp0 matches no band and emp5 matches exactly bench_rule_4.
  void SetUp() override {
    TxnJournalTest::SetUp();
    Exec(db_, "create emp (name = string, age = int, sal = float, "
              "dno = int, jno = int)");
    Exec(db_, "create bench_log (name = string)");
    for (int e = 0; e < 25; ++e) {
      Exec(db_, "append emp (name = \"emp" + std::to_string(e) +
                    "\", age = 30, sal = " + std::to_string(10000 + e * 1000) +
                    ".0, dno = 1, jno = 1)");
    }
    for (int i = 0; i < 300; ++i) {
      const long lo = 10000 + 1000L * i;
      Exec(db_, "define rule bench_rule_" + std::to_string(i) + " if " +
                    std::to_string(lo) + " < emp.sal and emp.sal <= " +
                    std::to_string(lo + 1000) +
                    " then append to bench_log (name = emp.name)");
    }
    Exec(db_, "append bench_log (name = \"settle\")");  // fires the primed
  }

  Database db_;
};

TEST_F(TxnJournalScalingTest, UnmatchedReplaceJournalsAndVisitsNothing) {
  ASSERT_EQ(db_.rules().ActiveRules().size(), 300u);
  const uint64_t saves = CounterValue("txn_pnode_saves");
  const uint64_t visits = CounterValue("rules_select_visits");
  Exec(db_, "replace emp (age = emp.age + 1) where emp.name = \"emp0\"");
  EXPECT_EQ(CounterValue("txn_pnode_saves") - saves, 0u);
  EXPECT_EQ(CounterValue("rules_select_visits") - visits, 0u);
}

TEST_F(TxnJournalScalingTest, OneBandReplaceJournalsOnlyTheTouchedRule) {
  const uint64_t saves = CounterValue("txn_pnode_saves");
  const uint64_t visits = CounterValue("rules_select_visits");
  Exec(db_, "begin");  // keeps the command's undo records inspectable
  Exec(db_, "replace emp (age = emp.age + 1) where emp.name = \"emp5\"");
  std::vector<std::string> journaled;
  const UndoLog& log = db_.txn().undo_log();
  for (size_t i = 0; i < log.size(); ++i) {
    if (log.record(i).kind == UndoKind::kPNodeState) {
      journaled.push_back(log.record(i).name);
    }
  }
  EXPECT_EQ(journaled, std::vector<std::string>{"bench_rule_4"});
  EXPECT_EQ(CounterValue("txn_pnode_saves") - saves, 1u);
  // One visit to pick bench_rule_4, one to drop it once drained.
  EXPECT_EQ(CounterValue("rules_select_visits") - visits, 2u);
  Exec(db_, "abort");
}

// --- determinism of the batch path ---------------------------------------

/// kind/name/row count of every undo record, plus the state after abort.
struct JournalCapture {
  std::vector<std::string> records;
  std::string after_abort;
};

JournalCapture RunBatchedTransaction(size_t match_threads) {
  Metrics().firing_trace.Clear();  // the trace is part of the dump
  DatabaseOptions options;
  options.batch_tokens = 7;
  options.match_threads = match_threads;
  Database db(options);
  auto exec = [&db](const std::string& script) {
    SCOPED_TRACE(script);
    ASSERT_OK(db.Execute(script).status());
  };
  exec("create emp (name = string, sal = int, dno = int)");
  exec("create dept (dno = int, budget = int)");
  exec("create log (msg = string)");
  exec("define rule pay priority 3 if emp.dno = dept.dno and "
       "emp.sal > dept.budget then append to log (msg = emp.name)");
  exec("define rule rich if emp.sal > 60 then append to log (msg = \"rich\")");
  exec("define rule gap priority 5 if e1.dno = e2.dno and "
       "e1.sal > e2.sal + 40 from e1 in emp, e2 in emp "
       "then append to log (msg = \"gap\")");
  for (int d = 1; d <= 3; ++d) {
    exec("append dept (dno = " + std::to_string(d) + ", budget = " +
         std::to_string(30 * d) + ")");
  }
  for (int i = 0; i < 12; ++i) {
    exec("append emp (name = \"e" + std::to_string(i) + "\", sal = " +
         std::to_string((i * 23) % 90) + ", dno = " +
         std::to_string(i % 3 + 1) + ")");
  }
  JournalCapture capture;
  const std::string before = db.DebugDumpState();
  exec("begin");
  exec("replace emp (sal = emp.sal + 17) where emp.dno = 2");
  exec("replace emp (sal = emp.sal - 30) where emp.sal > 50");
  exec("delete emp where emp.sal < 10");
  const UndoLog& log = db.txn().undo_log();
  for (size_t i = 0; i < log.size(); ++i) {
    const UndoRecord& record = log.record(i);
    std::string line = record.ToString();
    if (record.kind == UndoKind::kPNodeState) {
      line += " rows=" + std::to_string(
          static_cast<const PNode::State&>(*record.payload).rows.size());
    }
    capture.records.push_back(std::move(line));
  }
  exec("abort");
  capture.after_abort = db.DebugDumpState();
  EXPECT_EQ(capture.after_abort, before);
  return capture;
}

TEST_F(TxnJournalTest, BatchJournalIsIdenticalAtEveryThreadCount) {
  const JournalCapture serial = RunBatchedTransaction(0);
  size_t pnode_records = 0;
  for (const std::string& line : serial.records) {
    if (line.starts_with("pnode-state")) ++pnode_records;
  }
  EXPECT_GT(pnode_records, 0u);
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("match_threads=" + std::to_string(threads));
    const JournalCapture parallel = RunBatchedTransaction(threads);
    EXPECT_EQ(parallel.records, serial.records);
    EXPECT_EQ(parallel.after_abort, serial.after_abort);
  }
}

}  // namespace
}  // namespace ariel
