// Rollback equivalence: an aborted command must leave the engine
// byte-identical to its pre-command state — base relations, stored
// α-memories, Rete β-memories, P-node conflict sets, rule firing counters,
// the firing trace, and pending alerts, as rendered by
// Database::DebugDumpState. The suite arms the FailpointGateway to fail
// mutation k for every k in a 3-rule-cascade command (so the abort point
// sweeps across the triggering update, each rule firing, and every point in
// between), across {TREAT, Rete} × {stored, virtual α} × {batch off/on} ×
// {serial/parallel match} configurations, and additionally asserts the
// A-TREAT invariant auditor (including the kUndoResidue check) is clean
// after every rollback.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"

namespace ariel {
namespace {

struct TxnParams {
  const char* name;
  JoinBackend backend;
  AlphaMemoryPolicy::Mode alpha;
  size_t batch_tokens;
  size_t match_threads;
};

class RollbackEquivalenceTest : public ::testing::TestWithParam<TxnParams> {
 protected:
  static std::unique_ptr<Database> MakeDb(const TxnParams& p) {
    DatabaseOptions options;
    options.join_backend = p.backend;
    options.alpha_policy.mode = p.alpha;
    options.batch_tokens = p.batch_tokens;
    options.match_threads = p.match_threads;
    return std::make_unique<Database>(options);
  }

  /// Schema, data, and a three-rule cascade:
  ///   raise (pattern rule)  emp ⋈ dept over-budget  → append sink
  ///   relay (event rule)    on append sink, x > 60  → append log
  ///   absorb (event rule)   on append log           → replace dept
  /// `absorb` grows the violated budget, so the raise→relay→absorb loop
  /// converges; every firing routes its mutations through the failpoint
  /// gateway, so the k-sweep crosses rule-action boundaries.
  static void Seed(Database& db) {
    auto Exec = [&db](const std::string& script) {
      SCOPED_TRACE(script);
      ASSERT_OK(db.Execute(script).status());
    };
    Exec("create emp (name = string, sal = int, dno = int)");
    Exec("create dept (dno = int, budget = int)");
    Exec("create sink (x = int)");
    Exec("create log (msg = string)");
    Exec("define rule raise priority 3 if emp.dno = dept.dno and "
         "emp.sal > dept.budget then append to sink (x = emp.sal)");
    Exec("define rule relay on append sink if sink.x > 60 "
         "then append to log (msg = \"big\")");
    Exec("define rule absorb priority 7 on append log "
         "if dept.budget < 70 then replace dept (budget = dept.budget + 30)");
    Exec("append dept (dno = 1, budget = 40)");
    Exec("append dept (dno = 2, budget = 90)");
    Exec("append emp (name = \"e0\", sal = 35, dno = 1)");
    Exec("append emp (name = \"e1\", sal = 80, dno = 2)");
  }

  /// The command under test: one transition containing an insert, an
  /// update, and a delete, whose cascade exercises all three rules.
  static constexpr const char* kCommand =
      "do\n"
      "  append emp (name = \"n\", sal = 65, dno = 1)\n"
      "  replace emp (sal = emp.sal + 20) where emp.name = \"e0\"\n"
      "  delete emp where emp.name = \"e1\"\n"
      "end";

  /// Runs the command on a twin engine with the failpoint counting but not
  /// firing, to learn how many mutations the command (plus cascade) issues.
  static size_t CountMutations(const TxnParams& p) {
    auto db = MakeDb(p);
    Seed(*db);
    db->failpoint().Arm(0);  // reset the counter, stay disarmed
    auto result = db->Execute(kCommand);
    EXPECT_OK(result.status());
    return static_cast<size_t>(db->failpoint().mutations_seen());
  }
};

TEST_P(RollbackEquivalenceTest, AbortAtEveryMutationLeavesNoTrace) {
  const TxnParams& p = GetParam();
  const size_t total = CountMutations(p);
  ASSERT_GT(total, 6u) << "cascade too small for a meaningful sweep";

  for (size_t k = 1; k <= total; ++k) {
    SCOPED_TRACE("failpoint at mutation " + std::to_string(k) + " of " +
                 std::to_string(total));
    auto db = MakeDb(p);
    Seed(*db);

    const std::string before = db->DebugDumpState();
    db->failpoint().Arm(k);
    auto result = db->Execute(kCommand);
    ASSERT_NOT_OK(result.status());
    EXPECT_NE(result.status().message().find("failpoint"), std::string::npos)
        << result.status().ToString();
    db->failpoint().Disarm();

    EXPECT_EQ(before, db->DebugDumpState());

    auto violations = db->AuditNetwork();
    ASSERT_OK(violations);
    EXPECT_TRUE(violations->empty())
        << violations->size() << " audit violation(s), first: "
        << (*violations)[0].ToString();
  }
}

TEST_P(RollbackEquivalenceTest, CommittedRunIsUnaffectedByDisarmedFailpoint) {
  // Sanity for the twin-count methodology: the disarmed failpoint is
  // observation-only, so a counted run and a plain run end byte-identical.
  const TxnParams& p = GetParam();
  auto counted = MakeDb(p);
  Seed(*counted);
  counted->failpoint().Arm(0);
  ASSERT_OK(counted->Execute(kCommand).status());

  auto plain = MakeDb(p);
  Seed(*plain);
  ASSERT_OK(plain->Execute(kCommand).status());

  EXPECT_EQ(counted->DebugDumpState(), plain->DebugDumpState());
}

TEST_P(RollbackEquivalenceTest, RetrieveIntoRollsBackItsRelation) {
  // `retrieve into` mixes DDL (create) with DML (inserts through the
  // gateway); failing its first insert must drop the half-built relation.
  const TxnParams& p = GetParam();
  auto db = MakeDb(p);
  Seed(*db);

  const std::string before = db->DebugDumpState();
  db->failpoint().Arm(1);
  ASSERT_NOT_OK(db->Execute("retrieve into tmp (emp.name)").status());
  db->failpoint().Disarm();

  EXPECT_EQ(db->catalog().GetRelation("tmp"), nullptr);
  EXPECT_EQ(before, db->DebugDumpState());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RollbackEquivalenceTest,
    ::testing::Values(
        TxnParams{"treat_stored", JoinBackend::kTreat,
                  AlphaMemoryPolicy::Mode::kAllStored, 0, 0},
        TxnParams{"treat_virtual", JoinBackend::kTreat,
                  AlphaMemoryPolicy::Mode::kAllVirtual, 0, 0},
        TxnParams{"rete_stored", JoinBackend::kRete,
                  AlphaMemoryPolicy::Mode::kAllStored, 0, 0},
        TxnParams{"rete_virtual", JoinBackend::kRete,
                  AlphaMemoryPolicy::Mode::kAllVirtual, 0, 0},
        TxnParams{"treat_stored_batch", JoinBackend::kTreat,
                  AlphaMemoryPolicy::Mode::kAllStored, 1024, 0},
        TxnParams{"rete_stored_batch", JoinBackend::kRete,
                  AlphaMemoryPolicy::Mode::kAllStored, 1024, 0},
        TxnParams{"treat_virtual_batch_t2", JoinBackend::kTreat,
                  AlphaMemoryPolicy::Mode::kAllVirtual, 1024, 2},
        TxnParams{"rete_stored_batch_t2", JoinBackend::kRete,
                  AlphaMemoryPolicy::Mode::kAllStored, 1024, 2}),
    [](const ::testing::TestParamInfo<TxnParams>& info) {
      return info.param.name;
    });

// Rollback batches its compensating tokens like forward propagation. An
// aborted transaction that rewrites relations a Rete rule scans through
// virtual α-memories, and also creates a relation and an index, must still
// land on the pre-`begin` state at every batch size and thread count: the
// pending tokens flush before each compensating storage step on a scanned
// relation, before the catalog records are undone, and at the end.
struct HazardParams {
  const char* name;
  size_t batch_tokens;
  size_t match_threads;
};

class RollbackHazardTest : public ::testing::TestWithParam<HazardParams> {};

TEST_P(RollbackHazardTest,
       AbortedVirtualScanWritesAndCatalogChangesLeaveNoTrace) {
  const HazardParams& p = GetParam();
  DatabaseOptions options;
  options.join_backend = JoinBackend::kRete;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllVirtual;
  options.batch_tokens = p.batch_tokens;
  options.match_threads = p.match_threads;
  Database db(options);
  auto exec = [&db](const std::string& script) {
    SCOPED_TRACE(script);
    ASSERT_OK(db.Execute(script).status());
  };
  exec("create emp (name = string, sal = int, dno = int, jno = int)");
  exec("create dept (dno = int, budget = int)");
  exec("create job (jno = int, grade = int)");
  exec("create sink (x = int)");
  // Three variables, so Rete keeps a β-memory over (e, d) that the
  // compensating tokens must heal by joining through the virtual memories.
  exec("define rule staffed if e.dno = d.dno and e.jno = j.jno and "
       "e.sal > d.budget from e in emp, d in dept, j in job "
       "then append to sink (x = e.sal)");
  for (int d = 1; d <= 3; ++d) {
    exec("append dept (dno = " + std::to_string(d) + ", budget = " +
         std::to_string(10 * d) + ")");
    exec("append job (jno = " + std::to_string(d) + ", grade = " +
         std::to_string(d) + ")");
  }
  for (int i = 0; i < 6; ++i) {
    exec("append emp (name = \"e" + std::to_string(i) + "\", sal = " +
         std::to_string(5 + 7 * i) + ", dno = " + std::to_string(i % 3 + 1) +
         ", jno = " + std::to_string(i % 2 + 1) + ")");
  }
  const std::string before = db.DebugDumpState();

  exec("begin");
  exec("append dept (dno = 4, budget = 1)");
  exec("append emp (name = \"n\", sal = 50, dno = 4, jno = 1)");
  exec("delete emp where emp.dno = 2");
  exec("replace dept (dno = 2) where dept.dno = 3");
  exec("append dept (dno = 3, budget = 2)");
  exec("create tmp (x = int)");
  exec("define index on tmp (x)");
  exec("append tmp (x = 7)");
  exec("define index on emp (name)");
  exec("replace emp (dno = 3) where emp.jno = 1");
  exec("delete dept where dept.budget < 5");
  exec("abort");

  EXPECT_EQ(db.DebugDumpState(), before);
  EXPECT_EQ(db.catalog().GetRelation("tmp"), nullptr);
  auto violations = db.AuditNetwork();
  ASSERT_OK(violations);
  EXPECT_TRUE(violations->empty())
      << violations->size() << " audit violation(s), first: "
      << (*violations)[0].ToString();
}

INSTANTIATE_TEST_SUITE_P(
    BatchAndThreads, RollbackHazardTest,
    ::testing::Values(HazardParams{"b0_t0", 0, 0}, HazardParams{"b0_t2", 0, 2},
                      HazardParams{"b7_t0", 7, 0}, HazardParams{"b7_t2", 7, 2}),
    [](const ::testing::TestParamInfo<HazardParams>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ariel
