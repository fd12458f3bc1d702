// Determinism of batched Δ-set propagation: for every thread count, join
// backend, and keyed (hash-probed) or key-less (scanned) equijoins, a run
// with token batching (and the parallel match stage) must be byte-identical
// to the per-token serial run — same firing trace, same P-node contents in
// storage order, same final relation contents. The batch pipeline reorders
// *work*, never *effects*: each rule sees its arrivals in token order, and
// P-node insertions are stamped by token epoch and rule ordinal rather than
// by evaluation order.
//
// The runs use recency conflict resolution on purpose: firing order then
// depends on P-node match stamps, so trace equality also proves the batch
// path assigns the per-token stamps, not just the final contents.

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "util/metrics.h"

namespace ariel {
namespace {

struct BatchParams {
  const char* name;
  size_t threads;
  JoinBackend backend;
  bool hash;  // equijoins keyed (`=`) or key-less (`>= and <=`)
};

struct RunCapture {
  std::vector<std::string> trace;
  std::map<std::string, std::vector<std::string>> pnodes;
  std::map<std::string, std::vector<std::string>> relations;
  uint64_t batch_flushes = 0;
  uint64_t tokens_emitted = 0;
  uint64_t match_tasks = 0;
  size_t virtual_memories = 0;
};

class BatchDeterminismTest : public ::testing::TestWithParam<BatchParams> {
 protected:
  static uint64_t CounterValue(const char* name) {
    for (const auto& [n, v] : Metrics().registry.Counters()) {
      if (n == name) return v;
    }
    return 0;
  }

  /// One fixed deterministic workload: cases 1-4 inside do…end blocks, bulk
  /// replaces/deletes (many tokens per transition), rule cascades, a
  /// self-join, and an on-replace rule that rewrites its own trigger.
  /// `keyed` writes the equijoins as `a = b`; otherwise as the key-less
  /// `a >= b and a <= b`, which no hash index can serve.
  static void Drive(Database& db, bool keyed) {
    auto eq = [keyed](const std::string& lhs, const std::string& rhs) {
      return keyed ? lhs + " = " + rhs
                   : lhs + " >= " + rhs + " and " + lhs + " <= " + rhs;
    };
    auto Exec = [&db](const std::string& script) {
      SCOPED_TRACE(script);
      ASSERT_OK(db.Execute(script).status());
    };

    Exec("create emp (name = string, sal = int, dno = int)");
    Exec("create dept (dno = int, budget = int)");
    Exec("create log (msg = string)");
    Exec("create sink (x = int)");

    Exec("define rule audit_hire on append emp if emp.sal > 50 "
         "then append to log (msg = \"hire\")");
    Exec("define rule pay_join priority 3 if " + eq("emp.dno", "dept.dno") +
         " and emp.sal > dept.budget then append to sink (x = emp.sal)");
    Exec("define rule peer_gap priority 5 if " + eq("e1.dno", "e2.dno") +
         " and e1.sal > e2.sal + 40 from e1 in emp, e2 in emp "
         "then append to log (msg = \"gap\")");
    Exec("define rule clamp priority 8 on replace emp(sal) "
         "if emp.sal > 90 then replace emp (sal = 90)");
    Exec("define rule obit on delete emp "
         "then append to log (msg = \"bye\")");

    for (int d = 1; d <= 4; ++d) {
      Exec("append dept (dno = " + std::to_string(d) + ", budget = " +
           std::to_string(20 * d) + ")");
    }
    for (int i = 0; i < 12; ++i) {
      Exec("append emp (name = \"e" + std::to_string(i) + "\", sal = " +
           std::to_string((i * 17) % 80) + ", dno = " +
           std::to_string(i % 4 + 1) + ")");
    }

    // Cases 1-4 in one transition: insert+modify (1), insert+delete (2),
    // modify+modify (3 head/tail), modify+delete (4).
    Exec("do\n"
         "  append emp (name = \"t1\", sal = 10, dno = 1)\n"
         "  replace emp (sal = 60) where emp.name = \"t1\"\n"
         "  append emp (name = \"t2\", sal = 70, dno = 2)\n"
         "  delete emp where emp.name = \"t2\"\n"
         "  replace emp (sal = emp.sal + 5) where emp.name = \"e3\"\n"
         "  replace emp (dno = 3) where emp.name = \"e3\"\n"
         "  replace emp (sal = 33) where emp.name = \"e5\"\n"
         "  delete emp where emp.name = \"e5\"\n"
         "end");

    // Bulk transitions: one command, many tokens.
    Exec("replace emp (sal = emp.sal + 7) where emp.dno = 2");
    Exec("replace emp (sal = emp.sal + 25, dno = 1) where emp.sal > 55");
    Exec("delete emp where emp.sal < 15");
    Exec("replace dept (budget = dept.budget + 11) where dept.dno < 3");

    for (int i = 12; i < 18; ++i) {
      Exec("append emp (name = \"e" + std::to_string(i) + "\", sal = " +
           std::to_string((i * 29) % 120) + ", dno = " +
           std::to_string(i % 4 + 1) + ")");
    }
  }

  /// Writes to dept, which pay_join joins through a selection-free memory:
  /// inserts, join-attribute replaces and deletes inside multi-token
  /// transitions, plus an aborted re-key.
  static void DriveSelectionFreeWrites(Database& db) {
    auto Exec = [&db](const std::string& script) {
      SCOPED_TRACE(script);
      ASSERT_OK(db.Execute(script).status());
    };
    Exec("do\n"
         "  append dept (dno = 5, budget = 15)\n"
         "  append emp (name = \"d5\", sal = 44, dno = 5)\n"
         "  replace dept (dno = 2) where dept.dno = 5\n"
         "  replace emp (dno = 5) where emp.sal > 60\n"
         "  delete dept where dept.budget > 70\n"
         "end");
    Exec("replace dept (dno = dept.dno + 1) where dept.dno >= 2");
    Exec("append dept (dno = 1, budget = 5)");
    Exec("delete dept where dept.dno = 3");
    Exec("begin");
    Exec("replace dept (dno = 4) where dept.dno = 1");
    Exec("delete dept where dept.dno = 5");
    Exec("abort");
    Exec("replace dept (budget = 1) where dept.dno = 1");
  }

  static RunCapture Run(const BatchParams& p, size_t batch_tokens,
                        AlphaMemoryPolicy::Mode mode,
                        bool selection_free_writes = false) {
    Metrics().registry.Reset();
    Metrics().firing_trace.Clear();

    DatabaseOptions options;
    options.alpha_policy.mode = mode;
    options.join_backend = p.backend;
    options.conflict_strategy = ConflictStrategy::kRecency;
    options.batch_tokens = batch_tokens;
    options.match_threads = batch_tokens == 0 ? 0 : p.threads;
    Database db(options);
    Drive(db, p.hash);
    if (selection_free_writes) DriveSelectionFreeWrites(db);

    RunCapture capture;
    for (const FiringTraceEntry& e :
         Metrics().firing_trace.Recent(Metrics().firing_trace.total_recorded())) {
      capture.trace.push_back(e.rule + "|" + e.trigger + "|" +
                              std::to_string(e.transition_id) + "|" +
                              std::to_string(e.instantiations));
    }
    for (const Rule* rule : db.rules().ActiveRules()) {
      for (size_t v = 0; v < rule->network->num_vars(); ++v) {
        if (rule->network->alpha(v)->is_virtual()) ++capture.virtual_memories;
      }
      std::vector<std::string>& rows =
          capture.pnodes[rule->network->rule_name()];
      rule->network->pnode()->relation().ForEach(
          [&](TupleId, const Tuple& t) {
            Row row = rule->network->pnode()->ToRow(t);
            std::string key;
            for (size_t v = 0; v < row.num_vars(); ++v) {
              key += row.tids[v].ToString() + "=" +
                     row.current[v].ToString() + "|";
            }
            rows.push_back(std::move(key));
          });
    }
    for (const char* name : {"emp", "dept", "log", "sink"}) {
      const HeapRelation* rel = db.catalog().GetRelation(name);
      std::vector<std::string>& rows = capture.relations[name];
      for (TupleId tid : rel->AllTupleIds()) {
        rows.push_back(tid.ToString() + "=" + rel->Get(tid)->ToString());
      }
    }
    capture.batch_flushes = CounterValue("batch_flushes");
    capture.tokens_emitted = CounterValue("tokens_emitted");
    capture.match_tasks = CounterValue("match_tasks");
    return capture;
  }
};

TEST_P(BatchDeterminismTest, BatchedRunIsByteIdenticalToSerial) {
  const BatchParams p = GetParam();
  for (AlphaMemoryPolicy::Mode mode :
       {AlphaMemoryPolicy::Mode::kAllStored,
        AlphaMemoryPolicy::Mode::kAllVirtual}) {
    SCOPED_TRACE(mode == AlphaMemoryPolicy::Mode::kAllStored ? "all-stored"
                                                             : "all-virtual");
    RunCapture serial = Run(p, /*batch_tokens=*/0, mode);
    RunCapture batched = Run(p, /*batch_tokens=*/7, mode);

    // Every token reaches the network through a flush: one per token
    // serially, fewer when seven may share one.
    EXPECT_EQ(serial.batch_flushes, serial.tokens_emitted);
    EXPECT_LT(batched.batch_flushes, serial.batch_flushes);
    EXPECT_GT(batched.batch_flushes, 0u);
    if (p.threads > 0) {
      EXPECT_GT(batched.match_tasks, 0u);
    }

    EXPECT_EQ(batched.trace, serial.trace);
    EXPECT_EQ(batched.pnodes, serial.pnodes);
    EXPECT_EQ(batched.relations, serial.relations);

    // The workload is non-trivial: rules actually fired and matched.
    EXPECT_FALSE(serial.trace.empty());
    EXPECT_FALSE(serial.relations.at("log").empty());
    EXPECT_FALSE(serial.relations.at("sink").empty());
  }
}

// The default policy makes pay_join's and peer_gap's selection-free
// variables virtual, so batched match tasks probe the relations' join hash
// indexes concurrently while dept is rewritten between batches.
class BatchDeterminismSelectionFreeTest : public BatchDeterminismTest {};

TEST_P(BatchDeterminismSelectionFreeTest, RelationWritesMatchSerial) {
  const BatchParams p = GetParam();
  RunCapture serial = Run(p, /*batch_tokens=*/0,
                          AlphaMemoryPolicy::Mode::kAdaptive, true);
  RunCapture batched = Run(p, /*batch_tokens=*/7,
                           AlphaMemoryPolicy::Mode::kAdaptive, true);
  EXPECT_GE(serial.virtual_memories, 4u);
  EXPECT_EQ(batched.virtual_memories, serial.virtual_memories);
  EXPECT_GT(batched.batch_flushes, 0u);
  EXPECT_GT(batched.match_tasks, 0u);
  EXPECT_EQ(batched.trace, serial.trace);
  EXPECT_EQ(batched.pnodes, serial.pnodes);
  EXPECT_EQ(batched.relations, serial.relations);
  EXPECT_FALSE(serial.relations.at("sink").empty());
}

INSTANTIATE_TEST_SUITE_P(
    TwoThreads, BatchDeterminismSelectionFreeTest,
    ::testing::Values(BatchParams{"t2_treat_hash", 2, JoinBackend::kTreat,
                                  true},
                      BatchParams{"t2_rete_hash", 2, JoinBackend::kRete,
                                  true}),
    [](const ::testing::TestParamInfo<BatchParams>& info) {
      return std::string(info.param.name);
    });

TEST(BatchOptionsTest, EnvVarsOverrideDefaults) {
  setenv("ARIEL_BATCH_TOKENS", "5", 1);
  setenv("ARIEL_MATCH_THREADS", "2", 1);
  {
    Database db;
    EXPECT_EQ(db.options().batch_tokens, 5u);
    EXPECT_EQ(db.options().match_threads, 2u);
  }
  setenv("ARIEL_BATCH_TOKENS", "bogus", 1);
  unsetenv("ARIEL_MATCH_THREADS");
  {
    DatabaseOptions options;
    options.match_threads = 3;
    Database db(options);
    EXPECT_EQ(db.options().batch_tokens, 0u);  // malformed env is ignored
    EXPECT_EQ(db.options().match_threads, 3u);
  }
  // A sign or whitespace is malformed too ("-1" must not wrap to SIZE_MAX).
  for (const char* value : {"-1", " 5", "+5", "5 "}) {
    SCOPED_TRACE(value);
    setenv("ARIEL_BATCH_TOKENS", value, 1);
    setenv("ARIEL_FAILPOINT", value, 1);
    Database db;
    EXPECT_EQ(db.options().batch_tokens, 0u);
    EXPECT_EQ(db.options().failpoint_at, 0u);
  }
  unsetenv("ARIEL_BATCH_TOKENS");
  unsetenv("ARIEL_FAILPOINT");
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatchDeterminismTest,
    ::testing::Values(
        BatchParams{"t0_treat_hash", 0, JoinBackend::kTreat, true},
        BatchParams{"t0_treat_scan", 0, JoinBackend::kTreat, false},
        BatchParams{"t0_rete_hash", 0, JoinBackend::kRete, true},
        BatchParams{"t0_rete_scan", 0, JoinBackend::kRete, false},
        BatchParams{"t1_treat_hash", 1, JoinBackend::kTreat, true},
        BatchParams{"t1_treat_scan", 1, JoinBackend::kTreat, false},
        BatchParams{"t1_rete_hash", 1, JoinBackend::kRete, true},
        BatchParams{"t1_rete_scan", 1, JoinBackend::kRete, false},
        BatchParams{"t2_treat_hash", 2, JoinBackend::kTreat, true},
        BatchParams{"t2_treat_scan", 2, JoinBackend::kTreat, false},
        BatchParams{"t2_rete_hash", 2, JoinBackend::kRete, true},
        BatchParams{"t2_rete_scan", 2, JoinBackend::kRete, false},
        BatchParams{"t8_treat_hash", 8, JoinBackend::kTreat, true},
        BatchParams{"t8_treat_scan", 8, JoinBackend::kTreat, false},
        BatchParams{"t8_rete_hash", 8, JoinBackend::kRete, true},
        BatchParams{"t8_rete_scan", 8, JoinBackend::kRete, false}),
    [](const ::testing::TestParamInfo<BatchParams>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ariel
