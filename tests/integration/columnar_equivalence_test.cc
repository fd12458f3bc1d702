// Row-vs-column equivalence: the columnar execution layer (vectorized
// scans, residual prefixes, the join prefilter, and batch selection
// classification) must be invisible to every observable output. The suite
// runs one scripted scenario — every plan shape (seq scan, filter, index
// scan, join) plus a rule cascade over banded joins — under
// {columnar on, off} × {columnar_min_rows 0, 1024} and asserts the
// ResultSets and the full DebugDumpState are byte-identical to the pure
// row path (OptimizerOptions.columnar_exec off). Separate tests plant
// column-cache corruption and check the NetworkAuditor reports
// kColumnCacheIncoherent.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "util/metrics.h"

namespace ariel {
namespace {

struct ColumnarParams {
  const char* name;
  bool columnar;
  size_t min_rows;
};

struct Snapshot {
  std::vector<std::string> query_results;
  std::string dump;
  std::string scan_error;  // message of the deliberately erroring query
};

Snapshot RunScenario(bool columnar, size_t min_rows) {
  // The firing-trace ring is process-global and cumulative; clear it so
  // DebugDumpState's trace section only covers this scenario's firings.
  Metrics().firing_trace.Clear();
  DatabaseOptions options;
  options.optimizer.columnar_exec = columnar;
  options.optimizer.columnar_min_rows = min_rows;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
  Database db(options);
  Snapshot snap;

  auto exec = [&](const std::string& script) {
    auto r = db.Execute(script);
    EXPECT_TRUE(r.ok()) << script << ": " << r.status().ToString();
    return std::move(*r);
  };

  exec("create emp (name = string, sal = int, dno = int)");
  exec("create dept (dno = int, lo = int, hi = int)");
  exec("create sink (who = string, amount = int)");
  exec("create audit_log (entries = int)");
  EXPECT_OK(db.catalog().GetRelation("emp")->CreateIndex("dno"));

  // Rules: a banded join (exercises the α-memory scan prefilter), a plain
  // selection rule, and a cascade target watching the sink.
  exec("define rule band if emp.sal >= dept.lo and emp.sal < dept.hi "
       "then append to sink (who = emp.name, amount = emp.sal)");
  exec("define rule rich if emp.sal >= 900 "
       "then append to sink (who = emp.name, amount = 0 - 1)");
  exec("define rule tally on append sink if sink.amount > 500 "
       "then append to audit_log (entries = sink.amount)");

  for (int d = 0; d < 20; ++d) {
    exec("append dept (dno = " + std::to_string(d) + ", lo = " +
         std::to_string(d * 50) + ", hi = " + std::to_string(d * 50 + 20) +
         ")");
  }
  for (int i = 0; i < 150; ++i) {
    exec("append emp (name = \"w" + std::to_string(i) + "\", sal = " +
         std::to_string((i * 131) % 1000) + ", dno = " +
         std::to_string(i % 20) + ")");
  }
  // Transitions that cascade: raises fire `band`/`rich`, whose sink appends
  // fire `tally`.
  exec("replace emp (sal = emp.sal + 55) where emp.dno = 3");
  exec("delete emp where emp.sal < 40");

  auto record = [&](const std::string& query) {
    CommandResult r = exec(query);
    std::string rendered = query + " ->";
    if (r.rows.has_value()) {
      for (const Tuple& row : r.rows->rows) {
        rendered += " " + row.ToString();
      }
    }
    snap.query_results.push_back(std::move(rendered));
  };

  // Plan shapes. Seq scan with a vectorizable band, a mixed
  // vectorizable-prefix + arithmetic-residual scan, an index scan
  // (equality on the indexed attribute), a two-variable join with a banded
  // residual, and a low-selectivity scan (empty masks).
  record("retrieve (emp.name, emp.sal) where emp.sal >= 100 and "
         "emp.sal < 300");
  record("retrieve (emp.name) where emp.sal < 500 and emp.sal + 10 > 400");
  record("retrieve (emp.name, emp.sal) where emp.dno = 7");
  record("retrieve (emp.name, dept.dno) where emp.sal >= dept.lo and "
         "emp.sal < dept.hi");
  record("retrieve (emp.name) where emp.sal > 100000");
  record("retrieve (sink.who, sink.amount) where sink.amount >= 0");
  record("retrieve (audit_log.entries) where audit_log.entries > 0");

  // An erroring predicate must raise the same error either way: the
  // vectorized prefix (sal < 200, which has survivors) may not suppress —
  // or add — the division-by-zero the row path raises on those survivors.
  auto bad = db.Execute(
      "retrieve (emp.name) where emp.sal < 200 and "
      "emp.sal / (emp.sal - emp.sal) > 1");
  EXPECT_FALSE(bad.ok());
  snap.scan_error = bad.status().ToString();

  snap.dump = db.DebugDumpState();
  auto violations = db.AuditNetwork();
  EXPECT_OK(violations.status());
  if (violations.ok()) {
    for (const AuditViolation& v : *violations) {
      ADD_FAILURE() << "network violation: " << v.ToString();
    }
  }
  return snap;
}

/// The pure row path every configuration must match.
const Snapshot& RowBaseline() {
  static const Snapshot baseline =
      RunScenario(/*columnar=*/false, /*min_rows=*/1024);
  return baseline;
}

class ColumnarEquivalenceTest
    : public ::testing::TestWithParam<ColumnarParams> {};

TEST_P(ColumnarEquivalenceTest, MatchesRowPathByteForByte) {
  const ColumnarParams params = GetParam();
  Snapshot snap = RunScenario(params.columnar, params.min_rows);
  const Snapshot& want = RowBaseline();
  ASSERT_EQ(snap.query_results.size(), want.query_results.size());
  for (size_t i = 0; i < snap.query_results.size(); ++i) {
    EXPECT_EQ(snap.query_results[i], want.query_results[i]);
  }
  EXPECT_EQ(snap.scan_error, want.scan_error);
  EXPECT_EQ(snap.dump, want.dump) << "DebugDumpState drifted";
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ColumnarEquivalenceTest,
    ::testing::Values(
        ColumnarParams{"row_batch0", false, 0},
        ColumnarParams{"row_batch1024", false, 1024},
        ColumnarParams{"col_batch0", true, 0},
        ColumnarParams{"col_batch1024", true, 1024}),
    [](const ::testing::TestParamInfo<ColumnarParams>& info) {
      return info.param.name;
    });

// Rules activated over populated relations run their priming queries as
// columnar scans; the α-memories, P-nodes and everything else in
// DebugDumpState must match the row path's activation exactly — including
// null cells, slot holes left by deletes, or/not selections, and a
// selection that stays on the row path (arithmetic).
std::string PrimeScenario(bool columnar) {
  Metrics().firing_trace.Clear();
  DatabaseOptions options;
  options.optimizer.columnar_exec = columnar;
  options.optimizer.columnar_min_rows = 0;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
  Database db(options);
  auto exec = [&](const std::string& script) {
    auto r = db.Execute(script);
    EXPECT_TRUE(r.ok()) << script << ": " << r.status().ToString();
  };
  exec("create emp (name = string, sal = int, dno = int)");
  exec("create dept (dno = int, name = string)");
  exec("create sink (who = string)");
  for (int d = 0; d < 10; ++d) {
    exec("append dept (dno = " + std::to_string(d) + ", name = \"d" +
         std::to_string(d) + "\")");
  }
  for (int i = 0; i < 300; ++i) {
    const std::string sal =
        i % 7 == 0 ? "" : ", sal = " + std::to_string((i * 131) % 1000);
    exec("append emp (name = \"w" + std::to_string(i % 40) + "\"" + sal +
         ", dno = " + std::to_string(i % 10) + ")");
  }
  exec("delete emp where emp.dno = 4");
  exec("define rule band if emp.sal >= 100 and emp.sal < 300 and "
       "emp.dno = dept.dno then append to sink (who = emp.name)");
  exec("define rule either if (emp.sal < 50 or not (emp.dno != 3)) and "
       "emp.dno = dept.dno and dept.name != \"d9\" "
       "then append to sink (who = emp.name)");
  exec("define rule named if emp.name = \"w7\" and emp.sal != 131 and "
       "emp.dno = dept.dno then append to sink (who = dept.name)");
  exec("define rule arith if emp.dno + 1 > 9 and emp.dno = dept.dno "
       "then append to sink (who = emp.name)");
  return db.DebugDumpState();
}

TEST(ColumnarActivationTest, PopulatedRelationsActivateLikeTheRowPath) {
  const std::string row = PrimeScenario(/*columnar=*/false);
  EXPECT_NE(row.find("band"), std::string::npos);
  EXPECT_EQ(PrimeScenario(/*columnar=*/true), row);
}

TEST(ColumnarAuditTest, PlantedHeapCacheCorruptionIsReported) {
  DatabaseOptions options;
  options.optimizer.columnar_min_rows = 0;
  Database db(options);
  ASSERT_OK(db.Execute("create emp (name = string, sal = int)").status());
  for (int i = 0; i < 32; ++i) {
    ASSERT_OK(db.Execute("append emp (name = \"w" + std::to_string(i) +
                         "\", sal = " + std::to_string(i * 10) + ")")
                  .status());
  }
  // A columnar scan materializes the relation's column cache.
  ASSERT_OK(db.Execute("retrieve (emp.name) where emp.sal < 100").status());
  {
    auto clean = db.AuditNetwork();
    ASSERT_OK(clean.status());
    EXPECT_TRUE(clean->empty());
  }
  db.catalog().GetRelation("emp")->CorruptColumnCacheForTesting();
  auto violations = db.AuditNetwork();
  ASSERT_OK(violations.status());
  bool found = false;
  for (const AuditViolation& v : *violations) {
    if (v.kind == AuditViolationKind::kColumnCacheIncoherent) found = true;
  }
  EXPECT_TRUE(found) << "corrupted heap column cache not reported";
}

TEST(ColumnarAuditTest, PlantedAlphaCacheCorruptionIsReported) {
  DatabaseOptions options;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
  Database db(options);
  ASSERT_OK(db.Execute("create emp (sal = int, dno = int)").status());
  ASSERT_OK(db.Execute("create dept (dno = int, lo = int, hi = int)")
                .status());
  ASSERT_OK(db.Execute("create sink (x = int)").status());
  ASSERT_OK(db.Execute("define rule band if emp.sal >= dept.lo and "
                       "emp.sal < dept.hi then append to sink (x = emp.sal)")
                .status());
  for (int d = 0; d < 20; ++d) {
    ASSERT_OK(db.Execute("append dept (dno = " + std::to_string(d) +
                         ", lo = " + std::to_string(d * 50) + ", hi = " +
                         std::to_string(d * 50 + 20) + ")")
                  .status());
  }
  // Tokens drive the banded join, whose scan prefilter builds column views
  // over the stored α-memories it scans.
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(db.Execute("append emp (sal = " + std::to_string(i * 55) +
                         ", dno = " + std::to_string(i) + ")")
                  .status());
  }
  Rule* rule = db.rules().GetRule("band");
  ASSERT_NE(rule, nullptr);
  ASSERT_TRUE(rule->active);
  // Corrupt the cached batch of a memory that materializes entries.
  AlphaMemory* stored_alpha = nullptr;
  for (size_t i = 0; i < rule->network->num_vars(); ++i) {
    AlphaMemory* alpha = rule->network->alpha(i);
    if (alpha->stores_tuples() && !alpha->entries().empty()) {
      stored_alpha = alpha;
    }
  }
  ASSERT_NE(stored_alpha, nullptr) << "no stored α-memory to corrupt";
  {
    auto clean = db.AuditNetwork();
    ASSERT_OK(clean.status());
    EXPECT_TRUE(clean->empty());
  }
  stored_alpha->CorruptColumnCacheForTesting();
  auto violations = db.AuditNetwork();
  ASSERT_OK(violations.status());
  bool found = false;
  for (const AuditViolation& v : *violations) {
    if (v.kind == AuditViolationKind::kColumnCacheIncoherent) found = true;
  }
  EXPECT_TRUE(found) << "corrupted alpha column cache not reported";
}

}  // namespace
}  // namespace ariel
