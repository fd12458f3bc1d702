// Cross-configuration equivalence of the join candidate paths: TREAT and
// Rete, each with equijoins written as `a = b` (hash-keyed probes) and in
// the key-less form `a >= b and a <= b` (the scan fallback), must produce
// byte-identical P-node contents for the same update stream. The hash
// bucket probe is a pure prefilter — losing the key (or switching the
// backend) may change how much work the engine does, never what it matches.

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "ariel/database.h"
#include "util/metrics.h"

namespace ariel {
namespace {

struct JoinPathParams {
  const char* name;
  JoinBackend backend;
  bool hash;  // equijoins keyed (`=`) or key-less (`>= and <=`)
};

/// The join conjunct `lhs = rhs`, or its key-less equivalent that no hash
/// index can serve.
std::string EqJoin(const std::string& lhs, const std::string& rhs,
                   bool keyed) {
  if (keyed) return lhs + " = " + rhs;
  return lhs + " >= " + rhs + " and " + lhs + " <= " + rhs;
}

class JoinPathsTest : public ::testing::TestWithParam<JoinPathParams> {
 protected:
  static std::multiset<std::string> Canonical(const std::vector<Row>& rows) {
    std::multiset<std::string> out;
    for (const Row& row : rows) {
      std::string key;
      for (size_t v = 0; v < row.num_vars(); ++v) {
        key += row.tids[v].ToString();
        key += row.current[v].ToString();
        key += "|";
      }
      out.insert(std::move(key));
    }
    return out;
  }

  static std::multiset<std::string> PnodeContents(const Rule* rule) {
    std::vector<Row> rows;
    rule->network->pnode()->relation().ForEach([&](TupleId, const Tuple& t) {
      rows.push_back(rule->network->pnode()->ToRow(t));
    });
    return Canonical(rows);
  }

  static const std::vector<const char*>& RuleNames() {
    static const std::vector<const char*> names = {"r_join2", "r_join3",
                                                   "r_selfjoin"};
    return names;
  }

  /// Builds a database under `backend` with keyed or key-less equijoins
  /// (`hash`), drives a fixed deterministic update stream through the
  /// storage gateway (no rule firings: P-nodes accumulate exactly the
  /// incremental match state), and returns each
  /// rule's canonical P-node contents.
  static std::map<std::string, std::multiset<std::string>> Run(
      JoinBackend backend, bool hash) {
    DatabaseOptions options;
    options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
    options.auto_activate_rules = false;
    options.join_backend = backend;
    Database db(options);

    EXPECT_OK(db.Execute("create emp (name = string, sal = int, dno = int, "
                         "jno = int)"));
    EXPECT_OK(db.Execute("create dept (dno = int, name = string)"));
    EXPECT_OK(db.Execute("create job (jno = int, paygrade = int)"));
    EXPECT_OK(db.Execute("create sink (x = int)"));
    EXPECT_OK(db.Execute("define rule r_join2 if emp.sal > 10 and " +
                         EqJoin("emp.dno", "dept.dno", hash) +
                         " then append to sink (x = 1)"));
    EXPECT_OK(db.Execute("define rule r_join3 if emp.sal > 5 and " +
                         EqJoin("emp.dno", "dept.dno", hash) + " and " +
                         EqJoin("emp.jno", "job.jno", hash) +
                         " and job.paygrade >= 2 then append to sink (x = 1)"));
    EXPECT_OK(db.Execute("define rule r_selfjoin if e1.sal > e2.sal and " +
                         EqJoin("e1.dno", "e2.dno", hash) +
                         " from e1 in emp, e2 in emp "
                         "then append to sink (x = 1)"));

    HeapRelation* emp = db.catalog().GetRelation("emp");
    HeapRelation* dept = db.catalog().GetRelation("dept");
    HeapRelation* job = db.catalog().GetRelation("job");
    auto emp_tuple = [](int i) {
      return Tuple(std::vector<Value>{Value::String("e" + std::to_string(i)),
                                      Value::Int((i * 37) % 150),
                                      Value::Int(i % 4 + 1),
                                      Value::Int(i % 3 + 1)});
    };

    // Seed before activation (exercises priming), then stream more ops.
    for (int i = 0; i < 10; ++i) {
      EXPECT_OK(db.transitions().Insert(emp, emp_tuple(i)));
    }
    for (int d = 1; d <= 4; ++d) {
      EXPECT_OK(db.transitions()
                    .Insert(dept, Tuple(std::vector<Value>{
                                      Value::Int(d),
                                      Value::String("d" + std::to_string(d))})));
    }
    for (int j = 1; j <= 3; ++j) {
      EXPECT_OK(db.transitions()
                    .Insert(job, Tuple(std::vector<Value>{Value::Int(j),
                                                          Value::Int(j)})));
    }
    for (const char* name : RuleNames()) {
      EXPECT_OK(db.rules().ActivateRule(name));
    }

    for (int i = 10; i < 30; ++i) {
      EXPECT_OK(db.transitions().Insert(emp, emp_tuple(i)));
      if (i % 3 == 0) {
        std::vector<TupleId> tids = emp->AllTupleIds();
        EXPECT_OK(db.transitions().Delete(emp, tids[tids.size() / 2]));
      }
      if (i % 5 == 0) {
        std::vector<TupleId> tids = emp->AllTupleIds();
        TupleId victim = tids[tids.size() / 3];
        Tuple next = *emp->Get(victim);
        next.at(1) = Value::Int((i * 13) % 150);
        next.at(2) = Value::Int(i % 4 + 1);
        EXPECT_OK(db.transitions().Update(emp, victim, std::move(next),
                                          {"sal", "dno"}));
      }
      if (i % 7 == 0) {
        std::vector<TupleId> tids = dept->AllTupleIds();
        TupleId victim = tids[i % tids.size()];
        Tuple next = *dept->Get(victim);
        next.at(0) = Value::Int((i / 7) % 4 + 1);
        EXPECT_OK(db.transitions().Update(dept, victim, std::move(next),
                                          {"dno"}));
      }
    }

    std::map<std::string, std::multiset<std::string>> contents;
    for (const char* name : RuleNames()) {
      const Rule* rule = db.rules().GetRule(name);
      EXPECT_NE(rule, nullptr);

      // Each configuration must also agree with from-scratch evaluation.
      auto recomputed =
          rule->network->RecomputeInstantiations(&db.optimizer());
      EXPECT_TRUE(recomputed.ok()) << recomputed.status().ToString();
      if (recomputed.ok()) {
        EXPECT_EQ(PnodeContents(rule), Canonical(*recomputed))
            << "rule " << name << " diverged from recompute";
      }
      contents[name] = PnodeContents(rule);
    }
    return contents;
  }
};

TEST_P(JoinPathsTest, PnodeContentsMatchForcedScanBaseline) {
  const JoinPathParams params = GetParam();

#ifndef ARIEL_NO_METRICS
  Metrics().registry.Reset();
#endif
  auto got = Run(params.backend, params.hash);

#ifndef ARIEL_NO_METRICS
  // The configurations genuinely take different code paths.
  uint64_t hash_probes = 0;
  for (const auto& [n, v] : Metrics().registry.Counters()) {
    if (n == "join_hash_probes") hash_probes = v;
  }
  if (params.hash) {
    EXPECT_GT(hash_probes, 0u);
  } else {
    EXPECT_EQ(hash_probes, 0u);
  }
#endif

  // Reference: TREAT over key-less joins (the paper's plain entry scan).
  auto reference = Run(JoinBackend::kTreat, false);
  ASSERT_EQ(got.size(), reference.size());
  for (const auto& [rule, contents] : reference) {
    EXPECT_EQ(got.at(rule), contents) << "rule " << rule << " under "
                                      << params.name;
  }
  // Sanity: the stream produced non-trivial match state.
  EXPECT_FALSE(reference.at("r_join2").empty());
  EXPECT_FALSE(reference.at("r_join3").empty());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, JoinPathsTest,
    ::testing::Values(JoinPathParams{"treat_hash", JoinBackend::kTreat, true},
                      JoinPathParams{"treat_scan", JoinBackend::kTreat, false},
                      JoinPathParams{"rete_hash", JoinBackend::kRete, true},
                      JoinPathParams{"rete_scan", JoinBackend::kRete, false}),
    [](const ::testing::TestParamInfo<JoinPathParams>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ariel
