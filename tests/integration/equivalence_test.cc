// The central correctness property of the discrimination network (§4.2:
// "the algorithm just described has the same effect as the normal TREAT
// strategy"): after any stream of insert/delete/replace transitions, the
// P-node of a pattern rule maintained incrementally by A-TREAT must hold
// exactly the instantiations a from-scratch evaluation of the rule
// condition produces — under every α-memory policy (all stored = classic
// TREAT, all virtual, adaptive) and across rule shapes including
// self-joins, which exercise the ProcessedMemories protocol.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ariel/database.h"
#include "util/random.h"

namespace ariel {
namespace {

// The seed leads the struct: gtest prints an unprintable parameter as its raw
// bytes, and the discovered test name should begin with a fixed value rather
// than the address of `name`, which moves with the build type and the
// checkout path.
struct EquivalenceParams {
  uint64_t seed;
  const char* name;
  AlphaMemoryPolicy::Mode mode;
  int operations;
  /// Also create B+tree indexes on the join attributes, so their
  /// maintenance runs beside the relation join hash indexes.
  bool with_indexes = false;
  /// Join-network algorithm (Rete maintains β chains incrementally).
  JoinBackend backend = JoinBackend::kTreat;
};

class NetworkEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParams> {
 protected:
  static void CheckOk(const Status& s) { ASSERT_TRUE(s.ok()) << s.ToString(); }

  /// Canonical multiset rendering of a set of instantiations, independent
  /// of row order.
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
    rule->network->pnode()->relation().ForEach(
        [&](TupleId, const Tuple& t) {
          rows.push_back(rule->network->pnode()->ToRow(t));
        });
    return Canonical(rows);
  }
};

TEST_P(NetworkEquivalenceTest, IncrementalMatchesRecompute) {
  const EquivalenceParams params = GetParam();
  // The engine under test, and a classic-TREAT twin (all memories stored)
  // that receives the identical operation stream. Pattern rules are checked
  // against a from-scratch recompute; event rules, whose P-nodes depend on
  // transition history, are checked against the twin.
  auto make_db = [](AlphaMemoryPolicy::Mode mode, JoinBackend backend) {
    DatabaseOptions options;
    options.alpha_policy.mode = mode;
    options.alpha_policy.virtual_threshold = 4;  // adaptive picks both kinds
    options.auto_activate_rules = false;  // activate after data is loaded
    options.join_backend = backend;
    return std::make_unique<Database>(options);
  };
  std::unique_ptr<Database> db_ptr = make_db(params.mode, params.backend);
  std::unique_ptr<Database> twin_ptr =
      make_db(AlphaMemoryPolicy::Mode::kAllStored, JoinBackend::kTreat);
  Database& db = *db_ptr;
  const std::vector<Database*> both = {db_ptr.get(), twin_ptr.get()};
  auto exec_both = [&](const std::string& cmd) {
    for (Database* d : both) CheckOk(d->Execute(cmd).status());
  };

  exec_both("create emp (name = string, sal = int, dno = int, jno = int)");
  exec_both("create dept (dno = int, name = string)");
  exec_both("create job (jno = int, paygrade = int)");
  exec_both("create sink (x = int)");
  if (params.with_indexes) {
    // B+trees on the join attributes: the network probes its own join hash
    // indexes, so these only add index maintenance beside them.
    exec_both("define index on emp (dno)");
    exec_both("define index on emp (jno)");
    exec_both("define index on dept (dno)");
    exec_both("define index on job (jno)");
  }

  // Every rule appends to `sink`; the random stream drives the gateway
  // directly, so no recognize-act cycle runs and P-nodes accumulate exactly
  // the incremental match state (explicit transactions fire rules, but
  // every one of them is aborted).
  struct RuleDef {
    const char* name;
    const char* condition;
    bool pattern;  // checked against a recompute (else against the twin)
  };
  const RuleDef defs[] = {
      // one-variable selection (simple memory)
      {"r_simple", "emp.sal > 40 and emp.sal <= 120", true},
      // classic two-variable join
      {"r_join2", "emp.sal > 10 and emp.dno = dept.dno", true},
      // three-variable chain join with selections on both dimensions
      {"r_join3",
       "emp.sal > 5 and emp.dno = dept.dno and emp.jno = job.jno and "
       "job.paygrade >= 2",
       true},
      // self-join: employees in the same department with crossing salaries
      {"r_selfjoin",
       "e1.sal > e2.sal and e1.dno = e2.dno from e1 in emp, e2 in emp", true},
      // unselective predicate (drives the adaptive policy to virtual)
      {"r_wide", "emp.sal > 0 and emp.dno = dept.dno", true},
      // selection-free job joined to a selective emp
      {"r_free_job", "emp.sal > 100 and emp.jno = job.jno", true},
      // self-join of two selection-free variables on different attributes
      {"r_free_self", "e1.dno = e2.jno from e1 in emp, e2 in emp", true},
      // event variable joined to a selection-free one
      {"r_free_event", "emp.dno = dept.dno", false},
  };
  for (const RuleDef& def : defs) {
    std::string cmd = std::string("define rule ") + def.name;
    if (!def.pattern) cmd += " on replace emp(dno, sal)";
    cmd += std::string(" if ") + def.condition + " then append to sink (x = 1)";
    exec_both(cmd);  // install only (auto-activate off)
  }

  // Seed data, then activate (exercises priming too).
  Random rng(params.seed);
  auto random_emp = [&]() {
    return Tuple(std::vector<Value>{
        Value::String("e" + std::to_string(rng.Uniform(1000))),
        Value::Int(rng.UniformRange(0, 150)),
        Value::Int(rng.UniformRange(1, 5)),
        Value::Int(rng.UniformRange(1, 4))});
  };
  auto rel = [](Database* d, const char* name) {
    return d->catalog().GetRelation(name);
  };
  auto insert_both = [&](const char* name, const Tuple& tuple) {
    for (Database* d : both) {
      CheckOk(d->transitions().Insert(rel(d, name), tuple).status());
    }
  };
  for (int i = 0; i < 12; ++i) insert_both("emp", random_emp());
  for (int d = 1; d <= 4; ++d) {
    insert_both("dept", Tuple(std::vector<Value>{
                            Value::Int(d),
                            Value::String("d" + std::to_string(d))}));
  }
  for (int j = 1; j <= 3; ++j) {
    insert_both("job",
                Tuple(std::vector<Value>{Value::Int(j), Value::Int(j)}));
  }
  for (const RuleDef& def : defs) {
    for (Database* d : both) CheckOk(d->rules().ActivateRule(def.name));
  }

  auto check_all = [&](int op) {
    for (const RuleDef& def : defs) {
      const Rule* rule = db.rules().GetRule(def.name);
      if (def.pattern) {
        auto recomputed =
            rule->network->RecomputeInstantiations(&db.optimizer());
        ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
        ASSERT_EQ(PnodeContents(rule), Canonical(*recomputed))
            << "rule " << def.name << " diverged after op " << op;
      } else {
        ASSERT_EQ(PnodeContents(rule),
                  PnodeContents(twin_ptr->rules().GetRule(def.name)))
            << "rule " << def.name << " diverged from the twin after op "
            << op;
      }
    }
    auto violations = db.AuditNetwork();
    ASSERT_TRUE(violations.ok()) << violations.status().ToString();
    ASSERT_TRUE(violations->empty())
        << (*violations)[0].ToString() << " after op " << op;
  };
  check_all(-1);

  // Random update stream through the gateway, mirrored onto the twin.
  const char* const kRelations[] = {"emp", "emp", "emp", "dept", "job"};
  for (int op = 0; op < params.operations; ++op) {
    int choice = static_cast<int>(rng.Uniform(100));
    const char* name = kRelations[rng.Uniform(5)];
    const std::string rel_name = name;
    std::vector<TupleId> tids = rel(&db, name)->AllTupleIds();
    if (choice < 6 && tids.size() >= 3) {
      // Deletes inside an explicit transaction, then abort: rollback
      // restores each tuple under its old id (InsertAt) and with it the
      // relation join hash indexes and the memories over them.
      const TupleId first = tids[rng.Uniform(tids.size())];
      const TupleId second = tids[rng.Uniform(tids.size())];
      for (Database* d : both) {
        CheckOk(d->Execute("begin").status());
        HeapRelation* r = rel(d, name);
        CheckOk(d->transitions().Delete(r, first));
        if (!(second == first)) CheckOk(d->transitions().Delete(r, second));
        CheckOk(d->Execute("abort").status());
      }
    } else if (choice < 45 || tids.size() < 3) {
      if (rel_name == "emp") {
        insert_both(name, random_emp());
      } else if (rel_name == "dept") {
        insert_both(name, Tuple(std::vector<Value>{
                              Value::Int(rng.UniformRange(1, 5)),
                              Value::String("dx")}));
      } else {
        insert_both(name, Tuple(std::vector<Value>{
                              Value::Int(rng.UniformRange(1, 5)),
                              Value::Int(rng.UniformRange(1, 4))}));
      }
    } else if (choice < 70) {
      TupleId victim = tids[rng.Uniform(tids.size())];
      for (Database* d : both) {
        CheckOk(d->transitions().Delete(rel(d, name), victim));
      }
    } else {
      // Replaces, most of them of a join attribute.
      TupleId victim = tids[rng.Uniform(tids.size())];
      const Tuple* current = rel(&db, name)->Get(victim);
      ASSERT_NE(current, nullptr);
      Tuple next = *current;
      std::vector<std::string> attrs;
      if (rel_name == "emp") {
        next.at(1) = Value::Int(rng.UniformRange(0, 150));
        attrs = {"sal"};
        if (rng.Bernoulli(0.5)) {
          next.at(2) = Value::Int(rng.UniformRange(1, 5));
          attrs.push_back("dno");
        }
        if (rng.Bernoulli(0.3)) {
          next.at(3) = Value::Int(rng.UniformRange(1, 4));
          attrs.push_back("jno");
        }
      } else {
        next.at(0) = Value::Int(rng.UniformRange(1, 5));
        attrs = {rel_name == "dept" ? "dno" : "jno"};
      }
      for (Database* d : both) {
        CheckOk(d->transitions().Update(rel(d, name), victim, next, attrs));
      }
    }
    if (op % 7 == 0) check_all(op);
  }
  check_all(params.operations);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, NetworkEquivalenceTest,
    ::testing::Values(
        EquivalenceParams{0x13, "stored", AlphaMemoryPolicy::Mode::kAllStored,
                          200},
        EquivalenceParams{0x16, "virtual",
                          AlphaMemoryPolicy::Mode::kAllVirtual, 200},
        EquivalenceParams{103, "adaptive", AlphaMemoryPolicy::Mode::kAdaptive,
                          200},
        EquivalenceParams{0xE8, "stored2", AlphaMemoryPolicy::Mode::kAllStored,
                          350},
        EquivalenceParams{105, "virtual2",
                          AlphaMemoryPolicy::Mode::kAllVirtual, 350},
        EquivalenceParams{106, "virtual_indexed",
                          AlphaMemoryPolicy::Mode::kAllVirtual, 350,
                          /*with_indexes=*/true},
        EquivalenceParams{107, "adaptive_indexed",
                          AlphaMemoryPolicy::Mode::kAdaptive, 350,
                          /*with_indexes=*/true},
        EquivalenceParams{108, "rete_stored",
                          AlphaMemoryPolicy::Mode::kAllStored, 350, false,
                          JoinBackend::kRete},
        EquivalenceParams{109, "rete_virtual",
                          AlphaMemoryPolicy::Mode::kAllVirtual, 350, false,
                          JoinBackend::kRete},
        EquivalenceParams{110, "rete_virtual_indexed",
                          AlphaMemoryPolicy::Mode::kAllVirtual, 350,
                          /*with_indexes=*/true, JoinBackend::kRete}),
    [](const ::testing::TestParamInfo<EquivalenceParams>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ariel
