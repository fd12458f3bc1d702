#ifndef ARIEL_BENCH_PAPER_WORKLOAD_H_
#define ARIEL_BENCH_PAPER_WORKLOAD_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ariel/database.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace ariel::bench {

/// Aborts the benchmark with a message when an engine call fails; the
/// harness has no business continuing on broken setup.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok() && !status.IsHalt()) {
    std::fprintf(stderr, "bench setup failed (%s): %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
inline T CheckOk(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Builds the paper's §6 evaluation database: emp (25 tuples), dept (7),
/// job (5), plus a bench_log relation rule actions append to. Salary values
/// spread over [10000, 34000] so the generated rule predicates
/// (C1 < sal <= C2, shifted by i*1000) have realistic selectivity.
inline void SetupPaperDatabase(Database* db) {
  CheckOk(db->Execute("create emp (name = string, age = int, sal = float, "
                      "dno = int, jno = int)")
              .status(),
          "create emp");
  CheckOk(db->Execute("create dept (dno = int, name = string, "
                      "building = string)")
              .status(),
          "create dept");
  CheckOk(db->Execute("create job (jno = int, title = string, "
                      "paygrade = int, description = string)")
              .status(),
          "create job");
  CheckOk(db->Execute("create bench_log (name = string)").status(),
          "create bench_log");

  static const char* kDeptNames[] = {"Sales", "Toy",  "Shoe", "Candy",
                                     "Book",  "Auto", "Garden"};
  for (int d = 0; d < 7; ++d) {
    std::string cmd = "append dept (dno=" + std::to_string(d + 1) +
                      ", name=\"" + kDeptNames[d] + "\", building=\"B" +
                      std::to_string(d % 3 + 1) + "\")";
    CheckOk(db->Execute(cmd).status(), "populate dept");
  }
  static const char* kTitles[] = {"Clerk", "Engineer", "Manager", "Director",
                                  "Analyst"};
  for (int j = 0; j < 5; ++j) {
    std::string cmd = "append job (jno=" + std::to_string(j + 1) +
                      ", title=\"" + kTitles[j] + "\", paygrade=" +
                      std::to_string(2 * j + 1) + ", description=\"desc\")";
    CheckOk(db->Execute(cmd).status(), "populate job");
  }
  for (int e = 0; e < 25; ++e) {
    std::string cmd = "append emp (name=\"emp" + std::to_string(e) +
                      "\", age=" + std::to_string(25 + e % 30) +
                      ", sal=" + std::to_string(10000 + e * 1000) + ".0" +
                      ", dno=" + std::to_string(e % 7 + 1) +
                      ", jno=" + std::to_string(e % 5 + 1) + ")";
    CheckOk(db->Execute(cmd).status(), "populate emp");
  }
}

/// The §6 rule generator: rule i of each type carries the single-relation
/// predicate C1+i*1000 < emp.sal <= C2+i*1000; type 2 adds the dept join,
/// type 3 adds the job join.
inline std::string PaperRuleText(int rule_type, int i) {
  long c1 = 10000 + static_cast<long>(i) * 1000;
  long c2 = c1 + 1000;
  std::string name = "bench_rule_" + std::to_string(rule_type) + "_" +
                     std::to_string(i);
  std::string cond = std::to_string(c1) + " < emp.sal and emp.sal <= " +
                     std::to_string(c2);
  if (rule_type >= 2) cond += " and emp.dno = dept.dno";
  if (rule_type >= 3) cond += " and emp.jno = job.jno";
  return "define rule " + name + " if " + cond +
         " then append to bench_log (name = emp.name)";
}

/// Median of a sample vector (destructive).
inline double Median(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  size_t n = samples->size();
  if (n == 0) return 0;
  return n % 2 == 1 ? (*samples)[n / 2]
                    : ((*samples)[n / 2 - 1] + (*samples)[n / 2]) / 2;
}

/// One row of a Figure 9/10/11-style table.
struct FigureRow {
  int num_rules;
  double install_seconds;
  double activate_seconds;
  double token_test_ms;
  /// α bytes per rule after activation: the rules' memories plus the
  /// relation join hash indexes their virtual memories lease.
  double alpha_bytes_per_rule = 0;
};

/// Bytes held for `db`'s active rules: every rule's α-memories plus each
/// relation's leased join hash indexes (shared, so counted once).
inline size_t RuleAlphaBytes(Database& db) {
  size_t bytes = 0;
  for (const Rule* rule : db.rules().ActiveRules()) {
    bytes += rule->network->AlphaFootprintBytes();
  }
  for (const std::string& name : db.catalog().RelationNames()) {
    bytes += db.catalog().GetRelation(name)->JoinIndexFootprintBytes();
  }
  return bytes;
}

/// Runs the full install/activate/token-test protocol of §6 for one rule
/// type and one rule count. Token tests use the storage gateway directly so
/// only condition testing (not rule-action execution) is timed, matching
/// the paper's separation of the two measurements.
inline FigureRow RunFigureProtocol(int rule_type, int num_rules,
                                   const DatabaseOptions& base_options) {
  DatabaseOptions options = base_options;
  options.auto_activate_rules = false;  // time install and activate apart
  Database db(options);
  SetupPaperDatabase(&db);

  FigureRow row;
  row.num_rules = num_rules;

  Timer timer;
  for (int i = 0; i < num_rules; ++i) {
    CheckOk(db.Execute(PaperRuleText(rule_type, i)).status(), "define rule");
  }
  row.install_seconds = timer.ElapsedSeconds();

  timer.Reset();
  for (int i = 0; i < num_rules; ++i) {
    std::string name = "bench_rule_" + std::to_string(rule_type) + "_" +
                       std::to_string(i);
    CheckOk(db.rules().ActivateRule(name), "activate rule");
  }
  row.activate_seconds = timer.ElapsedSeconds();
  row.alpha_bytes_per_rule =
      static_cast<double>(RuleAlphaBytes(db)) / num_rules;

  // Token test: one insert into emp, propagated through the discrimination
  // network via the gateway (no recognize-act cycle => no action timing).
  HeapRelation* emp = db.catalog().GetRelation("emp");
  const int kTrials = 7;
  const int kTokensPerTrial = 50;
  std::vector<double> samples;
  for (int trial = 0; trial < kTrials; ++trial) {
    timer.Reset();
    for (int t = 0; t < kTokensPerTrial; ++t) {
      Tuple tuple(std::vector<Value>{
          Value::String("probe"), Value::Int(30),
          Value::Float(10500.0 + (t % 5) * 1000),  // hits one rule interval
          Value::Int(t % 7 + 1), Value::Int(t % 5 + 1)});
      CheckOk(db.transitions().Insert(emp, std::move(tuple)).status(),
              "token test insert");
    }
    samples.push_back(timer.ElapsedMillis() / kTokensPerTrial);
    // Remove the probes so the next trial starts from the same state.
    for (TupleId tid : emp->AllTupleIds()) {
      const Tuple* t = emp->Get(tid);
      if (t != nullptr && t->at(0) == Value::String("probe")) {
        CheckOk(db.transitions().Delete(emp, tid), "token test cleanup");
      }
    }
  }
  row.token_test_ms = Median(&samples);
  return row;
}

/// Runs the protocol `trials` times and keeps per-column medians, smoothing
/// allocator and cache noise out of the single-run timings.
inline FigureRow RunFigureProtocolMedian(int rule_type, int num_rules,
                                         const DatabaseOptions& base_options,
                                         int trials = 3) {
  std::vector<double> install, activate, token;
  FigureRow row;
  for (int t = 0; t < trials; ++t) {
    row = RunFigureProtocol(rule_type, num_rules, base_options);
    install.push_back(row.install_seconds);
    activate.push_back(row.activate_seconds);
    token.push_back(row.token_test_ms);
  }
  row.install_seconds = Median(&install);
  row.activate_seconds = Median(&activate);
  row.token_test_ms = Median(&token);
  return row;
}

/// One row of the relation-size scaling sweep the join figures add on top
/// of the paper tables: the paper fixes dept at 7 and job at 5 tuples,
/// which caps how much an O(1) probe can save; sweeping the joined-relation
/// cardinality shows the probe-vs-scan separation directly.
struct ScalingRow {
  int relation_size;
  double token_test_ms;
  uint64_t join_probes;
  uint64_t join_hash_probes;
  uint64_t join_scan_fallbacks;
};

inline uint64_t CounterValue(const char* name) {
  for (const auto& [n, v] : Metrics().registry.Counters()) {
    if (n == name) return v;
  }
  return 0;
}

/// Token-tests `num_rules` type-2 (or type-3) rules against dept (and job)
/// scaled to `relation_size` tuples. α-memories are forced stored: the
/// adaptive policy would turn the scaled memories virtual, and the point of
/// the sweep is the stored-memory probe path. emp keys spread across the
/// whole scaled key range so bucket sizes stay ~1.
inline ScalingRow RunJoinScalingPoint(int rule_type, int num_rules,
                                      int relation_size, int trials) {
  DatabaseOptions options;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
  options.auto_activate_rules = false;
  Database db(options);

  CheckOk(db.Execute("create emp (name = string, age = int, sal = float, "
                     "dno = int, jno = int)")
              .status(),
          "create emp");
  CheckOk(db.Execute("create dept (dno = int, name = string, "
                     "building = string)")
              .status(),
          "create dept");
  CheckOk(db.Execute("create job (jno = int, title = string, "
                     "paygrade = int, description = string)")
              .status(),
          "create job");
  CheckOk(db.Execute("create bench_log (name = string)").status(),
          "create bench_log");

  HeapRelation* dept = db.catalog().GetRelation("dept");
  HeapRelation* job = db.catalog().GetRelation("job");
  HeapRelation* emp = db.catalog().GetRelation("emp");
  for (int d = 0; d < relation_size; ++d) {
    CheckOk(db.transitions()
                .Insert(dept, Tuple(std::vector<Value>{
                                  Value::Int(d + 1),
                                  Value::String("d" + std::to_string(d)),
                                  Value::String("B1")}))
                .status(),
            "populate scaled dept");
  }
  if (rule_type >= 3) {
    for (int j = 0; j < relation_size; ++j) {
      CheckOk(db.transitions()
                  .Insert(job, Tuple(std::vector<Value>{
                                    Value::Int(j + 1), Value::String("t"),
                                    Value::Int(j % 9 + 1),
                                    Value::String("desc")}))
                  .status(),
              "populate scaled job");
    }
  }
  for (int e = 0; e < 25; ++e) {
    CheckOk(db.transitions()
                .Insert(emp, Tuple(std::vector<Value>{
                                  Value::String("emp" + std::to_string(e)),
                                  Value::Int(25 + e % 30),
                                  Value::Float(10000.0 + e * 1000),
                                  Value::Int(e % relation_size + 1),
                                  Value::Int(e % relation_size + 1)}))
                .status(),
            "populate emp");
  }

  for (int i = 0; i < num_rules; ++i) {
    CheckOk(db.Execute(PaperRuleText(rule_type, i)).status(), "define rule");
    std::string name = "bench_rule_" + std::to_string(rule_type) + "_" +
                       std::to_string(i);
    CheckOk(db.rules().ActivateRule(name), "activate rule");
  }

  ScalingRow row;
  row.relation_size = relation_size;
  const uint64_t probes_before = CounterValue("join_probes");
  const uint64_t hash_before = CounterValue("join_hash_probes");
  const uint64_t scans_before = CounterValue("join_scan_fallbacks");

  Timer timer;
  const int kTokensPerTrial = 50;
  std::vector<double> samples;
  for (int trial = 0; trial < trials; ++trial) {
    timer.Reset();
    for (int t = 0; t < kTokensPerTrial; ++t) {
      Tuple tuple(std::vector<Value>{
          Value::String("probe"), Value::Int(30),
          Value::Float(10500.0 + (t % 5) * 1000),
          Value::Int(t * (relation_size / kTokensPerTrial + 1) %
                         relation_size +
                     1),
          Value::Int(t * (relation_size / kTokensPerTrial + 1) %
                         relation_size +
                     1)});
      CheckOk(db.transitions().Insert(emp, std::move(tuple)).status(),
              "token test insert");
    }
    samples.push_back(timer.ElapsedMillis() / kTokensPerTrial);
    for (TupleId tid : emp->AllTupleIds()) {
      const Tuple* t = emp->Get(tid);
      if (t != nullptr && t->at(0) == Value::String("probe")) {
        CheckOk(db.transitions().Delete(emp, tid), "token test cleanup");
      }
    }
  }
  row.token_test_ms = Median(&samples);
  row.join_probes = CounterValue("join_probes") - probes_before;
  row.join_hash_probes = CounterValue("join_hash_probes") - hash_before;
  row.join_scan_fallbacks = CounterValue("join_scan_fallbacks") - scans_before;
  return row;
}

inline void PrintScalingTable(const char* figure,
                              const std::vector<ScalingRow>& rows) {
  std::printf("=== %s: joined-relation scaling (stored memories, hash "
              "probes) ===\n",
              figure);
  std::printf("%-14s %-16s %-14s %-16s %-16s\n", "relation size",
              "token test(ms)", "join_probes", "join_hash_probes",
              "join_scan_fallbacks");
  for (const ScalingRow& row : rows) {
    std::printf("%-14d %-16.4f %-14llu %-16llu %-16llu\n", row.relation_size,
                row.token_test_ms,
                static_cast<unsigned long long>(row.join_probes),
                static_cast<unsigned long long>(row.join_hash_probes),
                static_cast<unsigned long long>(row.join_scan_fallbacks));
  }
  std::printf("\n");
}

/// Prints a Figure 9/10/11-style table.
inline void PrintFigureTable(const char* figure, const char* description,
                             const std::vector<FigureRow>& rows) {
  std::printf("=== %s: %s ===\n", figure, description);
  std::printf("(paper: Sun SPARCstation 1, ~12 MIPS; this run: modern "
              "hardware — compare shapes, not absolutes)\n");
  std::printf("%-12s %-16s %-16s %-16s %-14s\n", "no. of rules",
              "installation(s)", "activation(s)", "token test(ms)",
              "alpha B/rule");
  for (const FigureRow& row : rows) {
    std::printf("%-12d %-16.4f %-16.4f %-16.4f %-14.0f\n", row.num_rules,
                row.install_seconds, row.activate_seconds, row.token_test_ms,
                row.alpha_bytes_per_rule);
  }
  std::printf("\n");
}

}  // namespace ariel::bench

#endif  // ARIEL_BENCH_PAPER_WORKLOAD_H_
