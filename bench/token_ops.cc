// Extension of the §6 token test: the paper times only insert tokens; this
// bench breaks token-processing cost down by operation type. Deletes are
// expected to be cheapest (TREAT: no joins, just α-memory and conflict-set
// removal); replaces cost roughly a delete plus an insert (the −/Δ+ pair),
// plus Δ-set bookkeeping. Each cell is the median over kRounds rounds of
// 200 tokens (one round in smoke mode): one pass swings 10-30% between runs.

#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/paper_workload.h"

namespace {

using namespace ariel;
using namespace ariel::bench;

struct Sample {
  double insert_us;
  double replace_us;
  double delete_us;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Times `rounds` rounds of 200 inserts, then replaces, then deletes of
/// the same probe tuples (each round leaves emp as it found it) and
/// reports each operation's median per-token cost.
Sample Run(int rule_type, int num_rules, int rounds) {
  DatabaseOptions options;
  options.auto_activate_rules = false;
  Database db(options);
  SetupPaperDatabase(&db);
  for (int i = 0; i < num_rules; ++i) {
    CheckOk(db.Execute(PaperRuleText(rule_type, i)).status(), "define");
    CheckOk(db.rules().ActivateRule("bench_rule_" + std::to_string(rule_type) +
                                    "_" + std::to_string(i)),
            "activate");
  }

  HeapRelation* emp = db.catalog().GetRelation("emp");
  const int kTokens = 200;
  std::vector<double> inserts, replaces, deletes;
  for (int round = 0; round < rounds; ++round) {
    // Inserts.
    std::vector<TupleId> probes;
    Timer timer;
    for (int t = 0; t < kTokens; ++t) {
      Tuple tuple(std::vector<Value>{Value::String("probe"), Value::Int(30),
                                     Value::Float(10500.0 + (t % 20) * 1000),
                                     Value::Int(t % 7 + 1), Value::Int(1)});
      probes.push_back(
          CheckOk(db.transitions().Insert(emp, std::move(tuple)), "insert"));
    }
    inserts.push_back(timer.ElapsedMicros() / kTokens);

    // Replaces (each probe's salary moves to a different rule interval).
    timer.Reset();
    for (size_t t = 0; t < probes.size(); ++t) {
      Tuple next = *emp->Get(probes[t]);
      next.at(2) = Value::Float(11500.0 + (t % 20) * 1000);
      CheckOk(
          db.transitions().Update(emp, probes[t], std::move(next), {"sal"}),
          "replace");
    }
    replaces.push_back(timer.ElapsedMicros() / kTokens);

    // Deletes.
    timer.Reset();
    for (TupleId tid : probes) {
      CheckOk(db.transitions().Delete(emp, tid), "delete");
    }
    deletes.push_back(timer.ElapsedMicros() / kTokens);
  }
  return Sample{Median(std::move(inserts)), Median(std::move(replaces)),
                Median(std::move(deletes))};
}

}  // namespace

int main() {
  ariel::bench::BenchReporter reporter("token_ops");
  const bool smoke = ariel::bench::SmokeMode();
  const int max_rule_type = smoke ? 1 : 3;
  const int num_rules = smoke ? 25 : 100;
  const int rounds = smoke ? 1 : 101;
  std::printf("=== Extension: token-test cost by operation type ===\n");
  std::printf("(the paper's Figures 9-11 time inserts only; %d rules "
              "active; median of %d round(s) of 200 tokens per cell)\n\n",
              num_rules, rounds);
  reporter.AddResult("rounds", rounds);
  std::printf("%-10s %-14s %-14s %-14s\n", "rule type", "insert (us)",
              "replace (us)", "delete (us)");
  for (int rule_type = 1; rule_type <= max_rule_type; ++rule_type) {
    Sample s = Run(rule_type, num_rules, rounds);
    std::printf("%-10d %-14.2f %-14.2f %-14.2f\n", rule_type, s.insert_us,
                s.replace_us, s.delete_us);
    const std::string prefix = "type" + std::to_string(rule_type) + "_";
    reporter.AddResult(prefix + "insert_us", s.insert_us);
    reporter.AddResult(prefix + "replace_us", s.replace_us);
    reporter.AddResult(prefix + "delete_us", s.delete_us);
  }
  std::printf("\nExpected shape: deletes are far cheaper than inserts (no\n"
              "joins — TREAT's deletion advantage); replaces cost about an\n"
              "insert (the Δ+ joins; the paired − retraction is cheap since\n"
              "it only reaches the old value's rules).\n");
  return 0;
}
