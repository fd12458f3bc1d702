// Ablation: classic TREAT (every pattern α-memory stored) versus A-TREAT
// with the adaptive stored/virtual policy versus all-virtual, over a rule
// set mixing selective rules (the Figure 10 generator) with unselective
// ones (sal > 0 watchers). The adaptive policy should sit near all-stored
// on token-test speed while saving most of the memory the unselective
// rules would otherwise materialize.

#include "bench/bench_report.h"
#include <string>

#include "bench/paper_workload.h"

namespace {

using namespace ariel;
using namespace ariel::bench;

struct Sample {
  double activate_seconds;
  size_t alpha_bytes;
  double token_us;
};

Sample RunPolicy(AlphaMemoryPolicy policy, int emp_size) {
  DatabaseOptions options;
  options.alpha_policy = policy;
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
  CheckOk(db.Execute("create bench_log (name = string)").status(), "create");
  for (int d = 0; d < 7; ++d) {
    CheckOk(db.Execute("append dept (dno=" + std::to_string(d + 1) +
                       ", name=\"D" + std::to_string(d) +
                       "\", building=\"B\")")
                .status(),
            "dept row");
  }
  HeapRelation* emp = db.catalog().GetRelation("emp");
  for (int e = 0; e < emp_size; ++e) {
    Tuple tuple(std::vector<Value>{Value::String("e" + std::to_string(e)),
                                   Value::Int(30),
                                   Value::Float(10000.0 + e % 50 * 1000),
                                   Value::Int(e % 7 + 1), Value::Int(1)});
    CheckOk(emp->Insert(std::move(tuple)).status(), "emp row");
  }

  // 40 selective two-variable rules plus 10 unselective watchers.
  std::vector<std::string> names;
  for (int i = 0; i < 40; ++i) {
    CheckOk(db.Execute(PaperRuleText(2, i)).status(), "define");
    names.push_back("bench_rule_2_" + std::to_string(i));
  }
  for (int i = 0; i < 10; ++i) {
    std::string name = "watch_" + std::to_string(i);
    CheckOk(db.Execute("define rule " + name +
                       " if emp.sal > 0 and emp.dno = dept.dno and "
                       "dept.name = \"D" + std::to_string(i % 7) + "\" "
                       "then append to bench_log (name = emp.name)")
                .status(),
            "define watcher");
    names.push_back(name);
  }

  Sample sample;
  Timer timer;
  for (const std::string& name : names) {
    CheckOk(db.rules().ActivateRule(name), "activate");
  }
  sample.activate_seconds = timer.ElapsedSeconds();

  sample.alpha_bytes = RuleAlphaBytes(db);

  const int kTokens = 100;
  timer.Reset();
  for (int t = 0; t < kTokens; ++t) {
    Tuple tuple(std::vector<Value>{Value::String("probe"), Value::Int(30),
                                   Value::Float(10500.0 + (t % 10) * 1000),
                                   Value::Int(t % 7 + 1), Value::Int(1)});
    CheckOk(db.transitions().Insert(emp, std::move(tuple)).status(),
            "token");
  }
  sample.token_us = timer.ElapsedMicros() / kTokens;
  return sample;
}

}  // namespace

int main() {
  ariel::bench::BenchReporter reporter("treat_vs_atreat");
  std::printf("=== Ablation: TREAT (all stored) vs A-TREAT policies ===\n");
  std::printf("50 rules (40 selective + 10 unselective), emp token test\n\n");
  std::printf("%-10s %-12s %-14s %-16s %-16s\n", "emp size", "policy",
              "activate(s)", "alpha bytes", "emp token (us)");
  for (int emp_size : {1000, 10000}) {
    for (auto [mode, name] :
         {std::pair{AlphaMemoryPolicy::Mode::kAllStored, "treat"},
          std::pair{AlphaMemoryPolicy::Mode::kAdaptive, "adaptive"},
          std::pair{AlphaMemoryPolicy::Mode::kAllVirtual, "virtual"}}) {
      AlphaMemoryPolicy policy;
      policy.mode = mode;
      Sample s = RunPolicy(policy, emp_size);
      std::printf("%-10d %-12s %-14.4f %-16zu %-16.2f\n", emp_size, name,
                  s.activate_seconds, s.alpha_bytes, s.token_us);
      const std::string key =
          std::string(name) + "_emp" + std::to_string(emp_size);
      reporter.AddResult(key + "_activate_s", s.activate_seconds);
      reporter.AddResult(key + "_alpha_bytes",
                         static_cast<double>(s.alpha_bytes));
      reporter.AddResult(key + "_token_us", s.token_us);
    }
  }
  return 0;
}
