// Ablation for §4.2: virtual vs stored α-memories — the paper's
// space-for-time trade. The SalesClerkRule-style rule carries a
// low-selectivity predicate (emp.sal > 30000 matches most employees), so a
// stored α-memory duplicates a large fraction of emp. A virtual memory
// stores only the predicate; a token joining *through* it probes emp's join
// hash index on dno and filters the bucket by the predicate.
//
// Measured per emp cardinality: α bytes (the rule's memories plus the
// relation join hash indexes its virtual memories lease), the time to test
// a token that joins through the emp memory (an insert into dept), and the
// time to test a token arriving at the emp memory itself (an insert into
// emp).

#include "bench/bench_report.h"
#include <string>

#include "bench/paper_workload.h"

namespace {

using namespace ariel;
using namespace ariel::bench;

struct Sample {
  size_t alpha_bytes;
  double dept_token_us;  // joins through the emp memory
  double emp_token_us;   // arrives at the emp memory
};

Sample RunPolicy(AlphaMemoryPolicy::Mode mode, int emp_size) {
  DatabaseOptions options;
  options.alpha_policy.mode = mode;
  Database db(options);

  CheckOk(db.Execute("create emp (name = string, age = int, sal = float, "
                     "dno = int, jno = int)")
              .status(),
          "create emp");
  CheckOk(db.Execute("create dept (dno = int, name = string, "
                     "building = string)")
              .status(),
          "create dept");
  CheckOk(db.Execute("create watch (name = string)").status(), "create");

  for (int d = 0; d < 7; ++d) {
    CheckOk(db.Execute("append dept (dno=" + std::to_string(d + 1) +
                       ", name=\"D" + std::to_string(d) +
                       "\", building=\"B\")")
                .status(),
            "dept row");
  }
  // 90% of employees pass the sal > 30000 predicate: low selectivity.
  HeapRelation* emp = db.catalog().GetRelation("emp");
  for (int e = 0; e < emp_size; ++e) {
    double sal = (e % 10 == 0) ? 20000.0 : 30001.0 + e;
    Tuple tuple(std::vector<Value>{Value::String("e" + std::to_string(e)),
                                   Value::Int(30), Value::Float(sal),
                                   Value::Int(e % 7 + 1), Value::Int(1)});
    CheckOk(emp->Insert(std::move(tuple)).status(), "emp row");
  }

  CheckOk(db.Execute("define rule watch_sales "
                     "if emp.sal > 30000 and emp.dno = dept.dno and "
                     "dept.name = \"D0\" "
                     "then append to watch (name = emp.name)")
              .status(),
          "define rule");

  Sample sample;
  sample.alpha_bytes = RuleAlphaBytes(db);
  HeapRelation* dept = db.catalog().GetRelation("dept");

  const int kTokens = 50;
  Timer timer;
  for (int t = 0; t < kTokens; ++t) {
    Tuple tuple(std::vector<Value>{Value::Int(100 + t),
                                   Value::String("D0"),
                                   Value::String("B")});
    CheckOk(db.transitions().Insert(dept, std::move(tuple)).status(),
            "dept token");
  }
  sample.dept_token_us = timer.ElapsedMicros() / kTokens;

  timer.Reset();
  for (int t = 0; t < kTokens; ++t) {
    Tuple tuple(std::vector<Value>{Value::String("probe"), Value::Int(30),
                                   Value::Float(40000.0), Value::Int(7),
                                   Value::Int(1)});
    CheckOk(db.transitions().Insert(emp, std::move(tuple)).status(),
            "emp token");
  }
  sample.emp_token_us = timer.ElapsedMicros() / kTokens;
  return sample;
}

}  // namespace

int main() {
  ariel::bench::BenchReporter reporter("virtual_alpha");
  std::printf("=== Ablation: virtual vs stored α-memories (§4.2) ===\n");
  std::printf("rule: emp.sal > 30000 (90%% selective) joined to dept\n\n");
  std::printf("%-10s %-10s %-14s %-20s %-18s\n", "emp size", "policy",
              "alpha bytes", "dept token (us)", "emp token (us)");
  for (int emp_size : {1000, 10000, 50000}) {
    for (auto [mode, name] :
         {std::pair{AlphaMemoryPolicy::Mode::kAllStored, "stored"},
          std::pair{AlphaMemoryPolicy::Mode::kAllVirtual, "virtual"}}) {
      Sample s = RunPolicy(mode, emp_size);
      std::printf("%-10d %-10s %-14zu %-20.2f %-18.2f\n", emp_size, name,
                  s.alpha_bytes, s.dept_token_us, s.emp_token_us);
      const std::string key =
          std::string(name) + "_emp" + std::to_string(emp_size);
      reporter.AddResult(key + "_alpha_bytes",
                         static_cast<double>(s.alpha_bytes));
      reporter.AddResult(key + "_dept_token_us", s.dept_token_us);
      reporter.AddResult(key + "_emp_token_us", s.emp_token_us);
    }
  }
  std::printf(
      "\nExpected shape: virtual saves O(|emp|) memory (its relation hash\n"
      "index costs a slot number per tuple, not a tuple copy); tokens\n"
      "joining through the virtual memory probe that index and filter the\n"
      "bucket by the predicate instead of iterating a stored memory.\n");
  return 0;
}
