// Reproduces Figure 10 of the paper: install/activate/token-test times for
// two-tuple-variable rules (the emp selection plus the emp.dno = dept.dno
// join condition). Costs rise over Figure 9 because activation primes two
// α-memories and loads the P-node through a join, and each matching token
// joins against the dept memory.

#include "bench/bench_report.h"
#include "bench/paper_workload.h"

int main() {
  using namespace ariel;
  using namespace ariel::bench;

  BenchReporter reporter("fig10_two_var_rules");
  const bool smoke = SmokeMode();
  const int max_rules = smoke ? 25 : 200;
  const int trials = smoke ? 1 : 3;
  DatabaseOptions options;
  std::vector<FigureRow> rows;
  for (int n = 25; n <= max_rules; n += 25) {
    rows.push_back(RunFigureProtocolMedian(/*rule_type=*/2, n, options,
                                           trials));
  }
  PrintFigureTable(
      "Figure 10",
      "two-tuple-variable rules (emp selection + emp.dno = dept.dno)", rows);
  for (const FigureRow& row : rows) {
    const std::string key = "rules" + std::to_string(row.num_rules);
    reporter.AddResult(key + "_install_s", row.install_seconds);
    reporter.AddResult(key + "_activate_s", row.activate_seconds);
    reporter.AddResult(key + "_token_test_ms", row.token_test_ms);
    reporter.AddResult(key + "_alpha_bytes_per_rule",
                       row.alpha_bytes_per_rule);
  }

  // Beyond the paper: the paper's dept relation holds 7 tuples, which caps
  // the work a probe can save; sweeping |dept| shows the hash-index
  // separation (join_probes stays flat instead of growing with |dept|).
  std::vector<ScalingRow> scaling;
  for (int size : smoke ? std::vector<int>{7}
                        : std::vector<int>{7, 70, 700}) {
    scaling.push_back(RunJoinScalingPoint(/*rule_type=*/2, /*num_rules=*/25,
                                          size, smoke ? 1 : 3));
  }
  PrintScalingTable("Figure 10 extension", scaling);
  for (const ScalingRow& row : scaling) {
    reporter.AddResult("dept" + std::to_string(row.relation_size) +
                           "_token_test_ms",
                       row.token_test_ms);
  }
  return 0;
}
