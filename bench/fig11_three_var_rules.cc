// Reproduces Figure 11 of the paper: install/activate/token-test times for
// three-tuple-variable rules (emp selection + dept join + job join).

#include "bench/bench_report.h"
#include "bench/paper_workload.h"

int main() {
  using namespace ariel;
  using namespace ariel::bench;

  BenchReporter reporter("fig11_three_var_rules");
  const bool smoke = SmokeMode();
  const int max_rules = smoke ? 25 : 200;
  const int trials = smoke ? 1 : 3;
  DatabaseOptions options;
  std::vector<FigureRow> rows;
  for (int n = 25; n <= max_rules; n += 25) {
    rows.push_back(RunFigureProtocolMedian(/*rule_type=*/3, n, options,
                                           trials));
  }
  PrintFigureTable("Figure 11",
                   "three-tuple-variable rules (emp selection + dept join + "
                   "job join)",
                   rows);
  for (const FigureRow& row : rows) {
    const std::string key = "rules" + std::to_string(row.num_rules);
    reporter.AddResult(key + "_install_s", row.install_seconds);
    reporter.AddResult(key + "_activate_s", row.activate_seconds);
    reporter.AddResult(key + "_token_test_ms", row.token_test_ms);
    reporter.AddResult(key + "_alpha_bytes_per_rule",
                       row.alpha_bytes_per_rule);
  }

  // Beyond the paper: sweep |dept| = |job| to expose the probe-vs-scan
  // separation the 7/5-tuple paper relations cannot show (see Figure 10's
  // extension; the three-variable chain doubles the per-token probe work).
  std::vector<ScalingRow> scaling;
  for (int size : smoke ? std::vector<int>{7}
                        : std::vector<int>{7, 70, 700}) {
    scaling.push_back(RunJoinScalingPoint(/*rule_type=*/3, /*num_rules=*/25,
                                          size, smoke ? 1 : 3));
  }
  PrintScalingTable("Figure 11 extension", scaling);
  for (const ScalingRow& row : scaling) {
    reporter.AddResult("joined" + std::to_string(row.relation_size) +
                           "_token_test_ms",
                       row.token_test_ms);
  }
  return 0;
}
