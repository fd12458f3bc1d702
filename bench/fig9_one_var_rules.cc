// Reproduces Figure 9 of the paper: total time to install and activate 25
// to 200 one-tuple-variable rules, and the time to test a token generated
// by a single insert into emp.
//
// Expected shape (paper §6): installation and activation grow roughly
// linearly with the number of rules; token-test time stays small and nearly
// flat thanks to the selection-predicate index.
//
// A second table prices the whole command instead of the token test: one
// Database::Execute of a replace that matches no rule (parse, plan,
// execute, the command's transaction bracket, conflict resolution, commit)
// at 3, 30 and 300 rules. It should be as flat as the token test.

#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/paper_workload.h"
#include "util/timer.h"

namespace {

using namespace ariel;
using namespace ariel::bench;

/// Median microseconds per Database::Execute of a replace on emp0, whose
/// salary (10000) lies below every rule's band, with `num_rules` type-1
/// rules active.
double UnmatchedReplaceMicros(int num_rules, int trials, int commands) {
  Database db;
  SetupPaperDatabase(&db);
  for (int i = 0; i < num_rules; ++i) {
    CheckOk(db.Execute(PaperRuleText(/*rule_type=*/1, i)).status(),
            "define rule");
  }
  // Fire the instantiations activation primed, so the timed commands start
  // from an empty conflict set.
  CheckOk(db.Execute("append bench_log (name = \"settle\")").status(),
          "settle");
  const std::string replace =
      "replace emp (age = emp.age + 1) where emp.name = \"emp0\"";
  std::vector<double> samples;
  for (int trial = 0; trial < trials; ++trial) {
    Timer timer;
    for (int c = 0; c < commands; ++c) {
      CheckOk(db.Execute(replace).status(), "unmatched replace");
    }
    samples.push_back(timer.ElapsedMillis() * 1000.0 / commands);
  }
  return Median(&samples);
}

}  // namespace

int main() {
  BenchReporter reporter("fig9_one_var_rules");
  const bool smoke = SmokeMode();
  const int max_rules = smoke ? 25 : 200;
  const int trials = smoke ? 1 : 3;
  std::vector<FigureRow> rows;
  for (int n = 25; n <= max_rules; n += 25) {
    rows.push_back(RunFigureProtocolMedian(/*rule_type=*/1, n,
                                           DatabaseOptions{}, trials));
  }
  PrintFigureTable("Figure 9",
                   "one-tuple-variable rules (C1 < emp.sal <= C2)", rows);

  std::printf("=== End-to-end command cost: Database::Execute of a replace "
              "that matches no rule ===\n");
  std::printf("%-12s %-16s\n", "no. of rules", "command (us)");
  for (int n : {3, 30, 300}) {
    const double us =
        UnmatchedReplaceMicros(n, smoke ? 1 : 7, smoke ? 20 : 400);
    std::printf("%-12d %-16.2f\n", n, us);
    reporter.AddResult("unmatched_replace_us_" + std::to_string(n) + "_rules",
                       us);
  }
  std::printf("\n");
  return 0;
}
