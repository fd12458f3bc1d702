// Bulk-transition throughput: the batched Δ-set pipeline against per-token
// propagation. One transition appends N tuples (then bulk-replaces N/2 of
// them: cases 1-4 traffic, two tokens per replace) into a relation watched
// by eight rules — two O(1) hash equijoins, four band predicates that force
// a full scan of the 128-row dept memory per token, and two hash probes
// with a residual inequality. Per-token per-rule join work therefore
// dominates, which is the regime the parallel match stage targets: rules
// own disjoint memories and P-nodes, so the per-rule tasks fan out across
// the pool with nothing to merge afterwards.
//
// Output: tokens/second per {size × mode}, where mode is per-token (serial)
// or batch with 0/1/2/4/8 match threads; batch rows also report flushes,
// match tasks, and steals. Speedup is vs the serial row of the same size.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/paper_workload.h"
#include "util/timer.h"

namespace {

using namespace ariel;
using namespace ariel::bench;

constexpr int kDeptRows = 128;
constexpr int kSalDomain = kDeptRows * 100;
constexpr size_t kBatchTokens = 512;

struct SweepRow {
  int size = 0;
  bool batch = false;
  size_t threads = 0;
  double seconds = 0;
  uint64_t tokens = 0;
  uint64_t flushes = 0;
  uint64_t tasks = 0;
  uint64_t steals = 0;

  double TokensPerSecond() const {
    return seconds > 0 ? static_cast<double>(tokens) / seconds : 0;
  }
};

SweepRow RunPoint(int size, bool batch, size_t threads) {
  DatabaseOptions options;
  options.auto_activate_rules = false;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
  options.batch_tokens = batch ? kBatchTokens : 0;
  options.match_threads = batch ? threads : 0;
  Database db(options);

  CheckOk(db.Execute("create emp (sal = int, dno = int)").status(),
          "create emp");
  CheckOk(db.Execute("create dept (dno = int, lo = int, hi = int, "
                     "budget = int)")
              .status(),
          "create dept");
  CheckOk(db.Execute("create sink (x = int)").status(), "create sink");

  // Two hash equijoins (1 match), four band scans (the [lo, hi) bands cover
  // a quarter of the sal domain, so ~25% of tokens match one dept row but
  // every token scans all of them), two hash probes with residuals.
  const std::vector<std::string> conds = {
      "emp.dno = dept.dno",
      "emp.dno = dept.dno and emp.sal >= 0",
      "emp.sal >= dept.lo and emp.sal < dept.hi",
      "emp.sal + 10 >= dept.lo and emp.sal + 10 < dept.hi",
      "emp.sal + 25 >= dept.lo and emp.sal + 25 < dept.hi",
      "emp.sal + 40 >= dept.lo and emp.sal + 40 < dept.hi",
      "emp.dno = dept.dno and emp.sal > dept.budget",
      "emp.dno = dept.dno and emp.sal < dept.budget + 100",
  };
  for (size_t i = 0; i < conds.size(); ++i) {
    const std::string name = "r" + std::to_string(i);
    CheckOk(db.Execute("define rule " + name + " if " + conds[i] +
                       " then append to sink (x = 1)")
                .status(),
            "define rule");
  }

  HeapRelation* emp = db.catalog().GetRelation("emp");
  HeapRelation* dept = db.catalog().GetRelation("dept");
  for (int d = 0; d < kDeptRows; ++d) {
    CheckOk(db.transitions()
                .Insert(dept, Tuple(std::vector<Value>{
                                  Value::Int(d), Value::Int(d * 100),
                                  Value::Int(d * 100 + 25),
                                  Value::Int((d * 37) % kSalDomain)}))
                .status(),
            "populate dept");
  }
  for (size_t i = 0; i < conds.size(); ++i) {
    CheckOk(db.rules().ActivateRule("r" + std::to_string(i)), "activate");
  }

  const uint64_t tokens_before = CounterValue("tokens_emitted");
  const uint64_t flushes_before = CounterValue("batch_flushes");
  const uint64_t tasks_before = CounterValue("match_tasks");
  const uint64_t steals_before = CounterValue("match_steal_count");

  Timer timer;
  // Append phase: one transition, N tokens.
  db.transitions().BeginTransition();
  for (int i = 0; i < size; ++i) {
    CheckOk(db.transitions()
                .Insert(emp, Tuple(std::vector<Value>{
                                 Value::Int((i * 97) % kSalDomain),
                                 Value::Int(i % kDeptRows)}))
                .status(),
            "append emp");
  }
  CheckOk(db.transitions().EndTransition(), "end append transition");

  // Replace phase: one transition, N/2 case-3 modifies (2 tokens each).
  std::vector<TupleId> tids = emp->AllTupleIds();
  db.transitions().BeginTransition();
  for (size_t i = 0; i < tids.size(); i += 2) {
    Tuple next = *emp->Get(tids[i]);
    next.at(0) = Value::Int((next.at(0).int_value() + 13) % kSalDomain);
    CheckOk(db.transitions().Update(emp, tids[i], std::move(next), {"sal"}),
            "replace emp");
  }
  CheckOk(db.transitions().EndTransition(), "end replace transition");

  SweepRow out;
  out.size = size;
  out.batch = batch;
  out.threads = threads;
  out.seconds = timer.ElapsedSeconds();
  out.tokens = CounterValue("tokens_emitted") - tokens_before;
  out.flushes = CounterValue("batch_flushes") - flushes_before;
  out.tasks = CounterValue("match_tasks") - tasks_before;
  out.steals = CounterValue("match_steal_count") - steals_before;
  return out;
}

const char* ModeName(const SweepRow& row) {
  return row.batch ? "batch" : "serial";
}

}  // namespace

int main() {
  BenchReporter reporter("bulk_transitions");
  const bool smoke = SmokeMode();
  const std::vector<int> sizes = smoke
                                     ? std::vector<int>{100}
                                     : std::vector<int>{100, 1000, 10000,
                                                        100000};
  const std::vector<size_t> thread_counts =
      smoke ? std::vector<size_t>{0, 2} : std::vector<size_t>{0, 1, 2, 4, 8};

  std::printf("=== bulk transitions: batched Δ-set pipeline vs per-token "
              "===\n");
  std::printf("(8 rules over emp×dept[%d]: 2 hash equijoins, 4 band scans, "
              "2 hash+residual; batch = %zu tokens/flush)\n",
              kDeptRows, kBatchTokens);
  std::printf("%-8s %-8s %-8s %-12s %-12s %-9s %-8s %-8s %-8s %-8s\n",
              "size", "mode", "threads", "wall(s)", "tokens/s", "speedup",
              "tokens", "flushes", "tasks", "steals");
  for (int size : sizes) {
    double serial_tps = 0;
    std::vector<SweepRow> rows;
    rows.push_back(RunPoint(size, /*batch=*/false, /*threads=*/0));
    serial_tps = rows.back().TokensPerSecond();
    for (size_t threads : thread_counts) {
      rows.push_back(RunPoint(size, /*batch=*/true, threads));
    }
    for (const SweepRow& row : rows) {
      std::printf(
          "%-8d %-8s %-8zu %-12.4f %-12.0f %-9.2f %-8llu %-8llu %-8llu "
          "%-8llu\n",
          row.size, ModeName(row), row.threads, row.seconds,
          row.TokensPerSecond(),
          serial_tps > 0 ? row.TokensPerSecond() / serial_tps : 0.0,
          static_cast<unsigned long long>(row.tokens),
          static_cast<unsigned long long>(row.flushes),
          static_cast<unsigned long long>(row.tasks),
          static_cast<unsigned long long>(row.steals));
      const std::string key = "n" + std::to_string(row.size) + "_" +
                              ModeName(row) + "_t" +
                              std::to_string(row.threads);
      reporter.AddResult(key + "_tokens_per_sec", row.TokensPerSecond());
    }
  }
  return 0;
}
