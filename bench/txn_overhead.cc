// Transaction-layer overhead on the bulk_transitions workload: the same
// 8-rule emp×dept token storm, run three ways per batch setting —
//   bare    mutations outside any transaction frame (undo log disarmed;
//           byte-for-byte the pre-transaction-layer hot path),
//   commit  inside begin…commit (every mutation appends an undo record,
//           commit discards them),
//   abort   inside begin…abort (adds the full compensating replay).
// The commit column is the number that must stay within 5% of bare: a
// disarmed log costs one predicted branch per mutation, an armed one a
// record append. One run per mode cannot resolve 5% on a shared host, so
// the modes run interleaved, in alternating order, kPairs times, and the
// gate takes the median over rounds of commit's mutate time against
// bare's in the same round. The abort column prices
// rollback itself (informational — aborts are off the steady-state path);
// a scaling row reports its finish cost per undo record up to 3.2·10⁴ emp.
//
// Usage: build/bench/txn_overhead (ARIEL_BENCH_SMOKE=1 for one tiny pass).
// Exits 1 when the commit overhead exceeds the bound.

#include <algorithm>
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

enum class Mode { kBare, kCommit, kAbort };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kBare: return "bare";
    case Mode::kCommit: return "commit";
    case Mode::kAbort: return "abort";
  }
  return "?";
}

struct RunResult {
  double mutate_seconds = 0;  // append + replace phases (the gated number)
  double finish_seconds = 0;  // commit / abort cost, 0 for bare
  uint64_t undo_records = 0;
};

RunResult RunPoint(int size, size_t batch_tokens, Mode mode) {
  DatabaseOptions options;
  options.auto_activate_rules = false;
  options.alpha_policy.mode = AlphaMemoryPolicy::Mode::kAllStored;
  options.batch_tokens = batch_tokens;
  Database db(options);

  CheckOk(db.Execute("create emp (sal = int, dno = int)").status(),
          "create emp");
  CheckOk(db.Execute("create dept (dno = int, lo = int, hi = int, "
                     "budget = int)")
              .status(),
          "create dept");
  CheckOk(db.Execute("create sink (x = int)").status(), "create sink");

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
    CheckOk(db.Execute("define rule r" + std::to_string(i) + " if " +
                       conds[i] + " then append to sink (x = 1)")
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

  RunResult out;
  if (mode != Mode::kBare) {
    // The explicit frame arms the undo log; transitions driven below then
    // append one record per mutation, exactly as a command frame would.
    CheckOk(db.Execute("begin").status(), "begin");
  }

  Timer timer;
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

  std::vector<TupleId> tids = emp->AllTupleIds();
  db.transitions().BeginTransition();
  for (size_t i = 0; i < tids.size(); i += 2) {
    Tuple next = *emp->Get(tids[i]);
    next.at(0) = Value::Int((next.at(0).int_value() + 13) % kSalDomain);
    CheckOk(db.transitions().Update(emp, tids[i], std::move(next), {"sal"}),
            "replace emp");
  }
  CheckOk(db.transitions().EndTransition(), "end replace transition");
  out.mutate_seconds = timer.ElapsedSeconds();

  out.undo_records = db.txn().undo_log().size();
  if (mode != Mode::kBare) {
    Timer finish;
    CheckOk(
        db.Execute(mode == Mode::kCommit ? "commit" : "abort").status(),
        mode == Mode::kCommit ? "commit" : "abort");
    out.finish_seconds = finish.ElapsedSeconds();
  }
  return out;
}

/// Medians over `pairs` interleaved rounds of `modes`, each round running
/// the modes in the reverse order of the round before, so drift on the
/// host hits every mode alike. `overhead` is the median over rounds of
/// each mode's mutate time against the first mode's in the same round: a
/// slow stretch of the host that spans a round cancels out of the ratio.
struct Medians {
  double mutate_seconds = 0;
  double finish_seconds = 0;
  double overhead_pct = 0;
  uint64_t undo_records = 0;
};

std::vector<Medians> Interleaved(int pairs, int size, size_t batch_tokens,
                                 const std::vector<Mode>& modes) {
  std::vector<std::vector<RunResult>> runs(modes.size());
  for (int round = 0; round < pairs; ++round) {
    for (size_t k = 0; k < modes.size(); ++k) {
      const size_t m = round % 2 == 0 ? k : modes.size() - 1 - k;
      runs[m].push_back(RunPoint(size, batch_tokens, modes[m]));
    }
  }
  std::vector<Medians> out(modes.size());
  for (size_t m = 0; m < modes.size(); ++m) {
    std::vector<double> mutate, finish, overhead;
    for (int round = 0; round < pairs; ++round) {
      const RunResult& r = runs[m][round];
      mutate.push_back(r.mutate_seconds);
      finish.push_back(r.finish_seconds);
      overhead.push_back(
          (r.mutate_seconds / runs[0][round].mutate_seconds - 1.0) * 100.0);
    }
    out[m].mutate_seconds = Median(&mutate);
    out[m].finish_seconds = Median(&finish);
    out[m].overhead_pct = Median(&overhead);
    out[m].undo_records = runs[m].back().undo_records;
  }
  return out;
}

double MicrosPerRecord(const Medians& abort) {
  return abort.undo_records == 0
             ? 0.0
             : abort.finish_seconds * 1e6 /
                   static_cast<double>(abort.undo_records);
}

}  // namespace

int main() {
  BenchReporter reporter("txn_overhead");
  const bool smoke = SmokeMode();
  const std::vector<int> sizes =
      smoke ? std::vector<int>{100} : std::vector<int>{1000, 10000};
  const std::vector<int> abort_sizes =
      smoke ? std::vector<int>{100} : std::vector<int>{1000, 10000, 32000};
  const std::vector<size_t> batch_settings = {0, 1024};
  constexpr int kPairs = 11;
  const int pairs = smoke ? 1 : kPairs;

  std::printf("=== transaction overhead on the bulk_transitions workload "
              "===\n");
  std::printf("(bare = undo log disarmed; commit = begin…commit, one undo "
              "record per mutation; abort = begin…abort, full compensating "
              "replay; medians of %d interleaved rounds; overhead%% is the "
              "median per-round ratio of mutate-phase wall time to bare)\n",
              pairs);
  std::printf("%-8s %-8s %-8s %-12s %-12s %-10s %-10s %-10s\n", "size",
              "batch", "mode", "mutate(s)", "finish(s)", "overhead", "undo",
              "records/s");
  const std::vector<Mode> modes = {Mode::kBare, Mode::kCommit, Mode::kAbort};
  bool ok = true;
  for (int size : sizes) {
    for (size_t batch : batch_settings) {
      const std::vector<Medians> medians =
          Interleaved(pairs, size, batch, modes);
      for (size_t m = 0; m < modes.size(); ++m) {
        const Medians& r = medians[m];
        std::printf("%-8d %-8zu %-8s %-12.4f %-12.4f %-+9.2f%% %-10llu "
                    "%-10.0f\n",
                    size, batch, ModeName(modes[m]), r.mutate_seconds,
                    r.finish_seconds, r.overhead_pct,
                    static_cast<unsigned long long>(r.undo_records),
                    r.mutate_seconds > 0 && r.undo_records > 0
                        ? static_cast<double>(r.undo_records) /
                              r.mutate_seconds
                        : 0.0);
      }
      // The acceptance gate: armed-log mutation cost within 5% of bare at
      // the largest size (small sizes are noise-dominated).
      if (size == sizes.back()) {
        const double overhead = medians[1].overhead_pct;
        reporter.AddResult("commit_overhead_pct_b" + std::to_string(batch),
                           overhead);
        if (!smoke && overhead > 5.0) {
          std::printf("FAIL: commit-mode overhead %.2f%% exceeds 5%% at "
                      "size %d batch %zu\n",
                      overhead, size, batch);
          ok = false;
        }
      }
    }
  }

  // Rollback scaling: abort finish cost per undo record as emp grows. A
  // flat row is linear rollback; reported, not gated.
  std::printf("\n=== abort finish cost per undo record (median of %d) "
              "===\n",
              pairs);
  std::printf("%-8s", "batch");
  for (int size : abort_sizes) std::printf("  n=%-10d", size);
  std::printf("\n");
  for (size_t batch : batch_settings) {
    std::printf("%-8zu", batch);
    for (int size : abort_sizes) {
      const double us = MicrosPerRecord(
          Interleaved(size >= 32000 ? std::min(pairs, 3) : pairs, size, batch,
                      {Mode::kAbort})[0]);
      std::printf("  %9.2f us", us);
      reporter.AddResult("abort_us_per_record_b" + std::to_string(batch) +
                             "_n" + std::to_string(size),
                         us);
    }
    std::printf("\n");
  }
  std::printf(ok ? "PASS: commit-mode overhead within 5%% of bare\n"
                 : "FAIL: see above\n");
  return ok ? 0 : 1;
}
