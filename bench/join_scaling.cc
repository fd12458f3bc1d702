// Equijoin candidate-path scaling: token-test cost against a joined
// relation of 10^2..10^5 tuples under the three probe paths the engine
// takes —
//   scan:  stored α-memories, the join written key-less
//          (r.k >= s.k and r.k <= s.k), so no hash index applies and every
//          probe takes the entry-scan fallback (the paper's plain TREAT
//          scan, with the columnar prefilter; O(|relation|) per probe)
//   hash:  stored α-memories, the join written r.k = s.k, probed through
//          the hash join index (O(1 + matches))
//   virtual: virtual α-memories probed through the relation's join hash
//          index (§4.2's index-probe path; O(1 + matches), no α storage)
// for a two-variable rule (r.k = s.k) and a three-variable chain
// (r.k = s.k and s.k = t.k). Keys are unique, so every probe has at most
// one match and the separation between the strategies is pure probe cost.

#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/paper_workload.h"

namespace {

using namespace ariel;
using namespace ariel::bench;

enum class ProbeMode { kScan, kHash, kVirtual };

const char* ModeName(ProbeMode mode) {
  switch (mode) {
    case ProbeMode::kScan: return "scan";
    case ProbeMode::kHash: return "hash";
    case ProbeMode::kVirtual: return "virtual";
  }
  return "?";
}

struct SweepRow {
  int vars;
  ProbeMode mode;
  int size;
  double token_ms;
  uint64_t join_probes;
};

SweepRow RunPoint(int vars, ProbeMode mode, int size, int trials) {
  DatabaseOptions options;
  options.auto_activate_rules = false;
  options.alpha_policy.mode = mode == ProbeMode::kVirtual
                                  ? AlphaMemoryPolicy::Mode::kAllVirtual
                                  : AlphaMemoryPolicy::Mode::kAllStored;
  Database db(options);

  CheckOk(db.Execute("create r (k = int, pad = int)").status(), "create r");
  CheckOk(db.Execute("create s (k = int, pad = int)").status(), "create s");
  CheckOk(db.Execute("create t (k = int, pad = int)").status(), "create t");
  CheckOk(db.Execute("create sink (x = int)").status(), "create sink");
  // The key-less form is the same join with no `=` for an index to serve.
  auto eq = [mode](const std::string& lhs, const std::string& rhs) {
    return mode == ProbeMode::kScan
               ? lhs + " >= " + rhs + " and " + lhs + " <= " + rhs
               : lhs + " = " + rhs;
  };
  std::string cond = eq("r.k", "s.k");
  if (vars >= 3) cond += " and " + eq("s.k", "t.k");
  CheckOk(db.Execute("define rule sweep if " + cond +
                     " then append to sink (x = 1)")
              .status(),
          "define rule");

  HeapRelation* r = db.catalog().GetRelation("r");
  HeapRelation* s = db.catalog().GetRelation("s");
  HeapRelation* t = db.catalog().GetRelation("t");
  for (int i = 0; i < size; ++i) {
    Tuple row(std::vector<Value>{Value::Int(i), Value::Int(i % 17)});
    CheckOk(db.transitions().Insert(s, row).status(), "populate s");
    if (vars >= 3) {
      CheckOk(db.transitions().Insert(t, std::move(row)).status(),
              "populate t");
    }
  }
  CheckOk(db.rules().ActivateRule("sweep"), "activate");

  SweepRow out;
  out.vars = vars;
  out.mode = mode;
  out.size = size;
  const uint64_t probes_before = CounterValue("join_probes");

  Timer timer;
  const int kTokensPerTrial = 20;
  std::vector<double> samples;
  for (int trial = 0; trial < trials; ++trial) {
    timer.Reset();
    for (int i = 0; i < kTokensPerTrial; ++i) {
      const int key = (i * (size / kTokensPerTrial + 1)) % size;
      CheckOk(db.transitions()
                  .Insert(r, Tuple(std::vector<Value>{Value::Int(key),
                                                      Value::Int(0)}))
                  .status(),
              "probe token");
    }
    samples.push_back(timer.ElapsedMillis() / kTokensPerTrial);
    for (TupleId tid : r->AllTupleIds()) {
      CheckOk(db.transitions().Delete(r, tid), "probe cleanup");
    }
  }
  out.token_ms = Median(&samples);
  out.join_probes = CounterValue("join_probes") - probes_before;
  return out;
}

}  // namespace

int main() {
  BenchReporter reporter("join_scaling");
  const bool smoke = SmokeMode();
  const int trials = smoke ? 1 : 3;
  const std::vector<int> sizes =
      smoke ? std::vector<int>{100}
            : std::vector<int>{100, 1000, 10000, 100000};

  std::printf("=== join scaling: token test vs joined-relation size ===\n");
  std::printf("(unique keys; scan = stored entries, key-less join; hash = "
              "stored + hash index; virtual = relation hash probe)\n");
  std::printf("%-6s %-8s %-10s %-16s %-14s\n", "vars", "mode", "size",
              "token test(ms)", "join_probes");
  for (int vars : {2, 3}) {
    for (ProbeMode mode :
         {ProbeMode::kScan, ProbeMode::kHash, ProbeMode::kVirtual}) {
      for (int size : sizes) {
        SweepRow row = RunPoint(vars, mode, size, trials);
        std::printf("%-6d %-8s %-10d %-16.4f %-14llu\n", row.vars,
                    ModeName(row.mode), row.size, row.token_ms,
                    static_cast<unsigned long long>(row.join_probes));
        const std::string key = "v" + std::to_string(row.vars) + "_" +
                                ModeName(row.mode) + "_n" +
                                std::to_string(row.size);
        reporter.AddResult(key + "_token_ms", row.token_ms);
        reporter.AddResult(key + "_join_probes",
                           static_cast<double>(row.join_probes));
      }
    }
  }
  return 0;
}
