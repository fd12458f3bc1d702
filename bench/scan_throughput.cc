// Columnar vs row scan throughput: the same retrieve over a single
// relation, swept across table size (10^2 .. 10^5 rows) and predicate
// selectivity, with the columnar execution layer on and off
// (OptimizerOptions.columnar_exec, flipped per point).
//
// The row path evaluates the compiled predicate on a scratch row per tuple
// and deep-copies every projected Value; the columnar path evaluates the
// vectorized prefix over the relation's cached ColumnBatch (one typed loop
// per conjunct) and only materializes survivors. The gap therefore widens
// as selectivity drops. Results are identical in both modes by
// construction (the kernels replicate Value::Compare bit-for-bit).
//
// A second table times the comparison kernel alone
// (AndCompareColumnScalar) over a 10^5-row batch of one int, float and
// string column at 0% selectivity, in ns per row per conjunct
// (kernel_ns_per_row_{int,float,string}).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "bench/paper_workload.h"
#include "exec/vector_kernels.h"
#include "storage/column_batch.h"
#include "util/timer.h"

namespace {

using namespace ariel;
using namespace ariel::bench;

constexpr int kValDomain = 1000;

struct Point {
  int size = 0;
  int sel_pct = 0;   // nominal selectivity, percent
  bool columnar = false;
  double rows_per_sec = 0;
  size_t hits = 0;
};

Point RunPoint(int size, int sel_pct, bool columnar) {
  DatabaseOptions options;
  options.optimizer.columnar_exec = columnar;
  Database db(options);
  CheckOk(db.Execute("create data (id = int, val = int, pad = string)")
              .status(),
          "create data");
  HeapRelation* data = db.catalog().GetRelation("data");
  for (int i = 0; i < size; ++i) {
    CheckOk(db.transitions()
                .Insert(data, Tuple(std::vector<Value>{
                                  Value::Int(i),
                                  Value::Int((i * 131) % kValDomain),
                                  Value::String("row" + std::to_string(i))}))
                .status(),
            "populate data");
  }

  const std::string query = "retrieve (d.id, d.val) from d in data where "
                            "d.val < " +
                            std::to_string(kValDomain * sel_pct / 100);
  // Warm up once (builds the column cache on the columnar path; the timed
  // loop then measures steady-state scans, which is what a rule cascade
  // re-running the same scan sees).
  CommandResult warm = CheckOk(db.Execute(query), "warmup scan");
  const size_t hits = warm.rows.has_value() ? warm.rows->num_rows() : 0;

  // Size the trial count so every point runs long enough to time.
  const int trials = size >= 100000 ? 20 : size >= 10000 ? 100 : 400;
  Timer timer;
  for (int t = 0; t < trials; ++t) {
    CommandResult r = CheckOk(db.Execute(query), "timed scan");
    if (!r.rows.has_value() || r.rows->num_rows() != hits) {
      std::fprintf(stderr, "scan_throughput: result drifted between runs\n");
      std::exit(1);
    }
  }
  const double seconds = timer.ElapsedSeconds();

  Point p;
  p.size = size;
  p.sel_pct = sel_pct;
  p.columnar = columnar;
  p.hits = hits;
  p.rows_per_sec =
      seconds > 0 ? static_cast<double>(size) * trials / seconds : 0;
  return p;
}

/// ns per row of `column > key` over `batch`, where no row passes. Each
/// trial resets the mask to all-pass first (a memset, included in the
/// time), so every trial compares every row.
double KernelNsPerRow(const ColumnBatch& batch, size_t column,
                      const Value& key, int trials) {
  std::vector<uint8_t> mask(batch.num_rows());
  Timer timer;
  for (int t = 0; t < trials; ++t) {
    std::fill(mask.begin(), mask.end(), 1);
    AndCompareColumnScalar(batch, column, BinaryOp::kGt, key, &mask);
  }
  const double seconds = timer.ElapsedSeconds();
  if (std::count(mask.begin(), mask.end(), 1) != 0) {
    std::fprintf(stderr, "scan_throughput: kernel point is not 0%%\n");
    std::exit(1);
  }
  return seconds * 1e9 / (static_cast<double>(batch.num_rows()) * trials);
}

}  // namespace

int main() {
  BenchReporter reporter("scan_throughput");
  const bool smoke = SmokeMode();
  const std::vector<int> sizes =
      smoke ? std::vector<int>{100, 1000}
            : std::vector<int>{100, 1000, 10000, 100000};
  const std::vector<int> selectivities =
      smoke ? std::vector<int>{10} : std::vector<int>{1, 10, 50, 90};

  std::printf("=== scan throughput: columnar batch vs row-at-a-time ===\n");
  std::printf("(retrieve with one band predicate over data[N]; rows/s = "
              "tuples scanned per second)\n");
  std::printf("%-9s %-7s %-9s %-14s %-14s %-9s\n", "size", "sel%", "hits",
              "row (r/s)", "column (r/s)", "speedup");
  for (int size : sizes) {
    for (int sel : selectivities) {
      Point row = RunPoint(size, sel, /*columnar=*/false);
      Point col = RunPoint(size, sel, /*columnar=*/true);
      const double speedup =
          row.rows_per_sec > 0 ? col.rows_per_sec / row.rows_per_sec : 0;
      std::printf("%-9d %-7d %-9zu %-14.0f %-14.0f %-9.2f\n", size, sel,
                  row.hits, row.rows_per_sec, col.rows_per_sec, speedup);
      const std::string key =
          "n" + std::to_string(size) + "_sel" + std::to_string(sel);
      reporter.AddResult(key + "_row_rows_per_sec", row.rows_per_sec);
      reporter.AddResult(key + "_col_rows_per_sec", col.rows_per_sec);
      reporter.AddResult(key + "_speedup", speedup);
    }
  }
  // Comparison kernel alone: one int, float and string column with a
  // null every 4096th row (so most validity words take the all-valid
  // path), keys above every value.
  const size_t kernel_rows = smoke ? 1000 : 100000;
  const int kernel_trials = smoke ? 10 : 200;
  Schema schema({Attribute{"i", DataType::kInt},
                 Attribute{"f", DataType::kFloat},
                 Attribute{"s", DataType::kString}});
  ColumnBatchBuilder builder(schema, kernel_rows);
  for (size_t r = 0; r < kernel_rows; ++r) {
    const bool null = r % 4096 == 0;
    const int64_t v = static_cast<int64_t>((r * 131) % kValDomain);
    builder.Append(
        TupleId{1, static_cast<uint32_t>(r)},
        Tuple(std::vector<Value>{
            null ? Value::Null() : Value::Int(v),
            null ? Value::Null() : Value::Float(static_cast<double>(v) / 2),
            null ? Value::Null() : Value::String("row" + std::to_string(v))}));
  }
  std::shared_ptr<const ColumnBatch> batch = builder.Build();
  std::printf("\n=== comparison kernel: %zu rows, 0%% selectivity ===\n",
              kernel_rows);
  std::printf("%-8s %-12s\n", "column", "ns/row");
  const struct {
    const char* name;
    size_t column;
    Value key;
  } kernels[] = {{"int", 0, Value::Int(kValDomain)},
                 {"float", 1, Value::Float(kValDomain)},
                 {"string", 2, Value::String("zzz")}};
  for (const auto& k : kernels) {
    const double ns = KernelNsPerRow(*batch, k.column, k.key, kernel_trials);
    std::printf("%-8s %-12.3f\n", k.name, ns);
    reporter.AddResult(std::string("kernel_ns_per_row_") + k.name, ns);
  }

  std::printf("\nExpected shape: the columnar path pulls ahead as N grows\n"
              "(batch build amortizes across re-scans) and as selectivity\n"
              "drops (survivor-only materialization skips the per-tuple\n"
              "Value deep copies the row path pays on every hit).\n");
  return 0;
}
