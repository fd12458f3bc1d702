#ifndef ARIEL_EXEC_OPTIMIZER_H_
#define ARIEL_EXEC_OPTIMIZER_H_

#include <string>
#include <vector>

#include "exec/plan.h"
#include "parser/ast.h"
#include "util/status.h"

namespace ariel {

/// One tuple variable of the command being planned and the relation it
/// ranges over. `is_pnode` marks the rule-action variable P so the plan
/// shows the paper's PnodeScan operator.
struct PlanVar {
  std::string name;
  const HeapRelation* relation = nullptr;
  bool is_pnode = false;
};

struct OptimizerOptions {
  /// Use B+tree indexes for single-variable range/point predicates.
  bool enable_index_scan = true;
  /// Consider sort-merge for equijoins (otherwise always nested loop).
  bool enable_sort_merge = true;
  /// Minimum estimated outer*inner row product before sort-merge is
  /// preferred over nested loop.
  double sort_merge_threshold = 256;
  /// Columnar batch execution: compile vectorizable scan/filter conjuncts
  /// into column-at-a-time kernels over cached ColumnBatch views. Database
  /// hands the same switch to the join networks' α-memory prefilters and
  /// the selection network's Δ-batch classification. Off forces the row
  /// path everywhere — the reference the equivalence tests compare
  /// against; results are identical either way.
  bool columnar_exec = true;
  /// Minimum live-tuple count, checked at execute time, before a scan or
  /// filter actually takes the columnar path; below it the per-scan mask
  /// setup costs more than it saves.
  size_t columnar_min_rows = 64;
};

/// A System-R-flavored planner: splits the qualification into conjuncts,
/// pushes single-variable selections into scans (choosing index scans when
/// a B+tree matches a bound), orders joins greedily by estimated
/// cardinality, and picks nested-loop or sort-merge per join. This is the
/// same component the paper's rule-action planner reuses: "the rest of the
/// query plan is constructed as usual by the query optimizer" (§5.2).
class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = {}) : options_(options) {}

  /// Builds a plan producing every binding of `vars` satisfying `qual`
  /// (null = no qualification). Scope ordinals follow `vars` order. Const:
  /// planning reads the options but never mutates the optimizer, so the
  /// concurrent read path can plan against a snapshot.
  [[nodiscard]] Result<Plan> BuildPlan(const std::vector<PlanVar>& vars,
                                       const Expr* qual) const;
  /// The same over a qualification already split into its conjuncts
  /// (SplitConjuncts), which the plan takes over instead of cloning.
  [[nodiscard]] Result<Plan> BuildPlan(const std::vector<PlanVar>& vars,
                                       std::vector<ExprPtr> qual) const;

  const OptimizerOptions& options() const { return options_; }
  void set_options(OptimizerOptions options) { options_ = options; }

 private:
  OptimizerOptions options_;
};

/// Estimated selectivity of one conjunct (equality tighter than ranges),
/// exposed for the optimizer's tests.
double EstimateSelectivity(const Expr& conjunct);

}  // namespace ariel

#endif  // ARIEL_EXEC_OPTIMIZER_H_
