#ifndef ARIEL_EXEC_PLAN_H_
#define ARIEL_EXEC_PLAN_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/row.h"
#include "exec/vector_kernels.h"
#include "storage/btree_index.h"
#include "storage/heap_relation.h"
#include "util/status.h"

namespace ariel {

/// Consumes one output row of a plan node. Returning a non-OK status stops
/// execution and propagates.
using RowConsumer = std::function<Status(const Row&)>;

/// A physical query plan operator (push-based execution). The tree is built
/// by the optimizer; rows carry one slot per tuple variable of the command's
/// Scope, and each scan fills its own slot.
class PlanNode {
 public:
  virtual ~PlanNode() = default;

  [[nodiscard]] virtual Status Execute(const RowConsumer& consume) = 0;

  /// One-line description of this node (operator name + arguments).
  virtual std::string Label() const = 0;

  const std::vector<std::unique_ptr<PlanNode>>& children() const {
    return children_;
  }

  /// Multi-line indented plan rendering (an EXPLAIN).
  std::string ToString(int indent = 0) const;

 protected:
  std::vector<std::unique_ptr<PlanNode>> children_;
};

using PlanNodePtr = std::unique_ptr<PlanNode>;

/// Emits a single all-empty row; the leaf for commands without tuple
/// variables (`append emp(name="x", age=1)`).
class ConstRowNode : public PlanNode {
 public:
  explicit ConstRowNode(size_t num_vars) : num_vars_(num_vars) {}

  [[nodiscard]] Status Execute(const RowConsumer& consume) override;
  std::string Label() const override { return "ConstRow"; }

 private:
  size_t num_vars_;
};

/// Full scan of a heap relation, with an optional pushed-down filter.
/// Also used (with a distinguishing label) as the paper's PnodeScan
/// operator, since a P-node is itself a heap relation.
///
/// When the optimizer compiled (a prefix of) the pushed-down conjuncts into
/// a VectorPredicate, Execute evaluates that prefix column-wise over the
/// relation's cached ColumnBatch and only materializes surviving rows —
/// rejected tuples are never deep-copied into a Row. `row_residual` is the
/// non-vectorizable conjunct suffix, row-evaluated on survivors; because
/// the vectorized conjuncts are a *prefix* of the residual list, mask-then-
/// residual raises exactly the errors the left-to-right row path would.
/// `filter` remains the full residual for the audited row fallback (small
/// relations, or a mutation observed mid-scan).
class SeqScanNode : public PlanNode {
 public:
  SeqScanNode(const HeapRelation* relation, size_t var, size_t num_vars,
              CompiledExprPtr filter, std::string label_prefix = "SeqScan",
              VectorPredicatePtr vector_filter = nullptr,
              CompiledExprPtr row_residual = nullptr,
              size_t columnar_min_rows = 0)
      : relation_(relation),
        var_(var),
        num_vars_(num_vars),
        filter_(std::move(filter)),
        label_prefix_(std::move(label_prefix)),
        vector_filter_(std::move(vector_filter)),
        row_residual_(std::move(row_residual)),
        columnar_min_rows_(columnar_min_rows) {}

  [[nodiscard]] Status Execute(const RowConsumer& consume) override;
  std::string Label() const override;

 private:
  [[nodiscard]] Status ExecuteColumnar(const RowConsumer& consume);
  /// The row path over tids[from..]: copies each live tuple, applies the
  /// full filter, emits.
  [[nodiscard]] Status ScanRows(const std::vector<TupleId>& tids, size_t from,
                                const RowConsumer& consume);

  const HeapRelation* relation_;
  size_t var_;
  size_t num_vars_;
  CompiledExprPtr filter_;
  std::string label_prefix_;
  VectorPredicatePtr vector_filter_;  // null = always row path
  CompiledExprPtr row_residual_;      // non-vectorizable conjunct suffix
  size_t columnar_min_rows_;
};

/// B+tree index range scan with optional residual filter.
class IndexScanNode : public PlanNode {
 public:
  IndexScanNode(const HeapRelation* relation, const BTreeIndex* index,
                std::string attr_name, size_t var, size_t num_vars,
                std::optional<KeyBound> lower, std::optional<KeyBound> upper,
                CompiledExprPtr residual_filter)
      : relation_(relation),
        index_(index),
        attr_name_(std::move(attr_name)),
        var_(var),
        num_vars_(num_vars),
        lower_(std::move(lower)),
        upper_(std::move(upper)),
        filter_(std::move(residual_filter)) {}

  [[nodiscard]] Status Execute(const RowConsumer& consume) override;
  std::string Label() const override;

 private:
  const HeapRelation* relation_;
  const BTreeIndex* index_;
  std::string attr_name_;
  size_t var_;
  size_t num_vars_;
  std::optional<KeyBound> lower_;
  std::optional<KeyBound> upper_;
  CompiledExprPtr filter_;
};

/// Nested-loop join; the inner (right) side is materialized once.
class NestedLoopJoinNode : public PlanNode {
 public:
  NestedLoopJoinNode(PlanNodePtr left, PlanNodePtr right,
                     CompiledExprPtr predicate, std::string predicate_text);

  [[nodiscard]] Status Execute(const RowConsumer& consume) override;
  std::string Label() const override;

 private:
  CompiledExprPtr predicate_;  // may be null (cross product)
  std::string predicate_text_;
};

/// Sort-merge equijoin on one key expression per side. Both sides are
/// materialized and sorted by key; duplicate key groups produce the full
/// cross product of the group.
class SortMergeJoinNode : public PlanNode {
 public:
  SortMergeJoinNode(PlanNodePtr left, PlanNodePtr right,
                    CompiledExprPtr left_key, CompiledExprPtr right_key,
                    std::string predicate_text);

  [[nodiscard]] Status Execute(const RowConsumer& consume) override;
  std::string Label() const override;

 private:
  CompiledExprPtr left_key_;
  CompiledExprPtr right_key_;
  std::string predicate_text_;
};

/// Applies a predicate to child rows. The optimizer pushes every
/// single-variable conjunct into its variable's scan, so a filter only ever
/// carries multi-variable or constant conjuncts, which the row path
/// evaluates.
class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr child, CompiledExprPtr predicate,
             std::string predicate_text);

  [[nodiscard]] Status Execute(const RowConsumer& consume) override;
  std::string Label() const override;

 private:
  CompiledExprPtr predicate_;
  std::string predicate_text_;
};

/// A complete physical plan: the operator tree plus the variable scope its
/// rows are laid out against.
struct Plan {
  Scope scope;
  PlanNodePtr root;

  /// Runs the plan, materializing all output rows.
  [[nodiscard]] Result<std::vector<Row>> CollectRows() const;

  std::string ToString() const { return root ? root->ToString() : "(empty)"; }
};

}  // namespace ariel

#endif  // ARIEL_EXEC_PLAN_H_
