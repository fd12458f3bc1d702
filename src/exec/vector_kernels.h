#ifndef ARIEL_EXEC_VECTOR_KERNELS_H_
#define ARIEL_EXEC_VECTOR_KERNELS_H_

#include <memory>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "parser/ast.h"
#include "storage/column_batch.h"
#include "types/value.h"

namespace ariel {

/// Column-at-a-time comparison kernel: ANDs `column[i] <op> key` into
/// `mask[i]` (mask entries already 0 stay 0; `mask` holds batch.num_rows()
/// entries of 0 or 1). `op` must be a comparison.
/// Semantics replicate Value::Compare exactly — null rows behave as the
/// null Value (null < bool < numeric < string), so `attr != 3` is TRUE for
/// a null attr, just as on the row path; int/int compares exactly, int/
/// float through double, and a NaN compares equal to everything.
/// Comparisons never error, which is what makes this kernel safe to run
/// eagerly over rows the row path would have skipped.
///
/// The operator and the (column, key) type pair are chosen once per call;
/// the row loop then reads the validity bitmap a 64-bit word at a time and
/// ANDs into the mask without a per-row branch.
void AndCompareColumnScalar(const ColumnBatch& batch, size_t col,
                            BinaryOp op, const Value& key,
                            std::vector<uint8_t>* mask);

/// A single-tuple-variable predicate compiled for vectorized evaluation
/// against a ColumnBatch of that variable's relation.
///
/// The vectorizable grammar is deliberately the non-erroring subset of the
/// expression language: comparisons between {column, literal} operands,
/// and/or/not, bool or null literals, bool-typed columns, and new(var).
/// Everything else — arithmetic (division can error), `previous` refs,
/// other tuple variables, aggregates — is rejected at compile time and the
/// caller keeps the row path. Within this grammar a predicate is total
/// (never raises ExecutionError) and agrees with CompiledExpr::EvalPredicate
/// on every row, including nulls, so evaluating it over rows the row path
/// would never have reached cannot change observable behaviour.
class VectorPredicate {
 public:
  /// Compiles `expr` for rows of `schema` bound to tuple variable
  /// `var_name` (case-insensitive). Returns nullptr when any part of the
  /// expression falls outside the vectorizable grammar.
  static std::unique_ptr<VectorPredicate> Compile(const Expr& expr,
                                                  std::string_view var_name,
                                                  const Schema& schema);

  /// Evaluates the predicate over every row of `batch` (built from the
  /// same schema): mask[i] = 1 iff row i passes. Resizes `mask`. An `and`
  /// ANDs its operands straight into `mask`; `or`/`not` share one scratch
  /// buffer of num_rows() bytes per level of or/not nesting, the only
  /// allocation of the call.
  void EvalMask(const ColumnBatch& batch, std::vector<uint8_t>* mask) const;

  ~VectorPredicate();
  VectorPredicate(VectorPredicate&&) noexcept;
  VectorPredicate& operator=(VectorPredicate&&) noexcept;

  /// Opaque compiled tree (defined in vector_kernels.cc).
  struct Node;

 private:
  explicit VectorPredicate(std::unique_ptr<Node> root);
  std::unique_ptr<Node> root_;
  size_t scratch_depth_ = 0;  // or/not nesting depth of root_
};

using VectorPredicatePtr = std::unique_ptr<VectorPredicate>;

}  // namespace ariel

#endif  // ARIEL_EXEC_VECTOR_KERNELS_H_
