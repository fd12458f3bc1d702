#ifndef ARIEL_EXEC_ROW_H_
#define ARIEL_EXEC_ROW_H_

#include <vector>

#include "storage/tuple.h"
#include "util/metrics.h"

namespace ariel {

/// A working row flowing through plan operators and the discrimination
/// network: one slot per tuple variable in the current Scope.
///
/// Slots are materialized (owned) tuples; `previous` is populated only for
/// variables carrying transition data (Δ tokens / P-node transition
/// columns). `tids` carries the storage identity of each slot so P-nodes
/// and the primed commands (replace'/delete') can reach back to base tuples.
struct Row {
  std::vector<Tuple> current;
  std::vector<Tuple> previous;
  std::vector<TupleId> tids;
  std::vector<bool> filled;

  Row() = default;
  explicit Row(size_t num_vars)
      : current(num_vars),
        previous(num_vars),
        tids(num_vars),
        filled(num_vars, false) {}

  size_t num_vars() const { return current.size(); }

  /// Copies into the slot's existing storage, so a scan that refills one
  /// row per tuple does not allocate per tuple.
  void Set(size_t var, const Tuple& value, TupleId tid = {}) {
    current[var] = value;
    tids[var] = tid;
    filled[var] = true;
  }
  void Set(size_t var, Tuple&& value, TupleId tid = {}) {
    current[var] = std::move(value);
    tids[var] = tid;
    filled[var] = true;
  }

  void SetPrevious(size_t var, Tuple value) { previous[var] = std::move(value); }

  /// Merges the filled slots of `other` into this row (join composition).
  /// Slots filled in both must agree (never happens for well-formed plans).
  void MergeFrom(const Row& other) {
    for (size_t i = 0; i < num_vars(); ++i) {
      if (other.filled[i]) {
        Metrics().values_copied.Increment(other.current[i].size());
        current[i] = other.current[i];
        previous[i] = other.previous[i];
        tids[i] = other.tids[i];
        filled[i] = true;
      }
    }
  }
};

}  // namespace ariel

#endif  // ARIEL_EXEC_ROW_H_
