#ifndef ARIEL_RULES_ALPHA_POLICY_H_
#define ARIEL_RULES_ALPHA_POLICY_H_

#include <cstdint>

namespace ariel {

/// Policy for choosing between stored and virtual α-memories for pattern
/// variables (§4.2: "when to use a virtual memory node ... is an
/// interesting optimization problem"). Lives apart from the rule compiler
/// so configuration surfaces (DatabaseOptions) need not see compiled-rule
/// internals.
struct AlphaMemoryPolicy {
  enum class Mode : uint8_t {
    kAllStored,   // classic TREAT
    kAllVirtual,  // maximum storage saving
    kAdaptive,    // virtual when selection-free and keyed, or when the
                  // estimated match count reaches the threshold
  };
  Mode mode = Mode::kAdaptive;
  /// Adaptive: memories whose estimated cardinality (|R| × predicate
  /// selectivity) is at least this many tuples become virtual. A join
  /// variable with no selection and an equijoin key is virtual whatever
  /// its size: its stored memory would be a copy of the whole relation,
  /// and the key probes the relation's join hash index instead.
  double virtual_threshold = 256;
};

}  // namespace ariel

#endif  // ARIEL_RULES_ALPHA_POLICY_H_
