#ifndef ARIEL_NETWORK_NETWORK_AUDITOR_H_
#define ARIEL_NETWORK_NETWORK_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "network/rule_network.h"
#include "network/selection_network.h"
#include "util/status.h"

namespace ariel {

/// What the auditor can find wrong with the discrimination network.
enum class AuditViolationKind : uint8_t {
  kAlphaMissing,      // base tuple satisfies the selection but is not stored
  kAlphaExtra,        // stored entry is dead or fails the selection predicate
  kAlphaStale,        // stored entry's value disagrees with the base tuple
  kAlphaDuplicate,    // same tid stored twice in one α-memory
  kDynamicNotFlushed, // dynamic memory non-empty at quiescence (§4.3.2)
  kPnodeDangling,     // P-node instantiation binds a tid no longer live
  kPnodeStale,        // P-node instantiation's values disagree with the base
  kIslInconsistent,   // interval index disagrees with a brute-force stab
  kJoinIndexInconsistent,  // hash join index / retraction map ⇎ entry vector
                           // or relation join hash index ⇎ heap
  kBatchTokensPending,     // deferred batch tokens never flushed
  kUndoResidue,            // undo log non-empty / savepoints open at quiescence
  kColumnCacheIncoherent,  // cached column batch disagrees with its source rows
  kAgendaMissing,          // pending instantiations, rule not on the agenda
};

const char* AuditViolationKindToString(AuditViolationKind kind);

/// One invariant violation: which rule (or the selection network), what kind,
/// and a human-readable description precise enough to debug from.
struct AuditViolation {
  AuditViolationKind kind;
  std::string rule;  // rule name; "selection-network" for ISL findings
  std::string detail;

  std::string ToString() const;
};

/// Cross-checks the A-TREAT network's incremental state against ground truth
/// recomputed from the base relations — the debug-build counterpart of the
/// equivalence tests, cheap enough to run at every quiescence point under
/// ARIEL_AUDIT.
///
/// Invariants checked (all are consequences of §4's maintenance algorithm at
/// quiescence):
///   - every stored (non-dynamic) α-memory holds exactly the base tuples
///     satisfying its selection predicate, with current values and no
///     duplicate tids;
///   - dynamic (event / transition) memories are empty — end-of-transition
///     flushing ran;
///   - every P-node instantiation's pattern bindings reference live base
///     tuples with matching values;
///   - the selection network's interval skip lists answer stabbing queries
///     identically to a brute-force scan of the registered conditions;
///   - every relation join hash index a rule leases holds each live tuple
///     exactly once, under its current value, and no dead slot;
///   - any materialized α-memory column cache mirrors its entry vector
///     cell-for-cell (Database::AuditNetwork adds the same check for heap
///     relation column caches).
///
/// The checks run in any build; ARIEL_AUDIT only controls whether Database
/// invokes them automatically after each recognize-act cycle.
class NetworkAuditor {
 public:
  /// Audits one rule's α-memories and P-node. Appends violations to `out`.
  /// The returned Status reports evaluation failures (a selection predicate
  /// that cannot be evaluated), not violations.
  [[nodiscard]] static Status AuditRule(const RuleNetwork& rule,
                                        std::vector<AuditViolation>* out);

  /// Audits a relation's join hash indexes against its heap. Appends to
  /// `out`.
  static void AuditRelation(const HeapRelation& relation,
                            std::vector<AuditViolation>* out);

  /// Audits the selection network's interval indexes. Appends to `out`.
  static void AuditSelection(const SelectionNetwork& selection,
                             std::vector<AuditViolation>* out);

  /// Full audit at a quiescence point: every given rule, each relation
  /// they join over, plus the selection network. Returns the violations
  /// found (empty = network consistent).
  [[nodiscard]] static Result<std::vector<AuditViolation>> AuditAtQuiescence(
      const std::vector<const RuleNetwork*>& rules,
      const SelectionNetwork& selection);
};

}  // namespace ariel

#endif  // ARIEL_NETWORK_NETWORK_AUDITOR_H_
