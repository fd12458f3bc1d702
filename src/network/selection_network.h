#ifndef ARIEL_NETWORK_SELECTION_NETWORK_H_
#define ARIEL_NETWORK_SELECTION_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "exec/vector_kernels.h"
#include "isl/interval_skip_list.h"
#include "network/rule_network.h"
#include "network/token.h"
#include "util/status.h"

namespace ariel {

/// A matched condition: which rule's which α-memory a token reaches.
struct ConditionMatch {
  RuleNetwork* rule;
  size_t alpha_ordinal;
};

/// The top layer of the discrimination network (§4.1): an index over the
/// single-relation selection predicates of all active rules.
///
/// For each relation, each registered condition contributes either an
/// interval (extracted from its `attr op constant` conjuncts, intersected
/// per attribute; the tightest attribute wins) into that attribute's
/// interval skip list, or — when no such conjunct exists, e.g. pure event
/// conditions or transition predicates like sal > 1.1 * previous sal — an
/// entry in the relation's residual list. A token is stabbed through each
/// attribute index and checked against the residual list; surviving
/// candidates are verified against the full predicate and the α-memory's
/// event/Δ admission filter. This keeps token testing sublinear in the
/// number of rules, which is what Figure 9-11's flat token-test curves
/// depend on.
class SelectionNetwork {
 public:
  SelectionNetwork() = default;

  /// Registers all α-memories of an initialized rule network.
  [[nodiscard]] Status AddRule(RuleNetwork* rule);

  /// Unregisters a rule's conditions.
  void RemoveRule(RuleNetwork* rule);

  /// Classifies a token batch (stage 1 of ProcessBatch): (*out)[i] receives
  /// the α-memories tokens[i] reaches (admission filter plus full selection
  /// predicate), in registration order. `out` keeps its capacity across
  /// calls. A batch of more than one token descends each attribute interval
  /// index once per distinct attribute value — duplicate
  /// constant-partitions reuse the cached stab result. Residual checks are
  /// per token; predicate verification is column-at-a-time when a relation
  /// group has at least 16 tokens and the condition vector-compiles (one
  /// mask per condition per group, over a ColumnBatch of the group's token
  /// values), per token otherwise. The vectorizable grammar is total and
  /// replicates row semantics exactly, so results — and the tested/matched
  /// counters — are identical either way.
  [[nodiscard]] Status MatchBatch(
      std::span<const Token> tokens,
      std::vector<std::vector<ConditionMatch>>* out) const;

  /// Enables columnar batch verification (mirrors
  /// OptimizerOptions.columnar_exec). Off forces per-token verification.
  void set_columnar_exec(bool on) { columnar_exec_ = on; }

  /// Diagnostics: how many conditions are interval-indexed vs. residual.
  size_t num_indexed() const { return num_indexed_; }
  size_t num_residual() const { return num_residual_; }

  /// Renders the selection-layer view of one rule's conditions: indexed
  /// (anchor attribute + interval) vs. residual, with lifetime
  /// tested/matched counters per condition. Backs `explain rule`.
  std::string DescribeRule(const RuleNetwork* rule) const;

  /// Audit support: cross-checks every attribute interval index against a
  /// brute-force scan (IntervalSkipList::AuditStabConsistency) and verifies
  /// the per-relation bookkeeping (each registered condition is either in
  /// exactly one index or on the residual list). Returns one description per
  /// inconsistency; empty means consistent.
  std::vector<std::string> AuditIndexes() const;

 private:
  struct NodeInfo {
    int64_t id;
    RuleNetwork* rule;
    size_t alpha_ordinal;
    bool indexed;
    size_t anchor_attr = 0;  // attribute position when indexed
    Interval interval;       // anchor interval when indexed
    /// Vector-compiled selection predicate, or null when the condition has
    /// no selection, references `previous`, or falls outside the
    /// vectorizable grammar. Used by MatchBatch to verify a whole relation
    /// group with one mask instead of one scratch-Row eval per token.
    VectorPredicatePtr vector_selection;
    // Lifetime observability counters; mutable because MatchBatch is const.
    mutable uint64_t tested = 0;   // tokens verified against this condition
    mutable uint64_t matched = 0;  // tokens admitted to the α-memory
  };

  struct PerRelation {
    /// attribute position -> interval index over conditions anchored there.
    std::map<size_t, std::unique_ptr<IntervalSkipList>> attr_indexes;
    std::vector<int64_t> residual;      // node ids verified on every token
    std::unordered_map<int64_t, NodeInfo> nodes;
  };

  /// Verifies one candidate condition against a token and appends a
  /// ConditionMatch on success. When `mask` is non-null the selection
  /// predicate's verdict is read from mask[mask_pos] (a column-kernel
  /// result over the batch's token values) instead of being re-evaluated
  /// on a scratch row; counters advance identically either way.
  [[nodiscard]] Status VerifyAndCollect(const Token& token, const NodeInfo& node,
                          const std::vector<uint8_t>* mask, size_t mask_pos,
                          std::vector<ConditionMatch>* out) const;

  std::unordered_map<uint32_t, PerRelation> relations_;
  int64_t next_node_id_ = 1;
  size_t num_indexed_ = 0;
  size_t num_residual_ = 0;
  bool columnar_exec_ = true;
};

/// Extracts the tightest index interval from a selection predicate: AND
/// conjuncts of the form `attr op constant` are intersected per attribute
/// and the best-anchored attribute (point > bounded > half-bounded) is
/// chosen. Returns false when no conjunct is indexable. Exposed for tests.
bool ExtractAnchorInterval(const Expr& selection, const Schema& schema,
                           size_t* attr_pos, Interval* interval);

}  // namespace ariel

#endif  // ARIEL_NETWORK_SELECTION_NETWORK_H_
