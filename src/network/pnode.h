#ifndef ARIEL_NETWORK_PNODE_H_
#define ARIEL_NETWORK_PNODE_H_

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "exec/row.h"
#include "storage/heap_relation.h"
#include "txn/undo_log.h"
#include "util/status.h"

namespace ariel {

/// Recency stamp of a P-node insertion: the engine's match epoch of the
/// token (or priming) that produced it, then the activation ordinal of the
/// rule. Compared lexicographically, it orders insertions by event, not by
/// the order in which rules happened to be evaluated, so rules can match in
/// parallel and still agree with serial propagation.
struct MatchStamp {
  uint64_t epoch = 0;
  uint64_t ordinal = 0;

  friend auto operator<=>(const MatchStamp&, const MatchStamp&) = default;
};

/// Describes one tuple variable whose bindings a P-node stores.
struct PnodeVar {
  std::string name;
  const Schema* schema = nullptr;  // schema of the variable's relation
  bool has_previous = false;       // transition variable: store old values too
};

/// The P-node of §2.2.3/§5: a temporary relation holding the data matching a
/// rule's condition — the rule's conflict-set entry, in TREAT terms.
///
/// Layout per variable v (in rule variable order):
///   v.tid              encoded tuple identifier (int)
///   v.<attr>...        current attribute values
///   v.previous.<attr>  old attribute values (transition variables only)
///
/// The rule-action planner binds the tuple variable P to `relation()`, and
/// the primed commands decode `v.tid` to reach base tuples (§5.1).
class PNode {
 public:
  /// `relation_id` must be unique across the engine (it appears inside the
  /// TupleIds of P-node rows; the rule system allocates from a reserved
  /// range so P-node ids never collide with catalog relations).
  PNode(uint32_t relation_id, const std::string& rule_name,
        std::vector<PnodeVar> vars);

  const std::vector<PnodeVar>& vars() const { return vars_; }

  /// The backing relation, for PnodeScan binding.
  const HeapRelation& relation() const { return *relation_; }

  size_t size() const { return relation_->size(); }
  bool empty() const { return relation_->empty(); }

  /// Stamp of the most recent insertion ({0, 0} = never). OPS5-style
  /// recency conflict resolution prefers the rule whose conflict-set entry
  /// is freshest.
  MatchStamp last_insert_stamp() const { return last_insert_stamp_; }

  /// Lifetime count of instantiations ever inserted (observability; shown
  /// by `explain rule`).
  uint64_t lifetime_insertions() const { return lifetime_insertions_; }

  /// Materializes one instantiation. `row` is laid out against the rule's
  /// variable order; every slot must be filled.
  [[nodiscard]] Status Insert(const Row& row, MatchStamp stamp);

  /// Removes all instantiations whose binding for variable `var_ordinal`
  /// is the tuple `tid` — O(affected) via the per-variable postings rather
  /// than a relation scan. Returns the number removed.
  size_t RemoveByTid(size_t var_ordinal, TupleId tid);

  /// Consumes all instantiations (rule firing / deactivation).
  void Clear();

  /// Creates an empty relation with this P-node's schema — the rule
  /// monitor's reusable firing buffer (a stable relation pointer lets
  /// cached action plans survive across firings).
  std::unique_ptr<HeapRelation> MakeFiringBuffer() const;

  /// Moves the current contents into `dest` and clears this P-node. `dest`
  /// must come from MakeFiringBuffer and be empty (the rule monitor empties
  /// it after every firing). Rule firing binds the action to the drained
  /// rows (the data matched "at rule fire time", §5), while instantiations
  /// the action itself produces accumulate in the live P-node for later
  /// cycle iterations.
  void DrainInto(HeapRelation* dest);

  /// Rebuilds a Row (rule-variable layout) from one stored P-node tuple;
  /// used by tests and by the equivalence checker.
  Row ToRow(const Tuple& pnode_tuple) const;

  /// Point-in-time conflict-set snapshot, journaled for rollback. The
  /// conflict set is history-dependent (fired instantiations are drained,
  /// so it cannot be recomputed from base relations) — rollback restores it
  /// from these rather than replaying joins.
  struct State : UndoPayload {
    std::vector<std::pair<TupleId, Tuple>> rows;  // row id → stored tuple
    MatchStamp last_insert_stamp;
    uint64_t lifetime_insertions = 0;
  };
  State CaptureState() const;

  /// Replaces the live contents with `state` (postings rebuilt from the
  /// stored tid columns). Keeps the captured stamp and bypasses binding
  /// metrics — a restore is not new match activity.
  [[nodiscard]] Status RestoreState(const State& state);

  /// Journals this conflict set into `undo`: before its first write inside
  /// each transaction frame, the P-node appends its State as a kPNodeState
  /// record, so rollback restores exactly the conflict sets a frame
  /// touched. The frame open at attach time counts as saved already — a
  /// rule activated inside a frame has no pre-frame conflict set.
  void AttachJournal(UndoLog* undo);

  /// Saves the conflict set unless the innermost frame already holds a
  /// save, appending it to the undo log at once. The serial writers (drain,
  /// clear, detach) call it first; the rule manager also calls it before
  /// tearing a network down.
  void Journal();

  /// Appends the save that Insert or RemoveByTid captured, if any. Those
  /// two run inside match tasks, which must not touch the shared undo log:
  /// a P-node's first write in a frame captures its save privately, and
  /// the discrimination network publishes the saves serially, in rule
  /// order, once the match stage is done. A P-node no token writes is
  /// never captured.
  void PublishJournal();

 private:
  /// Captures the save Journal would append, without appending it.
  void CaptureJournal();
  void ClearPostings();
  /// Deletes every row without journaling (Clear and RestoreState).
  void DeleteRows();

  std::vector<PnodeVar> vars_;
  /// Per variable: column offset of its tid column (attr values follow).
  std::vector<size_t> var_offset_;
  /// postings_[var][EncodeTid(base tid)] = P-node row ids that bound it at
  /// insert time. Entries go stale when a row is removed through another
  /// variable's binding (or its slot is recycled); consumers verify the
  /// row's tid column before acting, so stale entries drop out lazily.
  std::vector<std::unordered_map<int64_t, std::vector<TupleId>>> postings_;
  std::unique_ptr<HeapRelation> relation_;
  MatchStamp last_insert_stamp_;
  uint64_t lifetime_insertions_ = 0;
  std::string rule_name_;
  UndoLog* undo_ = nullptr;  // null = not journaled
  uint64_t saved_seq_ = 0;   // frame seq of the last save
  uint64_t attach_seq_ = 0;  // frame seq at AttachJournal
  std::unique_ptr<State> unpublished_;  // CaptureJournal's pending save
};

}  // namespace ariel

#endif  // ARIEL_NETWORK_PNODE_H_
