#ifndef ARIEL_NETWORK_DISCRIMINATION_NETWORK_H_
#define ARIEL_NETWORK_DISCRIMINATION_NETWORK_H_

#include <functional>
#include <unordered_map>
#include <vector>

#include "network/selection_network.h"
#include "network/rule_network.h"
#include "network/token.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ariel {

/// The complete A-TREAT discrimination network (§4): the selection-predicate
/// index on top, one TREAT join network per rule below. Owns neither — rule
/// networks belong to the rule manager; this class routes tokens.
class DiscriminationNetwork {
 public:
  DiscriminationNetwork() = default;

  /// Registers a rule network and schedules it (a primed or carried-over
  /// P-node may already hold instantiations).
  [[nodiscard]] Status AddRule(RuleNetwork* rule);
  void RemoveRule(RuleNetwork* rule);

  /// The conflict-set agenda: registered rules whose P-node may be
  /// non-empty. Every rule with a non-empty P-node is on it, so conflict
  /// resolution scans the agenda instead of every active rule. Propagation
  /// schedules the rules that received arrivals; whoever else fills a
  /// P-node (registration, rollback's journal restore) schedules it too.
  /// Schedule skips empty P-nodes and rules already on the agenda.
  void Schedule(RuleNetwork* rule);

  /// Drops the agenda entries whose P-node has emptied (fired or
  /// retracted) and returns the rest, in no particular order.
  const std::vector<RuleNetwork*>& PruneAgenda();

  /// Propagates one token under the next match epoch: the selection network
  /// finds the α-memories it reaches; each arrival updates the memory, joins
  /// (for insertions), and maintains the P-node. ProcessedMemories grows
  /// across a rule's arrivals of the same token, implementing the paper's
  /// virtual-memory self-join protocol (RuleNetwork::ArriveAll).
  [[nodiscard]] Status ProcessToken(const Token& token);

  /// Propagates a whole token batch (a TransitionManager flush); token i
  /// takes match epoch base + i, exactly the epoch ProcessToken would give
  /// it:
  ///   stage 1 — the selection network classifies every token in one pass
  ///             (MatchBatch; one ISL descent per distinct constant
  ///             partition), and each rule's arrivals are collected in
  ///             token order;
  ///   stage 2 — one task per matched rule runs RuleNetwork::ArriveAll,
  ///             writing its own P-node: fanned out across the pool, or
  ///             inline in order without one. Each matched rule's P-node is
  ///             journaled (PNode::Journal) serially beforehand, so the
  ///             tasks never append to the undo log and the log's content
  ///             does not depend on the thread count.
  /// The result is byte-identical to calling ProcessToken per token: rules
  /// own disjoint memories, each rule sees its arrivals in token order, and
  /// a P-node's match stamps depend on the token, not on when the task ran.
  [[nodiscard]] Status ProcessBatch(const std::vector<Token>& tokens);

  /// Installs the worker pool for stage 2 (nullptr = inline matching).
  void ConfigureBatching(ThreadPool* pool) { pool_ = pool; }

  /// Advances the engine's match epoch and returns it. Every token takes
  /// one epoch; rule activation takes one for its primed P-node, so a newly
  /// primed rule is fresher than every earlier token.
  uint64_t AdvanceEpoch() { return ++epoch_; }

  /// Columnar batch classification in the selection layer (mirrors
  /// DatabaseOptions.columnar_exec); affects MatchBatch and how
  /// subsequently added rules compile their selection predicates.
  void set_columnar_exec(bool on) { selection_.set_columnar_exec(on); }

  /// True when an active rule joins through a virtual α-memory over this
  /// relation: propagation then scans the base relation at match time, so
  /// deferred tokens must be flushed before the relation mutates again
  /// (TransitionManager's hazard flush).
  bool HasVirtualScanOn(uint32_t relation_id) const {
    auto it = virtual_scan_relations_.find(relation_id);
    return it != virtual_scan_relations_.end() && it->second > 0;
  }

  /// End-of-transition housekeeping: flushes dynamic α-memories (§4.3.2).
  void OnTransitionEnd();

  /// Toggles compensation mode on every registered rule network (see
  /// RuleNetwork::set_compensating): rollback replays compensating tokens
  /// that heal α-memories, join indexes, and Rete β-memories but leave
  /// P-nodes untouched — conflict sets are restored from the journal.
  void SetCompensationMode(bool on) {
    for (RuleNetwork* rule : rules_) rule->set_compensating(on);
  }

  const SelectionNetwork& selection_network() const { return selection_; }

  uint64_t tokens_processed() const { return tokens_processed_; }
  uint64_t arrivals() const { return arrivals_; }

  /// Observation hook invoked for every token before propagation. Used by
  /// tests validating the §4.3.1 token-generation cases and by tracing.
  using TokenListener = std::function<void(const Token&)>;
  void set_token_listener(TokenListener listener) {
    token_listener_ = std::move(listener);
  }

 private:
  /// Bookkeeping shared by ProcessToken and ProcessBatch: arrival counters
  /// and the dirty-dynamic-rule set.
  void NoteArrival(RuleNetwork* rule);

  TokenListener token_listener_;
  SelectionNetwork selection_;
  ThreadPool* pool_ = nullptr;
  std::vector<RuleNetwork*> rules_;
  std::vector<RuleNetwork*> dirty_dynamic_rules_;
  std::vector<RuleNetwork*> agenda_;
  /// relation id → number of active virtual α-memories scanning it.
  std::unordered_map<uint32_t, size_t> virtual_scan_relations_;
  /// ProcessToken's arrival list, kept to reuse its capacity.
  std::vector<RuleNetwork::Arrival> token_arrivals_;
  uint64_t epoch_ = 0;
  uint64_t tokens_processed_ = 0;
  uint64_t arrivals_ = 0;
};

}  // namespace ariel

#endif  // ARIEL_NETWORK_DISCRIMINATION_NETWORK_H_
