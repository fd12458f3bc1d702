#ifndef ARIEL_NETWORK_TRANSITION_MANAGER_H_
#define ARIEL_NETWORK_TRANSITION_MANAGER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/gateway.h"
#include "network/discrimination_network.h"
#include "network/token.h"
#include "util/status.h"

namespace ariel {

/// The logical-event machinery of §2.2.2 and §4.3.1: a StorageGateway that
/// observes every tuple mutation, classifies it against the transition's
/// Δ-sets [I, M], emits the token sequence prescribed by cases 1-4, and
/// propagates the tokens through the discrimination network.
///
/// Δ-set contents per relation:
///   I — tuples inserted during the current transition,
///   M — pre-existing tuples modified during it, with their original value
///       and the accumulated set of updated attributes.
/// (No set is kept for deletions: a deleted tuple cannot be touched again.)
///
/// Token sequences (§4.3.1):
///   case 1 (im*):   insert → (+, append); each modify → (−, append),
///                   (+, append)
///   case 2 (im*d):  final delete → (−, append); net effect nothing
///   case 3 (m+):    first modify → (−, no specifier), (Δ+, replace);
///                   later modifies → (Δ−, replace), (Δ+, replace)
///   case 4 (m*d):   final delete → (Δ−, replace) if modified, then
///                   (−, delete)
///
/// A transition is opened/closed by the engine around each command or
/// do…end block. Gateway calls outside a transition get an implicit
/// single-operation transition (without the engine-level recognize-act
/// cycle, which only the engine runs).
///
/// Propagation: tokens accumulate in emission order and flush as one
/// DiscriminationNetwork::ProcessBatch call — when the batch holds
/// batch_tokens tokens, at end of transition, and before any mutation of a
/// relation some active rule virtually scans (a deferred token joining
/// through a virtual α-memory must see the base relation exactly as it
/// stood when the token was emitted). At batch_tokens 0 or 1 every token is
/// a flush of one, handed over as it is emitted: the paper's order. Flush
/// scope is always within one transition, and every batch size gives the
/// same result.
class TransitionManager : public StorageGateway {
 public:
  explicit TransitionManager(DiscriminationNetwork* network)
      : network_(network) {}

  void BeginTransition();
  /// Flushes any pending token batch, clears the Δ-sets, and flushes
  /// dynamic α-memories.
  [[nodiscard]] Status EndTransition();
  bool in_transition() const { return in_transition_; }

  // StorageGateway:
  [[nodiscard]] Result<TupleId> Insert(HeapRelation* relation, Tuple tuple) override;
  [[nodiscard]] Status Delete(HeapRelation* relation, TupleId tid) override;
  [[nodiscard]] Status Update(HeapRelation* relation, TupleId tid, Tuple new_value,
                const std::vector<std::string>& updated_attrs) override;

  uint64_t tokens_emitted() const { return tokens_emitted_; }

  /// Monotonic id of the current (or most recent) transition; used by the
  /// firing trace to tie a rule firing back to the transition that woke it.
  uint64_t transition_seq() const { return transition_seq_; }

  /// Δ-set batching knob: accumulate up to `n` tokens before propagating
  /// them as one batch. 0 (default) or 1 flushes every token.
  void set_batch_tokens(size_t n) { batch_tokens_ = n; }
  size_t batch_tokens() const { return batch_tokens_; }

  /// Tokens currently deferred (0 at every quiescence point; the auditor
  /// checks this).
  size_t pending_batch_tokens() const { return batch_.size(); }

  /// Propagates the pending batch now. Public for the engine's extra flush
  /// points (rollback flushes before every undo record that is not a tuple
  /// record); EndTransition and EndCompensation always call it.
  [[nodiscard]] Status FlushTokenBatch();

  /// Undo log receiving one record per applied mutation (null = no
  /// logging). Armed/disarmed by the owning TransactionContext.
  void set_undo_log(UndoLog* undo) { undo_ = undo; }

  // --- rollback compensation (driven by the engine's TransactionContext
  // hooks; never re-enters the gateway interface, so fault injection
  // wrappers cannot fail a rollback) ---

  /// Brackets an undo replay: every rule memory enters compensation mode —
  /// α-memories, TID→slot maps, join-index buckets, and Rete β-memories
  /// are maintained by the compensating tokens below, but P-node mutation
  /// is suppressed (conflict sets are history-dependent and are restored
  /// from the P-node journal instead; joining would also refire rules).
  /// EndCompensation flushes the tokens still pending.
  void BeginCompensation();
  [[nodiscard]] Status EndCompensation();

  /// Reverse one logged mutation. Compensating tokens carry *no* event
  /// specifier (like the paper's case-3 simple − token), so they pass
  /// selection predicates and heal pattern memories without ever waking an
  /// on-event condition. They are emitted and batched like forward tokens,
  /// with the same hazard flush before each storage step. Each is tolerant
  /// of the forward mutation having never reached storage (a
  /// mid-propagation failure logs before the storage op): the storage step
  /// is skipped, the network still heals.
  [[nodiscard]] Status CompensateInsert(HeapRelation* relation, TupleId tid);
  [[nodiscard]] Status CompensateDelete(HeapRelation* relation, TupleId tid,
                                        const Tuple& before);
  [[nodiscard]] Status CompensateUpdate(HeapRelation* relation, TupleId tid,
                                        const Tuple& before);

 private:
  struct ModifiedEntry {
    Tuple original;               // value at transition start
    TokenEvent::AttrList attrs;   // accumulated updated attributes, interned
  };

  [[nodiscard]] Status Emit(Token token);

  void CountToken(const Token& token);

  /// Hazard flush: propagate pending tokens before `relation` changes if
  /// any active rule joins through a virtual α-memory over it.
  [[nodiscard]] Status MaybeFlushBeforeMutation(const HeapRelation& relation);

  /// Lowercases, dedups, and interns an updated-attribute list. A bulk
  /// replace passes the identical list for every tuple, so the one-entry
  /// cache turns per-tuple allocations into one per command.
  TokenEvent::AttrList InternAttrs(const std::vector<std::string>& attrs);

  /// Copy-on-write merge: returns `acc` itself when `add` brings nothing
  /// new, otherwise a fresh interned list. Never mutates `*acc` — tokens
  /// already emitted (possibly deferred in the batch) alias it.
  static TokenEvent::AttrList MergedAttrs(
      const TokenEvent::AttrList& acc, const std::vector<std::string>& add);

  DiscriminationNetwork* network_;
  UndoLog* undo_ = nullptr;
  bool in_transition_ = false;
  std::unordered_set<TupleId, TupleIdHash> inserted_;
  std::unordered_map<TupleId, ModifiedEntry, TupleIdHash> modified_;
  uint64_t tokens_emitted_ = 0;
  uint64_t transition_seq_ = 0;

  size_t batch_tokens_ = 0;
  std::vector<Token> batch_;
  TokenEvent::AttrList last_interned_;  // InternAttrs single-entry cache
};

}  // namespace ariel

#endif  // ARIEL_NETWORK_TRANSITION_MANAGER_H_
