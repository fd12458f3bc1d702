#ifndef ARIEL_NETWORK_RULE_NETWORK_H_
#define ARIEL_NETWORK_RULE_NETWORK_H_

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "exec/expr.h"
#include "exec/optimizer.h"
#include "exec/vector_kernels.h"
#include "network/join_index.h"
#include "network/pnode.h"
#include "network/token.h"
#include "parser/ast.h"
#include "storage/column_batch.h"
#include "util/metrics.h"
#include "util/status.h"

namespace ariel {

/// The seven α-memory kinds of §4.3.3. A variable that is both event-based
/// and transition-based (the paper's finddemotions rule) is classified
/// kDynamicTrans and additionally carries the event filter.
enum class AlphaKind : uint8_t {
  kStored,        // materialized collection of matching tuples
  kVirtual,       // predicate only; joins probe or scan the base relation
  kDynamicOn,     // event condition: flushed after each transition
  kDynamicTrans,  // transition condition: pairs, flushed after transition
  kSimple,        // 1-variable rule: matches go straight to the P-node
  kSimpleOn,
  kSimpleTrans,
};

const char* AlphaKindToString(AlphaKind kind);

/// Construction-time description of one α-memory node, produced by the rule
/// compiler from the rule's condition.
struct AlphaSpec {
  std::string var_name;
  const HeapRelation* relation = nullptr;
  /// The single-variable selection predicate over this variable (null means
  /// always true, the paper's new(v)).
  ExprPtr selection;
  AlphaKind kind = AlphaKind::kStored;
  /// Event filter for on-conditions.
  std::optional<EventSpec> on_event;
  /// True when the condition references `previous var`: the memory stores
  /// (new, old) pairs and only transition (Δ) tokens reach it.
  bool has_previous = false;
  /// Key metadata handed down by the rule compiler: attributes of this
  /// variable that appear as a bare column reference in an equality join
  /// conjunct whose other side does not touch the variable. The network
  /// keys its hash join buckets (stored memories) and leases relation join
  /// hash indexes (virtual memories) only on these.
  std::vector<std::string> equijoin_attrs;
};

/// One entry of a stored/dynamic α-memory.
struct AlphaEntry {
  TupleId tid;
  Tuple value;
  Tuple previous;  // transition memories only
};

/// A materialized or virtual α-memory inside one rule's network.
class AlphaMemory {
 public:
  AlphaMemory(AlphaSpec spec, size_t var_ordinal)
      : spec_(std::move(spec)), var_ordinal_(var_ordinal) {}

  const AlphaSpec& spec() const { return spec_; }
  size_t var_ordinal() const { return var_ordinal_; }
  AlphaKind kind() const { return spec_.kind; }

  bool stores_tuples() const {
    return spec_.kind == AlphaKind::kStored ||
           spec_.kind == AlphaKind::kDynamicOn ||
           spec_.kind == AlphaKind::kDynamicTrans;
  }
  bool is_virtual() const { return spec_.kind == AlphaKind::kVirtual; }
  bool is_simple() const {
    return spec_.kind == AlphaKind::kSimple ||
           spec_.kind == AlphaKind::kSimpleOn ||
           spec_.kind == AlphaKind::kSimpleTrans;
  }
  bool is_dynamic() const {
    return spec_.kind == AlphaKind::kDynamicOn ||
           spec_.kind == AlphaKind::kDynamicTrans;
  }
  bool is_transition() const { return spec_.has_previous; }

  /// Token admission: event-specifier filtering (§4.3.1) plus the Δ-only
  /// rule for transition memories. The selection predicate is checked
  /// separately by the selection network.
  bool AcceptsToken(const Token& token) const;

  const std::vector<AlphaEntry>& entries() const { return entries_; }
  /// Appends an entry, maintaining the TID→slot map and hash join indexes.
  void InsertEntry(AlphaEntry entry);
  /// Removes the entry with this tid (if present) in O(1) via the TID→slot
  /// map and swap-and-pop (entry order is not stable). Returns true if
  /// removed.
  bool RemoveEntry(TupleId tid);
  void Flush();

  /// Hash join indexes over the entries (configured by RuleNetwork::Init
  /// from the rule's equijoin conjuncts; empty for unkeyed memories).
  const JoinKeyIndex& join_index() const { return join_index_; }
  JoinKeyIndex* mutable_join_index() { return &join_index_; }

  /// Installs the hash key specs. `num_vars` is the rule's variable count
  /// (key expressions are compiled against the whole rule scope).
  void ConfigureJoinIndex(size_t num_vars, std::vector<JoinKeySpec> specs);

  /// Lazily-built column view over the current entries' (new) values, in
  /// entry order — mask position i corresponds to entries()[i]. Engine/
  /// match-task thread only; invalidated by InsertEntry, RemoveEntry, and
  /// Flush. Backs the columnar candidate prefilter in
  /// RuleNetwork::ForEachCandidate.
  std::shared_ptr<const ColumnBatch> ColumnView() const;

  /// Cross-checks the TID→slot map and the hash join indexes against the
  /// entry vector (auditor support). Returns problems (empty = consistent).
  std::vector<std::string> AuditIncrementalState() const;

  /// Coherence check for the cached column view: empty when no cache is
  /// materialized or it mirrors entries() cell-for-cell, else a description
  /// of the first disagreement (the auditor wraps it as
  /// kColumnCacheIncoherent).
  std::string AuditColumnCache() const;

  /// Test-only: materializes the column view and flips one validity bit,
  /// planting exactly the incoherence AuditColumnCache must catch.
  void CorruptColumnCacheForTesting();

  /// Estimated candidate count for join ordering.
  size_t EstimatedSize() const;

  /// Approximate heap bytes the memory holds (the storage the
  /// virtual-memory technique saves; §4.2): entries, the TID→slot map, the
  /// hash join buckets and keys, and any cached column view. A virtual
  /// memory holds none of these; the relation join hash index it probes is
  /// shared and counted by HeapRelation::JoinIndexFootprintBytes.
  size_t FootprintBytes() const;

  /// Compiled selection predicate (set by RuleNetwork::Init).
  const CompiledExpr* compiled_selection() const {
    return compiled_selection_.get();
  }

 private:
  friend class RuleNetwork;

  AlphaSpec spec_;
  size_t var_ordinal_;
  CompiledExprPtr compiled_selection_;  // against the rule scope; may be null
  std::vector<AlphaEntry> entries_;
  /// Slot of each entry keyed by encoded tid, for O(1) RemoveEntry. Holds
  /// one slot per tid; a duplicate-tid insert shadows the earlier slot.
  std::unordered_map<int64_t, uint32_t> slot_of_;
  /// Entries slot_of_ does not reach. RemoveEntry scans for a tid the map
  /// misses only while this is non-zero, so removing an absent tid (as
  /// idempotent compensating tokens routinely do) stays O(1).
  size_t shadowed_ = 0;
  JoinKeyIndex join_index_;
  size_t num_vars_ = 1;   // rule scope width, set by ConfigureJoinIndex
  Row scratch_row_;       // reused by InsertEntry for key evaluation
  /// Columnar view of entries_, rebuilt on demand after mutations.
  mutable std::shared_ptr<const ColumnBatch> column_cache_;
  uint64_t column_version_ = 0;  // bumped by every entry mutation
};

/// Which join-network algorithm a rule's condition is tested with.
///
/// kTreat is the paper's choice: no β-memories; each token re-joins against
/// the other α-memories and deletions are handled directly on the conflict
/// set (P-node). kRete materializes the classic left-deep chain of
/// β-memories holding partial instantiations — faster for tokens arriving
/// late in the chain, at the cost of β storage and β maintenance on
/// deletion. §8 names the combined/selectable network as future work.
/// Rules with event or transition conditions always run on TREAT (flushing
/// dynamic bindings out of β chains would reintroduce exactly the
/// maintenance cost TREAT avoids); the backend choice applies to pattern
/// rules.
enum class JoinBackend : uint8_t { kTreat, kRete };

const char* JoinBackendToString(JoinBackend backend);

/// The per-rule join network (§4.2): one α-memory per tuple variable, the
/// rule's join conjuncts, and the P-node collecting complete
/// instantiations. Runs the A-TREAT algorithm, or optionally Rete (see
/// JoinBackend).
class RuleNetwork {
 public:
  RuleNetwork(std::string rule_name, uint32_t pnode_relation_id,
              std::vector<AlphaSpec> alphas,
              std::vector<ExprPtr> join_conjuncts,
              JoinBackend backend = JoinBackend::kTreat);

  /// Compiles predicates and builds the P-node. Must be called once before
  /// any token processing.
  [[nodiscard]] Status Init();

  /// Enables the columnar candidate prefilter on stored-α scan fallbacks
  /// (mirrors OptimizerOptions.columnar_exec). Must be set before Init —
  /// probe derivation happens there.
  void set_columnar_exec(bool on) { columnar_exec_ = on; }

  const std::string& rule_name() const { return rule_name_; }
  const Scope& scope() const { return scope_; }
  size_t num_vars() const { return alphas_.size(); }
  AlphaMemory* alpha(size_t i) { return alphas_[i].get(); }
  const AlphaMemory* alpha(size_t i) const { return alphas_[i].get(); }
  PNode* pnode() { return pnode_.get(); }
  const PNode* pnode() const { return pnode_.get(); }

  /// The set of (virtual) memories the current token has already been
  /// conceptually placed in — the paper's ProcessedMemories structure.
  using ProcessedMemories = std::set<const AlphaMemory*>;

  /// Processes the arrival of `token` at α-memory `alpha_ordinal` (the
  /// selection network already verified the predicate): updates the memory
  /// and either extends joins into the P-node (insertions) or deletes the
  /// affected instantiations from the P-node (deletions).
  [[nodiscard]] Status Arrive(const Token& token, size_t alpha_ordinal,
                const ProcessedMemories& processed);

  /// One token reaching one of this rule's α-memories; `token` indexes the
  /// token sequence being propagated.
  struct Arrival {
    uint32_t token;
    uint32_t alpha_ordinal;
  };

  /// The per-rule arrival routine of a ProcessBatch flush. Runs `arrivals`
  /// (in token order) through Arrive, with ProcessedMemories reset at each
  /// new token; P-node insertions made for tokens[i] are stamped
  /// {first_epoch + i, ordinal()}. Touches only this rule's state, so
  /// different rules may run concurrently. Stops at the first failure and
  /// reports the failing token's index in `*failed_token`.
  [[nodiscard]] Status ArriveAll(std::span<const Token> tokens,
                                 std::span<const Arrival> arrivals,
                                 uint64_t first_epoch, uint32_t* failed_token);

  /// Activation order of the rule: the second key of its P-node's match
  /// stamps. Assigned by RuleManager::ActivateRule.
  uint64_t ordinal() const { return ordinal_; }
  void set_ordinal(uint64_t ordinal) { ordinal_ = ordinal; }

  /// Compensation mode (transaction rollback; toggled network-wide through
  /// DiscriminationNetwork::SetCompensationMode). Compensating tokens keep
  /// α-memories, TID→slot maps, hash join buckets, and Rete β-memories
  /// exact — idempotently, so partially-propagated forward tokens are
  /// healed too — but never touch the conflict set: P-nodes are
  /// history-dependent (drained instantiations must stay drained) and are
  /// restored from their journaled states instead, which also keeps
  /// rollback joins from manufacturing spurious refires. Under TREAT the
  /// join walk is skipped entirely (it exists only to feed the P-node);
  /// under Rete ReteAssert still runs so β partials stay complete.
  void set_compensating(bool on) { compensating_ = on; }
  bool compensating() const { return compensating_; }

  /// Flushes dynamic memories (end of transition; §4.3.2).
  void FlushDynamicMemories();

  /// True when any α-memory is dynamic (set by Init): only such rules need
  /// end-of-transition flushing.
  bool has_dynamic_memories() const { return has_dynamic_; }

  /// Transition-scoped dirty flag, managed by DiscriminationNetwork so that
  /// end-of-transition flushing touches only the rules a token reached.
  bool dirty_dynamic() const { return dirty_dynamic_; }
  void set_dirty_dynamic(bool dirty) { dirty_dynamic_ = dirty; }

  /// Membership flag of DiscriminationNetwork's conflict-set agenda.
  bool scheduled() const { return scheduled_; }
  void set_scheduled(bool scheduled) { scheduled_ = scheduled; }

  /// This rule's work item in the ProcessBatch flush under way
  /// (kNoWorkSlot between flushes).
  static constexpr size_t kNoWorkSlot = static_cast<size_t>(-1);
  size_t work_slot() const { return work_slot_; }
  void set_work_slot(size_t slot) { work_slot_ = slot; }

  /// Loads stored α-memories and the P-node from current database contents
  /// (rule activation; §6 "priming"). Dynamic memories stay empty; the
  /// P-node is loaded only when no dynamic memory exists (event/transition
  /// bindings cannot predate activation), stamped with `pnode_epoch`
  /// (DiscriminationNetwork::AdvanceEpoch).
  [[nodiscard]] Status Prime(Optimizer* optimizer, uint64_t pnode_epoch);

  /// The backend actually in use (kRete requests fall back to kTreat for
  /// rules with dynamic memories).
  JoinBackend backend() const { return backend_; }

  /// Total bytes materialized across α-memories (ablation metric).
  size_t AlphaFootprintBytes() const;

  /// Bytes held in β-memories (Rete backend only; 0 under TREAT).
  size_t BetaFootprintBytes() const;

  /// Partial-instantiation counts per β level (Rete; empty under TREAT).
  std::vector<size_t> BetaSizes() const;

  /// Rete β-memories (empty under TREAT); read-only introspection for the
  /// engine-state dump the rollback-equivalence tests compare.
  const std::vector<BetaMemory>& beta_memories() const { return beta_; }

  /// Renders the network structure in the style of the paper's Figures 3-4:
  /// per-variable selection predicates and α-memory kinds, the join
  /// conjuncts, and the current P-node cardinality.
  std::string ToString() const;

  /// The last token that arrived at this rule's network, recorded as a
  /// cheap POD in Arrive and rendered lazily by the firing trace (a rule
  /// fires orders of magnitude less often than tokens arrive).
  struct LastTrigger {
    bool valid = false;
    TokenKind kind = TokenKind::kPlus;
    uint32_t relation_id = 0;
    TupleId tid;
  };
  const LastTrigger& last_trigger() const { return last_trigger_; }

  /// Recomputes, from base relations only, the set of instantiations a
  /// fully-pattern rule should currently have — used by equivalence tests
  /// to validate incremental maintenance. Fails for rules with dynamic
  /// memories (their expected contents depend on transition history).
  [[nodiscard]] Result<std::vector<Row>> RecomputeInstantiations(Optimizer* optimizer) const;

  /// Cross-checks every hash join index (α and β) and retraction map
  /// against its backing entry storage. Returns human-readable problems
  /// (empty = consistent); used by NetworkAuditor under ARIEL_AUDIT.
  std::vector<std::string> AuditJoinIndexes() const;

 private:
  /// P-node write funnel (no-ops while compensating); insertions carry the
  /// stamp {epoch_, ordinal_}.
  [[nodiscard]] Status EmitInstantiation(const Row& row);
  void RetractInstantiations(size_t var_ordinal, TupleId tid);

  /// Recursively extends `row` (with `bound` variables already set) across
  /// the remaining α-memories, emitting completed instantiations into the
  /// P-node.
  [[nodiscard]] Status ExtendJoin(const Token& token, Row* row, std::vector<bool>* bound,
                    size_t num_bound, const ProcessedMemories& processed);

  /// Candidate enumeration for joining into variable `j`: a hash-bucket
  /// lookup when an equijoin key is fully bound (the memory's own buckets
  /// when stored, the relation's join hash index when virtual), an entry
  /// or base-relation scan otherwise. `fn(tid, value, previous)` receives
  /// each candidate by reference — a stored entry or the heap tuple itself.
  /// `fn` is a template parameter (not std::function) to keep type-erasure
  /// overhead off the hottest loop; all instantiations live in
  /// rule_network.cc.
  template <typename Fn>
  [[nodiscard]] Status ForEachCandidate(const Token& token, size_t j, const Row& row,
                          const std::vector<bool>& bound,
                          const ProcessedMemories& processed, Fn&& fn);

  /// Evaluates every join conjunct that becomes fully bound when `j` joins
  /// the bound set.
  [[nodiscard]] Result<bool> JoinConjunctsHold(size_t j, const std::vector<bool>& bound,
                                 const Row& row) const;

  /// Leases the relation join hash index for each equijoin conjunct into a
  /// virtual α-memory over a compiler-flagged attribute (called once per
  /// conjunct by Init).
  [[nodiscard]] Status RecordRelationProbes(const Expr& conjunct);

  /// Derives and installs the hash key specs for every stored α-memory
  /// from the rule's equijoin conjuncts, gated on the compiler's
  /// AlphaSpec::equijoin_attrs metadata (called once by Init).
  [[nodiscard]] Status ConfigureAlphaJoinIndexes();

  /// Key specs usable to probe β_level with a token bound at variable
  /// level + 1: equality conjuncts whose one side reads only variables in
  /// the prefix [0, level] and whose other side reads only the arriving
  /// variable.
  [[nodiscard]] Result<std::vector<JoinKeySpec>> DeriveBetaKeySpecs(size_t level) const;

  /// (Re)creates the β chain with configured key specs and postings
  /// (Init and PrimeBetas).
  [[nodiscard]] Status ConfigureBetas();

  // --- Rete backend ---

  /// Handles an asserting token arrival at α `i` under Rete: joins it
  /// leftward against β_{i-1} (or α_0), then cascades rightward.
  [[nodiscard]] Status ReteAssert(const Token& token, size_t alpha_ordinal,
                    const ProcessedMemories& processed);

  /// Extends a checked partial over variables [0, level] rightward,
  /// storing it in β_level and recursing until the P-node.
  [[nodiscard]] Status ReteExtend(size_t level, Row* row, const Token& token,
                    const ProcessedMemories& processed);

  /// Removes the partials binding (var, tid) from every β at or right of
  /// var's position.
  void ReteRetract(size_t var, TupleId tid);

  /// Evaluates the join conjuncts whose variables all lie in [0, level].
  /// `newly` is the variable just added (conjuncts not touching it were
  /// checked at an earlier level).
  [[nodiscard]] Result<bool> PrefixConjunctsHold(size_t level, size_t newly,
                                   const Row& row) const;

  /// Rebuilds the β chain from α contents / base relations (activation).
  [[nodiscard]] Status PrimeBetas(Optimizer* optimizer);

  std::string rule_name_;
  uint32_t pnode_relation_id_;
  std::vector<std::unique_ptr<AlphaMemory>> alphas_;
  std::vector<ExprPtr> join_exprs_;

  struct CompiledConjunct {
    CompiledExprPtr expr;
    std::vector<size_t> vars;
  };
  std::vector<CompiledConjunct> join_conjuncts_;

  /// An equijoin conjunct `var.attr = key(other vars)` into a virtual
  /// α-memory: when every key variable is bound, evaluate `key_expr` once
  /// and probe the relation's join hash index for `attr` instead of
  /// scanning the relation (§4.2: the virtual memory's base-relation scan
  /// "can be done with any scan algorithm"). The lease keeps the index
  /// alive and maintained while the rule is active.
  struct RelationProbe {
    size_t var;
    std::string attr_name;
    CompiledExprPtr key_expr;
    std::vector<size_t> key_vars;
    JoinIndexLease index;
  };
  std::vector<RelationProbe> relation_probes_;

  /// A join conjunct of the form `j.attr <op> key(other vars)` (normalized
  /// so the stored column is on the left) usable to prefilter a stored
  /// α-memory scan column-at-a-time: evaluate `key_expr` once per partial
  /// row, then AND one comparison kernel over the memory's column view
  /// instead of deep-copying and testing every candidate. `conjunct` is the
  /// ordinal into join_conjuncts_ — the prefilter may only consume a
  /// *prefix* of the conjuncts the caller would evaluate at this join step,
  /// which keeps error behaviour (and nothing else is observable: the
  /// kernels replicate Value::Compare exactly, and survivors are still
  /// re-verified by JoinConjunctsHold / PrefixConjunctsHold).
  struct BandedProbe {
    size_t conjunct = 0;
    size_t var = 0;               // the memory being scanned
    size_t col = 0;               // attribute position of the column side
    BinaryOp op = BinaryOp::kEq;  // normalized: column <op> key
    CompiledExprPtr key_expr;
    std::vector<size_t> key_vars;
  };
  std::vector<BandedProbe> banded_probes_;

  /// Derives BandedProbes from one join conjunct (called by Init, in
  /// conjunct order, when columnar execution is on).
  [[nodiscard]] Status RecordBandedProbes(size_t conjunct_idx,
                                          const Expr& conjunct);

  /// adjacency_[i][j] = true when some join conjunct touches both i and j.
  std::vector<std::vector<bool>> adjacency_;

  Scope scope_;
  std::unique_ptr<PNode> pnode_;
  JoinBackend backend_;
  /// Rete: beta_[L] holds partials over variables [0, L], for
  /// L in [1, n-2]; β_0 is the first α-memory itself and the final join
  /// result lands in the P-node. Each level carries keyed partial-match
  /// lookup and TID→slot postings (see BetaMemory).
  std::vector<BetaMemory> beta_;
  /// Scratch row for evaluating a virtual memory's selection on a heap
  /// candidate (only that memory's slot is ever read).
  Row selection_scratch_;
  uint64_t ordinal_ = 0;
  uint64_t epoch_ = 0;  // match epoch of the token being propagated
  bool compensating_ = false;
  bool columnar_exec_ = true;
  bool initialized_ = false;
  bool has_dynamic_ = false;
  bool dirty_dynamic_ = false;
  bool scheduled_ = false;
  size_t work_slot_ = kNoWorkSlot;
  LastTrigger last_trigger_;
};

}  // namespace ariel

#endif  // ARIEL_NETWORK_RULE_NETWORK_H_
