#ifndef ARIEL_TXN_TXN_CONTEXT_H_
#define ARIEL_TXN_TXN_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "txn/undo_log.h"
#include "util/status.h"

namespace ariel {

/// What the rule monitor does when an action command fails (§5 leaves the
/// choice open; Ariel's host transaction aborted everything).
enum class ActionErrorPolicy : uint8_t {
  kAbortCommand,  // roll back the whole top-level command (default)
  kAbortRule,     // undo just this firing's effects, keep cascading
  kIgnore,        // keep the partial action effects, keep cascading
};

const char* ActionErrorPolicyToString(ActionErrorPolicy policy);
[[nodiscard]] Result<ActionErrorPolicy> ActionErrorPolicyFromString(
    std::string_view text);

/// The engine services a rollback needs; implemented by Database. The
/// TransactionContext owns *when* to roll back, the hooks own *how* each
/// record reverses — compensating tokens through the discrimination network
/// so α-memories, join-index buckets, and TID maps heal alongside storage,
/// and journaled P-node states put back the conflict sets a frame touched.
class TransactionHooks {
 public:
  virtual ~TransactionHooks() = default;

  /// Reverses one record. May consume the record's owned state (a detached
  /// relation is re-adopted into the catalog). Must be idempotent against
  /// partially-applied forward mutations: a record whose storage op never
  /// completed (mid-propagation eval error) still gets its network effects
  /// compensated.
  [[nodiscard]] virtual Status ApplyUndo(UndoRecord* record) = 0;

  /// Length of the pending-alert queue, recorded when a frame opens.
  /// Rollback truncates the queue back to it: undo tokens carry no event
  /// specifier, so compensation cannot cancel queued alerts the way an
  /// in-transition retraction does.
  virtual size_t PendingAlertMark() const = 0;
  virtual void TruncatePendingAlerts(size_t mark) = 0;

  /// Brackets the ApplyUndo replay: the network enters compensation mode
  /// (P-node mutations suppressed; α/β/index maintenance live).
  /// EndCompensation propagates the compensating tokens still pending.
  virtual void BeginCompensation() = 0;
  [[nodiscard]] virtual Status EndCompensation() = 0;
};

/// The transaction spine of the engine: a stack of frames over one UndoLog.
///
/// Frame kinds mirror the paper's execution nesting:
///   - kExplicit  — a shell `begin` … `commit`/`abort` block (at most one,
///                  always the bottom frame);
///   - kCommand   — one top-level command plus its entire recognize-act
///                  cascade (Ariel runs rule actions inside the triggering
///                  update's transaction, §2);
///   - kFiring    — one rule firing, opened by the monitor so
///                  on_action_error = abort_rule can surface
///                  partial-rollback semantics.
///
/// The undo log is armed exactly while a frame is open, so direct gateway
/// use outside any command (unit tests, benches) logs nothing. Commit of
/// the outermost frame clears the log; abort replays it back to the frame's
/// mark through the hooks. Opening a frame costs O(1) whatever the number
/// of rules: P-nodes journal themselves on their first write in a frame
/// (kPNodeState).
class TransactionContext {
 public:
  explicit TransactionContext(TransactionHooks* hooks);
  ~TransactionContext();

  TransactionContext(const TransactionContext&) = delete;
  TransactionContext& operator=(const TransactionContext&) = delete;

  UndoLog& undo_log() { return undo_log_; }

  // --- top-level command bracket (Database::ExecuteCommand) ---
  [[nodiscard]] Status BeginCommand();
  [[nodiscard]] Status CommitCommand();
  [[nodiscard]] Status AbortCommand();
  bool in_command() const;

  // --- explicit multi-command transaction (shell begin/commit/abort) ---
  [[nodiscard]] Status BeginExplicit();
  [[nodiscard]] Status CommitExplicit();
  [[nodiscard]] Status AbortExplicit();
  bool in_explicit() const;

  // --- per-firing savepoints (RuleExecutionMonitor) ---
  /// Returns an opaque token identifying the savepoint. Savepoints nest
  /// strictly (LIFO).
  [[nodiscard]] Result<uint64_t> OpenSavepoint();
  [[nodiscard]] Status RollbackToSavepoint(uint64_t token);
  [[nodiscard]] Status ReleaseSavepoint(uint64_t token);

  size_t open_frames() const { return frames_.size(); }
  uint64_t rollbacks() const { return rollbacks_; }

  /// The auditor's kUndoResidue predicate: at quiescence no frame other
  /// than an idle explicit transaction may remain open, and no undo
  /// records may exist outside an explicit transaction.
  bool HasResidueAtQuiescence() const;

 private:
  enum class FrameKind : uint8_t { kExplicit, kCommand, kFiring };
  struct Frame {
    FrameKind kind;
    uint64_t seq = 0;
    size_t undo_mark = 0;
    uint64_t trace_mark = 0;
    size_t pending_alert_mark = 0;
  };

  void PushFrame(FrameKind kind);
  /// Replays undo records down to the top frame's mark and truncates the
  /// pending alerts to its mark. The frame stays on the stack.
  [[nodiscard]] Status RollbackTopFrame();
  void PopFrame();

  TransactionHooks* hooks_;
  UndoLog undo_log_;
  std::vector<Frame> frames_;
  uint64_t next_seq_ = 1;
  uint64_t rollbacks_ = 0;
};

}  // namespace ariel

#endif  // ARIEL_TXN_TXN_CONTEXT_H_
