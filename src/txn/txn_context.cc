#include "txn/txn_context.h"

#include <utility>

#include "util/metrics.h"
#include "util/string_util.h"

namespace ariel {

const char* ActionErrorPolicyToString(ActionErrorPolicy policy) {
  switch (policy) {
    case ActionErrorPolicy::kAbortCommand: return "abort_command";
    case ActionErrorPolicy::kAbortRule: return "abort_rule";
    case ActionErrorPolicy::kIgnore: return "ignore";
  }
  return "?";
}

Result<ActionErrorPolicy> ActionErrorPolicyFromString(std::string_view text) {
  const std::string lower = ToLower(std::string(text));
  if (lower == "abort_command") return ActionErrorPolicy::kAbortCommand;
  if (lower == "abort_rule") return ActionErrorPolicy::kAbortRule;
  if (lower == "ignore") return ActionErrorPolicy::kIgnore;
  return Status::InvalidArgument(
      "unknown on_action_error policy \"" + std::string(text) +
      "\" (expected abort_command, abort_rule, or ignore)");
}

TransactionContext::TransactionContext(TransactionHooks* hooks)
    : hooks_(hooks) {}

TransactionContext::~TransactionContext() {
  Metrics().txn_active_savepoints.Set(0);
}

bool TransactionContext::in_command() const {
  for (const Frame& frame : frames_) {
    if (frame.kind == FrameKind::kCommand) return true;
  }
  return false;
}

bool TransactionContext::in_explicit() const {
  return !frames_.empty() && frames_.front().kind == FrameKind::kExplicit;
}

void TransactionContext::PushFrame(FrameKind kind) {
  Frame frame;
  frame.kind = kind;
  frame.seq = next_seq_++;
  frame.undo_mark = undo_log_.size();
  frame.trace_mark = Metrics().firing_trace.total_recorded();
  frame.pending_alert_mark = hooks_->PendingAlertMark();
  frames_.push_back(frame);
  undo_log_.set_enabled(true);
  undo_log_.set_frame_seq(frame.seq);
  Metrics().txn_active_savepoints.Set(frames_.size());
}

void TransactionContext::PopFrame() {
  frames_.pop_back();
  Metrics().txn_active_savepoints.Set(frames_.size());
  if (frames_.empty()) {
    undo_log_.set_enabled(false);
    undo_log_.set_frame_seq(0);
    undo_log_.Clear();
  } else {
    undo_log_.set_frame_seq(frames_.back().seq);
  }
}

Status TransactionContext::RollbackTopFrame() {
  Frame& frame = frames_.back();
  ScopedTimer timer(Metrics().txn_rollback_ns);
  ++rollbacks_;
  Metrics().txn_rollbacks.Increment();

  hooks_->BeginCompensation();
  Status status = Status::OK();
  for (size_t i = undo_log_.size(); i > frame.undo_mark; --i) {
    UndoRecord& record = undo_log_.record(i - 1);
    // A P-node whose rule was activated after this frame opened keeps its
    // conflict set: there is no pre-frame state to return to.
    if (record.kind == UndoKind::kPNodeState &&
        record.attach_seq >= frame.seq) {
      continue;
    }
    status = hooks_->ApplyUndo(&record);
    if (!status.ok()) break;
  }
  Status end = hooks_->EndCompensation();
  if (status.ok()) status = std::move(end);
  undo_log_.TruncateTo(frame.undo_mark);
  hooks_->TruncatePendingAlerts(frame.pending_alert_mark);
  Metrics().firing_trace.TruncateTo(frame.trace_mark);
  if (!status.ok()) {
    return Status::Internal(
        "transaction rollback failed; engine state may be inconsistent: " +
        status.ToString());
  }
  return Status::OK();
}

Status TransactionContext::BeginCommand() {
  if (!frames_.empty() && frames_.back().kind != FrameKind::kExplicit) {
    return Status::Internal("command transaction frame opened while a " +
                            std::string(frames_.back().kind ==
                                                FrameKind::kCommand
                                            ? "command"
                                            : "rule-firing savepoint") +
                            " is still open");
  }
  PushFrame(FrameKind::kCommand);
  return Status::OK();
}

Status TransactionContext::CommitCommand() {
  if (frames_.empty() || frames_.back().kind != FrameKind::kCommand) {
    return Status::Internal("CommitCommand without an open command frame");
  }
  PopFrame();
  return Status::OK();
}

Status TransactionContext::AbortCommand() {
  if (frames_.empty() || frames_.back().kind != FrameKind::kCommand) {
    return Status::Internal("AbortCommand without an open command frame");
  }
  Status status = RollbackTopFrame();
  PopFrame();
  return status;
}

Status TransactionContext::BeginExplicit() {
  if (in_explicit()) {
    return Status::ExecutionError(
        "a transaction is already open (transactions do not nest)");
  }
  if (!frames_.empty()) {
    return Status::Internal("begin inside an open command frame");
  }
  PushFrame(FrameKind::kExplicit);
  return Status::OK();
}

Status TransactionContext::CommitExplicit() {
  if (!in_explicit()) {
    return Status::ExecutionError("commit without an open transaction");
  }
  if (frames_.size() != 1) {
    return Status::Internal("commit with nested frames still open");
  }
  PopFrame();
  return Status::OK();
}

Status TransactionContext::AbortExplicit() {
  if (!in_explicit()) {
    return Status::ExecutionError("abort without an open transaction");
  }
  if (frames_.size() != 1) {
    return Status::Internal("abort with nested frames still open");
  }
  Status status = RollbackTopFrame();
  PopFrame();
  return status;
}

Result<uint64_t> TransactionContext::OpenSavepoint() {
  PushFrame(FrameKind::kFiring);
  return frames_.back().seq;
}

Status TransactionContext::RollbackToSavepoint(uint64_t token) {
  if (frames_.empty() || frames_.back().kind != FrameKind::kFiring ||
      frames_.back().seq != token) {
    return Status::Internal("RollbackToSavepoint out of LIFO order");
  }
  Status status = RollbackTopFrame();
  PopFrame();
  return status;
}

Status TransactionContext::ReleaseSavepoint(uint64_t token) {
  if (frames_.empty() || frames_.back().kind != FrameKind::kFiring ||
      frames_.back().seq != token) {
    return Status::Internal("ReleaseSavepoint out of LIFO order");
  }
  PopFrame();
  return Status::OK();
}

bool TransactionContext::HasResidueAtQuiescence() const {
  const bool idle_explicit =
      frames_.empty() ||
      (frames_.size() == 1 && frames_.front().kind == FrameKind::kExplicit);
  if (!idle_explicit) return true;
  return !undo_log_.empty() && !in_explicit();
}

}  // namespace ariel
