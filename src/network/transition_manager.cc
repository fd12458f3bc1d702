#include "network/transition_manager.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/string_util.h"

namespace ariel {

void TransitionManager::BeginTransition() {
  in_transition_ = true;
  ++transition_seq_;
  Metrics().transitions.Increment();
  inserted_.clear();
  modified_.clear();
}

Status TransitionManager::EndTransition() {
  // Flush before OnTransitionEnd: deferred tokens may still have to reach
  // dynamic α-memories that the end-of-transition housekeeping flushes.
  Status status = FlushTokenBatch();
  in_transition_ = false;
  inserted_.clear();
  modified_.clear();
  network_->OnTransitionEnd();
  return status;
}

Status TransitionManager::FlushTokenBatch() {
  if (batch_.empty()) return Status::OK();
  // Propagation never re-enters the gateway, so the batch can be read in
  // place and cleared after, keeping its capacity.
  Status status = network_->ProcessBatch(batch_);
  batch_.clear();
  return status;
}

Status TransitionManager::MaybeFlushBeforeMutation(
    const HeapRelation& relation) {
  if (batch_.empty() || !network_->HasVirtualScanOn(relation.id())) {
    return Status::OK();
  }
  return FlushTokenBatch();
}

TokenEvent::AttrList TransitionManager::InternAttrs(
    const std::vector<std::string>& attrs) {
  std::vector<std::string> normalized;
  normalized.reserve(attrs.size());
  for (const std::string& attr : attrs) {
    std::string lower = ToLower(attr);
    if (std::find(normalized.begin(), normalized.end(), lower) ==
        normalized.end()) {
      normalized.push_back(std::move(lower));
    }
  }
  if (last_interned_ != nullptr && *last_interned_ == normalized) {
    return last_interned_;
  }
  last_interned_ = std::make_shared<const std::vector<std::string>>(
      std::move(normalized));
  return last_interned_;
}

TokenEvent::AttrList TransitionManager::MergedAttrs(
    const TokenEvent::AttrList& acc, const std::vector<std::string>& add) {
  std::vector<std::string> fresh;
  for (const std::string& attr : add) {
    std::string lower = ToLower(attr);
    if (std::find(acc->begin(), acc->end(), lower) == acc->end() &&
        std::find(fresh.begin(), fresh.end(), lower) == fresh.end()) {
      fresh.push_back(std::move(lower));
    }
  }
  if (fresh.empty()) return acc;
  auto merged = std::make_shared<std::vector<std::string>>(*acc);
  for (std::string& lower : fresh) merged->push_back(std::move(lower));
  return merged;
}

void TransitionManager::CountToken(const Token& token) {
  ++tokens_emitted_;
  EngineMetrics& m = Metrics();
  m.tokens_emitted.Increment();
  switch (token.kind) {
    case TokenKind::kPlus:
      m.tokens_plus.Increment();
      break;
    case TokenKind::kMinus:
      m.tokens_minus.Increment();
      break;
    case TokenKind::kDeltaPlus:
      m.tokens_delta_plus.Increment();
      break;
    case TokenKind::kDeltaMinus:
      m.tokens_delta_minus.Increment();
      break;
  }
}

Status TransitionManager::Emit(Token token) {
  CountToken(token);
  // A flush of one needs no buffer: hand the token over in place.
  if (batch_tokens_ <= 1) return network_->ProcessBatch({&token, 1});
  batch_.push_back(std::move(token));
  if (batch_.size() >= batch_tokens_) return FlushTokenBatch();
  return Status::OK();
}

Result<TupleId> TransitionManager::Insert(HeapRelation* relation,
                                          Tuple tuple) {
  const bool implicit = !in_transition_;
  if (implicit) BeginTransition();

  Status status = MaybeFlushBeforeMutation(*relation);
  TupleId tid;
  if (status.ok()) {
    Result<TupleId> inserted = relation->Insert(std::move(tuple));
    if (inserted.ok()) {
      tid = *inserted;
      if (undo_ != nullptr) undo_->AppendInsert(relation->id(), tid);
      inserted_.insert(tid);
      Token token;
      token.kind = TokenKind::kPlus;
      token.relation_id = relation->id();
      token.tid = tid;
      token.value = *relation->Get(tid);
      token.event = TokenEvent{EventKind::kAppend, {}};
      status = Emit(std::move(token));
    } else {
      status = inserted.status();
    }
  }

  if (implicit) {
    Status end = EndTransition();
    if (status.ok()) status = end;
  }
  if (!status.ok()) return status;
  return tid;
}

Status TransitionManager::Delete(HeapRelation* relation, TupleId tid) {
  const Tuple* current = relation->Get(tid);
  if (current == nullptr) {
    return Status::ExecutionError("delete of nonexistent tuple " +
                                  tid.ToString());
  }
  const bool implicit = !in_transition_;
  if (implicit) BeginTransition();
  // Pending tokens must see the relation as it stood when they were
  // emitted; flush before this delete becomes visible to virtual scans.
  Status status = MaybeFlushBeforeMutation(*relation);
  Tuple old_value = *current;
  // Logged before the token emissions: the storage delete runs last, so a
  // mid-propagation failure leaves partially-healed memories that rollback
  // must still compensate (CompensateDelete skips the storage step when the
  // tuple is still live).
  if (status.ok() && undo_ != nullptr && undo_->enabled()) {
    undo_->AppendDelete(relation->id(), tid, old_value);
  }

  if (status.ok() && inserted_.contains(tid)) {
    // Case 2 (im*d): retract the insertion; net effect nothing.
    Metrics().delta_case2_net_nothing.Increment();
    Token minus;
    minus.kind = TokenKind::kMinus;
    minus.relation_id = relation->id();
    minus.tid = tid;
    minus.value = std::move(old_value);
    minus.event = TokenEvent{EventKind::kAppend, {}};
    status = Emit(std::move(minus));
    inserted_.erase(tid);
  } else if (status.ok()) {
    auto mod = modified_.find(tid);
    if (mod != modified_.end()) {
      // Case 4 tail: retract the transition pair first.
      Metrics().delta_case4_modified_delete.Increment();
      Token delta_minus;
      delta_minus.kind = TokenKind::kDeltaMinus;
      delta_minus.relation_id = relation->id();
      delta_minus.tid = tid;
      delta_minus.value = old_value;  // the pair's new part
      delta_minus.previous = std::move(mod->second.original);
      delta_minus.event =
          TokenEvent::WithShared(EventKind::kReplace, mod->second.attrs);
      status = Emit(std::move(delta_minus));
      modified_.erase(mod);
    }
    if (status.ok()) {
      Token minus;
      minus.kind = TokenKind::kMinus;
      minus.relation_id = relation->id();
      minus.tid = tid;
      minus.value = std::move(old_value);
      minus.event = TokenEvent{EventKind::kDelete, {}};
      status = Emit(std::move(minus));
    }
  }

  if (status.ok()) status = relation->Delete(tid);
  if (implicit) {
    Status end = EndTransition();
    if (status.ok()) status = end;
  }
  return status;
}

Status TransitionManager::Update(HeapRelation* relation, TupleId tid,
                                 Tuple new_value,
                                 const std::vector<std::string>& updated_attrs) {
  const Tuple* current = relation->Get(tid);
  if (current == nullptr) {
    return Status::ExecutionError("update of nonexistent tuple " +
                                  tid.ToString());
  }
  const bool implicit = !in_transition_;
  if (implicit) BeginTransition();
  Status status = MaybeFlushBeforeMutation(*relation);
  Tuple old_value = *current;

  if (status.ok()) {
    status = relation->Update(tid, std::move(new_value), &updated_attrs);
  }
  if (status.ok() && undo_ != nullptr && undo_->enabled()) {
    undo_->AppendUpdate(relation->id(), tid, old_value, updated_attrs);
  }
  Tuple updated = status.ok() ? *relation->Get(tid) : Tuple();

  if (status.ok() && inserted_.contains(tid)) {
    // Case 1 (im*): the insertion is re-expressed with the new value.
    Metrics().delta_case1_reexpressed.Increment();
    Token minus;
    minus.kind = TokenKind::kMinus;
    minus.relation_id = relation->id();
    minus.tid = tid;
    minus.value = std::move(old_value);
    minus.event = TokenEvent{EventKind::kAppend, {}};
    status = Emit(std::move(minus));
    if (status.ok()) {
      Token plus;
      plus.kind = TokenKind::kPlus;
      plus.relation_id = relation->id();
      plus.tid = tid;
      plus.value = std::move(updated);
      plus.event = TokenEvent{EventKind::kAppend, {}};
      status = Emit(std::move(plus));
    }
  } else if (status.ok()) {
    auto mod = modified_.find(tid);
    if (mod == modified_.end()) {
      Metrics().delta_case3_first_modify.Increment();
      // Case 3 head (first modification of a pre-existing tuple): a
      // specifier-less − removes the old value from pattern memories
      // without waking on-delete rules, then a Δ+ introduces the pair.
      ModifiedEntry entry;
      entry.original = old_value;
      entry.attrs = InternAttrs(updated_attrs);

      Token minus;
      minus.kind = TokenKind::kMinus;
      minus.relation_id = relation->id();
      minus.tid = tid;
      minus.value = std::move(old_value);
      // no event specifier
      status = Emit(std::move(minus));
      if (status.ok()) {
        Token delta_plus;
        delta_plus.kind = TokenKind::kDeltaPlus;
        delta_plus.relation_id = relation->id();
        delta_plus.tid = tid;
        delta_plus.value = std::move(updated);
        delta_plus.previous = entry.original;
        delta_plus.event =
            TokenEvent::WithShared(EventKind::kReplace, entry.attrs);
        status = Emit(std::move(delta_plus));
      }
      modified_.emplace(tid, std::move(entry));
    } else {
      // Case 3 tail: replace the old pair with the updated one. The old
      // value of the pair stays the transition-start original.
      Metrics().delta_case3_later_modify.Increment();
      Token delta_minus;
      delta_minus.kind = TokenKind::kDeltaMinus;
      delta_minus.relation_id = relation->id();
      delta_minus.tid = tid;
      delta_minus.value = std::move(old_value);
      delta_minus.previous = mod->second.original;
      delta_minus.event =
          TokenEvent::WithShared(EventKind::kReplace, mod->second.attrs);
      status = Emit(std::move(delta_minus));
      if (status.ok()) {
        mod->second.attrs = MergedAttrs(mod->second.attrs, updated_attrs);
        Token delta_plus;
        delta_plus.kind = TokenKind::kDeltaPlus;
        delta_plus.relation_id = relation->id();
        delta_plus.tid = tid;
        delta_plus.value = std::move(updated);
        delta_plus.previous = mod->second.original;
        delta_plus.event =
            TokenEvent::WithShared(EventKind::kReplace, mod->second.attrs);
        status = Emit(std::move(delta_plus));
      }
    }
  }

  if (implicit) {
    Status end = EndTransition();
    if (status.ok()) status = end;
  }
  return status;
}

void TransitionManager::BeginCompensation() {
  network_->SetCompensationMode(true);
}

Status TransitionManager::EndCompensation() {
  // The last compensating tokens propagate while P-node mutation is still
  // suppressed.
  Status status = FlushTokenBatch();
  network_->SetCompensationMode(false);
  // Compensating tokens never enter dynamic (event/transition) memories —
  // they carry no specifier and are not Δ tokens — but run the
  // end-of-transition housekeeping anyway so the flushed-at-quiescence
  // invariant holds by construction.
  network_->OnTransitionEnd();
  return status;
}

Status TransitionManager::CompensateInsert(HeapRelation* relation,
                                           TupleId tid) {
  const Tuple* current = relation->Get(tid);
  if (current == nullptr) return Status::OK();  // insert never reached storage
  Token minus;
  minus.kind = TokenKind::kMinus;
  minus.relation_id = relation->id();
  minus.tid = tid;
  minus.value = *current;
  // no event specifier
  ARIEL_RETURN_NOT_OK(Emit(std::move(minus)));
  ARIEL_RETURN_NOT_OK(MaybeFlushBeforeMutation(*relation));
  return relation->Delete(tid);
}

Status TransitionManager::CompensateDelete(HeapRelation* relation, TupleId tid,
                                           const Tuple& before) {
  if (relation->Get(tid) == nullptr) {
    ARIEL_RETURN_NOT_OK(MaybeFlushBeforeMutation(*relation));
    ARIEL_RETURN_NOT_OK(relation->InsertAt(tid, before));
  }
  // else: the delete failed between logging and the storage op — the tuple
  // is still live with its pre-delete value; just heal the memories.
  Token plus;
  plus.kind = TokenKind::kPlus;
  plus.relation_id = relation->id();
  plus.tid = tid;
  plus.value = *relation->Get(tid);
  // no event specifier
  return Emit(std::move(plus));
}

Status TransitionManager::CompensateUpdate(HeapRelation* relation, TupleId tid,
                                           const Tuple& before) {
  const Tuple* current = relation->Get(tid);
  if (current == nullptr) {
    return Status::Internal("update undo finds tuple " + tid.ToString() +
                            " missing from \"" + relation->name() + "\"");
  }
  Tuple after = *current;
  ARIEL_RETURN_NOT_OK(MaybeFlushBeforeMutation(*relation));
  ARIEL_RETURN_NOT_OK(relation->Update(tid, before));
  Token minus;
  minus.kind = TokenKind::kMinus;
  minus.relation_id = relation->id();
  minus.tid = tid;
  minus.value = std::move(after);
  // no event specifier
  ARIEL_RETURN_NOT_OK(Emit(std::move(minus)));
  Token plus;
  plus.kind = TokenKind::kPlus;
  plus.relation_id = relation->id();
  plus.tid = tid;
  plus.value = *relation->Get(tid);
  // no event specifier
  return Emit(std::move(plus));
}

}  // namespace ariel
