#include "network/pnode.h"

#include "util/metrics.h"

namespace ariel {

PNode::PNode(uint32_t relation_id, const std::string& rule_name,
             std::vector<PnodeVar> vars)
    : vars_(std::move(vars)), rule_name_(rule_name) {
  Schema schema;
  for (const PnodeVar& v : vars_) {
    var_offset_.push_back(schema.num_attributes());
    schema.AddAttribute(Attribute{v.name + ".tid", DataType::kInt});
    for (const Attribute& attr : v.schema->attributes()) {
      schema.AddAttribute(Attribute{v.name + "." + attr.name, attr.type});
    }
    if (v.has_previous) {
      for (const Attribute& attr : v.schema->attributes()) {
        schema.AddAttribute(
            Attribute{v.name + ".previous." + attr.name, attr.type});
      }
    }
  }
  relation_ = std::make_unique<HeapRelation>(
      relation_id, "pnode$" + rule_name, std::move(schema));
  postings_.resize(vars_.size());
}

Status PNode::Insert(const Row& row, MatchStamp stamp) {
  if (row.num_vars() != vars_.size()) {
    return Status::Internal("P-node row arity mismatch");
  }
  CaptureJournal();
  Tuple out;
  for (size_t v = 0; v < vars_.size(); ++v) {
    if (!row.filled[v]) {
      return Status::Internal("P-node insert with unbound variable \"" +
                              vars_[v].name + "\"");
    }
    out.Append(Value::Int(EncodeTid(row.tids[v])));
    const size_t arity = vars_[v].schema->num_attributes();
    if (row.current[v].size() != arity) {
      return Status::Internal("P-node value arity mismatch for \"" +
                              vars_[v].name + "\"");
    }
    for (size_t i = 0; i < arity; ++i) out.Append(row.current[v].at(i));
    if (vars_[v].has_previous) {
      if (row.previous[v].size() != arity) {
        return Status::Internal("P-node previous arity mismatch for \"" +
                                vars_[v].name + "\"");
      }
      for (size_t i = 0; i < arity; ++i) out.Append(row.previous[v].at(i));
    }
  }
  ARIEL_ASSIGN_OR_RETURN(TupleId rid, relation_->Insert(std::move(out)));
  for (size_t v = 0; v < vars_.size(); ++v) {
    postings_[v][EncodeTid(row.tids[v])].push_back(rid);
  }
  last_insert_stamp_ = stamp;
  Metrics().pnode_bindings_created.Increment();
  ++lifetime_insertions_;
  return Status::OK();
}

size_t PNode::RemoveByTid(size_t var_ordinal, TupleId tid) {
  const size_t tid_col = var_offset_[var_ordinal];
  const int64_t encoded = EncodeTid(tid);
  size_t removed = 0;
  auto it = postings_[var_ordinal].find(encoded);
  if (it != postings_[var_ordinal].end()) {
    std::vector<TupleId> rids = std::move(it->second);
    postings_[var_ordinal].erase(it);
    for (TupleId rid : rids) {
      // A posting can be stale (row already removed via another variable,
      // slot recycled by a later insert): act only when the slot still
      // holds a row binding (var, tid) — which is by definition a row
      // RemoveByTid must delete.
      const Tuple* t = relation_->Get(rid);
      if (t != nullptr && t->at(tid_col).int_value() == encoded) {
        CaptureJournal();
        ARIEL_IGNORE_STATUS(relation_->Delete(rid));  // id just checked
        ++removed;
      }
    }
  }
  Metrics().pnode_bindings_removed.Increment(removed);
  return removed;
}

void PNode::ClearPostings() {
  for (auto& map : postings_) map.clear();
}

void PNode::DeleteRows() {
  for (TupleId row_id : relation_->AllTupleIds()) {
    ARIEL_IGNORE_STATUS(relation_->Delete(row_id));  // id just enumerated
  }
  ClearPostings();
}

void PNode::Clear() {
  if (!empty()) Journal();
  DeleteRows();
}

std::unique_ptr<HeapRelation> PNode::MakeFiringBuffer() const {
  return std::make_unique<HeapRelation>(
      relation_->id(), relation_->name() + "$firing", relation_->schema());
}

void PNode::DrainInto(HeapRelation* dest) {
  if (!empty()) Journal();
  size_t drained = 0;
  for (TupleId row_id : relation_->AllTupleIds()) {
    const Tuple* t = relation_->Get(row_id);
    if (t != nullptr) {
      ARIEL_IGNORE_STATUS(dest->Insert(*t).status());  // same schema
      ARIEL_IGNORE_STATUS(relation_->Delete(row_id));  // id just enumerated
      ++drained;
    }
  }
  ClearPostings();
  Metrics().pnode_bindings_consumed.Increment(drained);
}

PNode::State PNode::CaptureState() const {
  State state;
  for (TupleId row_id : relation_->AllTupleIds()) {
    const Tuple* t = relation_->Get(row_id);
    if (t != nullptr) state.rows.emplace_back(row_id, *t);
  }
  state.last_insert_stamp = last_insert_stamp_;
  state.lifetime_insertions = lifetime_insertions_;
  return state;
}

Status PNode::RestoreState(const State& state) {
  DeleteRows();
  for (const auto& [rid, row] : state.rows) {
    // InsertAt keeps each row at its captured slot, so P-node row ids (and
    // hence scan order) survive the rollback exactly.
    ARIEL_RETURN_NOT_OK(relation_->InsertAt(rid, Tuple(row)));
    for (size_t v = 0; v < vars_.size(); ++v) {
      postings_[v][row.at(var_offset_[v]).int_value()].push_back(rid);
    }
  }
  last_insert_stamp_ = state.last_insert_stamp;
  lifetime_insertions_ = state.lifetime_insertions;
  return Status::OK();
}

void PNode::AttachJournal(UndoLog* undo) {
  undo_ = undo;
  saved_seq_ = attach_seq_ = undo->frame_seq();
}

void PNode::CaptureJournal() {
  if (undo_ == nullptr || !undo_->enabled() ||
      saved_seq_ == undo_->frame_seq()) {
    return;
  }
  saved_seq_ = undo_->frame_seq();
  unpublished_ = std::make_unique<State>(CaptureState());
  Metrics().txn_pnode_saves.Increment();
}

void PNode::PublishJournal() {
  if (unpublished_ == nullptr) return;
  undo_->AppendPNodeState(rule_name_, attach_seq_, std::move(unpublished_));
}

void PNode::Journal() {
  CaptureJournal();
  PublishJournal();
}

Row PNode::ToRow(const Tuple& pnode_tuple) const {
  Row row(vars_.size());
  for (size_t v = 0; v < vars_.size(); ++v) {
    size_t offset = var_offset_[v];
    const size_t arity = vars_[v].schema->num_attributes();
    TupleId tid = DecodeTid(pnode_tuple.at(offset).int_value());
    Tuple value;
    for (size_t i = 0; i < arity; ++i) {
      value.Append(pnode_tuple.at(offset + 1 + i));
    }
    row.Set(v, std::move(value), tid);
    if (vars_[v].has_previous) {
      Tuple prev;
      for (size_t i = 0; i < arity; ++i) {
        prev.Append(pnode_tuple.at(offset + 1 + arity + i));
      }
      row.SetPrevious(v, std::move(prev));
    }
  }
  return row;
}

}  // namespace ariel
