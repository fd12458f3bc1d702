#include "txn/undo_log.h"

#include <utility>

#include "util/metrics.h"

namespace ariel {

const char* UndoKindToString(UndoKind kind) {
  switch (kind) {
    case UndoKind::kInsert: return "insert";
    case UndoKind::kDelete: return "delete";
    case UndoKind::kUpdate: return "update";
    case UndoKind::kCreateRelation: return "create-relation";
    case UndoKind::kDropRelation: return "drop-relation";
    case UndoKind::kCreateIndex: return "create-index";
    case UndoKind::kRuleFired: return "rule-fired";
    case UndoKind::kPNodeState: return "pnode-state";
  }
  return "?";
}

std::string UndoRecord::ToString() const {
  std::string out = UndoKindToString(kind);
  switch (kind) {
    case UndoKind::kInsert:
    case UndoKind::kDelete:
    case UndoKind::kUpdate:
      out += " " + tid.ToString();
      break;
    case UndoKind::kCreateRelation:
    case UndoKind::kRuleFired:
    case UndoKind::kPNodeState:
      out += " " + name;
      break;
    case UndoKind::kDropRelation:
      out += " " + (detached ? detached->name() : name);
      break;
    case UndoKind::kCreateIndex:
      out += " " + name + " on relation " + std::to_string(relation_id);
      break;
  }
  return out;
}

void UndoLog::Push(UndoRecord record) {
  records_.push_back(std::move(record));
  Metrics().txn_undo_records.Increment();
}

void UndoLog::AppendInsert(uint32_t relation_id, TupleId tid) {
  if (!enabled_) return;
  UndoRecord record;
  record.kind = UndoKind::kInsert;
  record.relation_id = relation_id;
  record.tid = tid;
  Push(std::move(record));
}

void UndoLog::AppendDelete(uint32_t relation_id, TupleId tid, Tuple before) {
  if (!enabled_) return;
  UndoRecord record;
  record.kind = UndoKind::kDelete;
  record.relation_id = relation_id;
  record.tid = tid;
  record.before = std::move(before);
  Push(std::move(record));
}

void UndoLog::AppendUpdate(uint32_t relation_id, TupleId tid, Tuple before,
                           std::vector<std::string> attrs) {
  if (!enabled_) return;
  UndoRecord record;
  record.kind = UndoKind::kUpdate;
  record.relation_id = relation_id;
  record.tid = tid;
  record.before = std::move(before);
  record.attrs = std::move(attrs);
  Push(std::move(record));
}

void UndoLog::AppendCreateRelation(std::string name) {
  if (!enabled_) return;
  UndoRecord record;
  record.kind = UndoKind::kCreateRelation;
  record.name = std::move(name);
  Push(std::move(record));
}

void UndoLog::AppendDropRelation(std::unique_ptr<HeapRelation> relation) {
  if (!enabled_) return;
  UndoRecord record;
  record.kind = UndoKind::kDropRelation;
  record.name = relation->name();
  record.detached = std::move(relation);
  Push(std::move(record));
}

void UndoLog::AppendCreateIndex(uint32_t relation_id, std::string attribute) {
  if (!enabled_) return;
  UndoRecord record;
  record.kind = UndoKind::kCreateIndex;
  record.relation_id = relation_id;
  record.name = std::move(attribute);
  Push(std::move(record));
}

void UndoLog::AppendRuleFired(std::string rule_name, uint64_t prev_count) {
  if (!enabled_) return;
  UndoRecord record;
  record.kind = UndoKind::kRuleFired;
  record.name = std::move(rule_name);
  record.prev_count = prev_count;
  Push(std::move(record));
}

void UndoLog::AppendPNodeState(std::string rule_name, uint64_t attach_seq,
                               std::unique_ptr<UndoPayload> state) {
  if (!enabled_) return;
  UndoRecord record;
  record.kind = UndoKind::kPNodeState;
  record.name = std::move(rule_name);
  record.attach_seq = attach_seq;
  record.payload = std::move(state);
  Push(std::move(record));
}

void UndoLog::TruncateTo(size_t mark) {
  if (mark < records_.size()) records_.resize(mark);
}

void UndoLog::Clear() {
  if (records_.capacity() > kRetainedRecords) {
    std::vector<UndoRecord>().swap(records_);
  } else {
    records_.clear();
  }
}

}  // namespace ariel
