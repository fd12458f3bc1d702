#include "storage/heap_relation.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/string_util.h"

namespace ariel {

HeapRelation::HeapRelation(uint32_t id, std::string name, Schema schema)
    : id_(id),
      name_(ToLower(name)),
      schema_(std::move(schema)),
      store_(std::make_shared<TupleStore>()) {}

Status HeapRelation::CoerceToSchema(Tuple* tuple) const {
  if (tuple->size() != schema_.num_attributes()) {
    return Status::ExecutionError(
        "tuple arity " + std::to_string(tuple->size()) +
        " does not match schema of \"" + name_ + "\" " + schema_.ToString());
  }
  for (size_t i = 0; i < tuple->size(); ++i) {
    const Value& v = tuple->at(i);
    DataType want = schema_.attribute(i).type;
    if (v.is_null() || v.type() == want) continue;
    if (v.is_int() && want == DataType::kFloat) {
      tuple->at(i) = Value::Float(static_cast<double>(v.int_value()));
      continue;
    }
    return Status::ExecutionError(
        "value " + v.ToString() + " has type " + DataTypeToString(v.type()) +
        " but attribute \"" + schema_.attribute(i).name + "\" of \"" + name_ +
        "\" has type " + DataTypeToString(want));
  }
  return Status::OK();
}

TupleStore& HeapRelation::DetachForWrite() {
  if (store_.use_count() > 1) {
    store_ = std::make_shared<TupleStore>(*store_);
    Metrics().snapshot_cow_copies.Increment();
  }
  return *store_;
}

std::shared_ptr<const TupleStore> HeapRelation::PinStore() const {
  Metrics().snapshot_pins.Increment();
  return store_;
}

Result<TupleId> HeapRelation::Insert(Tuple tuple) {
  ARIEL_RETURN_NOT_OK(CoerceToSchema(&tuple));
  TupleStore& store = DetachForWrite();
  uint32_t slot;
  if (!store.free_slots.empty()) {
    slot = store.free_slots.back();
    store.free_slots.pop_back();
    store.slots[slot] = std::move(tuple);
  } else {
    slot = static_cast<uint32_t>(store.slots.size());
    store.slots.push_back(std::move(tuple));
  }
  ++store.live_count;
  InvalidateColumnCache();
  TupleId tid{id_, slot};
  for (auto& [attr_pos, index] : indexes_) {
    index->Insert(store.slots[slot]->at(attr_pos), tid);
  }
  IndexJoinSlot(slot);
  return tid;
}

Status HeapRelation::InsertAt(TupleId tid, Tuple tuple) {
  if (tid.relation_id != id_) {
    return Status::ExecutionError("InsertAt of " + tid.ToString() +
                                  " into foreign relation \"" + name_ + "\"");
  }
  ARIEL_RETURN_NOT_OK(CoerceToSchema(&tuple));
  TupleStore& store = DetachForWrite();
  if (tid.slot < store.slots.size()) {
    if (store.slots[tid.slot].has_value()) {
      return Status::ExecutionError("InsertAt into occupied slot " +
                                    tid.ToString() + " of \"" + name_ + "\"");
    }
    if (!store.free_slots.empty() && store.free_slots.back() == tid.slot) {
      store.free_slots.pop_back();
    } else {
      auto it = std::find(store.free_slots.begin(), store.free_slots.end(),
                          tid.slot);
      if (it == store.free_slots.end()) {
        return Status::Internal("empty slot " + tid.ToString() + " of \"" +
                                name_ + "\" is missing from the free list");
      }
      store.free_slots.erase(it);
    }
    store.slots[tid.slot] = std::move(tuple);
  } else {
    // Restoring past the end re-grows the heap; any intermediate slots the
    // growth creates become free (cannot happen during rollback, where the
    // slot existed at forward-mutation time, but keeps the call total).
    while (store.slots.size() < tid.slot) {
      store.free_slots.push_back(static_cast<uint32_t>(store.slots.size()));
      store.slots.emplace_back();
    }
    store.slots.push_back(std::move(tuple));
  }
  ++store.live_count;
  InvalidateColumnCache();
  for (auto& [attr_pos, index] : indexes_) {
    index->Insert(store.slots[tid.slot]->at(attr_pos), tid);
  }
  IndexJoinSlot(tid.slot);
  return Status::OK();
}

Status HeapRelation::Delete(TupleId tid) {
  if (tid.relation_id != id_ || tid.slot >= store_->slots.size() ||
      !store_->slots[tid.slot].has_value()) {
    return Status::ExecutionError("delete of nonexistent tuple " +
                                  tid.ToString() + " in \"" + name_ + "\"");
  }
  TupleStore& store = DetachForWrite();
  for (auto& [attr_pos, index] : indexes_) {
    index->Remove(store.slots[tid.slot]->at(attr_pos), tid);
  }
  UnindexJoinSlot(tid.slot);
  store.slots[tid.slot].reset();
  store.free_slots.push_back(tid.slot);
  --store.live_count;
  InvalidateColumnCache();
  return Status::OK();
}

Status HeapRelation::Update(TupleId tid, Tuple tuple,
                            const std::vector<std::string>* updated_attrs) {
  if (tid.relation_id != id_ || tid.slot >= store_->slots.size() ||
      !store_->slots[tid.slot].has_value()) {
    return Status::ExecutionError("update of nonexistent tuple " +
                                  tid.ToString() + " in \"" + name_ + "\"");
  }
  ARIEL_RETURN_NOT_OK(CoerceToSchema(&tuple));
  if (updated_attrs == nullptr || updated_attrs->empty()) {
    TupleStore& store = DetachForWrite();
    for (auto& [attr_pos, index] : indexes_) {
      index->Remove(store.slots[tid.slot]->at(attr_pos), tid);
    }
    RekeyJoinSlot(tid.slot, *store.slots[tid.slot], tuple, nullptr);
    store.slots[tid.slot] = std::move(tuple);
    for (auto& [attr_pos, index] : indexes_) {
      index->Insert(store.slots[tid.slot]->at(attr_pos), tid);
    }
    InvalidateColumnCache();
    return Status::OK();
  }
  std::vector<bool> listed(schema_.num_attributes(), false);
  for (const std::string& attr : *updated_attrs) {
    ARIEL_ASSIGN_OR_RETURN(size_t pos, schema_.Find(attr));
    listed[pos] = true;
  }
  {
    const Tuple& current = *store_->slots[tid.slot];
    for (size_t i = 0; i < schema_.num_attributes(); ++i) {
      if (listed[i] || current.at(i) == tuple.at(i)) continue;
      return Status::ExecutionError(
          "update of \"" + name_ + "\" changes attribute \"" +
          schema_.attribute(i).name + "\" (" + current.at(i).ToString() +
          " -> " + tuple.at(i).ToString() + ") not named in its target list");
    }
  }
  TupleStore& store = DetachForWrite();
  for (auto& [attr_pos, index] : indexes_) {
    if (listed[attr_pos]) {
      index->Remove(store.slots[tid.slot]->at(attr_pos), tid);
    }
  }
  RekeyJoinSlot(tid.slot, *store.slots[tid.slot], tuple, &listed);
  store.slots[tid.slot] = std::move(tuple);
  for (auto& [attr_pos, index] : indexes_) {
    if (listed[attr_pos]) {
      index->Insert(store.slots[tid.slot]->at(attr_pos), tid);
    }
  }
  InvalidateColumnCache();
  return Status::OK();
}

const Tuple* HeapRelation::Get(TupleId tid) const {
  const TupleStore& store = *store_;
  if (tid.relation_id != id_ || tid.slot >= store.slots.size() ||
      !store.slots[tid.slot].has_value()) {
    return nullptr;
  }
  return &*store.slots[tid.slot];
}

void HeapRelation::ForEach(
    const std::function<void(TupleId, const Tuple&)>& fn) const {
  const TupleStore& store = *store_;
  for (uint32_t slot = 0; slot < store.slots.size(); ++slot) {
    if (store.slots[slot].has_value()) {
      fn(TupleId{id_, slot}, *store.slots[slot]);
    }
  }
}

std::vector<TupleId> HeapRelation::AllTupleIds() const {
  const TupleStore& store = *store_;
  std::vector<TupleId> tids;
  tids.reserve(store.live_count);
  for (uint32_t slot = 0; slot < store.slots.size(); ++slot) {
    if (store.slots[slot].has_value()) tids.push_back(TupleId{id_, slot});
  }
  return tids;
}

Status HeapRelation::CreateIndex(std::string_view attribute) {
  ARIEL_ASSIGN_OR_RETURN(size_t pos, schema_.Find(attribute));
  if (indexes_.contains(pos)) return Status::OK();
  auto index = std::make_unique<BTreeIndex>();
  const TupleStore& store = *store_;
  for (uint32_t slot = 0; slot < store.slots.size(); ++slot) {
    if (store.slots[slot].has_value()) {
      index->Insert(store.slots[slot]->at(pos), TupleId{id_, slot});
    }
  }
  indexes_.emplace(pos, std::move(index));
  return Status::OK();
}

Status HeapRelation::DropIndex(std::string_view attribute) {
  ARIEL_ASSIGN_OR_RETURN(size_t pos, schema_.Find(attribute));
  indexes_.erase(pos);
  return Status::OK();
}

const BTreeIndex* HeapRelation::GetIndex(std::string_view attribute) const {
  int pos = schema_.IndexOf(attribute);
  if (pos < 0) return nullptr;
  auto it = indexes_.find(static_cast<size_t>(pos));
  return it == indexes_.end() ? nullptr : it->second.get();
}

void HeapRelation::InvalidateColumnCache() {
  ++version_;
  std::lock_guard<std::mutex> lock(column_mu_);
  if (column_cache_ != nullptr) {
    column_cache_.reset();
    Metrics().columnar_batch_invalidations.Increment();
  }
}

std::shared_ptr<const ColumnBatch> HeapRelation::ColumnView() const {
  std::lock_guard<std::mutex> lock(column_mu_);
  if (column_cache_ != nullptr &&
      column_cache_->source_version() == version_) {
    return column_cache_;
  }
  const TupleStore& store = *store_;
  ColumnBatchBuilder builder(schema_, store.live_count);
  for (uint32_t slot = 0; slot < store.slots.size(); ++slot) {
    if (store.slots[slot].has_value()) {
      builder.Append(TupleId{id_, slot}, *store.slots[slot]);
    }
  }
  column_cache_ = builder.Build(version_);
  Metrics().columnar_batches_built.Increment();
  return column_cache_;
}

std::shared_ptr<const ColumnBatch> HeapRelation::column_cache_if_built()
    const {
  std::lock_guard<std::mutex> lock(column_mu_);
  if (column_cache_ != nullptr &&
      column_cache_->source_version() == version_) {
    return column_cache_;
  }
  return nullptr;
}

void HeapRelation::CorruptColumnCacheForTesting() {
  std::shared_ptr<const ColumnBatch> batch = ColumnView();
  // The cache is logically immutable to readers; the test hook reaches
  // through that on purpose to plant a heap/batch disagreement.
  const_cast<ColumnBatch*>(batch.get())->CorruptForTesting();
}

std::string HeapRelation::AuditColumnCache() const {
  std::shared_ptr<const ColumnBatch> cache = column_cache_if_built();
  if (cache == nullptr) {
    // No cache, or a stale one: legal either way (ColumnView rebuilds on
    // version mismatch); only a version-matched batch claims to mirror the
    // heap.
    return "";
  }
  const ColumnBatch& batch = *cache;
  if (batch.num_rows() != store_->live_count) {
    return "column cache has " + std::to_string(batch.num_rows()) +
           " row(s) but the heap holds " + std::to_string(store_->live_count);
  }
  for (size_t row = 0; row < batch.num_rows(); ++row) {
    const TupleId tid = batch.tids()[row];
    const Tuple* tuple = Get(tid);
    if (tuple == nullptr) {
      return "column cache row " + std::to_string(row) + " references dead " +
             tid.ToString();
    }
    for (size_t c = 0; c < schema_.num_attributes(); ++c) {
      Value cached = batch.ValueAt(c, row);
      if (cached.Compare(tuple->at(c)) != 0) {
        return "column cache cell (" + schema_.attribute(c).name + ", " +
               tid.ToString() + ") holds " + cached.ToString() +
               " but the heap holds " + tuple->at(c).ToString();
      }
    }
  }
  return "";
}

void HeapRelation::IndexJoinSlot(uint32_t slot) {
  for (LeasedJoinIndex& leased : join_indexes_) {
    leased.index->Insert(store_->slots[slot]->at(leased.index->attribute()),
                         slot);
  }
}

void HeapRelation::UnindexJoinSlot(uint32_t slot) {
  for (LeasedJoinIndex& leased : join_indexes_) {
    leased.index->Remove(store_->slots[slot]->at(leased.index->attribute()),
                         slot);
  }
}

void HeapRelation::RekeyJoinSlot(uint32_t slot, const Tuple& before,
                                 const Tuple& after,
                                 const std::vector<bool>* listed) {
  for (LeasedJoinIndex& leased : join_indexes_) {
    const size_t attr = leased.index->attribute();
    if (listed != nullptr && !(*listed)[attr]) continue;
    leased.index->Rekey(before.at(attr), after.at(attr), slot);
  }
}

Result<JoinIndexLease> HeapRelation::AcquireJoinIndex(
    std::string_view attribute) const {
  ARIEL_ASSIGN_OR_RETURN(size_t pos, schema_.Find(attribute));
  for (LeasedJoinIndex& leased : join_indexes_) {
    if (leased.index->attribute() == pos) {
      ++leased.leases;
      return JoinIndexLease(this, leased.index.get());
    }
  }
  auto index = std::make_unique<JoinHashIndex>(pos);
  const TupleStore& store = *store_;
  for (uint32_t slot = 0; slot < store.slots.size(); ++slot) {
    if (store.slots[slot].has_value()) {
      index->Insert(store.slots[slot]->at(pos), slot);
    }
  }
  join_indexes_.push_back(LeasedJoinIndex{std::move(index), 1});
  return JoinIndexLease(this, join_indexes_.back().index.get());
}

void HeapRelation::ReleaseJoinIndex(const JoinHashIndex* index) const {
  for (auto it = join_indexes_.begin(); it != join_indexes_.end(); ++it) {
    if (it->index.get() != index) continue;
    if (--it->leases == 0) join_indexes_.erase(it);
    return;
  }
}

size_t HeapRelation::JoinIndexFootprintBytes() const {
  size_t bytes = 0;
  for (const LeasedJoinIndex& leased : join_indexes_) {
    bytes += leased.index->FootprintBytes();
  }
  return bytes;
}

std::vector<std::string> HeapRelation::AuditJoinIndexes() const {
  std::vector<std::string> problems;
  for (const LeasedJoinIndex& leased : join_indexes_) {
    for (std::string& p : leased.index->Audit(*this)) {
      problems.push_back(std::move(p));
    }
  }
  return problems;
}

void HeapRelation::PlantJoinIndexEntryForTesting(std::string_view attribute,
                                                 const Value& key,
                                                 uint32_t slot) {
  const int pos = schema_.IndexOf(attribute);
  for (LeasedJoinIndex& leased : join_indexes_) {
    if (static_cast<int>(leased.index->attribute()) == pos) {
      leased.index->PlantBucketEntryForTesting(key, slot);
    }
  }
}

std::vector<std::string> HeapRelation::IndexedAttributes() const {
  std::vector<std::string> names;
  for (const auto& [pos, index] : indexes_) {
    names.push_back(schema_.attribute(pos).name);
  }
  return names;
}

}  // namespace ariel
