#include "storage/join_hash_index.h"

#include <algorithm>

#include "storage/heap_relation.h"
#include "util/footprint.h"

namespace ariel {

void JoinHashIndex::Insert(const Value& key, uint32_t slot) {
  std::vector<uint32_t>& bucket = buckets_[key];
  if (slot >= position_.size()) position_.resize(slot + 1);
  position_[slot] = static_cast<uint32_t>(bucket.size());
  bucket.push_back(slot);
}

void JoinHashIndex::Remove(const Value& key, uint32_t slot) {
  auto it = buckets_.find(key);
  if (it == buckets_.end()) return;
  std::vector<uint32_t>& bucket = it->second;
  size_t pos = slot < position_.size() ? position_[slot] : bucket.size();
  if (pos >= bucket.size() || bucket[pos] != slot) {
    // Only a planted (test-corrupted) bucket reaches this search.
    auto found = std::find(bucket.begin(), bucket.end(), slot);
    if (found == bucket.end()) return;
    pos = static_cast<size_t>(found - bucket.begin());
  }
  const uint32_t moved = bucket.back();
  bucket[pos] = moved;
  position_[moved] = static_cast<uint32_t>(pos);
  bucket.pop_back();
  if (bucket.empty()) buckets_.erase(it);
}

void JoinHashIndex::Rekey(const Value& from, const Value& to, uint32_t slot) {
  // Wholesale updates (a rollback restoring a tuple, say) mostly leave the
  // join attribute alone; keeping the bucket saves two hash lookups.
  if (from.type() == to.type() && from == to && from.Hash() == to.Hash()) {
    return;
  }
  Remove(from, slot);
  Insert(to, slot);
}

size_t JoinHashIndex::FootprintBytes() const {
  size_t bytes = HashMapFootprintBytes(buckets_) +
                 position_.capacity() * sizeof(uint32_t);
  for (const auto& [key, bucket] : buckets_) {
    bytes += key.FootprintBytes() - sizeof(Value) +
             bucket.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

std::vector<std::string> JoinHashIndex::Audit(
    const HeapRelation& relation) const {
  std::vector<std::string> problems;
  const std::string where = "join hash index on " + relation.name() + "." +
                            relation.schema().attribute(attribute_).name;
  std::vector<uint32_t> appearances(relation.slot_count(), 0);
  // Bucket → heap: every member is a live slot holding the bucket's key.
  for (const auto& [key, bucket] : buckets_) {
    for (size_t pos = 0; pos < bucket.size(); ++pos) {
      const uint32_t slot = bucket[pos];
      const Tuple* tuple = relation.Get(TupleId{relation.id(), slot});
      if (tuple == nullptr) {
        problems.push_back(where + " bucket " + key.ToString() +
                           " holds dead slot " + std::to_string(slot));
        continue;
      }
      ++appearances[slot];
      const Value& current = tuple->at(attribute_);
      if (!(current == key)) {
        problems.push_back(where + " bucket " + key.ToString() +
                           " holds slot " + std::to_string(slot) +
                           " whose tuple holds " + current.ToString());
      } else if (slot >= position_.size() || position_[slot] != pos) {
        problems.push_back(where + " records the wrong bucket position for "
                           "slot " + std::to_string(slot));
      }
    }
  }
  // Heap → bucket: every live tuple appears exactly once.
  for (uint32_t slot = 0; slot < appearances.size(); ++slot) {
    if (relation.Get(TupleId{relation.id(), slot}) == nullptr) continue;
    if (appearances[slot] != 1) {
      problems.push_back(where + " lists live slot " + std::to_string(slot) +
                         " " + std::to_string(appearances[slot]) +
                         " times (expected exactly once)");
    }
  }
  return problems;
}

void JoinIndexLease::Release() {
  if (relation_ != nullptr) relation_->ReleaseJoinIndex(index_);
  relation_ = nullptr;
  index_ = nullptr;
}

}  // namespace ariel
