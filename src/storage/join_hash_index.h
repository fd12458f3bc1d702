#ifndef ARIEL_STORAGE_JOIN_HASH_INDEX_H_
#define ARIEL_STORAGE_JOIN_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "types/value.h"

namespace ariel {

class HeapRelation;

/// Value-keyed hash buckets over one attribute of a heap relation: for each
/// distinct value, the slots of the live tuples holding it. Virtual
/// α-memories probe it with a bound equijoin key instead of scanning the
/// relation (§4.2: the base-relation scan of a virtual memory "can be done
/// with any scan algorithm").
///
/// The owning HeapRelation calls Insert / Remove in lockstep with its slot
/// array. Each costs O(1) whatever the bucket size: every slot remembers
/// its position inside its bucket, so removal swaps the bucket's last slot
/// into the hole. Keys use Value::Hash / Value::operator==, the semantics
/// of BinaryOp::kEq (see JoinKeySpec), so a bucket holds exactly the tuples
/// for which the originating equality conjunct holds.
class JoinHashIndex {
 public:
  explicit JoinHashIndex(size_t attribute) : attribute_(attribute) {}

  JoinHashIndex(const JoinHashIndex&) = delete;
  JoinHashIndex& operator=(const JoinHashIndex&) = delete;

  /// Attribute position within the relation's schema.
  size_t attribute() const { return attribute_; }

  /// Slots whose tuple holds `key`, or nullptr when no live tuple does.
  const std::vector<uint32_t>* Find(const Value& key) const {
    auto it = buckets_.find(key);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  size_t num_keys() const { return buckets_.size(); }

  void Insert(const Value& key, uint32_t slot);
  /// Removes `slot` from the bucket of `key` (the tuple's value before the
  /// mutation). The slot must be indexed under that key.
  void Remove(const Value& key, uint32_t slot);
  /// Moves `slot` from the bucket of `from` to that of `to`; a no-op when
  /// the key is unchanged (same type, equal and equally hashed).
  void Rekey(const Value& from, const Value& to, uint32_t slot);

  /// Approximate heap bytes: bucket table, keys, slot vectors, positions.
  size_t FootprintBytes() const;

  /// Cross-checks the buckets against `relation`: each live tuple sits in
  /// exactly one bucket, under its current value, and no bucket holds a
  /// dead slot. Returns human-readable problems (empty = consistent).
  std::vector<std::string> Audit(const HeapRelation& relation) const;

  /// Test-only corruption hook: appends `slot` to the bucket for `key`
  /// without recording its position, simulating a missed maintenance
  /// update for the auditor corruption tests.
  void PlantBucketEntryForTesting(const Value& key, uint32_t slot) {
    buckets_[key].push_back(slot);
  }

 private:
  size_t attribute_;
  std::unordered_map<Value, std::vector<uint32_t>, ValueHash> buckets_;
  /// position_[slot] = index of `slot` inside its bucket (meaningful only
  /// for live slots).
  std::vector<uint32_t> position_;
};

/// A counted reference to one of a relation's join hash indexes (see
/// HeapRelation::AcquireJoinIndex). Move-only; releasing the last lease on
/// an attribute drops that index.
class JoinIndexLease {
 public:
  JoinIndexLease() = default;
  ~JoinIndexLease() { Release(); }

  JoinIndexLease(JoinIndexLease&& other) noexcept
      : relation_(other.relation_), index_(other.index_) {
    other.relation_ = nullptr;
    other.index_ = nullptr;
  }
  JoinIndexLease& operator=(JoinIndexLease&& other) noexcept {
    if (this != &other) {
      Release();
      relation_ = other.relation_;
      index_ = other.index_;
      other.relation_ = nullptr;
      other.index_ = nullptr;
    }
    return *this;
  }
  JoinIndexLease(const JoinIndexLease&) = delete;
  JoinIndexLease& operator=(const JoinIndexLease&) = delete;

  const JoinHashIndex* get() const { return index_; }
  const JoinHashIndex* operator->() const { return index_; }

 private:
  friend class HeapRelation;
  JoinIndexLease(const HeapRelation* relation, const JoinHashIndex* index)
      : relation_(relation), index_(index) {}

  void Release();

  const HeapRelation* relation_ = nullptr;
  const JoinHashIndex* index_ = nullptr;
};

}  // namespace ariel

#endif  // ARIEL_STORAGE_JOIN_HASH_INDEX_H_
