#include "network/join_index.h"

#include <algorithm>

#include "util/footprint.h"

namespace ariel {

namespace {
const std::vector<uint32_t> kNoSlots;
}  // namespace

void JoinKeyIndex::Configure(size_t num_vars, std::vector<JoinKeySpec> specs) {
  num_vars_ = num_vars;
  specs_.clear();
  for (JoinKeySpec& spec : specs) {
    SpecState state;
    state.spec = std::move(spec);
    specs_.push_back(std::move(state));
  }
}

void JoinKeyIndex::Disable(SpecState* state) {
  state->enabled = false;
  state->buckets.clear();
  state->slot_keys.clear();
}

void JoinKeyIndex::AppendSlot(size_t slot, const Row& row) {
  for (SpecState& state : specs_) {
    if (!state.enabled) continue;
    Result<Value> key = state.spec.entry_expr->Eval(row);
    if (!key.ok()) {
      // An unkeyable entry poisons the whole spec (a partial index would
      // under-report candidates): degrade this key to the scan path.
      Disable(&state);
      continue;
    }
    state.buckets[key.value()].push_back(static_cast<uint32_t>(slot));
    state.slot_keys.push_back(std::move(key).value());
  }
}

void JoinKeyIndex::RemoveSlot(size_t slot, size_t last_slot) {
  for (SpecState& state : specs_) {
    if (!state.enabled) continue;
    auto it = state.buckets.find(state.slot_keys[slot]);
    if (it != state.buckets.end()) {
      std::vector<uint32_t>& bucket = it->second;
      auto pos = std::find(bucket.begin(), bucket.end(),
                           static_cast<uint32_t>(slot));
      if (pos != bucket.end()) {
        *pos = bucket.back();
        bucket.pop_back();
      }
      if (bucket.empty()) state.buckets.erase(it);
    }
    if (slot != last_slot) {
      // The backing vector moved the entry at last_slot into slot.
      auto moved = state.buckets.find(state.slot_keys[last_slot]);
      if (moved != state.buckets.end()) {
        std::replace(moved->second.begin(), moved->second.end(),
                     static_cast<uint32_t>(last_slot),
                     static_cast<uint32_t>(slot));
      }
      state.slot_keys[slot] = std::move(state.slot_keys[last_slot]);
    }
    state.slot_keys.pop_back();
  }
}

void JoinKeyIndex::Clear() {
  for (SpecState& state : specs_) {
    state.buckets.clear();
    state.slot_keys.clear();
  }
}

size_t JoinKeyIndex::FootprintBytes() const {
  size_t bytes = specs_.capacity() * sizeof(SpecState);
  for (const SpecState& state : specs_) {
    bytes += HashMapFootprintBytes(state.buckets) +
             state.slot_keys.capacity() * sizeof(Value);
    for (const auto& [key, bucket] : state.buckets) {
      bytes += key.FootprintBytes() - sizeof(Value) +
               bucket.capacity() * sizeof(uint32_t);
    }
    for (const Value& key : state.slot_keys) {
      bytes += key.FootprintBytes() - sizeof(Value);
    }
  }
  return bytes;
}

int JoinKeyIndex::FindUsableSpec(const std::vector<bool>& bound) const {
  for (size_t i = 0; i < specs_.size(); ++i) {
    const SpecState& state = specs_[i];
    if (!state.enabled) continue;
    bool usable = true;
    for (size_t v : state.spec.probe_vars) {
      if (v >= bound.size() || !bound[v]) {
        usable = false;
        break;
      }
    }
    if (usable) return static_cast<int>(i);
  }
  return -1;
}

const std::vector<uint32_t>* JoinKeyIndex::Probe(size_t spec_idx,
                                                 const Row& row) const {
  const SpecState& state = specs_[spec_idx];
  if (!state.enabled) return nullptr;
  Result<Value> key = state.spec.probe_expr->Eval(row);
  if (!key.ok()) return nullptr;
  auto it = state.buckets.find(key.value());
  return it != state.buckets.end() ? &it->second : &kNoSlots;
}

void JoinKeyIndex::AuditBuckets(const SpecState& state, size_t num_slots,
                                std::vector<std::string>* problems) const {
  const std::string where = "hash index [" + state.spec.description + "]";
  // Bucket → slots direction: every member is in range and keyed to its
  // bucket (a planted/stale member fails here).
  for (const auto& [key, bucket] : state.buckets) {
    for (uint32_t s : bucket) {
      if (s >= num_slots) {
        problems->push_back(where + " bucket " + key.ToString() +
                            " references slot " + std::to_string(s) +
                            " beyond the memory's " +
                            std::to_string(num_slots) + " entries");
      } else if (!(state.slot_keys[s] == key)) {
        problems->push_back(where + " bucket " + key.ToString() +
                            " holds slot " + std::to_string(s) +
                            " whose entry keys to " +
                            state.slot_keys[s].ToString());
      }
    }
  }
  // Slots → bucket direction: every slot appears in its own bucket exactly
  // once (a double-planted slot fails here).
  for (size_t s = 0; s < num_slots; ++s) {
    size_t appearances = 0;
    auto it = state.buckets.find(state.slot_keys[s]);
    if (it != state.buckets.end()) {
      appearances = static_cast<size_t>(
          std::count(it->second.begin(), it->second.end(),
                     static_cast<uint32_t>(s)));
    }
    if (appearances != 1) {
      problems->push_back(where + " bucket " + state.slot_keys[s].ToString() +
                          " lists slot " + std::to_string(s) + " " +
                          std::to_string(appearances) +
                          " times (expected exactly once)");
    }
  }
}

void JoinKeyIndex::PlantBucketEntryForTesting(size_t spec_idx,
                                              const Value& key,
                                              uint32_t slot) {
  specs_[spec_idx].buckets[key].push_back(slot);
}

// ---------------------------------------------------------------------------
// BetaMemory
// ---------------------------------------------------------------------------

void BetaMemory::Configure(size_t num_vars, std::vector<JoinKeySpec> specs) {
  num_vars_ = num_vars;
  rows_.clear();
  postings_.assign(num_vars, {});
  index_.Configure(num_vars, std::move(specs));
}

void BetaMemory::Add(Row row) {
  const uint32_t slot = static_cast<uint32_t>(rows_.size());
  index_.AppendSlot(slot, row);
  for (size_t v = 0; v < num_vars_; ++v) {
    if (row.filled[v]) {
      postings_[v][EncodeTid(row.tids[v])].push_back(slot);
    }
  }
  rows_.push_back(std::move(row));
}

void BetaMemory::Clear() {
  rows_.clear();
  for (auto& map : postings_) map.clear();
  index_.Clear();
}

void BetaMemory::RemoveSlot(uint32_t slot) {
  const uint32_t last = static_cast<uint32_t>(rows_.size() - 1);
  index_.RemoveSlot(slot, last);
  // Detach the removed row from every posting list it appears in.
  const Row& dying = rows_[slot];
  for (size_t v = 0; v < num_vars_; ++v) {
    if (!dying.filled[v]) continue;
    auto it = postings_[v].find(EncodeTid(dying.tids[v]));
    if (it == postings_[v].end()) continue;
    std::vector<uint32_t>& list = it->second;
    auto pos = std::find(list.begin(), list.end(), slot);
    if (pos != list.end()) {
      *pos = list.back();
      list.pop_back();
    }
    if (list.empty()) postings_[v].erase(it);
  }
  if (slot != last) {
    rows_[slot] = std::move(rows_[last]);
    // Re-point the moved row's posting entries at its new slot.
    const Row& moved = rows_[slot];
    for (size_t v = 0; v < num_vars_; ++v) {
      if (!moved.filled[v]) continue;
      auto it = postings_[v].find(EncodeTid(moved.tids[v]));
      if (it != postings_[v].end()) {
        std::replace(it->second.begin(), it->second.end(), last, slot);
      }
    }
  }
  rows_.pop_back();
}

size_t BetaMemory::RemoveBindings(size_t var, TupleId tid) {
  if (var >= postings_.size()) return 0;
  auto it = postings_[var].find(EncodeTid(tid));
  if (it == postings_[var].end()) return 0;
  std::vector<uint32_t> slots = it->second;
  // Descending slot order keeps pending slot numbers valid: removing the
  // largest pending slot can only swap-move a slot above it.
  std::sort(slots.begin(), slots.end(), std::greater<uint32_t>());
  for (uint32_t slot : slots) {
    RemoveSlot(slot);
  }
  return slots.size();
}

std::vector<std::string> BetaMemory::AuditIndexes() const {
  std::vector<std::string> problems = index_.Audit(
      rows_.size(),
      [&](size_t slot, Row* scratch) { *scratch = rows_[slot]; });
  // Postings ↔ rows agreement, both directions.
  for (size_t v = 0; v < num_vars_; ++v) {
    for (const auto& [enc, list] : postings_[v]) {
      for (uint32_t s : list) {
        if (s >= rows_.size() || !rows_[s].filled[v] ||
            EncodeTid(rows_[s].tids[v]) != enc) {
          problems.push_back("postings for var " + std::to_string(v) +
                             " tid " + DecodeTid(enc).ToString() +
                             " reference slot " + std::to_string(s) +
                             " which does not bind that tuple");
        }
      }
    }
  }
  for (size_t s = 0; s < rows_.size(); ++s) {
    for (size_t v = 0; v < num_vars_; ++v) {
      if (!rows_[s].filled[v]) continue;
      auto it = postings_[v].find(EncodeTid(rows_[s].tids[v]));
      const bool listed =
          it != postings_[v].end() &&
          std::count(it->second.begin(), it->second.end(),
                     static_cast<uint32_t>(s)) == 1;
      if (!listed) {
        problems.push_back("slot " + std::to_string(s) +
                           " binds var " + std::to_string(v) + " tid " +
                           rows_[s].tids[v].ToString() +
                           " but the postings do not list it exactly once");
      }
    }
  }
  return problems;
}

}  // namespace ariel
