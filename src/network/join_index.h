#ifndef ARIEL_NETWORK_JOIN_INDEX_H_
#define ARIEL_NETWORK_JOIN_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/expr.h"
#include "exec/row.h"
#include "storage/tuple.h"
#include "types/value.h"
#include "util/status.h"

namespace ariel {

/// One equijoin key usable to probe a join memory (a stored α-memory or a
/// Rete β-level), derived from an equality join conjunct `<entry side> =
/// <probe side>`:
///   - `entry_expr` is evaluated over a memory entry's own bindings when the
///     entry is stored, producing the bucket key;
///   - `probe_expr` is evaluated once over the partial row driving the join
///     (possible iff all of `probe_vars` are bound), replacing the
///     per-entry conjunct evaluation of the scan path.
/// Value::Hash is consistent with Value::operator==, which is exactly the
/// semantics of BinaryOp::kEq, so a bucket holds precisely the entries for
/// which the originating conjunct evaluates true.
struct JoinKeySpec {
  CompiledExprPtr entry_expr;
  CompiledExprPtr probe_expr;
  std::vector<size_t> probe_vars;
  std::string description;  // e.g. "d.dno = e.dno", for explain output
};

/// Value-keyed hash buckets over the slots of a backing entry vector. The
/// owner calls AppendSlot / RemoveSlot / Clear in lockstep with its vector
/// (RemoveSlot assumes swap-and-pop removal), so bucket contents stay a
/// partition of [0, size). Keys are precomputed per slot: removal and
/// swap-moves never re-evaluate the key expressions.
///
/// A spec whose entry key cannot be evaluated for some entry (e.g. a
/// hand-built entry with an empty tuple) is disabled permanently: the memory
/// degrades to the scan path for that key instead of failing token
/// processing.
class JoinKeyIndex {
 public:
  /// `num_vars` sizes the scratch rows used by Audit.
  void Configure(size_t num_vars, std::vector<JoinKeySpec> specs);

  bool has_specs() const { return !specs_.empty(); }
  size_t num_specs() const { return specs_.size(); }
  const JoinKeySpec& spec(size_t i) const { return specs_[i].spec; }
  bool spec_enabled(size_t i) const { return specs_[i].enabled; }

  /// Keys the new entry at `slot` (which must equal the backing vector's
  /// size before the push) under every enabled spec. `row` carries the
  /// entry's bindings for whatever slots the entry expressions read.
  void AppendSlot(size_t slot, const Row& row);

  /// The backing vector removed `slot` by swapping the entry at `last_slot`
  /// into it (no swap happened when slot == last_slot) and popping.
  void RemoveSlot(size_t slot, size_t last_slot);

  void Clear();

  /// Approximate heap bytes of the buckets and per-slot keys.
  size_t FootprintBytes() const;

  /// First enabled spec whose probe side is fully bound, or -1.
  int FindUsableSpec(const std::vector<bool>& bound) const;

  /// Evaluates spec `spec_idx`'s probe key over `row` and returns the
  /// matching slots (possibly empty). Returns nullptr when the probe is
  /// unavailable (spec disabled, key evaluation failed) — the caller must
  /// fall back to scanning.
  const std::vector<uint32_t>* Probe(size_t spec_idx, const Row& row) const;

  /// Recomputes every slot's key (the caller's `fill` binds slot `s`'s
  /// entry into the scratch row) and cross-checks the buckets both ways:
  /// each bucket member must be an in-range slot whose key matches its
  /// bucket, and each of the `num_slots` slots must appear in exactly one
  /// bucket exactly once. Returns human-readable problems (empty = ok).
  template <typename FillFn>
  std::vector<std::string> Audit(size_t num_slots, FillFn&& fill) const {
    std::vector<std::string> problems;
    for (size_t si = 0; si < specs_.size(); ++si) {
      const SpecState& state = specs_[si];
      if (!state.enabled) continue;
      if (state.slot_keys.size() != num_slots) {
        problems.push_back("hash index [" + state.spec.description + "] has " +
                           std::to_string(state.slot_keys.size()) +
                           " keyed slots but the memory holds " +
                           std::to_string(num_slots) + " entries");
        continue;
      }
      Row scratch(num_vars_);
      for (size_t s = 0; s < num_slots; ++s) {
        fill(s, &scratch);
        Result<Value> key = state.spec.entry_expr->Eval(scratch);
        if (!key.ok()) {
          problems.push_back("hash index [" + state.spec.description +
                             "] cannot re-key slot " + std::to_string(s) +
                             ": " + key.status().ToString());
          continue;
        }
        if (!(key.value() == state.slot_keys[s])) {
          problems.push_back("hash index [" + state.spec.description +
                             "] stores key " + state.slot_keys[s].ToString() +
                             " for slot " + std::to_string(s) +
                             " but the entry keys to " +
                             key.value().ToString());
        }
      }
      AuditBuckets(state, num_slots, &problems);
    }
    return problems;
  }

  /// Test-only corruption hook: plants `slot` into the bucket for `key`
  /// without touching the precomputed slot keys, simulating a missed
  /// maintenance update for the auditor corruption tests.
  void PlantBucketEntryForTesting(size_t spec_idx, const Value& key,
                                  uint32_t slot);

 private:
  struct SpecState {
    JoinKeySpec spec;
    bool enabled = true;
    std::unordered_map<Value, std::vector<uint32_t>, ValueHash> buckets;
    std::vector<Value> slot_keys;  // parallel to the backing entry vector
  };

  void Disable(SpecState* state);
  void AuditBuckets(const SpecState& state, size_t num_slots,
                    std::vector<std::string>* problems) const;

  size_t num_vars_ = 1;
  std::vector<SpecState> specs_;
};

/// One Rete β-level: partial-match rows plus (a) per-variable postings from
/// bound tuple ids to slots, making retraction O(affected) instead of a
/// level scan, and (b) a JoinKeyIndex over the partials so a token arriving
/// at the next variable probes by key instead of iterating the level.
/// Rows are removed by swap-and-pop; slot numbers are internal.
class BetaMemory {
 public:
  void Configure(size_t num_vars, std::vector<JoinKeySpec> specs);

  const std::vector<Row>& rows() const { return rows_; }
  const JoinKeyIndex& index() const { return index_; }
  JoinKeyIndex* mutable_index() { return &index_; }

  void Add(Row row);
  void Clear();

  /// Removes every partial binding (var, tid). Returns the number removed.
  size_t RemoveBindings(size_t var, TupleId tid);

  /// Keyed lookup: slots of the partials whose entry key under `spec_idx`
  /// matches `probe_row` (see JoinKeyIndex::Probe; nullptr = fall back to
  /// scanning rows()).
  const std::vector<uint32_t>* Probe(size_t spec_idx,
                                     const Row& probe_row) const {
    return index_.Probe(spec_idx, probe_row);
  }

  /// Cross-checks the postings and the hash index against rows().
  std::vector<std::string> AuditIndexes() const;

 private:
  void RemoveSlot(uint32_t slot);

  size_t num_vars_ = 0;
  std::vector<Row> rows_;
  /// postings_[var][EncodeTid(tid)] = slots of rows binding (var, tid).
  std::vector<std::unordered_map<int64_t, std::vector<uint32_t>>> postings_;
  JoinKeyIndex index_;
};

}  // namespace ariel

#endif  // ARIEL_NETWORK_JOIN_INDEX_H_
