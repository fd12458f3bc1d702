#ifndef ARIEL_STORAGE_HEAP_RELATION_H_
#define ARIEL_STORAGE_HEAP_RELATION_H_

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "storage/btree_index.h"
#include "storage/column_batch.h"
#include "storage/join_hash_index.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace ariel {

/// The tuple storage of one relation — the slot array plus its free list —
/// factored out so read snapshots can pin it by shared_ptr. The relation
/// owns the current store; a `ReadSnapshot` holds an extra reference.
/// Mutation goes copy-on-write: the first mutator after a pin clones the
/// store (DetachForWrite), so pinned readers keep an immutable image while
/// the relation moves on. In the steady state no snapshot is outstanding at
/// mutation time and the clone never happens.
///
/// Slots live in fixed-size blocks (a deque), so appending never moves the
/// slots already there: a growing relation never holds its slot array
/// twice while it is reallocated, and its memory rises with its row count
/// instead of jumping at each power of two.
struct TupleStore {
  std::deque<std::optional<Tuple>> slots;
  std::vector<uint32_t> free_slots;
  size_t live_count = 0;
};

/// An in-memory heap of tuples with stable slot-based tuple identifiers.
///
/// This is the engine's substitute for Ariel's EXODUS-backed storage: slots
/// survive unrelated inserts/deletes, so a TupleId captured in a P-node stays
/// valid until that specific tuple is deleted — exactly the property the
/// paper's replace'/delete' commands rely on (§5.1). Freed slots are recycled
/// via a free list.
///
/// Secondary B+tree indexes may be attached per attribute, and active rules
/// lease join hash indexes (JoinHashIndex); all mutators keep both
/// synchronized.
class HeapRelation {
 public:
  HeapRelation(uint32_t id, std::string name, Schema schema);

  HeapRelation(const HeapRelation&) = delete;
  HeapRelation& operator=(const HeapRelation&) = delete;

  uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Number of live tuples.
  size_t size() const { return store_->live_count; }
  bool empty() const { return store_->live_count == 0; }

  /// Inserts a tuple (must match the schema arity; type agreement is checked
  /// by the executor) and returns its id.
  [[nodiscard]] Result<TupleId> Insert(Tuple tuple);

  /// Re-inserts a tuple under a specific id (transaction rollback restoring
  /// a deleted tuple with its original TupleId, which P-nodes and primed
  /// commands captured). The slot must currently be free; undo replays in
  /// reverse mutation order, so the slot is normally on top of the LIFO
  /// free list and even the free-list order is restored exactly.
  [[nodiscard]] Status InsertAt(TupleId tid, Tuple tuple);

  /// Deletes the tuple at `tid`. Fails if the slot is empty.
  [[nodiscard]] Status Delete(TupleId tid);

  /// Replaces the tuple at `tid`. When `updated_attrs` is non-null and
  /// non-empty it is the replace command's target list: every attribute
  /// *not* listed must be unchanged (ExecutionError otherwise — the rule
  /// and non-rule mutation paths must agree on what a replace touched),
  /// and only indexes over listed attributes are re-keyed. A null or empty
  /// list means "unspecified": wholesale replace, every index re-keyed.
  [[nodiscard]] Status Update(TupleId tid, Tuple tuple,
                              const std::vector<std::string>* updated_attrs =
                                  nullptr);

  /// Returns the tuple at `tid`, or nullptr if the slot is empty/invalid.
  const Tuple* Get(TupleId tid) const;

  /// Invokes `fn` for every live tuple. `fn` must not mutate the relation.
  void ForEach(const std::function<void(TupleId, const Tuple&)>& fn) const;

  /// Materializes all live tuple ids (used by operators that mutate while
  /// scanning).
  std::vector<TupleId> AllTupleIds() const;

  /// Creates a B+tree index on `attribute`; idempotent.
  [[nodiscard]] Status CreateIndex(std::string_view attribute);

  /// Drops the B+tree index on `attribute` (undo of CreateIndex);
  /// idempotent.
  [[nodiscard]] Status DropIndex(std::string_view attribute);

  /// Returns the index on `attribute`, or nullptr.
  const BTreeIndex* GetIndex(std::string_view attribute) const;

  /// Names of B+tree-indexed attributes (for introspection). Join hash
  /// indexes are not listed: they are rule access paths, not schema.
  std::vector<std::string> IndexedAttributes() const;

  /// Leases the join hash index over `attribute`, building it from the live
  /// tuples on the first lease; the index is dropped when its last lease is
  /// released. Virtual α-memories lease one per equijoin attribute while
  /// their rule is active. Like the column view, the index is an access
  /// structure rather than relation contents, so it may be leased through
  /// a const relation; leases are taken and released only on the
  /// serialized engine thread, never while match tasks run.
  [[nodiscard]] Result<JoinIndexLease> AcquireJoinIndex(
      std::string_view attribute) const;

  /// Number of attributes with a leased join hash index.
  size_t num_join_indexes() const { return join_indexes_.size(); }

  /// Approximate heap bytes of all leased join hash indexes.
  size_t JoinIndexFootprintBytes() const;

  /// Cross-checks every join hash index against the live tuples (see
  /// JoinHashIndex::Audit). Empty = consistent.
  std::vector<std::string> AuditJoinIndexes() const;

  /// Test-only: plants `slot` into the join hash index bucket for `key` on
  /// `attribute` (which must be leased), simulating a missed update.
  void PlantJoinIndexEntryForTesting(std::string_view attribute,
                                     const Value& key, uint32_t slot);

  /// One past the highest slot ever used (live or free): the bound for
  /// slot-order scans through Get.
  size_t slot_count() const { return store_->slots.size(); }

  /// Checks that the tuple has the right arity and value types coercible to
  /// the schema (coercing in place: int literals into float columns).
  [[nodiscard]] Status CoerceToSchema(Tuple* tuple) const;

  /// Monotonic mutation counter: every Insert/InsertAt/Delete/Update bumps
  /// it (index creation does not — it never changes tuple contents).
  /// Columnar readers compare it against ColumnBatch::source_version to
  /// detect mid-scan mutation and fall back to the row path.
  uint64_t version() const { return version_; }

  /// Pins the current tuple store for a read snapshot: the returned
  /// shared_ptr keeps this exact slot image alive; the next mutation
  /// copy-on-writes a private store instead of editing the pinned one.
  /// Acquire only at quiescence (no mutation may be concurrent with the
  /// pin itself).
  std::shared_ptr<const TupleStore> PinStore() const;

  /// Column-major view of the live tuples, built lazily and cached until
  /// the next mutation. Thread-safe: the cache slot is mutex-guarded, so
  /// concurrent snapshot readers may materialize and share one batch.
  std::shared_ptr<const ColumnBatch> ColumnView() const;

  /// The cached view if one is currently materialized and fresh, else null.
  /// Never builds — the NetworkAuditor coherence check uses this so the
  /// audit can't vacuously validate a batch it just created itself.
  std::shared_ptr<const ColumnBatch> column_cache_if_built() const;

  /// Test-only: materializes the column view and flips one validity bit in
  /// it, planting exactly the incoherence the auditor must detect.
  void CorruptColumnCacheForTesting();

  /// Coherence check for the cached column view: empty when no cache is
  /// materialized or it agrees with the heap cell-for-cell, else a
  /// description of the first disagreement (NetworkAuditor wraps it as
  /// kColumnCacheIncoherent).
  std::string AuditColumnCache() const;

 private:
  friend class JoinIndexLease;

  void InvalidateColumnCache();

  /// Drops one lease on `index` (and the index with its last lease).
  void ReleaseJoinIndex(const JoinHashIndex* index) const;

  /// Adds / removes the tuple at `slot` in every join hash index.
  void IndexJoinSlot(uint32_t slot);
  void UnindexJoinSlot(uint32_t slot);
  /// Re-keys `slot` from `before` to `after` in every join hash index (only
  /// those over `listed` attributes when non-null).
  void RekeyJoinSlot(uint32_t slot, const Tuple& before, const Tuple& after,
                     const std::vector<bool>* listed);

  /// Clones the store when a snapshot still pins it; returns the (now
  /// private) store every mutator edits. Only called from the serialized
  /// write path, where no reader is concurrently acquiring pins, so the
  /// use_count probe is exact.
  TupleStore& DetachForWrite();

  uint32_t id_;
  std::string name_;
  Schema schema_;
  std::shared_ptr<TupleStore> store_;
  // attribute position -> index
  std::unordered_map<size_t, std::unique_ptr<BTreeIndex>> indexes_;
  uint64_t version_ = 0;
  // Lazily-built column view of the live tuples; reset by every mutation.
  // Guarded by column_mu_ so concurrent snapshot readers can share it.
  mutable std::mutex column_mu_;
  mutable std::shared_ptr<const ColumnBatch> column_cache_;
  struct LeasedJoinIndex {
    std::unique_ptr<JoinHashIndex> index;
    size_t leases = 0;
  };
  // Join hash indexes, one per leased attribute (see AcquireJoinIndex).
  mutable std::vector<LeasedJoinIndex> join_indexes_;
};

}  // namespace ariel

#endif  // ARIEL_STORAGE_HEAP_RELATION_H_
