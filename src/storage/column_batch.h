#ifndef ARIEL_STORAGE_COLUMN_BATCH_H_
#define ARIEL_STORAGE_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "storage/tuple.h"
#include "types/value.h"

namespace ariel {

/// Column-major snapshot of a set of rows sharing one Schema: one typed
/// vector per attribute plus a validity bitmap (schema columns hold either
/// their declared type or null — CoerceToSchema guarantees it), with string
/// payloads packed into a single arena so a column scan touches contiguous
/// memory instead of chasing per-Value std::string allocations.
///
/// A batch is immutable after Build(); consumers hold it by
/// shared_ptr<const ColumnBatch>. `source_version` records the owning
/// HeapRelation's mutation counter at build time so readers can detect a
/// stale view (see HeapRelation::ColumnView).
class ColumnBatch {
 public:
  struct Column {
    DataType type = DataType::kNull;
    /// Packed validity bitmap, bit i = row i is non-null. Size:
    /// (num_rows + 63) / 64 words.
    std::vector<uint64_t> valid;
    /// Exactly one payload vector is populated, per `type`; null rows carry
    /// a zero placeholder to keep row alignment.
    std::vector<int64_t> ints;      // kInt
    std::vector<double> floats;     // kFloat
    std::vector<uint8_t> bools;     // kBool
    std::vector<uint32_t> str_off;  // kString: offset into arena
    std::vector<uint32_t> str_len;  // kString: byte length

    bool IsValid(size_t row) const {
      return (valid[row >> 6] >> (row & 63)) & 1;
    }
  };

  size_t num_rows() const { return tids_.size(); }
  size_t num_cols() const { return cols_.size(); }
  const std::vector<TupleId>& tids() const { return tids_; }
  const Column& col(size_t c) const { return cols_[c]; }
  uint64_t source_version() const { return source_version_; }

  std::string_view StringAt(size_t c, size_t row) const {
    const Column& col = cols_[c];
    return std::string_view(arena_).substr(col.str_off[row],
                                           col.str_len[row]);
  }

  /// Reconstructs the row-path Value for one cell (audits, fallbacks, and
  /// tests; not the hot path).
  Value ValueAt(size_t c, size_t row) const;

  /// Reconstructs the full row as a Tuple (auditing only).
  Tuple TupleAt(size_t row) const;

  /// Approximate heap bytes of the columns, tids and string arena.
  size_t FootprintBytes() const;

  /// Test-only: flips the validity bit of cell (0, 0), making the cached
  /// view disagree with the heap. A non-null heap value reads back as null
  /// (and vice versa), which the NetworkAuditor coherence check must catch.
  void CorruptForTesting();

 private:
  friend class ColumnBatchBuilder;

  std::vector<TupleId> tids_;
  std::vector<Column> cols_;
  std::string arena_;
  uint64_t source_version_ = 0;
};

/// Accumulates rows (tid + Tuple) into a ColumnBatch. Used by
/// HeapRelation::ColumnView, the α-memory column view, and the selection
/// network's per-Δ-batch token batches — any producer whose rows share a
/// Schema.
class ColumnBatchBuilder {
 public:
  explicit ColumnBatchBuilder(const Schema& schema, size_t reserve_rows = 0);

  /// Appends one row. `tuple` must satisfy the schema (declared type or
  /// null per attribute) — the invariant every HeapRelation row already
  /// holds.
  void Append(TupleId tid, const Tuple& tuple);

  size_t num_rows() const { return batch_.tids_.size(); }

  /// Finalizes the batch; the builder is empty afterwards.
  std::shared_ptr<const ColumnBatch> Build(uint64_t source_version = 0);

 private:
  ColumnBatch batch_;
};

}  // namespace ariel

#endif  // ARIEL_STORAGE_COLUMN_BATCH_H_
