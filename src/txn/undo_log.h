#ifndef ARIEL_TXN_UNDO_LOG_H_
#define ARIEL_TXN_UNDO_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/heap_relation.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace ariel {

/// What a single undo record reverses. The forward mutation is named; the
/// record carries whatever the *inverse* operation needs (§5's transition
/// semantics depend on restoring exact before-images under stable TIDs).
enum class UndoKind : uint8_t {
  kInsert,          // forward: tuple inserted   → undo: delete tid
  kDelete,          // forward: tuple deleted    → undo: InsertAt(tid, before)
  kUpdate,          // forward: tuple replaced   → undo: restore before at tid
  kCreateRelation,  // forward: create           → undo: drop by name
  kDropRelation,    // forward: destroy          → undo: re-adopt the detached
                    //                             HeapRelation (id preserved)
  kCreateIndex,     // forward: define index     → undo: drop the index
  kRuleFired,       // forward: ++times_fired    → undo: restore the count
  kPNodeState,      // forward: first P-node write in a frame
                    //                           → undo: restore the saved
                    //                             conflict set
};

const char* UndoKindToString(UndoKind kind);

/// Engine state a record restores verbatim, defined by the layer that owns
/// it: kPNodeState records carry a PNode::State.
struct UndoPayload {
  virtual ~UndoPayload() = default;
};

/// One reversal step. Move-only: kDropRelation records own the detached
/// HeapRelation until the log is cleared (commit) or replayed (abort).
struct UndoRecord {
  UndoKind kind = UndoKind::kInsert;
  uint32_t relation_id = 0;            // mutation + kCreateIndex records
  TupleId tid;                         // mutation records
  Tuple before;                        // kDelete / kUpdate before-image
  std::vector<std::string> attrs;      // kUpdate: the command's target list
  std::string name;                    // relation / index-attribute / rule
  std::unique_ptr<HeapRelation> detached;  // kDropRelation
  uint64_t prev_count = 0;             // kRuleFired: times_fired before
  /// kPNodeState: the innermost frame open when the P-node's rule was
  /// activated (0 = none). Rolling back that frame or an outer one skips
  /// the record: the conflict set did not exist when the frame opened.
  uint64_t attach_seq = 0;
  std::unique_ptr<UndoPayload> payload;  // kPNodeState

  std::string ToString() const;
};

/// An in-memory undo log: the ordered reversal plan for everything a
/// top-level command (and its recognize-act cascade) has mutated so far.
///
/// The log is *armed* only while its owning TransactionContext has at least
/// one open frame; Append* calls while disarmed are no-ops, so code that
/// drives the gateway layer directly (benches, network unit tests) pays one
/// predicted branch and accumulates nothing. Savepoints are plain marks
/// (`size()` at frame-open time); rollback replays records back-to-front
/// and truncates to the mark.
class UndoLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Sequence number of the innermost open frame (0 = none). A P-node
  /// journals itself once per frame: it compares the seq of its last save
  /// with this one.
  uint64_t frame_seq() const { return frame_seq_; }
  void set_frame_seq(uint64_t seq) { frame_seq_ = seq; }

  void AppendInsert(uint32_t relation_id, TupleId tid);
  void AppendDelete(uint32_t relation_id, TupleId tid, Tuple before);
  void AppendUpdate(uint32_t relation_id, TupleId tid, Tuple before,
                    std::vector<std::string> attrs);
  void AppendCreateRelation(std::string name);
  void AppendDropRelation(std::unique_ptr<HeapRelation> relation);
  void AppendCreateIndex(uint32_t relation_id, std::string attribute);
  void AppendRuleFired(std::string rule_name, uint64_t prev_count);
  void AppendPNodeState(std::string rule_name, uint64_t attach_seq,
                        std::unique_ptr<UndoPayload> state);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  UndoRecord& record(size_t i) { return records_[i]; }
  const UndoRecord& record(size_t i) const { return records_[i]; }

  /// Drops every record at index >= mark (they have been replayed, or the
  /// caller is discarding a record for a mutation that never applied).
  void TruncateTo(size_t mark);

  /// Drops every record (the outermost frame ended). A log that grew past
  /// kRetainedRecords — a large cascade — also returns its storage, so one
  /// big command does not pin that memory for the rest of the run.
  void Clear();
  static constexpr size_t kRetainedRecords = 1024;

 private:
  void Push(UndoRecord record);

  bool enabled_ = false;
  uint64_t frame_seq_ = 0;
  std::vector<UndoRecord> records_;
};

}  // namespace ariel

#endif  // ARIEL_TXN_UNDO_LOG_H_
