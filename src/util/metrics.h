#ifndef ARIEL_UTIL_METRICS_H_
#define ARIEL_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace ariel {

// ---------------------------------------------------------------------------
// Engine-wide observability (ISSUE 2 tentpole).
//
// Hot paths (token propagation, selection stabs, joins) update counters
// through pre-registered handles: a handle is one pointer to an atomic cell,
// and an update is one relaxed fetch_add — no string lookup, no lock, no
// allocation. Registration (cold: engine construction, tests) takes a mutex
// and is idempotent per name, so two registrations of "tokens_emitted"
// share a cell.
//
// Compiling with ARIEL_NO_METRICS (CMake: -DARIEL_METRICS=OFF) turns every
// handle update into a no-op while keeping the whole API compilable; the
// ≤5% instrumentation-overhead budget is measured against that build.
// ---------------------------------------------------------------------------

namespace metrics_internal {

struct Baseline;  // epoch captured by MetricsRegistry::Reset (metrics.cc)

struct CounterCell {
  std::string name;
  size_t index = 0;  // registration ordinal; key into the reset baseline
  std::atomic<uint64_t> value{0};
};

struct GaugeCell {
  std::string name;
  size_t index = 0;
  std::atomic<int64_t> value{0};
};

/// Histogram over uint64 samples (typically nanoseconds) with fixed
/// log2-scale buckets: bucket b counts samples whose bit width is b, i.e.
/// bucket 0 holds {0}, bucket b holds [2^(b-1), 2^b) for b >= 1, and the
/// last bucket absorbs everything wider.
inline constexpr size_t kHistogramBuckets = 40;

struct HistogramCell {
  std::string name;
  size_t index = 0;
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
};

inline constexpr size_t BucketFor(uint64_t v) {
  const size_t width = static_cast<size_t>(std::bit_width(v));
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

}  // namespace metrics_internal

/// Monotonic counter handle. Copyable, trivially destructible; the cell it
/// points into lives as long as its registry. Reads subtract the registry's
/// current reset baseline (see MetricsRegistry::Reset), so `value()` reports
/// the count since the last reset while the cell itself stays monotonic.
class Counter {
 public:
  Counter() = default;

  void Increment(uint64_t n = 1) const {
#ifndef ARIEL_NO_METRICS
    if (cell_ != nullptr) {
      cell_->value.fetch_add(n, std::memory_order_relaxed);
    }
#else
    (void)n;
#endif
  }

  uint64_t value() const;

 private:
  friend class MetricsRegistry;
  Counter(metrics_internal::CounterCell* cell,
          const std::atomic<const metrics_internal::Baseline*>* baseline)
      : cell_(cell), baseline_(baseline) {}
  metrics_internal::CounterCell* cell_ = nullptr;
  const std::atomic<const metrics_internal::Baseline*>* baseline_ = nullptr;
};

/// Last-write-wins gauge handle.
class Gauge {
 public:
  Gauge() = default;

  /// Last-write-wins: value() reads `v` afterwards regardless of any reset
  /// baseline (Set re-anchors against the current epoch — out-of-line, it
  /// needs the Baseline layout; Set sites are cold: connection lifecycle,
  /// transaction frames).
  void Set(int64_t v) const;

  void Add(int64_t delta) const {
#ifndef ARIEL_NO_METRICS
    if (cell_ != nullptr) {
      cell_->value.fetch_add(delta, std::memory_order_relaxed);
    }
#else
    (void)delta;
#endif
  }

  int64_t value() const;

 private:
  friend class MetricsRegistry;
  Gauge(metrics_internal::GaugeCell* cell,
        const std::atomic<const metrics_internal::Baseline*>* baseline)
      : cell_(cell), baseline_(baseline) {}
  metrics_internal::GaugeCell* cell_ = nullptr;
  const std::atomic<const metrics_internal::Baseline*>* baseline_ = nullptr;
};

/// Snapshot of one histogram (see HistogramCell for bucket semantics).
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, metrics_internal::kHistogramBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
  /// Upper bound of the log2 bucket containing the q-quantile (0 < q <= 1).
  uint64_t ApproxQuantile(double q) const;
};

/// Log2-bucket histogram handle, sized for nanosecond timings.
class Histogram {
 public:
  Histogram() = default;

  void Observe(uint64_t v) const {
#ifndef ARIEL_NO_METRICS
    if (cell_ != nullptr) {
      cell_->count.fetch_add(1, std::memory_order_relaxed);
      cell_->sum.fetch_add(v, std::memory_order_relaxed);
      cell_->buckets[metrics_internal::BucketFor(v)].fetch_add(
          1, std::memory_order_relaxed);
    }
#else
    (void)v;
#endif
  }

  HistogramData Snapshot() const;

 private:
  friend class MetricsRegistry;
  Histogram(metrics_internal::HistogramCell* cell,
            const std::atomic<const metrics_internal::Baseline*>* baseline)
      : cell_(cell), baseline_(baseline) {}
  metrics_internal::HistogramCell* cell_ = nullptr;
  const std::atomic<const metrics_internal::Baseline*>* baseline_ = nullptr;
};

/// Owns the metric cells. Cells live in deques so registration never moves
/// them — outstanding handles stay valid for the registry's lifetime.
///
/// Reset() is a single atomic epoch swap, not a cell-by-cell zeroing: the
/// cells stay monotonic forever, and a reset publishes one immutable
/// `Baseline` (the values captured at reset time) through an atomic pointer.
/// Every read subtracts the baseline. A concurrent reader therefore sees
/// either the whole old epoch or the whole new one — never a half-reset
/// registry — and in-flight Increments are never lost. Handles stay valid.
class MetricsRegistry {
 public:
  // Out-of-line: Baseline is incomplete here, and both members must be
  // instantiated where it is complete (the old-baselines deque owns them).
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter RegisterCounter(const std::string& name);
  Gauge RegisterGauge(const std::string& name);
  Histogram RegisterHistogram(const std::string& name);

  /// Starts a new epoch: every counter, gauge, and histogram reads as zero
  /// afterwards. One release-store of the baseline pointer; safe against
  /// concurrent readers and writers.
  void Reset();

  /// Name-sorted snapshots for rendering and bench JSON.
  std::vector<std::pair<std::string, uint64_t>> Counters() const;
  std::vector<std::pair<std::string, int64_t>> Gauges() const;
  std::vector<std::pair<std::string, HistogramData>> Histograms() const;

  /// Human-readable dump: nonzero counters and gauges, populated histograms
  /// (count / mean / approx p50 / p99). Enumerated under one lock hold, so
  /// a concurrent Reset can't split the report across epochs.
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, uint64_t>> CountersLocked() const;
  std::vector<std::pair<std::string, int64_t>> GaugesLocked() const;
  std::vector<std::pair<std::string, HistogramData>> HistogramsLocked() const;

  mutable std::mutex mu_;  // registration + enumeration only; never hot
  std::deque<metrics_internal::CounterCell> counters_;
  std::deque<metrics_internal::GaugeCell> gauges_;
  std::deque<metrics_internal::HistogramCell> histograms_;
  std::unordered_map<std::string, metrics_internal::CounterCell*>
      counter_index_;
  std::unordered_map<std::string, metrics_internal::GaugeCell*> gauge_index_;
  std::unordered_map<std::string, metrics_internal::HistogramCell*>
      histogram_index_;
  /// Current reset epoch; null before the first Reset. Old baselines are
  /// retired into `old_baselines_`, never freed, so a reader that loaded
  /// the pointer just before a reset keeps dereferencing valid memory.
  std::atomic<const metrics_internal::Baseline*> baseline_{nullptr};
  std::deque<std::unique_ptr<const metrics_internal::Baseline>>
      old_baselines_;
};

/// Observes the scope's wall time (in nanoseconds) into a histogram.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram histogram) : histogram_(histogram) {
#ifndef ARIEL_NO_METRICS
    start_ = std::chrono::steady_clock::now();
#endif
  }
  ~ScopedTimer() {
#ifndef ARIEL_NO_METRICS
    histogram_.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
#endif
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram histogram_;
#ifndef ARIEL_NO_METRICS
  std::chrono::steady_clock::time_point start_;
#endif
};

/// One recorded rule firing. The trigger is pre-rendered by the caller
/// (the rule monitor fires rarely compared to token traffic, so a string
/// here costs nothing that matters).
struct FiringTraceEntry {
  uint64_t seq = 0;  // assigned by the ring; 1-based, monotonic
  std::string rule;
  std::string trigger;     // e.g. "Δ+ emp tid 3:17"
  uint64_t transition_id = 0;
  double wall_ms = 0;
  uint64_t instantiations = 0;  // bindings consumed by this firing

  std::string ToString() const;
};

/// Fixed-capacity ring of the most recent rule firings (§2.2's recognize-act
/// cycle as first-class, inspectable events). Mutex-guarded: firings execute
/// whole action commands, so the lock is noise.
class FiringTraceRing {
 public:
  explicit FiringTraceRing(size_t capacity = 256) : capacity_(capacity) {}

  void Push(FiringTraceEntry entry);

  /// The most recent `n` entries, oldest first.
  std::vector<FiringTraceEntry> Recent(size_t n) const;

  /// Total firings recorded since the last Clear (>= entries retained).
  uint64_t total_recorded() const;

  /// Forgets every entry recorded after the first `total_mark` firings and
  /// rewinds the sequence counter, so firings undone by a transaction
  /// rollback leave no trace (the mark comes from total_recorded() at
  /// savepoint time). A mark at or beyond the current total is a no-op.
  void TruncateTo(uint64_t total_mark);

  void Clear();

 private:
  mutable std::mutex mu_;
  size_t capacity_;
  uint64_t next_seq_ = 1;
  std::deque<FiringTraceEntry> entries_;
};

/// Pre-registered handles for every engine counter — the only way hot paths
/// touch the registry. Groups follow the token lifecycle of §4: Δ-set
/// classification → selection network → per-rule join networks → P-nodes →
/// recognize-act cycle, plus the executor's plan/scan accounting.
struct EngineMetrics {
  MetricsRegistry registry;

  // TransitionManager: Δ-set classification (§4.3.1 cases 1-4).
  Counter tokens_emitted;      // every token handed to the network
  Counter tokens_plus;         // + tokens
  Counter tokens_minus;        // − tokens
  Counter tokens_delta_plus;   // Δ+ tokens
  Counter tokens_delta_minus;  // Δ− tokens
  Counter delta_case1_reexpressed;    // im*: modify of an inserted tuple
  Counter delta_case2_net_nothing;    // im*d: delete of an inserted tuple
  Counter delta_case3_first_modify;   // m+: first modify of a stored tuple
  Counter delta_case3_later_modify;   // m+: later modifies (Δ−/Δ+ replace)
  Counter delta_case4_modified_delete;  // m*d: delete of a modified tuple
  Counter transitions;         // BeginTransition calls

  // SelectionNetwork::Match (§4.1 index over selection predicates).
  Counter selection_tokens;           // tokens stabbed through the network
  Counter selection_stabs;            // interval-index stab queries issued
  Counter selection_residual_checks;  // residual-list candidates considered
  Counter selection_predicate_evals;  // full selection predicates evaluated
  Counter selection_matches;          // α-memories admitted a token
  Counter isl_node_visits;            // skip-list nodes touched by Stab

  // RuleNetwork joins (§4.2) and α-memory maintenance.
  Counter alpha_arrivals;      // token arrivals at α-memories
  Counter alpha_insertions;    // entries materialized into α-memories
  Counter alpha_removals;      // entries removed from α-memories
  Counter virtual_alpha_scans;  // full base-relation scans of virtual α
  Counter join_probes;         // join candidates enumerated
  Counter join_hash_probes;    // keyed lookups (α buckets, relation index)
  Counter join_hash_hits;      // candidates returned by those lookups
  Counter join_scan_fallbacks;  // memory probes that had to scan entries

  // P-nodes (conflict set).
  Counter pnode_bindings_created;   // instantiations inserted
  Counter pnode_bindings_removed;   // instantiations deleted by retraction
  Counter pnode_bindings_consumed;  // instantiations drained by rule firing

  // Executor.
  Counter plans_built;
  Counter plan_cache_hits;
  Counter tuples_scanned;  // tuples produced by seq/index scan leaves
  Counter values_copied;   // Values deep-copied into Row slots

  // Columnar execution layer (ColumnBatch views + vector kernels).
  Counter columnar_batches_built;        // ColumnBatch materializations
  Counter columnar_batch_invalidations;  // cached views dropped by mutation
  Counter columnar_scans;           // seq scans evaluated through a batch
  Counter columnar_scan_rows;       // rows filtered by vector kernels
  Counter columnar_row_fallbacks;   // scans that used the audited row path
  Counter columnar_join_prefiltered;  // join candidates skipped by masks
  Counter columnar_classified_tokens;  // Δ-batch tokens classified columnwise

  // Recognize-act cycle.
  Counter rules_fired;
  Counter cycles_run;
  Counter rules_select_visits;  // agenda entries conflict resolution examined

  // Propagation pipeline (TransitionManager token batching + the per-rule
  // matching stage; at batch_tokens 0 or 1 every token is its own flush).
  Counter batch_flushes;      // token batches propagated
  Counter match_tasks;        // per-rule match tasks run by batch flushes
  Counter match_steal_count;  // cross-deque steals inside those batches

  // Transaction / undo layer (src/txn).
  // Networked front end (src/server): connection lifecycle, request
  // traffic, and robustness events. All zero unless an ArielServer runs in
  // the process.
  Counter server_connections_accepted;
  Counter server_connections_rejected;   // over max_connections
  Counter server_connections_closed;
  Counter server_commands;               // commands executed for clients
  Counter server_bytes_read;
  Counter server_bytes_written;
  Counter server_frame_errors;           // malformed/oversized frames
  Counter server_backpressure_stalls;    // output-cap stall episodes
  Counter server_idle_disconnects;       // idle-timeout teardowns
  Counter server_txn_aborts_on_disconnect;  // dropped mid-transaction peers
  Gauge server_active_connections;

  // Read snapshots (the const read path every read-only command takes).
  Counter snapshot_pins;            // TupleStore pins taken by snapshots
  Counter snapshot_cow_copies;      // mutations that cloned a pinned store

  Counter txn_undo_records;   // undo records appended to armed logs
  Counter txn_pnode_saves;    // P-node conflict sets journaled (first write
                              // in a frame)
  Counter txn_rollbacks;      // savepoint/command/explicit rollbacks replayed
  Counter txn_rule_aborts;    // rule firings undone by on_action_error=abort_rule
  Counter txn_ignored_action_errors;  // action errors dropped by =ignore
  Gauge txn_active_savepoints;  // open transaction frames right now

  Histogram token_process_ns;  // DiscriminationNetwork::ProcessBatch, once
                               // per flush (all propagation time)
  Histogram rule_firing_ns;    // RuleExecutionMonitor::FireRule
  Histogram batch_tokens_per_flush;  // tokens carried by each flushed batch
  // Retired stage timers: always empty (the whole flush is timed under
  // token_process_ns), kept for readers of the histograms.
  Histogram batch_select_ns;
  Histogram batch_match_ns;
  Histogram batch_merge_ns;
  Histogram txn_rollback_ns;  // undo replay (incl. P-node restores) per
                              // rollback
  Histogram server_command_ns;  // per-request execute+render (p50/p99 in
                                // `show stats` via the registry render)

  FiringTraceRing firing_trace;

  EngineMetrics();
};

/// The process-wide engine metrics. Tests that assert exact values should
/// Reset() the registry (and Clear() the trace) first; engines in one
/// process share the counters by design — this is a measurement substrate,
/// not per-instance bookkeeping.
EngineMetrics& Metrics();

}  // namespace ariel

#endif  // ARIEL_UTIL_METRICS_H_
