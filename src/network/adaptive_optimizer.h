#ifndef ARIEL_NETWORK_ADAPTIVE_OPTIMIZER_H_
#define ARIEL_NETWORK_ADAPTIVE_OPTIMIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "network/rule_network.h"

namespace ariel {

class SelectionNetwork;

// ---------------------------------------------------------------------------
// Adaptive network optimization (ROADMAP item 3; the paper's §6 observation
// that the best network shape — TREAT vs Rete, stored vs virtual α-memories,
// join order — depends on selectivities and relation sizes that only emerge
// at run time).
//
// The optimizer consumes per-rule observations (live α-memory sizes,
// selection-network selectivities, per-variable arrival counts) at
// quiescence points, prices every candidate network shape with a unit-cost
// model, and asks for a re-plan when the best candidate undercuts the
// current shape by a hysteresis margin. Re-planning itself is the rule
// manager's job (RuleManager::ReplanRule): the network is a pure function of
// base data + rules, so a rule's α/β state can be rebuilt from heap
// relations while the history-dependent conflict set is carried over via
// PNode::CaptureState/RestoreState.
// ---------------------------------------------------------------------------

/// One target network shape for a rule — every dimension the engine can
/// re-plan at run time. Hash-vs-scan and row-vs-column are not dimensions:
/// stored memories always hash their equijoin keys, and the network's own
/// size gate (kColumnarPrefilterMinEntries) picks row or column per scan.
struct NetworkStrategy {
  /// Join algorithm (pattern rules only; rules with dynamic memories always
  /// run TREAT regardless — RuleNetwork::Init enforces the fallback).
  JoinBackend backend = JoinBackend::kTreat;

  /// Stored-vs-virtual choice for pattern variables. kThreshold carries a
  /// per-rule cardinality split so individual memories can be promoted or
  /// demoted: a memory whose estimated cardinality is at least
  /// `virtual_threshold` becomes virtual, smaller ones stay stored.
  enum class AlphaChoice : uint8_t { kAllStored, kAllVirtual, kThreshold };
  AlphaChoice alpha = AlphaChoice::kAllStored;
  double virtual_threshold = 0;

  /// Resolved per-variable decision (indexed by α ordinal; 1 = stored).
  /// This — not the threshold, which is derived from observed statistics
  /// the rule compiler does not see — is what ReplanRule applies, and what
  /// strategy equality compares. Empty means "derive from `alpha`".
  std::vector<uint8_t> alpha_stored;

  /// Explicit TREAT probe order (variable ordinals, a permutation of the
  /// rule's variables): ExtendJoin binds the earliest unbound entry first.
  /// Empty keeps the built-in connected-then-smallest heuristic. Ignored
  /// under Rete, whose β-chain order is fixed by the variable order.
  std::vector<size_t> join_order;

  std::string ToString() const;
};

bool operator==(const NetworkStrategy& a, const NetworkStrategy& b);
inline bool operator!=(const NetworkStrategy& a, const NetworkStrategy& b) {
  return !(a == b);
}

/// Statistics snapshot for one tuple variable of a rule.
struct VarObservation {
  std::string name;
  AlphaKind kind = AlphaKind::kStored;
  uint32_t relation_id = 0;
  size_t relation_size = 0;
  /// Entries currently materialized (stored/dynamic memories; 0 when
  /// virtual).
  size_t stored_entries = 0;
  /// Observed fraction of the relation's tokens admitted by the selection
  /// predicate (selection-network tested/matched counters), falling back to
  /// the materialized fraction, then to 1.
  double selectivity = 1.0;
  /// An equality join conjunct keys this variable: a stored memory gets a
  /// hash index, a virtual one may have a B+tree probe path.
  bool has_equijoin = false;
  /// The base relation carries a B+tree on an equijoin attribute, so a
  /// virtual memory is probed in O(log n) instead of scanned.
  bool has_btree_path = false;
  /// Pattern variables can flip stored↔virtual; event/transition/simple
  /// memories keep their compiler-assigned kind.
  bool replannable = true;
  /// Lifetime token arrivals at this α-memory (RuleNetwork::MatchStats).
  /// AdaptiveOptimizer::Evaluate rebases these onto the window since the
  /// rule's last re-plan before pricing.
  uint64_t arrivals = 0;
};

/// Statistics snapshot for one rule, as collected at a quiescence point.
struct RuleObservation {
  std::string rule;
  JoinBackend backend = JoinBackend::kTreat;
  /// No event/transition memories: Rete is available and priming can
  /// recompute the P-node.
  bool pure_pattern = true;
  uint64_t arrivals = 0;
  uint64_t plus_tokens = 0;
  uint64_t minus_tokens = 0;
  /// Explicit TREAT probe order currently installed (empty = heuristic).
  std::vector<size_t> planned_join_order;
  std::vector<VarObservation> vars;
};

/// Builds a RuleObservation from a live network. `selection` supplies
/// observed per-condition selectivities (may be null: estimation falls back
/// to materialized fractions).
RuleObservation CollectObservation(const RuleNetwork& network,
                                   const SelectionNetwork* selection);

/// Tuning knobs (DatabaseOptions.adaptive_* surface these).
struct AdaptiveConfig {
  /// Hysteresis: re-plan only when the best candidate's modeled cost is
  /// below current_cost * (1 - min_gain). Negative values force a re-plan
  /// at every evaluation (test/bench mode).
  double min_gain = 0.25;
  /// A rule must absorb this many tokens between its re-plans.
  uint64_t min_tokens = 64;
};

/// The statistics-driven cost model plus per-rule re-plan bookkeeping.
/// Single-threaded (engine thread at quiescence); no internal locking.
class AdaptiveOptimizer {
 public:
  explicit AdaptiveOptimizer(AdaptiveConfig config = {}) : config_(config) {}

  const AdaptiveConfig& config() const { return config_; }

  struct Decision {
    bool replan = false;
    /// Target shape (meaningful when replan is true).
    NetworkStrategy strategy;
    /// The shape the rule currently runs, as read from the observation.
    NetworkStrategy current;
    double current_cost = 0;
    double best_cost = 0;
    std::string reason;
  };

  /// Cheap per-command gate in front of Evaluate: true once the rule has
  /// absorbed min_tokens/4 fresh tokens since the last evaluation (always
  /// true when min_tokens is 0). Keeps the steady-state cost of an adaptive
  /// engine at one counter comparison per quiescence point instead of a
  /// full model evaluation.
  bool ShouldEvaluate(const std::string& rule, uint64_t arrivals);

  /// Prices the current shape and the best candidate, applying hysteresis
  /// (min_gain margin + min_tokens gate). Token counters are windowed to
  /// the traffic since the rule's last re-plan, so a workload shift is
  /// priced on its own statistics rather than diluted by lifetime history.
  /// Never asks to re-plan a rule onto the shape it already runs — except
  /// under a negative min_gain, which forces a (possibly in-place) rebuild
  /// whenever the rule has modeled traffic; the equivalence tests lean on
  /// that.
  Decision Evaluate(const RuleObservation& obs);

  /// Records that the caller executed a re-plan for `rule`: arms the
  /// min_tokens gate against flip-flopping and snapshots the observation's
  /// token counters as the baseline for the next statistics window.
  void NoteReplanned(const RuleObservation& obs);

  uint64_t replans(const std::string& rule) const;

  /// Modeled per-window cost of running `obs`'s workload under shape `s`:
  /// arrival-weighted join probe costs + α upkeep + β maintenance + an
  /// amortized storage rent on materialized entries. Unit-less; only
  /// comparisons between shapes for the same observation are meaningful.
  /// Exposed for the unit tests.
  static double ModelCost(const RuleObservation& obs,
                          const NetworkStrategy& s);

  /// The shape `obs` currently runs, lifted into strategy form.
  static NetworkStrategy CurrentStrategy(const RuleObservation& obs);

  /// Cheapest candidate shape under the cost model (enumerates backend ×
  /// α-choice and derives the TREAT join order for 3+-variable rules).
  /// `best_cost` receives its modeled cost.
  NetworkStrategy BestStrategy(const RuleObservation& obs,
                               double* best_cost) const;

 private:
  struct RuleState {
    /// Counter snapshot at the start of the current statistics window —
    /// Evaluate subtracts it from incoming observations so the model sees
    /// only the window's traffic. Reset at every re-plan, and slid forward
    /// when the window outgrows 8 cooldowns of tokens, so a workload shift
    /// becomes visible within a bounded token count instead of being
    /// diluted by unbounded history.
    bool has_baseline = false;
    uint64_t base_arrivals = 0;
    uint64_t base_plus = 0;
    uint64_t base_minus = 0;
    std::vector<uint64_t> base_var_arrivals;
    uint64_t last_evaluated_arrivals = 0;
    uint64_t replans = 0;
  };

  /// Returns `obs` with token counters rebased onto the rule's current
  /// statistics window (no-op before the first baseline).
  RuleObservation Windowed(const RuleObservation& obs,
                           const RuleState& state) const;

  /// Starts a fresh statistics window at `obs`'s counters.
  static void Rebase(RuleState* state, const RuleObservation& obs);

  AdaptiveConfig config_;
  std::map<std::string, RuleState> rules_;
};

}  // namespace ariel

#endif  // ARIEL_NETWORK_ADAPTIVE_OPTIMIZER_H_
