#include "network/adaptive_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "network/selection_network.h"

namespace ariel {

namespace {

// Unit costs (arbitrary units; only ratios matter). Probe costs price
// enumerating candidates for one join step, upkeep costs price maintaining
// a memory for one arriving token, and the rent term amortizes the storage
// a materialized memory holds (§4.2's motivation for virtual memories) into
// the same per-token currency so shapes with different footprints compare.
constexpr double kHashProbeCost = 2.0;
constexpr double kBtreeStepCost = 1.5;
constexpr double kEntryTestCost = 1.0;
constexpr double kColumnarRowCost = 0.25;
constexpr double kColumnarSetupCost = 8.0;
constexpr double kVirtualScanSetup = 4.0;
constexpr double kStoredUpkeepCost = 2.0;
constexpr double kHashUpkeepCost = 1.0;
constexpr double kBetaUpkeepCost = 2.0;
constexpr double kPnodeRetractCost = 1.0;
constexpr double kEntryRent = 1.0 / 8192.0;

/// Does variable `v` (α ordinal `i`) materialize entries under shape `s`?
bool StoredUnder(const NetworkStrategy& s, const VarObservation& v,
                 size_t i) {
  if (!v.replannable) {
    // Dynamic/simple memories keep their compiler-assigned kind.
    return v.kind != AlphaKind::kVirtual;
  }
  if (i < s.alpha_stored.size()) return s.alpha_stored[i] != 0;
  switch (s.alpha) {
    case NetworkStrategy::AlphaChoice::kAllStored:
      return true;
    case NetworkStrategy::AlphaChoice::kAllVirtual:
      return false;
    case NetworkStrategy::AlphaChoice::kThreshold:
      return static_cast<double>(v.relation_size) * v.selectivity <
             s.virtual_threshold;
  }
  return true;
}

/// Expected materialized cardinality of `v` under shape `s`. Uses the
/// observed entry count when the memory is stored today, otherwise the
/// relation size scaled by the observed selection selectivity.
double EstimatedEntries(const NetworkStrategy& s, const VarObservation& v,
                       size_t i) {
  if (!StoredUnder(s, v, i)) return 0;
  const bool stored_now =
      v.kind == AlphaKind::kStored || v.kind == AlphaKind::kDynamicOn ||
      v.kind == AlphaKind::kDynamicTrans;
  if (stored_now) return static_cast<double>(v.stored_entries);
  return static_cast<double>(v.relation_size) * v.selectivity;
}

/// Cost of enumerating join candidates out of variable `v` for one probe.
/// A stored memory is probed through its hash index when keyed; otherwise
/// it is scanned, with the columnar prefilter from the network's own gate.
double AccessCost(const NetworkStrategy& s, const VarObservation& v,
                  size_t i) {
  if (StoredUnder(s, v, i)) {
    if (v.has_equijoin) return kHashProbeCost;
    const double entries = EstimatedEntries(s, v, i);
    if (entries >= static_cast<double>(kColumnarPrefilterMinEntries)) {
      return kColumnarSetupCost + entries * kColumnarRowCost;
    }
    return entries * kEntryTestCost;
  }
  // Virtual: B+tree probe when an equijoin path meets a base index, else a
  // base-relation scan through the selection predicate.
  const double rel = static_cast<double>(v.relation_size);
  if (v.has_btree_path) return std::log2(rel + 2.0) * kBtreeStepCost;
  return kVirtualScanSetup + rel * kEntryTestCost;
}

/// Expected result fan-out of binding `v` during a join walk: equijoins are
/// treated as key joins (one partner); anything else multiplies the carry.
double Fanout(const NetworkStrategy& s, const VarObservation& v, size_t i) {
  if (v.has_equijoin) return 1.0;
  const double est = StoredUnder(s, v, i)
                         ? EstimatedEntries(s, v, i)
                         : static_cast<double>(v.relation_size) * v.selectivity;
  return std::max(1.0, 0.1 * est);
}

/// Probe order for a TREAT join walk under `s`: the explicit plan when one
/// is set, else ascending estimated cardinality (the built-in heuristic's
/// static shadow).
std::vector<size_t> WalkOrder(const RuleObservation& obs,
                              const NetworkStrategy& s) {
  const size_t n = obs.vars.size();
  if (s.join_order.size() == n) return s.join_order;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double ea = StoredUnder(s, obs.vars[a], a)
                          ? EstimatedEntries(s, obs.vars[a], a)
                          : static_cast<double>(obs.vars[a].relation_size);
    const double eb = StoredUnder(s, obs.vars[b], b)
                          ? EstimatedEntries(s, obs.vars[b], b)
                          : static_cast<double>(obs.vars[b].relation_size);
    return ea < eb;
  });
  return order;
}

/// Join cost for one token arriving at `trigger` under TREAT: walk the
/// remaining variables in order, discounting/amplifying later probes by the
/// accumulated fan-out.
double TreatJoinCost(const RuleObservation& obs, const NetworkStrategy& s,
                     size_t trigger) {
  double cost = 0;
  double carry = 1.0;
  for (size_t v : WalkOrder(obs, s)) {
    if (v == trigger) continue;
    cost += carry * AccessCost(s, obs.vars[v], v);
    carry *= Fanout(s, obs.vars[v], v);
  }
  return cost;
}

/// Approximate partial count of β_level (partials over variables
/// [0, level]) — the first memory's cardinality times the fan-out of the
/// joins that extended it.
double BetaSize(const RuleObservation& obs, const NetworkStrategy& s) {
  const VarObservation& first = obs.vars[0];
  double size = StoredUnder(s, first, 0)
                    ? EstimatedEntries(s, first, 0)
                    : static_cast<double>(first.relation_size) *
                          first.selectivity;
  return size;
}

/// Join + maintenance cost for one asserting token arriving at ordinal
/// `idx` under Rete: probe the β level to its left, extend rightward, and
/// pay β upkeep for every level the new partials land in.
double ReteJoinCost(const RuleObservation& obs, const NetworkStrategy& s,
                    size_t idx) {
  const size_t n = obs.vars.size();
  double cost = 0;
  if (idx == 1) {
    // The left neighbor of ordinal 1 is α₀ itself, not a β memory — it may
    // be virtual, in which case the probe pays the base-relation path.
    cost += AccessCost(s, obs.vars[0], 0);
  } else if (idx > 1) {
    cost += kHashProbeCost;  // keyed probe into the β level to the left
  }
  double carry = 1.0;
  for (size_t v = idx + 1; v < n; ++v) {
    cost += carry * AccessCost(s, obs.vars[v], v);
    carry *= Fanout(s, obs.vars[v], v);
  }
  // β levels exist for ordinals [1, n-2]; a partial is stored at every
  // level from max(idx, 1) through n-2.
  if (n >= 3) {
    const size_t first_level = std::max<size_t>(idx, 1);
    if (first_level + 1 < n) {
      cost += kBetaUpkeepCost * static_cast<double>(n - 1 - first_level);
    }
  }
  return cost;
}

}  // namespace

std::string NetworkStrategy::ToString() const {
  std::ostringstream os;
  os << JoinBackendToString(backend) << " alpha=";
  switch (alpha) {
    case AlphaChoice::kAllStored:
      os << "stored";
      break;
    case AlphaChoice::kAllVirtual:
      os << "virtual";
      break;
    case AlphaChoice::kThreshold:
      os << "mixed(";
      for (uint8_t stored : alpha_stored) os << (stored ? 's' : 'v');
      os << ")";
      break;
  }
  if (!join_order.empty()) {
    os << " order=[";
    for (size_t i = 0; i < join_order.size(); ++i) {
      os << (i > 0 ? "," : "") << join_order[i];
    }
    os << "]";
  } else {
    os << " order=heuristic";
  }
  return os.str();
}

bool operator==(const NetworkStrategy& a, const NetworkStrategy& b) {
  // The resolved per-variable split is the real α shape; the enum +
  // threshold are its derivation and excluded (two thresholds that resolve
  // to the same split describe the same network).
  return a.backend == b.backend && a.alpha_stored == b.alpha_stored &&
         a.join_order == b.join_order;
}

RuleObservation CollectObservation(const RuleNetwork& network,
                                   const SelectionNetwork* selection) {
  RuleObservation obs;
  obs.rule = network.rule_name();
  obs.backend = network.backend();
  const RuleNetwork::MatchStats& stats = network.match_stats();
  obs.arrivals = stats.arrivals;
  obs.plus_tokens = stats.plus_tokens;
  obs.minus_tokens = stats.minus_tokens;
  obs.planned_join_order = network.planned_join_order();
  for (size_t i = 0; i < network.num_vars(); ++i) {
    const AlphaMemory* alpha = network.alpha(i);
    const AlphaSpec& spec = alpha->spec();
    VarObservation var;
    var.name = spec.var_name;
    var.kind = alpha->kind();
    var.relation_id = spec.relation->id();
    var.relation_size = spec.relation->size();
    var.stored_entries = alpha->stores_tuples() ? alpha->entries().size() : 0;
    var.has_equijoin = !spec.equijoin_attrs.empty();
    for (const std::string& attr : spec.equijoin_attrs) {
      if (spec.relation->GetIndex(attr) != nullptr) {
        var.has_btree_path = true;
        break;
      }
    }
    var.replannable =
        var.kind == AlphaKind::kStored || var.kind == AlphaKind::kVirtual;
    if (alpha->is_dynamic() || alpha->is_transition() ||
        spec.on_event.has_value()) {
      obs.pure_pattern = false;
    }
    double sel = -1.0;
    if (selection != nullptr) {
      sel = selection->ObservedSelectivity(&network, i);
    }
    if (sel < 0 && alpha->stores_tuples() && var.relation_size > 0) {
      sel = static_cast<double>(var.stored_entries) /
            static_cast<double>(var.relation_size);
    }
    var.selectivity = sel < 0 ? 1.0 : std::min(sel, 1.0);
    if (i < stats.var_arrivals.size()) {
      var.arrivals = stats.var_arrivals[i];
    }
    obs.vars.push_back(std::move(var));
  }
  return obs;
}

double AdaptiveOptimizer::ModelCost(const RuleObservation& obs,
                                    const NetworkStrategy& s) {
  const size_t n = obs.vars.size();
  if (n == 0 || obs.arrivals == 0) return 0;
  const double total = static_cast<double>(obs.arrivals);
  const double minus_frac =
      obs.plus_tokens + obs.minus_tokens == 0
          ? 0.0
          : static_cast<double>(obs.minus_tokens) /
                static_cast<double>(obs.plus_tokens + obs.minus_tokens);
  const double plus_frac = 1.0 - minus_frac;

  // Per-token storage rent over everything this shape materializes.
  double rent = 0;
  for (size_t i = 0; i < n; ++i) {
    rent += EstimatedEntries(s, obs.vars[i], i) * kEntryRent;
  }
  if (s.backend == JoinBackend::kRete && n >= 3) {
    rent += BetaSize(obs, s) * static_cast<double>(n - 2) * kEntryRent;
  }

  double cost = total * rent;
  for (size_t i = 0; i < n; ++i) {
    const VarObservation& v = obs.vars[i];
    const double arrivals = static_cast<double>(v.arrivals);
    if (arrivals == 0) continue;

    double upkeep = 0;
    if (StoredUnder(s, v, i)) {
      upkeep = kStoredUpkeepCost + (v.has_equijoin ? kHashUpkeepCost : 0);
    }

    double plus_join = 0;
    double minus_extra = kPnodeRetractCost;
    if (n > 1) {
      if (s.backend == JoinBackend::kRete) {
        plus_join = ReteJoinCost(obs, s, i);
        // Retraction walks every β level at or right of the variable.
        if (n >= 3) {
          const size_t first_level = std::max<size_t>(i, 1);
          if (first_level + 1 < n) {
            minus_extra +=
                kBetaUpkeepCost * static_cast<double>(n - 1 - first_level);
          }
        }
      } else {
        plus_join = TreatJoinCost(obs, s, i);
      }
    }
    cost += arrivals * (upkeep + plus_frac * plus_join +
                        minus_frac * minus_extra);
  }
  return cost;
}

NetworkStrategy AdaptiveOptimizer::CurrentStrategy(
    const RuleObservation& obs) {
  NetworkStrategy s;
  s.backend = obs.backend;
  s.join_order = obs.planned_join_order;
  size_t stored = 0;
  size_t replannable = 0;
  for (const VarObservation& v : obs.vars) {
    s.alpha_stored.push_back(v.kind != AlphaKind::kVirtual ? 1 : 0);
    if (!v.replannable) continue;
    ++replannable;
    if (v.kind == AlphaKind::kStored) ++stored;
  }
  if (replannable == 0 || stored == replannable) {
    s.alpha = NetworkStrategy::AlphaChoice::kAllStored;
  } else if (stored == 0) {
    s.alpha = NetworkStrategy::AlphaChoice::kAllVirtual;
  } else {
    s.alpha = NetworkStrategy::AlphaChoice::kThreshold;
  }
  return s;
}

NetworkStrategy AdaptiveOptimizer::BestStrategy(const RuleObservation& obs,
                                                double* best_cost) const {
  const size_t n = obs.vars.size();
  const NetworkStrategy current = CurrentStrategy(obs);
  NetworkStrategy best = current;
  double best_c = ModelCost(obs, current);

  // α-choice candidates: every split point of the estimated-cardinality
  // ladder (so individual memories can be promoted or demoted), expressed
  // canonically as kAllStored / kAllVirtual when uniform.
  std::vector<double> cuts;
  cuts.push_back(0);  // all replannable memories virtual
  for (const VarObservation& v : obs.vars) {
    if (!v.replannable) continue;
    cuts.push_back(static_cast<double>(v.relation_size) * v.selectivity +
                   1.0);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<JoinBackend> backends{JoinBackend::kTreat};
  if (obs.pure_pattern && n >= 2) backends.push_back(JoinBackend::kRete);

  for (JoinBackend backend : backends) {
    for (double cut : cuts) {
      NetworkStrategy cand;
      cand.backend = backend;
      cand.alpha = NetworkStrategy::AlphaChoice::kThreshold;
      cand.virtual_threshold = cut;
      // Resolve the split into the explicit per-variable decision the rule
      // manager applies, canonicalizing uniform splits.
      size_t stored = 0;
      size_t replannable = 0;
      for (size_t i = 0; i < n; ++i) {
        const VarObservation& v = obs.vars[i];
        cand.alpha_stored.push_back(StoredUnder(cand, v, i) ? 1 : 0);
        if (!v.replannable) continue;
        ++replannable;
        if (cand.alpha_stored.back() != 0) ++stored;
      }
      if (replannable == 0 || stored == replannable) {
        cand.alpha = NetworkStrategy::AlphaChoice::kAllStored;
        cand.virtual_threshold = 0;
      } else if (stored == 0) {
        cand.alpha = NetworkStrategy::AlphaChoice::kAllVirtual;
        cand.virtual_threshold = 0;
      }
      // Explicit probe order for 3+-variable TREAT walks: ascending access
      // cost, so cheap keyed memories are bound before expensive scans.
      if (backend == JoinBackend::kTreat && n >= 3) {
        std::vector<size_t> order(n);
        for (size_t i = 0; i < n; ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return AccessCost(cand, obs.vars[a], a) <
                 AccessCost(cand, obs.vars[b], b);
        });
        cand.join_order = std::move(order);
      }
      const double c = ModelCost(obs, cand);
      if (c < best_c) {
        best_c = c;
        best = cand;
      }
    }
  }
  if (best_cost != nullptr) *best_cost = best_c;
  return best;
}

RuleObservation AdaptiveOptimizer::Windowed(const RuleObservation& obs,
                                            const RuleState& state) const {
  RuleObservation w = obs;
  if (!state.has_baseline) return w;
  auto rebase = [](uint64_t value, uint64_t base) {
    return value >= base ? value - base : value;
  };
  w.arrivals = rebase(w.arrivals, state.base_arrivals);
  w.plus_tokens = rebase(w.plus_tokens, state.base_plus);
  w.minus_tokens = rebase(w.minus_tokens, state.base_minus);
  for (size_t i = 0; i < w.vars.size(); ++i) {
    if (i < state.base_var_arrivals.size()) {
      w.vars[i].arrivals =
          rebase(w.vars[i].arrivals, state.base_var_arrivals[i]);
    }
  }
  return w;
}

bool AdaptiveOptimizer::ShouldEvaluate(const std::string& rule,
                                       uint64_t arrivals) {
  const uint64_t stride = std::max<uint64_t>(1, config_.min_tokens / 4);
  RuleState& state = rules_[rule];
  if (arrivals < state.last_evaluated_arrivals + stride) return false;
  state.last_evaluated_arrivals = arrivals;
  return true;
}

AdaptiveOptimizer::Decision AdaptiveOptimizer::Evaluate(
    const RuleObservation& raw) {
  RuleState& state = rules_[raw.rule];
  // Price the traffic since the last re-plan, not lifetime totals: after a
  // workload shift the stale history would otherwise keep outvoting the
  // current behaviour (a probe-heavy past making a now-churn-only memory
  // look worth storing, and vice versa).
  const RuleObservation obs = Windowed(raw, state);
  Decision decision;
  decision.current = CurrentStrategy(obs);
  decision.current_cost = ModelCost(obs, decision.current);
  decision.strategy = BestStrategy(obs, &decision.best_cost);

  if (state.replans > 0 && obs.arrivals < config_.min_tokens) {
    decision.reason = "cooldown";
    return decision;
  }
  // Hysteresis: only shapes that undercut the current cost by the margin
  // trigger a re-plan; a negative margin (test/bench mode) forces one
  // whenever the rule has any modeled traffic at all.
  if (decision.best_cost < decision.current_cost * (1.0 - config_.min_gain) &&
      decision.current_cost > 0) {
    decision.replan = true;
    decision.reason = "modeled cost " + std::to_string(decision.best_cost) +
                      " vs " + std::to_string(decision.current_cost);
  } else {
    decision.reason = "within hysteresis margin";
    // Slide the window forward once it holds 8 cooldowns of tokens: a
    // stable verdict on that much traffic is settled, and keeping the
    // history around would only slow recognition of the next shift.
    const uint64_t cap = std::max<uint64_t>(config_.min_tokens, 64) * 8;
    if (obs.arrivals >= cap) Rebase(&state, raw);
  }
  return decision;
}

void AdaptiveOptimizer::Rebase(RuleState* state, const RuleObservation& obs) {
  state->has_baseline = true;
  state->base_arrivals = obs.arrivals;
  state->base_plus = obs.plus_tokens;
  state->base_minus = obs.minus_tokens;
  state->base_var_arrivals.clear();
  state->base_var_arrivals.reserve(obs.vars.size());
  for (const VarObservation& var : obs.vars) {
    state->base_var_arrivals.push_back(var.arrivals);
  }
}

void AdaptiveOptimizer::NoteReplanned(const RuleObservation& obs) {
  RuleState& state = rules_[obs.rule];
  Rebase(&state, obs);
  ++state.replans;
}

uint64_t AdaptiveOptimizer::replans(const std::string& rule) const {
  auto it = rules_.find(rule);
  return it == rules_.end() ? 0 : it->second.replans;
}

}  // namespace ariel
