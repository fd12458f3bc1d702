#ifndef ARIEL_RULES_RULE_MONITOR_H_
#define ARIEL_RULES_RULE_MONITOR_H_

#include <cstdint>

#include "exec/executor.h"
#include "network/transition_manager.h"
#include "rules/rule_manager.h"
#include "txn/txn_context.h"
#include "util/status.h"

namespace ariel {

/// Conflict-resolution tie-break among equal-priority eligible rules.
enum class ConflictStrategy : uint8_t {
  /// Earliest-defined rule first (deterministic; the default).
  kDefinitionOrder,
  /// Freshest conflict-set entry first — the OPS5-style recency ordering
  /// the paper's recognize-act cycle descends from (§2.2, [6]).
  kRecency,
};

/// The rule execution monitor: drives the recognize-act cycle of Figure 1.
///
///   match               — P-nodes are maintained incrementally by the
///                         discrimination network, so matching is just
///                         "which rules on its agenda have non-empty
///                         P-nodes" (DiscriminationNetwork::PruneAgenda).
///   conflict resolution — highest priority first; ties per
///                         ConflictStrategy.
///   act                 — fire the rule: detach its P-node contents as the
///                         firing binding, bind tuple variable P to it, and
///                         execute each (query-modified) action command as
///                         its own transition.
///
/// The cycle repeats until no rule is eligible or a rule action executes
/// `halt`. Action transitions generate tokens that may make further rules
/// eligible (cascading); a configurable firing cap turns runaway rule loops
/// into an error instead of a hang.
class RuleExecutionMonitor {
 public:
  RuleExecutionMonitor(RuleManager* rules, Executor* executor,
                       TransitionManager* transitions)
      : rules_(rules), executor_(executor), transitions_(transitions) {}

  /// Runs the cycle to quiescence. No-op if already inside a cycle (rule
  /// actions re-enter the engine; the outermost cycle keeps control).
  [[nodiscard]] Status RunCycle();

  bool in_cycle() const { return in_cycle_; }
  uint64_t rules_fired() const { return rules_fired_; }

  size_t max_firings_per_cycle() const { return max_firings_per_cycle_; }
  void set_max_firings_per_cycle(size_t n) { max_firings_per_cycle_ = n; }

  /// Stored-plan strategy (§5.3): reuse each action command's physical plan
  /// across firings, rebuilding only when the catalog version moves.
  /// Default off = the paper's always-reoptimize strategy.
  bool cache_action_plans() const { return cache_action_plans_; }
  void set_cache_action_plans(bool on) { cache_action_plans_ = on; }

  ConflictStrategy conflict_strategy() const { return conflict_strategy_; }
  void set_conflict_strategy(ConflictStrategy s) { conflict_strategy_ = s; }

  /// Transaction context bracketing the cycle (null = untransacted). When
  /// set, every firing logs a kRuleFired undo record and — under the
  /// abort_rule policy — runs inside its own savepoint.
  void set_txn(TransactionContext* txn) { txn_ = txn; }

  /// What a failing rule action does to the enclosing command:
  ///   abort_command — the error propagates; the engine rolls the whole
  ///                   top-level command (and its cascade) back. Default.
  ///   abort_rule    — only this firing's savepoint rolls back; the cycle
  ///                   continues with the next eligible rule.
  ///   ignore        — keep the action's partial effects, continue.
  ActionErrorPolicy on_action_error() const { return on_action_error_; }
  void set_on_action_error(ActionErrorPolicy p) { on_action_error_ = p; }

 private:
  /// Conflict resolution: the eligible rule to fire, or null.
  Rule* SelectRule();

  /// Act phase for one rule: timing + firing-trace wrapper around
  /// FireRuleInner.
  [[nodiscard]] Status FireRule(Rule* rule);
  [[nodiscard]] Status FireRuleInner(Rule* rule);

  RuleManager* rules_;
  Executor* executor_;
  TransitionManager* transitions_;
  TransactionContext* txn_ = nullptr;
  ActionErrorPolicy on_action_error_ = ActionErrorPolicy::kAbortCommand;
  bool in_cycle_ = false;
  bool cache_action_plans_ = false;
  ConflictStrategy conflict_strategy_ = ConflictStrategy::kDefinitionOrder;
  uint64_t rules_fired_ = 0;
  size_t max_firings_per_cycle_ = 100000;
};

}  // namespace ariel

#endif  // ARIEL_RULES_RULE_MONITOR_H_
