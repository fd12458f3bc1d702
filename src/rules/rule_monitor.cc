#include "rules/rule_monitor.h"

#include <chrono>

#include "util/metrics.h"

namespace ariel {

namespace {

/// Renders a rule network's last-arrived token for the firing trace.
std::string DescribeTrigger(const RuleNetwork& network) {
  const RuleNetwork::LastTrigger& t = network.last_trigger();
  if (!t.valid) return "(primed data)";
  std::string out = TokenKindToString(t.kind);
  out += " token, relation ";
  out += std::to_string(t.relation_id);
  out += ", tuple ";
  out += t.tid.ToString();
  return out;
}

}  // namespace

Rule* RuleExecutionMonitor::SelectRule() {
  Rule* best = nullptr;
  auto beats = [&](const Rule* challenger, const Rule* incumbent) {
    if (challenger->priority != incumbent->priority) {
      return challenger->priority > incumbent->priority;
    }
    if (conflict_strategy_ == ConflictStrategy::kRecency) {
      MatchStamp a = challenger->network->pnode()->last_insert_stamp();
      MatchStamp b = incumbent->network->pnode()->last_insert_stamp();
      if (a != b) return a > b;
    }
    return challenger->id < incumbent->id;
  };
  // The agenda holds every rule with a non-empty P-node, so a command that
  // matched nothing resolves conflicts without visiting a single rule.
  for (RuleNetwork* network : rules_->network()->PruneAgenda()) {
    Rule* rule = rules_->RuleOf(network);
    if (best == nullptr || beats(rule, best)) {
      best = rule;
    }
  }
  return best;
}

Status RuleExecutionMonitor::FireRule(Rule* rule) {
  // Capture the trigger context before the action runs: the action opens
  // its own transitions and routes fresh tokens through the network, which
  // would overwrite both the transition id and the last-trigger record.
  FiringTraceEntry entry;
  entry.rule = rule->name;
  entry.trigger = DescribeTrigger(*rule->network);
  entry.transition_id = transitions_->transition_seq();

  const auto start = std::chrono::steady_clock::now();
  Status status = FireRuleInner(rule);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const uint64_t ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());

  EngineMetrics& m = Metrics();
  m.rules_fired.Increment();
  m.rule_firing_ns.Observe(ns);
  entry.wall_ms = static_cast<double>(ns) / 1e6;
  if (rule->firing_buffer != nullptr) {
    // Release the drained rows now instead of at the next firing; the
    // relation itself stays, since cached action plans bind to it.
    HeapRelation& buffer = *rule->firing_buffer;
    entry.instantiations = buffer.size();
    for (TupleId row_id : buffer.AllTupleIds()) {
      ARIEL_IGNORE_STATUS(buffer.Delete(row_id));  // ariel-lint: allow(gateway-mutation) firing buffer
    }
  }
  m.firing_trace.Push(std::move(entry));
  return status;
}

Status RuleExecutionMonitor::FireRuleInner(Rule* rule) {
  // Bind the data matching the condition at fire time (§5): the P-node
  // contents drain into the rule's firing buffer; instantiations created
  // *by* the action accumulate in the live P-node for later cycle
  // iterations. The buffer is a stable relation, so stored action plans
  // (when enabled) remain valid across firings.
  if (rule->firing_buffer == nullptr) {
    rule->firing_buffer = rule->network->pnode()->MakeFiringBuffer();
  }
  rule->network->pnode()->DrainInto(rule->firing_buffer.get());
  ExtraBindings bindings;
  bindings.emplace("p", rule->firing_buffer.get());

  // The kRuleFired record goes *below* the savepoint opened next: a rule
  // whose action aborts under abort_rule did fire (its counter increment
  // survives the firing rollback), while a whole-command abort rewinds it.
  if (txn_ != nullptr) {
    txn_->undo_log().AppendRuleFired(rule->name, rule->times_fired);
  }
  ++rule->times_fired;
  ++rules_fired_;

  // Per-firing savepoint: opened after the drain, so a rollback to it
  // restores this rule's instantiations as consumed — rolling the firing
  // back cannot make the same failing instantiations eligible again. Only
  // the abort_rule policy ever rolls back to it.
  uint64_t savepoint = 0;
  const bool have_savepoint =
      txn_ != nullptr && on_action_error_ == ActionErrorPolicy::kAbortRule;
  if (have_savepoint) {
    ARIEL_ASSIGN_OR_RETURN(savepoint, txn_->OpenSavepoint());
  }

  // Flattened per-command index into the rule's stored-plan slots.
  size_t plan_slot = 0;
  auto next_plan_slot = [&]() -> CachedPlan* {
    if (!cache_action_plans_) return nullptr;
    if (rule->action_plans.size() <= plan_slot) {
      rule->action_plans.resize(plan_slot + 1);
    }
    return &rule->action_plans[plan_slot++];
  };

  Status action_status = Status::OK();
  for (const CommandPtr& command : rule->modified_action) {
    if (command->kind == CommandKind::kHalt) {
      action_status = Status::Halt();
      break;
    }
    // Each command (a do…end block counts as one command) is a transition.
    transitions_->BeginTransition();
    Status status;
    if (command->kind == CommandKind::kBlock) {
      const auto& block = static_cast<const BlockCommand&>(*command);
      for (const CommandPtr& inner : block.commands) {
        if (inner->kind == CommandKind::kHalt) {
          status = Status::Halt();
          break;
        }
        status =
            executor_->Execute(*inner, &bindings, next_plan_slot()).status();
        if (!status.ok()) break;
      }
    } else {
      status =
          executor_->Execute(*command, &bindings, next_plan_slot()).status();
    }
    Status end = transitions_->EndTransition();
    if (status.ok()) status = end;
    if (!status.ok()) {
      action_status = std::move(status);
      break;
    }
  }

  // halt is a control-flow signal, not a failure: the firing's effects
  // stand (its savepoint is released) and the cycle stops.
  if (action_status.ok() || action_status.IsHalt()) {
    if (have_savepoint) ARIEL_RETURN_NOT_OK(txn_->ReleaseSavepoint(savepoint));
    return action_status;
  }

  if (have_savepoint) {  // policy abort_rule with a transaction to roll back
    ARIEL_RETURN_NOT_OK(txn_->RollbackToSavepoint(savepoint));
    Metrics().txn_rule_aborts.Increment();
    return Status::OK();
  }
  if (on_action_error_ == ActionErrorPolicy::kIgnore) {
    Metrics().txn_ignored_action_errors.Increment();
    return Status::OK();
  }
  return Status::ExecutionError("action of rule \"" + rule->name +
                                "\" failed: " + action_status.ToString());
}

Status RuleExecutionMonitor::RunCycle() {
  if (in_cycle_) return Status::OK();
  in_cycle_ = true;
  Metrics().cycles_run.Increment();
  size_t fired = 0;
  Status result = Status::OK();
  while (true) {
    Rule* rule = SelectRule();
    if (rule == nullptr) break;
    if (++fired > max_firings_per_cycle_) {
      result = Status::ExecutionError(
          "rule firing limit (" + std::to_string(max_firings_per_cycle_) +
          ") exceeded — likely a non-terminating rule cascade; last rule: \"" +
          rule->name + "\"");
      break;
    }
    Status status = FireRule(rule);
    if (status.IsHalt()) break;  // halt ends the cycle, not an error
    if (!status.ok()) {
      result = status;
      break;
    }
  }
  in_cycle_ = false;
  return result;
}

}  // namespace ariel
