#include "ariel/database.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <sstream>

#include "parser/parser.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace ariel {

namespace {

/// Environment override for the batch-pipeline knobs (A/B comparisons
/// without recompiling callers). Malformed values are ignored: anything
/// but a plain run of decimal digits that fits in size_t (no sign, no
/// whitespace).
size_t EnvSizeOr(const char* name, size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  const std::string_view text(raw);
  size_t parsed = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (error != std::errc() || end != text.data() + text.size()) {
    return fallback;
  }
  return parsed;
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(options), optimizer_(options.optimizer) {
  options_.batch_tokens = EnvSizeOr("ARIEL_BATCH_TOKENS", options_.batch_tokens);
  network_.set_columnar_exec(options_.optimizer.columnar_exec);
  options_.match_threads =
      EnvSizeOr("ARIEL_MATCH_THREADS", options_.match_threads);
  if (options_.match_threads > 0) {
    match_pool_ = std::make_unique<ThreadPool>(options_.match_threads);
    network_.ConfigureBatching(match_pool_.get());
  }
  transitions_ = std::make_unique<TransitionManager>(&network_);
  transitions_->set_batch_tokens(options_.batch_tokens);
  // The base conversion must happen here (inside Database), where the
  // private TransactionHooks base is accessible.
  txn_ = std::make_unique<TransactionContext>(
      static_cast<TransactionHooks*>(this));
  transitions_->set_undo_log(&txn_->undo_log());
  failpoint_ = std::make_unique<FailpointGateway>(transitions_.get());
  options_.failpoint_at = EnvSizeOr("ARIEL_FAILPOINT", options_.failpoint_at);
  if (options_.failpoint_at > 0) failpoint_->Arm(options_.failpoint_at);
  executor_ = std::make_unique<Executor>(&catalog_, failpoint_.get(),
                                         &optimizer_);
  executor_->set_undo_log(&txn_->undo_log());
  rules_ = std::make_unique<RuleManager>(&catalog_, &network_, &optimizer_);
  rules_->set_undo_log(&txn_->undo_log());
  rules_->set_policy(options.alpha_policy);
  rules_->set_join_backend(options.join_backend);
  rules_->set_columnar_exec(options_.optimizer.columnar_exec);
  monitor_ = std::make_unique<RuleExecutionMonitor>(rules_.get(),
                                                    executor_.get(),
                                                    transitions_.get());
  monitor_->set_max_firings_per_cycle(options.max_rule_firings_per_cycle);
  monitor_->set_cache_action_plans(options.cache_action_plans);
  monitor_->set_conflict_strategy(options.conflict_strategy);
  if (const char* policy = std::getenv("ARIEL_ON_ACTION_ERROR");
      policy != nullptr && *policy != '\0') {
    Result<ActionErrorPolicy> parsed = ActionErrorPolicyFromString(policy);
    // Malformed values are ignored, like the other env knobs.
    if (parsed.ok()) options_.on_action_error = *parsed;
  }
  if (const char* policy = std::getenv("ARIEL_ANALYZE");
      policy != nullptr && *policy != '\0') {
    Result<AnalyzeOnInstall> parsed = AnalyzeOnInstallFromString(policy);
    if (parsed.ok()) options_.analyze_on_install = *parsed;
  }
  monitor_->set_txn(txn_.get());
  monitor_->set_on_action_error(options_.on_action_error);
  network_.set_token_listener(
      [this](const Token& token) { ObserveToken(token); });
}

Database::~Database() = default;

Status Database::Subscribe(std::string_view relation,
                           AlertCallback callback) {
  ARIEL_ASSIGN_OR_RETURN(HeapRelation * rel, catalog_.FindRelation(relation));
  subscriptions_[rel->id()].push_back(std::move(callback));
  return Status::OK();
}

void Database::ObserveToken(const Token& token) {
  if (subscriptions_.empty()) return;
  auto it = subscriptions_.find(token.relation_id);
  if (it == subscriptions_.end()) return;
  if (!token.event.has_value() || token.event->kind != EventKind::kAppend) {
    return;
  }
  if (token.kind == TokenKind::kPlus) {
    pending_alerts_.push_back(
        PendingAlert{token.relation_id, token.tid, token.value});
  } else if (token.kind == TokenKind::kMinus) {
    // Retraction of an in-transition append (§2.2.2 cases 1/2): the
    // pending alert either gets re-asserted with the new value or was a
    // net-nothing insert — drop it; subscribers see logical events only.
    pending_alerts_.erase(
        std::remove_if(pending_alerts_.begin(), pending_alerts_.end(),
                       [&](const PendingAlert& alert) {
                         return alert.relation_id == token.relation_id &&
                                alert.tid == token.tid;
                       }),
        pending_alerts_.end());
  }
}

void Database::DrainAlerts() {
  if (pending_alerts_.empty()) return;
  std::vector<PendingAlert> delivering;
  delivering.swap(pending_alerts_);
  for (const PendingAlert& alert : delivering) {
    auto subs = subscriptions_.find(alert.relation_id);
    if (subs == subscriptions_.end()) continue;
    const HeapRelation* rel = catalog_.GetRelationById(alert.relation_id);
    std::string name = rel != nullptr ? rel->name() : "<dropped>";
    for (const AlertCallback& callback : subs->second) {
      callback(name, alert.value);
    }
  }
}

Result<CommandResult> Database::Execute(std::string_view script) {
  ARIEL_ASSIGN_OR_RETURN(std::vector<CommandResult> results,
                         ExecuteAll(script));
  if (results.empty()) return CommandResult{};
  return std::move(results.back());
}

Result<std::vector<CommandResult>> Database::ExecuteAll(
    std::string_view script) {
  ARIEL_ASSIGN_OR_RETURN(std::vector<CommandPtr> commands,
                         ParseScript(script));
  std::vector<CommandResult> results;
  for (const CommandPtr& command : commands) {
    ARIEL_ASSIGN_OR_RETURN(CommandResult result, ExecuteCommand(*command));
    results.push_back(std::move(result));
  }
  return results;
}

Result<CommandResult> Database::ExecuteCommand(const Command& command) {
  // Read-only commands take the const snapshot path.
  if (IsReadOnlyCommand(command)) {
    return ExecuteReadOnly(command, AcquireReadSnapshot());
  }
  switch (command.kind) {
    case CommandKind::kCreate:
    case CommandKind::kDefineIndex:
      return ExecuteTransacted(command, /*ddl=*/true);

    case CommandKind::kDestroy: {
      const auto& cmd = static_cast<const DestroyCommand&>(command);
      if (rules_->AnyRuleReferences(cmd.relation)) {
        return Status::InvalidArgument(
            "cannot destroy relation \"" + cmd.relation +
            "\": it is referenced by an installed rule");
      }
      return ExecuteTransacted(command, /*ddl=*/true);
    }

    case CommandKind::kRetrieve: {
      // Only the non-read-only retrieve forms reach the switch: a query
      // over the sys-catalog snapshots (which must be rebuilt first) or
      // retrieve-into (which materializes a relation — a mutation).
      const auto& cmd = static_cast<const RetrieveCommand&>(command);
      if (TraitsOf(command).touches_sys_catalog) {
        // System catalogs are snapshots: rebuild them when the query might
        // look at them (cheap — proportional to #relations + #rules).
        ARIEL_RETURN_NOT_OK(RefreshSystemCatalogs());
      }
      if (!cmd.into.empty()) {
        return ExecuteTransacted(command, /*ddl=*/false);
      }
      return executor_->Execute(command);
    }

    case CommandKind::kAppend:
    case CommandKind::kDelete:
    case CommandKind::kReplace:
    case CommandKind::kBlock:
      return ExecuteTransacted(command, /*ddl=*/false);

    case CommandKind::kDefineRule: {
      const auto& cmd = static_cast<const DefineRuleCommand&>(command);
      ARIEL_RETURN_NOT_OK(rules_->DefineRule(cmd));
      if (options_.auto_activate_rules) {
        ARIEL_RETURN_NOT_OK(rules_->ActivateRule(cmd.rule_name));
      }
      if (options_.analyze_on_install != AnalyzeOnInstall::kOff) {
        ARIEL_ASSIGN_OR_RETURN(RuleSetAnalysis analysis,
                               AnalyzeRuleSet(*rules_, catalog_));
        if (options_.analyze_on_install == AnalyzeOnInstall::kError &&
            analysis.num_errors() > 0) {
          // Installing this rule created a provably non-terminating
          // cascade: undo the install and surface the cycle report.
          std::string detail;
          for (const Finding& f : analysis.findings) {
            if (f.is_error()) detail += "; " + f.message;
          }
          ARIEL_RETURN_NOT_OK(rules_->RemoveRule(cmd.rule_name));
          return Status::InvalidArgument(
              "rule \"" + ToLower(cmd.rule_name) +
              "\" rejected by install-time analysis" + detail);
        }
        if (!analysis.findings.empty()) {
          std::ostringstream os;
          os << "install-time analysis of rule " << ToLower(cmd.rule_name)
             << ":\n";
          for (const Finding& f : analysis.findings) {
            os << "  " << (f.is_error() ? "ERROR" : "WARNING") << " ["
               << FindingKindToString(f.kind) << "] " << f.message << "\n";
          }
          CommandResult result;
          result.message = os.str();
          return result;
        }
      }
      return CommandResult{};
    }
    case CommandKind::kActivateRule: {
      const auto& cmd = static_cast<const ActivateRuleCommand&>(command);
      ARIEL_RETURN_NOT_OK(cmd.is_ruleset
                              ? rules_->ActivateRuleset(cmd.rule_name)
                              : rules_->ActivateRule(cmd.rule_name));
      return CommandResult{};
    }
    case CommandKind::kDeactivateRule: {
      const auto& cmd = static_cast<const DeactivateRuleCommand&>(command);
      ARIEL_RETURN_NOT_OK(cmd.is_ruleset
                              ? rules_->DeactivateRuleset(cmd.rule_name)
                              : rules_->DeactivateRule(cmd.rule_name));
      return CommandResult{};
    }
    case CommandKind::kRemoveRule:
      ARIEL_RETURN_NOT_OK(rules_->RemoveRule(
          static_cast<const RemoveRuleCommand&>(command).rule_name));
      return CommandResult{};

    case CommandKind::kHalt:
      // Top-level halt is a no-op; halt matters inside rule actions.
      return CommandResult{};

    case CommandKind::kBeginTxn:
      ARIEL_RETURN_NOT_OK(txn_->BeginExplicit());
      return CommandResult{};
    case CommandKind::kCommitTxn:
      ARIEL_RETURN_NOT_OK(txn_->CommitExplicit());
      return CommandResult{};
    case CommandKind::kAbortTxn: {
      ARIEL_RETURN_NOT_OK(txn_->AbortExplicit());
#ifdef ARIEL_AUDIT
      ARIEL_RETURN_NOT_OK(AuditOrFail("after abort"));
#endif
      return CommandResult{};
    }

    case CommandKind::kShowStats: {
      // Only the reset form reaches the switch (plain show stats is
      // read-only and was routed above). The reset itself is one atomic
      // epoch swap inside the registry: concurrent readers see either the
      // pre-reset or the post-reset view, never a half-zeroed registry.
      CommandResult result;
      result.message = RenderStats();
      Metrics().registry.Reset();
      Metrics().firing_trace.Clear();
      result.message += "(statistics reset)\n";
      return result;
    }

    case CommandKind::kExplainRule:
    case CommandKind::kAnalyzeRules:
      // Read-only diagnostics; unreachable through the routing above, but
      // kept so a direct caller gets the same behaviour.
      return ExecuteReadOnly(command, AcquireReadSnapshot());
  }
  return Status::Internal("unhandled command kind");
}

std::string Database::RenderStats() const {
  EngineMetrics& m = Metrics();
  std::ostringstream os;
  os << "engine statistics:\n" << m.registry.Render();
  os << "batch pipeline: batch_tokens=" << options_.batch_tokens
     << ", match_threads=" << options_.match_threads
     << (options_.batch_tokens <= 1 ? " (flush every token)" : "")
     << "\n";
  os << "transactions: on_action_error="
     << ActionErrorPolicyToString(options_.on_action_error)
     << ", open_frames=" << txn_->open_frames()
     << ", undo_records=" << txn_->undo_log().size()
     << ", rollbacks=" << txn_->rollbacks()
     << (txn_->in_explicit() ? " (explicit transaction open)" : "")
     << "\n";
  const uint64_t total = m.firing_trace.total_recorded();
  if (total > 0) {
    std::vector<FiringTraceEntry> recent = m.firing_trace.Recent(10);
    os << "recent rule firings (" << recent.size() << " of " << total
       << " recorded):\n";
    for (const FiringTraceEntry& entry : recent) {
      os << "  " << entry.ToString() << "\n";
    }
  }
  return os.str();
}

ReadSnapshot Database::AcquireReadSnapshot() const {
  ReadSnapshot snapshot;
  snapshot.catalog_version = catalog_.version();
  for (const std::string& name : catalog_.RelationNames()) {
    const HeapRelation* rel = catalog_.GetRelation(name);
    if (rel == nullptr) continue;
    snapshot.pins.push_back(
        ReadSnapshot::Pin{rel, rel->PinStore(), rel->version()});
  }
  return snapshot;
}

Result<CommandResult> Database::ExecuteReadOnly(
    const Command& command, const ReadSnapshot& snapshot) const {
  // The snapshot's pins keep every relation's tuple storage alive for the
  // duration of the call; since no mutating command overlaps a read, the
  // live data a plan reads is additionally bit-identical to the pinned
  // stores (and mutation of a pinned store detaches a fresh copy rather
  // than touching it in place).
  (void)snapshot;
  switch (command.kind) {
    case CommandKind::kRetrieve:
      return executor_->ExecuteReadOnly(command);

    case CommandKind::kShowStats: {
      const auto& cmd = static_cast<const ShowStatsCommand&>(command);
      if (cmd.reset) {
        return Status::Internal("show stats reset is a mutation");
      }
      CommandResult result;
      result.message = RenderStats();
      return result;
    }

    case CommandKind::kExplainRule: {
      const auto& cmd = static_cast<const ExplainRuleCommand&>(command);
      const Rule* rule = rules_->GetRule(cmd.rule_name);
      if (rule == nullptr) {
        return Status::NotFound("no rule named \"" + cmd.rule_name + "\"");
      }
      std::ostringstream os;
      os << "rule " << rule->name << " (priority " << rule->priority
         << ", " << (rule->active ? "active" : "inactive") << ", fired "
         << rule->times_fired << " time" << (rule->times_fired == 1 ? "" : "s")
         << ")\n";
      if (rule->network == nullptr) {
        os << "  (inactive: no discrimination network installed)\n";
      } else {
        const SelectionNetwork& selection = network_.selection_network();
        os << "selection layer (engine-wide: " << selection.num_indexed()
           << " indexed / " << selection.num_residual()
           << " residual conditions):\n"
           << selection.DescribeRule(rule->network.get());
        os << "join network:\n" << rule->network->ToString();
        const PNode* pnode = rule->network->pnode();
        os << "P-node: " << pnode->size() << " pending instantiation"
           << (pnode->size() == 1 ? "" : "s") << ", "
           << pnode->lifetime_insertions() << " created over its lifetime\n";
      }
      // Static analysis section: who this rule triggers, who triggers it,
      // and any analyzer findings that involve it.
      ARIEL_ASSIGN_OR_RETURN(RuleSetAnalysis analysis,
                             AnalyzeRuleSet(*rules_, catalog_));
      os << analysis.DescribeRule(rule->name);
      CommandResult result;
      result.message = os.str();
      return result;
    }

    case CommandKind::kAnalyzeRules: {
      ARIEL_ASSIGN_OR_RETURN(RuleSetAnalysis analysis,
                             AnalyzeRuleSet(*rules_, catalog_));
      CommandResult result;
      result.message = analysis.Render(/*include_costs=*/true);
      return result;
    }

    default:
      return Status::Internal(
          "ExecuteReadOnly: command kind has no read-only path");
  }
}

Result<CommandResult> Database::ExecuteDml(const Command& command) {
  // One transition per command; a do…end block is a single transition
  // (§2.2.1 — the programmer controls transition boundaries with blocks).
  transitions_->BeginTransition();
  Status status;
  CommandResult result;
  bool halted = false;
  if (command.kind == CommandKind::kBlock) {
    const auto& block = static_cast<const BlockCommand&>(command);
    for (const CommandPtr& inner : block.commands) {
      if (inner->kind == CommandKind::kHalt) {
        // halt inside a block stops the block and suppresses the
        // recognize-act cycle for this transition — the same "stop the
        // whole cycle" semantics it has inside a rule action (Figure 1),
        // not an error.
        halted = true;
        break;
      }
      auto inner_result = executor_->Execute(*inner);
      if (!inner_result.ok()) {
        status = inner_result.status();
        break;
      }
      result.affected += inner_result->affected;
      if (inner_result->rows.has_value()) {
        result.rows = std::move(inner_result->rows);
      }
    }
  } else {
    auto exec_result = executor_->Execute(command);
    if (exec_result.ok()) {
      result = std::move(*exec_result);
    } else {
      status = exec_result.status();
    }
  }
  Status end = transitions_->EndTransition();
  if (status.ok()) status = end;
  ARIEL_RETURN_NOT_OK(status);

  // Rules get the opportunity to wake up after every transition (unless a
  // top-level halt suppressed this cycle).
  if (!halted) {
    ARIEL_RETURN_NOT_OK(monitor_->RunCycle());
  }
  return result;
}

Result<CommandResult> Database::ExecuteTransacted(const Command& command,
                                                  bool ddl) {
  ARIEL_RETURN_NOT_OK(txn_->BeginCommand());
  Result<CommandResult> result =
      ddl ? executor_->Execute(command) : ExecuteDml(command);
  if (result.ok()) {
    ARIEL_RETURN_NOT_OK(txn_->CommitCommand());
  } else {
    // Roll the command and its whole recognize-act cascade back before the
    // error surfaces; the engine returns to its pre-command state.
    ARIEL_RETURN_NOT_OK(txn_->AbortCommand());
  }
#ifdef ARIEL_AUDIT
  // Audit builds cross-check the whole network against recomputed ground
  // truth at every quiescence point — including post-rollback state.
  ARIEL_RETURN_NOT_OK(
      AuditOrFail(result.ok() ? "at quiescence" : "after rollback"));
#endif
  // With the engine quiescent, deliver subscribed trigger output (alerts
  // queued by an aborted command were truncated by the rollback).
  if (result.ok()) DrainAlerts();
  return result;
}

Status Database::AuditOrFail(const char* when) {
  ARIEL_ASSIGN_OR_RETURN(std::vector<AuditViolation> violations,
                         AuditNetwork());
  if (violations.empty()) return Status::OK();
  std::string detail = violations.front().ToString();
  if (violations.size() > 1) {
    detail +=
        " (+" + std::to_string(violations.size() - 1) + " more violations)";
  }
  return Status::Internal(std::string("A-TREAT network audit failed ") +
                          when + ": " + detail);
}

Result<std::vector<AuditViolation>> Database::AuditNetwork() {
  std::vector<const RuleNetwork*> networks;
  for (Rule* rule : rules_->ActiveRules()) {
    networks.push_back(rule->network.get());
  }
  ARIEL_ASSIGN_OR_RETURN(std::vector<AuditViolation> violations,
                         NetworkAuditor::AuditAtQuiescence(
                             networks, network_.selection_network()));
  // Every materialized heap column cache must mirror its relation
  // cell-for-cell (the batches columnar scans read).
  for (const std::string& rel_name : catalog_.RelationNames()) {
    HeapRelation* relation = catalog_.GetRelation(rel_name);
    if (relation == nullptr) continue;
    if (std::string problem = relation->AuditColumnCache(); !problem.empty()) {
      violations.push_back(AuditViolation{
          AuditViolationKind::kColumnCacheIncoherent,
          "relation " + rel_name, std::move(problem)});
    }
  }
  // Every flush point precedes quiescence: no token may still be deferred
  // in the transition manager's batch.
  if (transitions_->pending_batch_tokens() > 0) {
    violations.push_back(AuditViolation{
        AuditViolationKind::kBatchTokensPending, "transition-manager",
        std::to_string(transitions_->pending_batch_tokens()) +
            " token(s) still deferred in the batch at quiescence"});
  }
  // At quiescence the undo layer must be clean: no command or firing frame
  // still open, and no undo records outside an explicit transaction.
  if (txn_ != nullptr && txn_->HasResidueAtQuiescence()) {
    violations.push_back(AuditViolation{
        AuditViolationKind::kUndoResidue, "transaction-context",
        std::to_string(txn_->open_frames()) + " open frame(s) and " +
            std::to_string(txn_->undo_log().size()) +
            " undo record(s) at quiescence"});
  }
  return violations;
}

Status Database::RefreshSystemCatalogs() {
  // (Re)create each snapshot relation if missing, clear it, and fill it
  // directly — bypassing the gateway, so no tokens and no rule wake-ups.
  auto rebuild = [&](const char* name,
                     Schema schema) -> Result<HeapRelation*> {
    HeapRelation* rel = catalog_.GetRelation(name);
    if (rel == nullptr) {
      ARIEL_ASSIGN_OR_RETURN(rel, catalog_.CreateRelation(name, schema));
    }
    for (TupleId tid : rel->AllTupleIds()) {
      // Snapshot rebuild, not base data.
      ARIEL_RETURN_NOT_OK(rel->Delete(tid));  // ariel-lint: allow(gateway-mutation)
    }
    return rel;
  };

  ARIEL_ASSIGN_OR_RETURN(
      HeapRelation * relations,
      rebuild(kSysRelations, Schema({Attribute{"name", DataType::kString},
                                     Attribute{"tuples", DataType::kInt},
                                     Attribute{"indexes", DataType::kInt}})));
  for (const std::string& name : catalog_.RelationNames()) {
    const HeapRelation* rel = catalog_.GetRelation(name);
    ARIEL_RETURN_NOT_OK(
        relations
            ->Insert(  // ariel-lint: allow(gateway-mutation) snapshot
                Tuple(std::vector<Value>{
                Value::String(name),
                Value::Int(static_cast<int64_t>(
                    name == kSysRelations || name == kSysRules
                        ? 0  // being rebuilt; counts are not meaningful
                        : rel->size())),
                Value::Int(static_cast<int64_t>(
                    rel->IndexedAttributes().size()))}))
            .status());
  }

  ARIEL_ASSIGN_OR_RETURN(
      HeapRelation * rules,
      rebuild(kSysRules, Schema({Attribute{"name", DataType::kString},
                                 Attribute{"ruleset", DataType::kString},
                                 Attribute{"priority", DataType::kFloat},
                                 Attribute{"active", DataType::kInt},
                                 Attribute{"fired", DataType::kInt}})));
  for (const std::string& name : rules_->RuleNames()) {
    const Rule* rule = rules_->GetRule(name);
    ARIEL_RETURN_NOT_OK(
        rules
            ->Insert(  // ariel-lint: allow(gateway-mutation) snapshot
                Tuple(std::vector<Value>{
                Value::String(rule->name), Value::String(rule->ruleset),
                Value::Float(rule->priority),
                Value::Int(rule->active ? 1 : 0),
                Value::Int(static_cast<int64_t>(rule->times_fired))}))
            .status());
  }
  return Status::OK();
}

Result<std::string> Database::ExplainPlan(std::string_view command_text) {
  ARIEL_ASSIGN_OR_RETURN(CommandPtr command, ParseCommand(command_text));
  ARIEL_ASSIGN_OR_RETURN(Plan plan, executor_->PlanFor(*command));
  return plan.ToString();
}

// --- TransactionHooks ------------------------------------------------------

Status Database::ApplyUndo(UndoRecord* record) {
  // Compensating tokens batch like forward ones. The tuple records flush
  // before their own storage step when a rule virtually scans the
  // relation; every other record changes the catalog or a conflict set,
  // so the tokens emitted before it propagate first.
  if (record->kind != UndoKind::kInsert && record->kind != UndoKind::kDelete &&
      record->kind != UndoKind::kUpdate) {
    ARIEL_RETURN_NOT_OK(transitions_->FlushTokenBatch());
  }
  switch (record->kind) {
    case UndoKind::kInsert: {
      HeapRelation* rel = catalog_.GetRelationById(record->relation_id);
      if (rel == nullptr) {
        return Status::Internal("undo of insert: relation id " +
                                std::to_string(record->relation_id) +
                                " no longer exists");
      }
      return transitions_->CompensateInsert(rel, record->tid);
    }
    case UndoKind::kDelete: {
      HeapRelation* rel = catalog_.GetRelationById(record->relation_id);
      if (rel == nullptr) {
        return Status::Internal("undo of delete: relation id " +
                                std::to_string(record->relation_id) +
                                " no longer exists");
      }
      return transitions_->CompensateDelete(rel, record->tid, record->before);
    }
    case UndoKind::kUpdate: {
      HeapRelation* rel = catalog_.GetRelationById(record->relation_id);
      if (rel == nullptr) {
        return Status::Internal("undo of update: relation id " +
                                std::to_string(record->relation_id) +
                                " no longer exists");
      }
      return transitions_->CompensateUpdate(rel, record->tid, record->before);
    }
    case UndoKind::kCreateRelation: {
      // Tuple records for anything inserted into the new relation sit above
      // this one and were already compensated; the relation is empty. A
      // rule with an α-memory over it was activated inside this frame, and
      // rule administration is not undone: the rule goes with its relation
      // instead of keeping α-memories on a freed heap. Rules that merely
      // name a tuple variable after the relation are untouched.
      const std::string name = record->name;
      for (const std::string& rule :
           rules_->RulesOver(catalog_.GetRelation(name))) {
        ARIEL_RETURN_NOT_OK(rules_->RemoveRule(rule));
      }
      return catalog_.DropRelation(name);
    }
    case UndoKind::kDropRelation:
      return catalog_.Adopt(std::move(record->detached));
    case UndoKind::kCreateIndex: {
      HeapRelation* rel = catalog_.GetRelationById(record->relation_id);
      if (rel == nullptr) {
        return Status::Internal("undo of define index: relation id " +
                                std::to_string(record->relation_id) +
                                " no longer exists");
      }
      ARIEL_RETURN_NOT_OK(rel->DropIndex(record->name));
      catalog_.BumpVersion();
      return Status::OK();
    }
    case UndoKind::kRuleFired: {
      Rule* rule = rules_->GetRule(record->name);
      if (rule != nullptr) rule->times_fired = record->prev_count;
      return Status::OK();
    }
    case UndoKind::kPNodeState: {
      // A rule deactivated since the save has no conflict set to restore
      // (rule administration is not undoable; see DESIGN.md §9).
      Rule* rule = rules_->GetRule(record->name);
      if (rule == nullptr || rule->network == nullptr) return Status::OK();
      ARIEL_RETURN_NOT_OK(rule->network->pnode()->RestoreState(
          static_cast<const PNode::State&>(*record->payload)));
      network_.Schedule(rule->network.get());
      return Status::OK();
    }
  }
  return Status::Internal("unhandled undo record kind");
}

size_t Database::PendingAlertMark() const { return pending_alerts_.size(); }

void Database::TruncatePendingAlerts(size_t mark) {
  if (pending_alerts_.size() > mark) pending_alerts_.resize(mark);
}

void Database::BeginCompensation() { transitions_->BeginCompensation(); }

Status Database::EndCompensation() { return transitions_->EndCompensation(); }

std::string Database::DebugDumpState() {
  std::ostringstream os;
  for (const std::string& name : catalog_.RelationNames()) {
    const HeapRelation* rel = catalog_.GetRelation(name);
    os << "relation " << name << " (" << rel->size() << " tuples)\n";
    for (TupleId tid : rel->AllTupleIds()) {
      const Tuple* t = rel->Get(tid);
      os << "  " << tid.ToString() << " " << t->ToString() << "\n";
    }
    std::vector<std::string> indexed = rel->IndexedAttributes();
    std::sort(indexed.begin(), indexed.end());
    for (const std::string& attr : indexed) os << "  index " << attr << "\n";
  }
  for (const std::string& name : rules_->RuleNames()) {
    const Rule* rule = rules_->GetRule(name);
    os << "rule " << name << " (" << (rule->active ? "active" : "inactive")
       << ", fired " << rule->times_fired << ")\n";
    if (rule->network == nullptr) continue;
    const RuleNetwork& network = *rule->network;
    for (size_t i = 0; i < network.num_vars(); ++i) {
      const AlphaMemory& alpha = *network.alpha(i);
      if (!alpha.stores_tuples()) continue;
      std::vector<std::string> entries;
      for (const AlphaEntry& entry : alpha.entries()) {
        std::string line = entry.tid.ToString() + " " + entry.value.ToString();
        if (alpha.is_transition()) line += " prev " + entry.previous.ToString();
        entries.push_back(std::move(line));
      }
      std::sort(entries.begin(), entries.end());
      os << "  alpha[" << i << "] (" << entries.size() << " entries)\n";
      for (const std::string& line : entries) os << "    " << line << "\n";
    }
    for (size_t level = 0; level < network.beta_memories().size(); ++level) {
      const BetaMemory& beta = network.beta_memories()[level];
      std::vector<std::string> rows;
      for (const Row& row : beta.rows()) {
        std::string line;
        for (size_t v = 0; v < row.num_vars(); ++v) {
          if (!row.filled[v]) continue;
          line += row.tids[v].ToString() + "=" + row.current[v].ToString() +
                  " ";
        }
        rows.push_back(std::move(line));
      }
      std::sort(rows.begin(), rows.end());
      os << "  beta[" << level << "] (" << rows.size() << " rows)\n";
      for (const std::string& line : rows) os << "    " << line << "\n";
    }
    const PNode* pnode = network.pnode();
    os << "  pnode (" << pnode->size() << " instantiations, "
       << pnode->lifetime_insertions() << " lifetime)\n";
    const HeapRelation& prel = pnode->relation();
    for (TupleId tid : prel.AllTupleIds()) {
      os << "    " << tid.ToString() << " " << prel.Get(tid)->ToString()
         << "\n";
    }
  }
  os << "firing trace (" << Metrics().firing_trace.total_recorded()
     << " recorded)\n";
  for (const FiringTraceEntry& entry : Metrics().firing_trace.Recent(256)) {
    // wall_ms and transition ids are excluded: both advance even for work
    // that is later rolled back, and neither is logical engine state.
    os << "  " << entry.rule << " <- " << entry.trigger << " ("
       << entry.instantiations << " instantiations)\n";
  }
  os << "pending alerts: " << pending_alerts_.size() << "\n";
  os << "txn: open_frames=" << txn_->open_frames()
     << " undo_records=" << txn_->undo_log().size() << "\n";
  return os.str();
}

}  // namespace ariel
