#include "rules/rule_compiler.h"

#include <algorithm>
#include <set>

#include "exec/optimizer.h"
#include "util/string_util.h"

namespace ariel {
namespace {

/// Applies `fn` to every expression of a command (targets, qualification),
/// recursing into blocks.
void ForEachExpr(const Command& command,
                 const std::function<void(const Expr&)>& fn) {
  auto visit_targets = [&](const std::vector<Assignment>& targets) {
    for (const Assignment& a : targets) fn(*a.expr);
  };
  switch (command.kind) {
    case CommandKind::kRetrieve: {
      const auto& cmd = static_cast<const RetrieveCommand&>(command);
      visit_targets(cmd.targets);
      if (cmd.qualification) fn(*cmd.qualification);
      break;
    }
    case CommandKind::kAppend: {
      const auto& cmd = static_cast<const AppendCommand&>(command);
      visit_targets(cmd.targets);
      if (cmd.qualification) fn(*cmd.qualification);
      break;
    }
    case CommandKind::kDelete: {
      const auto& cmd = static_cast<const DeleteCommand&>(command);
      if (cmd.qualification) fn(*cmd.qualification);
      break;
    }
    case CommandKind::kReplace: {
      const auto& cmd = static_cast<const ReplaceCommand&>(command);
      visit_targets(cmd.targets);
      if (cmd.qualification) fn(*cmd.qualification);
      break;
    }
    case CommandKind::kBlock: {
      const auto& cmd = static_cast<const BlockCommand&>(command);
      for (const CommandPtr& inner : cmd.commands) ForEachExpr(*inner, fn);
      break;
    }
    default:
      break;
  }
}

/// Collects tuple variables referenced with the `previous` keyword.
void CollectPreviousVars(const Expr& expr, std::set<std::string>* out) {
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (ref.previous) out->insert(ToLower(ref.tuple_var));
      break;
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      CollectPreviousVars(*bin.lhs, out);
      CollectPreviousVars(*bin.rhs, out);
      break;
    }
    case ExprKind::kUnary:
      CollectPreviousVars(*static_cast<const UnaryExpr&>(expr).operand, out);
      break;
    case ExprKind::kAggregate: {
      const auto& agg = static_cast<const AggregateExpr&>(expr);
      if (agg.operand != nullptr) CollectPreviousVars(*agg.operand, out);
      break;
    }
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Query modification (§5.1)
// ---------------------------------------------------------------------------

bool IsShared(const std::string& var,
              const std::vector<std::string>& shared_vars) {
  std::string lower = ToLower(var);
  return std::find(shared_vars.begin(), shared_vars.end(), lower) !=
         shared_vars.end();
}

/// Rewrites shared-variable references into P-node column references.
Result<ExprPtr> RewriteExpr(const Expr& expr,
                            const std::vector<std::string>& shared_vars) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kNew:
      return expr.Clone();
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (!IsShared(ref.tuple_var, shared_vars)) return expr.Clone();
      if (ref.is_all()) {
        return Status::SemanticError(
            "\"" + ref.tuple_var +
            ".all\" of a shared variable must appear directly in a target "
            "list");
      }
      std::string column = ToLower(ref.tuple_var) +
                           (ref.previous ? ".previous." : ".") +
                           ToLower(ref.attribute);
      return ExprPtr(std::make_unique<ColumnRefExpr>("p", std::move(column)));
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      ARIEL_ASSIGN_OR_RETURN(ExprPtr lhs, RewriteExpr(*bin.lhs, shared_vars));
      ARIEL_ASSIGN_OR_RETURN(ExprPtr rhs, RewriteExpr(*bin.rhs, shared_vars));
      return ExprPtr(std::make_unique<BinaryExpr>(bin.op, std::move(lhs),
                                                  std::move(rhs)));
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(expr);
      ARIEL_ASSIGN_OR_RETURN(ExprPtr operand,
                             RewriteExpr(*un.operand, shared_vars));
      return ExprPtr(
          std::make_unique<UnaryExpr>(un.op, std::move(operand)));
    }
    case ExprKind::kAggregate: {
      const auto& agg = static_cast<const AggregateExpr&>(expr);
      ExprPtr operand;
      if (agg.operand != nullptr) {
        ARIEL_ASSIGN_OR_RETURN(operand,
                               RewriteExpr(*agg.operand, shared_vars));
      }
      // count(v) over a shared variable counts the P-node bindings.
      std::string var = agg.tuple_var;
      if (!var.empty() && IsShared(var, shared_vars)) var = "p";
      return ExprPtr(std::make_unique<AggregateExpr>(agg.func, std::move(var),
                                                     std::move(operand)));
    }
  }
  return Status::Internal("unhandled expression kind in query modification");
}

/// Rewrites a target list, expanding `v.all` of shared variables into
/// explicit per-attribute P-node references (the P-node also carries tid
/// and previous-value columns, so a blind `p.all` would be wrong).
Result<std::vector<Assignment>> RewriteTargets(
    const std::vector<Assignment>& targets,
    const std::vector<std::string>& shared_vars, const Catalog& catalog) {
  std::vector<Assignment> out;
  for (const Assignment& a : targets) {
    if (a.expr->kind == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(*a.expr);
      if (ref.is_all() && IsShared(ref.tuple_var, shared_vars)) {
        if (!a.name.empty()) {
          return Status::SemanticError(
              "cannot assign \"" + ref.tuple_var +
              ".all\" to a single attribute");
        }
        ARIEL_ASSIGN_OR_RETURN(const HeapRelation* rel,
                               catalog.FindRelation(ref.tuple_var));
        for (const Attribute& attr : rel->schema().attributes()) {
          std::string column = ToLower(ref.tuple_var) +
                               (ref.previous ? ".previous." : ".") +
                               attr.name;
          out.emplace_back("", std::make_unique<ColumnRefExpr>(
                                   "p", std::move(column)));
        }
        continue;
      }
    }
    ARIEL_ASSIGN_OR_RETURN(ExprPtr expr, RewriteExpr(*a.expr, shared_vars));
    out.emplace_back(a.name, std::move(expr));
  }
  return out;
}

Result<std::vector<FromItem>> RewriteFrom(
    const std::vector<FromItem>& from,
    const std::vector<std::string>& shared_vars) {
  std::vector<FromItem> out;
  for (const FromItem& item : from) {
    if (IsShared(item.var, shared_vars)) {
      if (!EqualsIgnoreCase(item.var, item.relation)) {
        return Status::SemanticError(
            "action from-list redefines rule variable \"" + item.var + "\"");
      }
      continue;  // binding supplied by the P-node
    }
    out.push_back(item);
  }
  return out;
}

}  // namespace

Result<CommandPtr> QueryModifyCommand(
    const Command& command, const std::vector<std::string>& shared_vars,
    const Catalog& catalog) {
  switch (command.kind) {
    case CommandKind::kRetrieve: {
      const auto& cmd = static_cast<const RetrieveCommand&>(command);
      auto out = std::make_unique<RetrieveCommand>();
      ARIEL_ASSIGN_OR_RETURN(out->targets,
                             RewriteTargets(cmd.targets, shared_vars, catalog));
      ARIEL_ASSIGN_OR_RETURN(out->from, RewriteFrom(cmd.from, shared_vars));
      if (cmd.qualification) {
        ARIEL_ASSIGN_OR_RETURN(out->qualification,
                               RewriteExpr(*cmd.qualification, shared_vars));
      }
      return CommandPtr(std::move(out));
    }
    case CommandKind::kAppend: {
      const auto& cmd = static_cast<const AppendCommand&>(command);
      auto out = std::make_unique<AppendCommand>();
      out->relation = cmd.relation;
      ARIEL_ASSIGN_OR_RETURN(out->targets,
                             RewriteTargets(cmd.targets, shared_vars, catalog));
      ARIEL_ASSIGN_OR_RETURN(out->from, RewriteFrom(cmd.from, shared_vars));
      if (cmd.qualification) {
        ARIEL_ASSIGN_OR_RETURN(out->qualification,
                               RewriteExpr(*cmd.qualification, shared_vars));
      }
      return CommandPtr(std::move(out));
    }
    case CommandKind::kDelete: {
      const auto& cmd = static_cast<const DeleteCommand&>(command);
      auto out = std::make_unique<DeleteCommand>();
      if (IsShared(cmd.target_var, shared_vars)) {
        out->primed = true;
        out->target_var = "p." + ToLower(cmd.target_var);
      } else {
        out->primed = cmd.primed;
        out->target_var = cmd.target_var;
      }
      ARIEL_ASSIGN_OR_RETURN(out->from, RewriteFrom(cmd.from, shared_vars));
      if (cmd.qualification) {
        ARIEL_ASSIGN_OR_RETURN(out->qualification,
                               RewriteExpr(*cmd.qualification, shared_vars));
      }
      return CommandPtr(std::move(out));
    }
    case CommandKind::kReplace: {
      const auto& cmd = static_cast<const ReplaceCommand&>(command);
      auto out = std::make_unique<ReplaceCommand>();
      if (IsShared(cmd.target_var, shared_vars)) {
        out->primed = true;
        out->target_var = "p." + ToLower(cmd.target_var);
      } else {
        out->primed = cmd.primed;
        out->target_var = cmd.target_var;
      }
      ARIEL_ASSIGN_OR_RETURN(out->targets,
                             RewriteTargets(cmd.targets, shared_vars, catalog));
      ARIEL_ASSIGN_OR_RETURN(out->from, RewriteFrom(cmd.from, shared_vars));
      if (cmd.qualification) {
        ARIEL_ASSIGN_OR_RETURN(out->qualification,
                               RewriteExpr(*cmd.qualification, shared_vars));
      }
      return CommandPtr(std::move(out));
    }
    case CommandKind::kBlock: {
      const auto& cmd = static_cast<const BlockCommand&>(command);
      auto out = std::make_unique<BlockCommand>();
      for (const CommandPtr& inner : cmd.commands) {
        ARIEL_ASSIGN_OR_RETURN(
            CommandPtr rewritten,
            QueryModifyCommand(*inner, shared_vars, catalog));
        out->commands.push_back(std::move(rewritten));
      }
      return CommandPtr(std::move(out));
    }
    default:
      return command.Clone();
  }
}

Result<CompiledRule> CompileRule(const DefineRuleCommand& rule,
                                 const Catalog& catalog,
                                 const AlphaMemoryPolicy& policy) {
  // ---- Resolve tuple variables -------------------------------------------
  struct VarInfo {
    std::string name;
    const HeapRelation* relation = nullptr;
    std::vector<ExprPtr> selections;
    std::set<std::string> equijoin_attrs;
    bool has_previous = false;
    bool is_event = false;
  };
  std::vector<VarInfo> vars;
  auto find_var = [&](const std::string& name) -> VarInfo* {
    std::string lower = ToLower(name);
    for (VarInfo& v : vars) {
      if (v.name == lower) return &v;
    }
    return nullptr;
  };
  auto add_var = [&](const std::string& var_name,
                     const std::string& relation_name) -> Status {
    if (find_var(var_name) != nullptr) {
      return Status::SemanticError("tuple variable \"" + ToLower(var_name) +
                                   "\" declared twice in rule \"" +
                                   rule.rule_name + "\"");
    }
    ARIEL_ASSIGN_OR_RETURN(const HeapRelation* rel,
                           catalog.FindRelation(relation_name));
    VarInfo info;
    info.name = ToLower(var_name);
    info.relation = rel;
    vars.push_back(std::move(info));
    return Status::OK();
  };

  for (const FromItem& item : rule.from) {
    ARIEL_RETURN_NOT_OK(add_var(item.var, item.relation));
  }
  if (rule.event.has_value()) {
    // The on-clause relation is referenced through its default tuple
    // variable (the relation name itself).
    if (find_var(rule.event->relation) == nullptr) {
      ARIEL_RETURN_NOT_OK(add_var(rule.event->relation, rule.event->relation));
    }
    find_var(rule.event->relation)->is_event = true;
  }
  if (rule.condition != nullptr) {
    for (const std::string& name : CollectTupleVars(*rule.condition)) {
      if (find_var(name) == nullptr) {
        Status st = add_var(name, name);
        if (!st.ok()) {
          return Status::SemanticError(
              "rule \"" + rule.rule_name + "\": tuple variable \"" + name +
              "\" is not in the from-list and is not a relation name");
        }
      }
    }
  }
  if (vars.empty()) {
    return Status::SemanticError("rule \"" + rule.rule_name +
                                 "\" has no tuple variables (no on-clause "
                                 "and no condition)");
  }

  // ---- Classify condition conjuncts --------------------------------------
  std::vector<ExprPtr> join_conjuncts;
  if (rule.condition != nullptr) {
    std::set<std::string> prev_vars;
    CollectPreviousVars(*rule.condition, &prev_vars);
    for (const std::string& pv : prev_vars) {
      VarInfo* v = find_var(pv);
      if (v == nullptr) {
        return Status::Internal("previous-variable not resolved");
      }
      v->has_previous = true;
    }

    for (ExprPtr& conjunct : SplitConjuncts(*rule.condition)) {
      std::vector<std::string> touched = CollectTupleVars(*conjunct);
      if (touched.size() == 1) {
        find_var(touched[0])->selections.push_back(std::move(conjunct));
      } else if (touched.empty()) {
        // Constant conjunct: attach to the first variable's selection.
        vars[0].selections.push_back(std::move(conjunct));
      } else {
        join_conjuncts.push_back(std::move(conjunct));
      }
    }
  }

  // Equijoin key metadata for the network's hash join indexes: for each
  // equality join conjunct with a bare column reference on one side whose
  // other side does not touch that variable, flag the attribute on the
  // variable's α-memory spec. The network derives both hash key specs and
  // B+tree probe paths only from flagged attributes.
  for (const ExprPtr& conjunct : join_conjuncts) {
    if (conjunct->kind != ExprKind::kBinary) continue;
    const auto& bin = static_cast<const BinaryExpr&>(*conjunct);
    if (bin.op != BinaryOp::kEq) continue;
    for (bool flip : {false, true}) {
      const Expr* ref_side = flip ? bin.rhs.get() : bin.lhs.get();
      const Expr* key_side = flip ? bin.lhs.get() : bin.rhs.get();
      if (ref_side->kind != ExprKind::kColumnRef) continue;
      const auto& ref = static_cast<const ColumnRefExpr&>(*ref_side);
      if (ref.previous || ref.is_all()) continue;
      VarInfo* v = find_var(ref.tuple_var);
      if (v == nullptr) continue;
      std::vector<std::string> key_vars = CollectTupleVars(*key_side);
      bool self_reference = key_vars.empty();
      for (const std::string& kv : key_vars) {
        if (kv == v->name) self_reference = true;
      }
      if (self_reference) continue;
      v->equijoin_attrs.insert(ToLower(ref.attribute));
    }
  }

  // Validate `previous` in the action: only transition variables carry old
  // values into the P-node.
  {
    std::set<std::string> action_prev;
    for (const CommandPtr& cmd : rule.action) {
      ForEachExpr(*cmd, [&](const Expr& e) { CollectPreviousVars(e, &action_prev); });
    }
    for (const std::string& pv : action_prev) {
      VarInfo* v = find_var(pv);
      if (v != nullptr && !v->has_previous) {
        return Status::SemanticError(
            "rule \"" + rule.rule_name + "\": action uses \"previous " + pv +
            "\" but the condition has no transition condition on \"" + pv +
            "\"");
      }
    }
  }

  // An append or delete event cannot carry transition pairs.
  if (rule.event.has_value() && rule.event->kind != EventKind::kReplace) {
    VarInfo* ev = find_var(rule.event->relation);
    if (ev != nullptr && ev->has_previous) {
      return Status::SemanticError(
          "rule \"" + rule.rule_name + "\": \"previous\" on the " +
          std::string(EventKindToString(rule.event->kind)) +
          "-event variable can never match (only replace produces "
          "transition pairs)");
    }
  }
  // Validate replace-event attribute names.
  if (rule.event.has_value() && !rule.event->attributes.empty()) {
    const HeapRelation* rel = find_var(rule.event->relation)->relation;
    for (const std::string& attr : rule.event->attributes) {
      if (rel->schema().IndexOf(attr) < 0) {
        return Status::SemanticError(
            "rule \"" + rule.rule_name + "\": on-clause names unknown "
            "attribute \"" + attr + "\" of \"" + rel->name() + "\"");
      }
    }
  }

  // ---- Build α-memory specs ----------------------------------------------
  CompiledRule compiled;
  const bool single_var = vars.size() == 1;
  for (VarInfo& v : vars) {
    AlphaSpec spec;
    spec.var_name = v.name;
    spec.relation = v.relation;
    spec.has_previous = v.has_previous;
    spec.equijoin_attrs.assign(v.equijoin_attrs.begin(),
                               v.equijoin_attrs.end());
    if (v.is_event) {
      spec.on_event = *rule.event;
      // Normalize attribute names for case-insensitive matching.
      for (std::string& attr : spec.on_event->attributes) attr = ToLower(attr);
    }

    double selectivity = 1.0;
    for (const ExprPtr& s : v.selections) {
      selectivity *= EstimateSelectivity(*s);
    }
    spec.selection = CombineConjuncts(std::move(v.selections));

    if (single_var) {
      spec.kind = v.has_previous ? AlphaKind::kSimpleTrans
                  : v.is_event   ? AlphaKind::kSimpleOn
                                 : AlphaKind::kSimple;
    } else if (v.has_previous) {
      spec.kind = AlphaKind::kDynamicTrans;
    } else if (v.is_event) {
      spec.kind = AlphaKind::kDynamicOn;
    } else {
      switch (policy.mode) {
        case AlphaMemoryPolicy::Mode::kAllStored:
          spec.kind = AlphaKind::kStored;
          break;
        case AlphaMemoryPolicy::Mode::kAllVirtual:
          spec.kind = AlphaKind::kVirtual;
          break;
        case AlphaMemoryPolicy::Mode::kAdaptive: {
          // A selection-free memory would copy the whole relation, tuple
          // for tuple; when an equijoin key can probe the relation's join
          // hash index instead, that copy buys nothing whatever its size.
          const bool copies_relation =
              spec.selection == nullptr && !spec.equijoin_attrs.empty();
          double estimated = selectivity * static_cast<double>(
                                               v.relation->size());
          spec.kind = copies_relation || estimated >= policy.virtual_threshold
                          ? AlphaKind::kVirtual
                          : AlphaKind::kStored;
          break;
        }
      }
    }
    compiled.alphas.push_back(std::move(spec));
  }
  compiled.join_conjuncts = std::move(join_conjuncts);

  // ---- Validate action command kinds --------------------------------------
  std::function<Status(const Command&)> check_action =
      [&](const Command& cmd) -> Status {
    switch (cmd.kind) {
      case CommandKind::kRetrieve:
      case CommandKind::kAppend:
      case CommandKind::kDelete:
      case CommandKind::kReplace:
      case CommandKind::kHalt:
        return Status::OK();
      case CommandKind::kBlock: {
        for (const CommandPtr& inner :
             static_cast<const BlockCommand&>(cmd).commands) {
          ARIEL_RETURN_NOT_OK(check_action(*inner));
        }
        return Status::OK();
      }
      default:
        return Status::SemanticError(
            "rule \"" + rule.rule_name +
            "\": only data manipulation commands and halt are allowed in a "
            "rule action");
    }
  };
  for (const CommandPtr& cmd : rule.action) {
    ARIEL_RETURN_NOT_OK(check_action(*cmd));
  }

  // ---- Query modification of the action ----------------------------------
  std::vector<std::string> shared;
  for (const VarInfo& v : vars) shared.push_back(v.name);
  for (const CommandPtr& cmd : rule.action) {
    ARIEL_ASSIGN_OR_RETURN(CommandPtr modified,
                           QueryModifyCommand(*cmd, shared, catalog));
    compiled.modified_action.push_back(std::move(modified));
  }
  return compiled;
}

}  // namespace ariel
