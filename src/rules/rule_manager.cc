#include "rules/rule_manager.h"

#include <algorithm>

#include "util/string_util.h"

namespace ariel {

RuleManager::~RuleManager() {
  // Unregister all active networks before they are destroyed.
  for (auto& [name, rule] : rules_) {
    if (rule->active && rule->network != nullptr) {
      network_->RemoveRule(rule->network.get());
    }
  }
}

Status RuleManager::DefineRule(const DefineRuleCommand& definition) {
  std::string name = ToLower(definition.rule_name);
  if (rules_.contains(name)) {
    return Status::AlreadyExists("rule \"" + name + "\" already exists");
  }
  // Validate eagerly so installation rejects rules that could never
  // activate (unknown relations, bad previous usage, ...).
  ARIEL_RETURN_NOT_OK(CompileRule(definition, *catalog_, policy_).status());

  auto rule = std::make_unique<Rule>();
  rule->id = next_rule_id_++;
  rule->name = name;
  rule->ruleset = definition.ruleset.empty() ? "default_rules"
                                             : ToLower(definition.ruleset);
  rule->priority = definition.priority.value_or(0.0);
  rule->definition.reset(
      static_cast<DefineRuleCommand*>(definition.Clone().release()));
  rules_.emplace(name, std::move(rule));
  return Status::OK();
}

Status RuleManager::ActivateRule(const std::string& raw_name) {
  std::string name = ToLower(raw_name);
  auto it = rules_.find(name);
  if (it == rules_.end()) {
    return Status::NotFound("rule \"" + name + "\" does not exist");
  }
  Rule* rule = it->second.get();
  if (rule->active) {
    return Status::AlreadyExists("rule \"" + name + "\" is already active");
  }

  ARIEL_ASSIGN_OR_RETURN(CompiledRule compiled,
                         CompileRule(*rule->definition, *catalog_, policy_));
  auto network = std::make_unique<RuleNetwork>(
      name, next_pnode_id_++, std::move(compiled.alphas),
      std::move(compiled.join_conjuncts), join_backend_);
  network->set_columnar_exec(columnar_exec_);
  network->set_ordinal(next_ordinal_++);
  ARIEL_RETURN_NOT_OK(network->Init());
  if (undo_ != nullptr) network->pnode()->AttachJournal(undo_);
  ARIEL_RETURN_NOT_OK(network->Prime(optimizer_, network_->AdvanceEpoch()));
  ARIEL_RETURN_NOT_OK(network_->AddRule(network.get()));

  rule_of_network_[network.get()] = rule;
  rule->network = std::move(network);
  rule->modified_action = std::move(compiled.modified_action);
  rule->active = true;
  active_.insert(std::upper_bound(active_.begin(), active_.end(), rule,
                                  [](const Rule* a, const Rule* b) {
                                    return a->id < b->id;
                                  }),
                 rule);
  return Status::OK();
}

Status RuleManager::DeactivateRule(const std::string& raw_name) {
  std::string name = ToLower(raw_name);
  auto it = rules_.find(name);
  if (it == rules_.end()) {
    return Status::NotFound("rule \"" + name + "\" does not exist");
  }
  Rule* rule = it->second.get();
  if (!rule->active) {
    return Status::InvalidArgument("rule \"" + name + "\" is not active");
  }
  // A frame that rolls back after the rule is reactivated restores the
  // conflict set it had when the frame opened, so save it before teardown.
  rule->network->pnode()->Journal();
  network_->RemoveRule(rule->network.get());
  rule_of_network_.erase(rule->network.get());
  rule->network.reset();
  rule->modified_action.clear();
  rule->firing_buffer.reset();
  rule->action_plans.clear();
  rule->active = false;
  std::erase(active_, rule);
  return Status::OK();
}

Status RuleManager::RemoveRule(const std::string& raw_name) {
  std::string name = ToLower(raw_name);
  auto it = rules_.find(name);
  if (it == rules_.end()) {
    return Status::NotFound("rule \"" + name + "\" does not exist");
  }
  if (it->second->active) {
    ARIEL_RETURN_NOT_OK(DeactivateRule(name));
  }
  rules_.erase(it);
  return Status::OK();
}

std::vector<std::string> RuleManager::RulesInRuleset(
    const std::string& raw_ruleset) const {
  std::string ruleset = ToLower(raw_ruleset);
  std::vector<const Rule*> members;
  for (const auto& [name, rule] : rules_) {
    if (rule->ruleset == ruleset) members.push_back(rule.get());
  }
  std::sort(members.begin(), members.end(),
            [](const Rule* a, const Rule* b) { return a->id < b->id; });
  std::vector<std::string> names;
  for (const Rule* rule : members) names.push_back(rule->name);
  return names;
}

Status RuleManager::ActivateRuleset(const std::string& ruleset) {
  std::vector<std::string> members = RulesInRuleset(ruleset);
  if (members.empty()) {
    return Status::NotFound("ruleset \"" + ToLower(ruleset) +
                            "\" has no rules");
  }
  for (const std::string& name : members) {
    if (!rules_.at(name)->active) {
      ARIEL_RETURN_NOT_OK(ActivateRule(name));
    }
  }
  return Status::OK();
}

Status RuleManager::DeactivateRuleset(const std::string& ruleset) {
  std::vector<std::string> members = RulesInRuleset(ruleset);
  if (members.empty()) {
    return Status::NotFound("ruleset \"" + ToLower(ruleset) +
                            "\" has no rules");
  }
  for (const std::string& name : members) {
    if (rules_.at(name)->active) {
      ARIEL_RETURN_NOT_OK(DeactivateRule(name));
    }
  }
  return Status::OK();
}

Rule* RuleManager::GetRule(const std::string& name) {
  auto it = rules_.find(ToLower(name));
  return it == rules_.end() ? nullptr : it->second.get();
}

const Rule* RuleManager::GetRule(const std::string& name) const {
  auto it = rules_.find(ToLower(name));
  return it == rules_.end() ? nullptr : it->second.get();
}

Rule* RuleManager::RuleOf(const RuleNetwork* network) const {
  auto it = rule_of_network_.find(network);
  return it == rule_of_network_.end() ? nullptr : it->second;
}

std::vector<std::string> RuleManager::RuleNames() const {
  std::vector<std::string> names;
  for (const auto& [name, rule] : rules_) names.push_back(name);
  return names;
}

bool RuleManager::AnyRuleReferences(const std::string& relation_name) const {
  std::string lower = ToLower(relation_name);
  for (const auto& [name, rule] : rules_) {
    const DefineRuleCommand& def = *rule->definition;
    if (rule->active && rule->network != nullptr) {
      for (size_t i = 0; i < rule->network->num_vars(); ++i) {
        if (rule->network->alpha(i)->spec().relation->name() == lower) {
          return true;
        }
      }
    }
    if (def.event.has_value() && ToLower(def.event->relation) == lower) {
      return true;
    }
    for (const FromItem& item : def.from) {
      if (ToLower(item.relation) == lower) return true;
    }
    if (def.condition != nullptr) {
      for (const std::string& var : CollectTupleVars(*def.condition)) {
        if (var == lower) return true;
      }
    }
  }
  return false;
}

}  // namespace ariel
