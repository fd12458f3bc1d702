#ifndef ARIEL_RULES_RULE_MANAGER_H_
#define ARIEL_RULES_RULE_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "exec/executor.h"
#include "exec/optimizer.h"
#include "network/discrimination_network.h"
#include "network/rule_network.h"
#include "rules/rule_compiler.h"
#include "txn/undo_log.h"
#include "util/status.h"

namespace ariel {

/// One rule in the rule catalog. Installation stores the (cloned) syntax
/// tree; activation compiles it into a RuleNetwork, primes the α-memories
/// and P-node, and registers the network with the discrimination network
/// (§6 distinguishes exactly these two costs).
struct Rule {
  uint64_t id = 0;  // creation order; the conflict-resolution tiebreaker
  std::string name;
  std::string ruleset;
  double priority = 0;
  std::unique_ptr<DefineRuleCommand> definition;
  bool active = false;

  // Populated while active:
  std::unique_ptr<RuleNetwork> network;
  std::vector<CommandPtr> modified_action;  // after query modification
  /// Reusable relation the P-node drains into at each firing; its stable
  /// identity is what makes cached action plans reusable.
  std::unique_ptr<HeapRelation> firing_buffer;
  /// One stored-plan slot per action command (flattened across blocks),
  /// used when the engine runs with cache_action_plans (§5.3 alternative
  /// to always-reoptimize).
  std::vector<CachedPlan> action_plans;

  uint64_t times_fired = 0;
};

/// The rule catalog plus lifecycle management.
class RuleManager {
 public:
  RuleManager(Catalog* catalog, DiscriminationNetwork* network,
              Optimizer* optimizer)
      : catalog_(catalog), network_(network), optimizer_(optimizer) {}

  ~RuleManager();

  RuleManager(const RuleManager&) = delete;
  RuleManager& operator=(const RuleManager&) = delete;

  /// Installs a rule (stores its definition). Does not activate.
  [[nodiscard]] Status DefineRule(const DefineRuleCommand& definition);

  /// Compiles, primes and registers the rule's network.
  [[nodiscard]] Status ActivateRule(const std::string& name);

  /// Unregisters the network; the definition stays installed.
  [[nodiscard]] Status DeactivateRule(const std::string& name);

  /// Deactivates (if needed) and removes the rule entirely.
  [[nodiscard]] Status RemoveRule(const std::string& name);

  /// Activates every inactive rule in the named ruleset (§2.1 rulesets).
  /// Fails if the ruleset has no rules; already-active members are skipped.
  [[nodiscard]] Status ActivateRuleset(const std::string& ruleset);

  /// Deactivates every active rule in the named ruleset.
  [[nodiscard]] Status DeactivateRuleset(const std::string& ruleset);

  /// Names of rules in a ruleset, in creation order.
  std::vector<std::string> RulesInRuleset(const std::string& ruleset) const;

  Rule* GetRule(const std::string& name);
  const Rule* GetRule(const std::string& name) const;

  /// Active rules in creation order (kept up to date by activation and
  /// deactivation, so reading it costs nothing).
  const std::vector<Rule*>& ActiveRules() const { return active_; }

  /// The active rule whose current network is `network`, or null.
  Rule* RuleOf(const RuleNetwork* network) const;

  /// The discrimination network rules register with (its agenda drives
  /// conflict resolution).
  DiscriminationNetwork* network() const { return network_; }

  /// Undo log the P-nodes of subsequently activated rules journal into
  /// (null = no journaling).
  void set_undo_log(UndoLog* undo) { undo_ = undo; }

  /// All rule names, sorted (introspection).
  std::vector<std::string> RuleNames() const;

  /// True if any installed rule's definition references `relation_name`
  /// (used to refuse destroying relations rules depend on).
  bool AnyRuleReferences(const std::string& relation_name) const;

  /// Active rules with an α-memory over `relation`, sorted (undoing the
  /// relation's creation removes them before the drop).
  std::vector<std::string> RulesOver(const HeapRelation* relation) const;

  size_t num_rules() const { return rules_.size(); }

  const AlphaMemoryPolicy& policy() const { return policy_; }
  void set_policy(AlphaMemoryPolicy policy) { policy_ = policy; }

  /// Join-network algorithm for subsequently activated pattern rules.
  JoinBackend join_backend() const { return join_backend_; }
  void set_join_backend(JoinBackend backend) { join_backend_ = backend; }

  /// Columnar candidate prefilters on stored-α scan fallbacks for
  /// subsequently activated rules (mirrors
  /// OptimizerOptions.columnar_exec).
  void set_columnar_exec(bool on) { columnar_exec_ = on; }

 private:
  Catalog* catalog_;
  DiscriminationNetwork* network_;
  Optimizer* optimizer_;
  UndoLog* undo_ = nullptr;
  AlphaMemoryPolicy policy_;
  JoinBackend join_backend_ = JoinBackend::kTreat;
  bool columnar_exec_ = true;

  uint64_t next_rule_id_ = 1;
  /// Activation counter behind RuleNetwork::ordinal.
  uint64_t next_ordinal_ = 1;
  /// P-node relation ids come from a reserved range far above catalog ids.
  uint32_t next_pnode_id_ = 1u << 30;
  std::map<std::string, std::unique_ptr<Rule>> rules_;
  std::vector<Rule*> active_;  // ordered by id
  std::unordered_map<const RuleNetwork*, Rule*> rule_of_network_;
};

}  // namespace ariel

#endif  // ARIEL_RULES_RULE_MANAGER_H_
