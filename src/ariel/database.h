#ifndef ARIEL_ARIEL_DATABASE_H_
#define ARIEL_ARIEL_DATABASE_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/rule_analyzer.h"
#include "catalog/catalog.h"
#include "exec/executor.h"
#include "exec/failpoint_gateway.h"
#include "exec/optimizer.h"
#include "network/discrimination_network.h"
#include "network/network_auditor.h"
#include "network/transition_manager.h"
#include "rules/alpha_policy.h"
#include "rules/rule_manager.h"
#include "rules/rule_monitor.h"
#include "txn/txn_context.h"
#include "util/status.h"

namespace ariel {

/// Engine-level configuration.
struct DatabaseOptions {
  /// `define rule` both installs and activates (convenient interactive
  /// behaviour). The Figure 9-11 benchmarks disable this to time the two
  /// phases separately, as the paper does.
  bool auto_activate_rules = true;
  /// Stored-vs-virtual α-memory choice for pattern variables.
  AlphaMemoryPolicy alpha_policy;
  OptimizerOptions optimizer;
  /// Runaway-cascade guard for the recognize-act cycle.
  size_t max_rule_firings_per_cycle = 100000;
  /// Stored-plan strategy for rule actions (§5.3): reuse plans across
  /// firings, invalidated by catalog changes. Off = always-reoptimize,
  /// the paper's choice.
  bool cache_action_plans = false;
  /// Join-network algorithm for pattern rules: the paper's TREAT (default)
  /// or classic Rete with β-memories (§8's combined-network direction).
  JoinBackend join_backend = JoinBackend::kTreat;
  /// Equal-priority tie-break: deterministic definition order (default) or
  /// OPS5-style recency.
  ConflictStrategy conflict_strategy = ConflictStrategy::kDefinitionOrder;
  /// Δ-set batching: accumulate up to this many tokens per transition and
  /// propagate them as one selection-network pass plus per-rule match stage.
  /// 0 (default) or 1: flush every token, the paper's order. Overridable
  /// with the ARIEL_BATCH_TOKENS env var.
  size_t batch_tokens = 0;
  /// Worker threads for the parallel per-rule match stage of a batch flush
  /// (the calling thread also participates). 0 = serial matching. Only
  /// meaningful with batch_tokens > 1; results are byte-identical at every
  /// thread count. Overridable with the ARIEL_MATCH_THREADS env var.
  size_t match_threads = 0;
  /// What a failing rule action does to the enclosing top-level command:
  /// roll the whole command and its cascade back (default), roll back just
  /// the failing firing's savepoint and keep cascading, or keep the partial
  /// effects and keep cascading. Overridable with the ARIEL_ON_ACTION_ERROR
  /// env var (abort_command | abort_rule | ignore).
  ActionErrorPolicy on_action_error = ActionErrorPolicy::kAbortCommand;
  /// Fault injection: fail the Nth tuple mutation the executor issues
  /// (1-based; 0 = off). The rollback-equivalence tests sweep this to prove
  /// aborted commands leave no trace. Overridable with the ARIEL_FAILPOINT
  /// env var.
  size_t failpoint_at = 0;
  /// Static rule-set analysis at `define rule` time: off (default) skips
  /// it, warn appends the analyzer's findings to the install result, error
  /// additionally rejects (uninstalls) rules whose installation creates a
  /// definite non-terminating cascade. Overridable with the ARIEL_ANALYZE
  /// env var (off | warn | error).
  AnalyzeOnInstall analyze_on_install = AnalyzeOnInstall::kOff;
};

/// A pinned, consistent view of the engine taken at a quiescence point.
/// Holding one keeps every relation's tuple storage alive (shared_ptr pins
/// into the copy-on-write stores) so a concurrent reader can never touch
/// freed memory even while the engine thread mutates: writers detach (clone)
/// a pinned store instead of mutating it in place. Cheap to take — one
/// shared_ptr copy per relation, no tuple copying. B+tree indexes are *not*
/// pinned; index-backed plans rely on reads never overlapping a mutating
/// command rather than on the snapshot.
struct ReadSnapshot {
  /// Catalog schema epoch at acquisition (plan-cache style staleness check).
  uint64_t catalog_version = 0;
  struct Pin {
    const HeapRelation* relation = nullptr;
    std::shared_ptr<const TupleStore> store;
    /// Relation mutation-version stamp at acquisition.
    uint64_t version = 0;
  };
  std::vector<Pin> pins;
};

/// The Ariel active DBMS: a relational engine whose update processing is
/// tightly coupled with an A-TREAT production-rule system.
///
/// Usage:
///   ariel::Database db;
///   db.Execute("create emp (name = string, age = int, sal = float, "
///              "dno = int, jno = int)");
///   db.Execute("define rule NoBobs on append emp if emp.name = \"Bob\" "
///              "then delete emp");
///   db.Execute("append emp (name=\"Bob\", age=27, sal=55000.0, dno=1, "
///              "jno=2)");   // NoBobs fires; Bob never survives
///
/// Execute parses a script of one or more POSTQUEL/ARL commands, runs each
/// as a transition (a do…end block is a single transition), and after every
/// mutating command runs the recognize-act cycle until no rule is eligible
/// or a rule executes halt.
class Database : private TransactionHooks {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Parses and executes a script; returns the result of its last command.
  Result<CommandResult> Execute(std::string_view script);

  /// Parses and executes a script; returns all command results.
  Result<std::vector<CommandResult>> ExecuteAll(std::string_view script);

  /// Executes one pre-parsed command.
  Result<CommandResult> ExecuteCommand(const Command& command);

  /// Takes a pinned snapshot of the current state. Must be called at engine
  /// quiescence (between commands); the returned handle may then outlive
  /// subsequent mutations.
  ReadSnapshot AcquireReadSnapshot() const;

  /// Const-clean execution of a read-only command (IsReadOnlyCommand must
  /// hold) against a pinned snapshot: plain retrieve, show stats (without
  /// reset), explain rule, analyze rules. Touches no engine state — any
  /// number of callers may run concurrently with each other, but not with
  /// a mutating command. ExecuteCommand routes every read-only command
  /// through this path.
  [[nodiscard]] Result<CommandResult> ExecuteReadOnly(
      const Command& command, const ReadSnapshot& snapshot) const;

  /// Renders the physical plan the optimizer would use for a DML command.
  Result<std::string> ExplainPlan(std::string_view command_text);

  /// Asynchronous trigger output (§8 future work: "applications that can
  /// receive data from database triggers asynchronously — safety and
  /// integrity alert monitors, stock tickers"). The callback fires once per
  /// tuple logically appended to `relation`, after the appending
  /// transition's recognize-act cycle quiesces. Appends retracted within
  /// their transition (the §2.2.2 im*d case) are never delivered — alerts
  /// follow logical, not physical, events. Typical use: rules append to an
  /// alert relation; the application subscribes to it.
  using AlertCallback =
      std::function<void(const std::string& relation, const Tuple& tuple)>;
  Status Subscribe(std::string_view relation, AlertCallback callback);

  /// Names of the queryable system catalogs, refreshed before every
  /// retrieve that could see them:
  ///   sysrelations(name, tuples, indexes)
  ///   sysrules(name, ruleset, priority, active, fired)
  /// They are snapshots — mutating them has no effect on the engine.
  static constexpr const char* kSysRelations = "sysrelations";
  static constexpr const char* kSysRules = "sysrules";

  // --- Introspection / instrumentation (benchmarks, tests, examples) ---
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  RuleManager& rules() { return *rules_; }
  RuleExecutionMonitor& monitor() { return *monitor_; }
  const DiscriminationNetwork& network() const { return network_; }
  TransitionManager& transitions() { return *transitions_; }
  Executor& executor() { return *executor_; }
  Optimizer& optimizer() { return optimizer_; }
  const DatabaseOptions& options() const { return options_; }

  /// The transaction spine: open frames, the undo log, rollback counters.
  TransactionContext& txn() { return *txn_; }

  /// Fault-injection wrapper sitting between the executor and the
  /// transition manager; the rollback-equivalence tests arm it to fail the
  /// Nth mutation of a command. Rollback never passes through it.
  FailpointGateway& failpoint() { return *failpoint_; }

  /// Canonical rendering of the engine's observable state: relations (tids
  /// and values), rule firing counters, α-memory entries, Rete β-memories,
  /// P-node conflict sets, the firing trace, and pending alerts — all in
  /// deterministic order, excluding wall-clock and cumulative metrics. Two
  /// engines in the same logical state render byte-identically; the
  /// rollback-equivalence tests diff this across abort boundaries.
  std::string DebugDumpState();

  /// Cross-checks the discrimination network's incremental state against
  /// ground truth recomputed from the base relations (see NetworkAuditor).
  /// Callable in any build; when compiled with ARIEL_AUDIT the engine also
  /// runs it automatically after every recognize-act cycle and fails the
  /// triggering command on any violation.
  [[nodiscard]] Result<std::vector<AuditViolation>> AuditNetwork();

 private:
  Result<CommandResult> ExecuteDml(const Command& command);

  /// Renders the `show stats` report (const: shared by the read path and
  /// the mutating reset form, which appends the reset notice).
  std::string RenderStats() const;

  /// Brackets one top-level command (DDL executes directly, DML via
  /// ExecuteDml) in a command transaction frame: success commits, failure
  /// rolls the command and its entire cascade back before the error
  /// propagates.
  Result<CommandResult> ExecuteTransacted(const Command& command, bool ddl);

  /// Runs AuditNetwork and converts any violation into an Internal error
  /// (ARIEL_AUDIT builds call this at every quiescence point).
  Status AuditOrFail(const char* when);

  // TransactionHooks (rollback services for txn_):
  Status ApplyUndo(UndoRecord* record) override;
  size_t PendingAlertMark() const override;
  void TruncatePendingAlerts(size_t mark) override;
  void BeginCompensation() override;
  Status EndCompensation() override;

  /// Rebuilds the system-catalog snapshot relations.
  Status RefreshSystemCatalogs();

  /// Queues/cancels alerts as tokens flow (logical-event semantics).
  void ObserveToken(const Token& token);
  /// Delivers queued alerts once the engine is quiescent.
  void DrainAlerts();

  struct PendingAlert {
    uint32_t relation_id;
    TupleId tid;
    Tuple value;
  };

  DatabaseOptions options_;
  std::unordered_map<uint32_t, std::vector<AlertCallback>> subscriptions_;
  std::vector<PendingAlert> pending_alerts_;
  Catalog catalog_;
  Optimizer optimizer_;
  /// Workers for the batch-propagation match stage; null when
  /// match_threads = 0. Declared before network_ so the pool outlives the
  /// network that dispatches onto it.
  std::unique_ptr<ThreadPool> match_pool_;
  DiscriminationNetwork network_;
  std::unique_ptr<TransitionManager> transitions_;
  std::unique_ptr<FailpointGateway> failpoint_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<RuleManager> rules_;
  std::unique_ptr<RuleExecutionMonitor> monitor_;
  /// Declared last: its rollback hooks reach every component above.
  std::unique_ptr<TransactionContext> txn_;
};

}  // namespace ariel

#endif  // ARIEL_ARIEL_DATABASE_H_
