#include "network/network_auditor.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/row.h"
#include "storage/heap_relation.h"
#include "storage/tuple.h"

namespace ariel {

const char* AuditViolationKindToString(AuditViolationKind kind) {
  switch (kind) {
    case AuditViolationKind::kAlphaMissing: return "alpha-missing";
    case AuditViolationKind::kAlphaExtra: return "alpha-extra";
    case AuditViolationKind::kAlphaStale: return "alpha-stale";
    case AuditViolationKind::kAlphaDuplicate: return "alpha-duplicate";
    case AuditViolationKind::kDynamicNotFlushed: return "dynamic-not-flushed";
    case AuditViolationKind::kPnodeDangling: return "pnode-dangling";
    case AuditViolationKind::kPnodeStale: return "pnode-stale";
    case AuditViolationKind::kIslInconsistent: return "isl-inconsistent";
    case AuditViolationKind::kJoinIndexInconsistent:
      return "join-index-inconsistent";
    case AuditViolationKind::kBatchTokensPending:
      return "batch-tokens-pending";
    case AuditViolationKind::kUndoResidue:
      return "undo-residue";
    case AuditViolationKind::kColumnCacheIncoherent:
      return "column-cache-incoherent";
    case AuditViolationKind::kAgendaMissing:
      return "agenda-missing";
  }
  return "unknown";
}

std::string AuditViolation::ToString() const {
  return std::string(AuditViolationKindToString(kind)) + " [" + rule + "] " +
         detail;
}

namespace {

void Report(std::vector<AuditViolation>* out, AuditViolationKind kind,
            const std::string& rule, std::string detail) {
  out->push_back(AuditViolation{kind, rule, std::move(detail)});
}

/// Names one α-memory for violation messages: "var e (stored over emp)".
std::string DescribeAlpha(const AlphaMemory& alpha) {
  return "var " + alpha.spec().var_name + " (" +
         AlphaKindToString(alpha.kind()) + " over " +
         alpha.spec().relation->name() + ")";
}

/// Recomputes the set of base tuples this memory's selection predicate
/// admits, keyed by encoded tid.
Result<std::unordered_map<int64_t, const Tuple*>> ExpectedAlphaContents(
    const RuleNetwork& rule, const AlphaMemory& alpha) {
  const HeapRelation* base = alpha.spec().relation;
  const CompiledExpr* selection = alpha.compiled_selection();
  std::unordered_map<int64_t, const Tuple*> expected;
  for (TupleId tid : base->AllTupleIds()) {
    const Tuple* tuple = base->Get(tid);
    if (tuple == nullptr) continue;
    if (selection != nullptr) {
      Row scratch(rule.num_vars());
      scratch.Set(alpha.var_ordinal(), *tuple, tid);
      ARIEL_ASSIGN_OR_RETURN(bool matches, selection->EvalPredicate(scratch));
      if (!matches) continue;
    }
    expected.emplace(EncodeTid(tid), tuple);
  }
  return expected;
}

Status AuditAlphaMemory(const RuleNetwork& rule, const AlphaMemory& alpha,
                        std::vector<AuditViolation>* out) {
  const std::string& name = rule.rule_name();
  const std::string where = DescribeAlpha(alpha);

  // Dynamic memories hold transition-scoped bindings; at quiescence the
  // end-of-transition flush must have emptied them (§4.3.2).
  if (alpha.is_dynamic()) {
    if (!alpha.entries().empty()) {
      Report(out, AuditViolationKind::kDynamicNotFlushed, name,
             where + " holds " + std::to_string(alpha.entries().size()) +
                 " entries at quiescence");
    }
    return Status::OK();
  }
  // Virtual and simple memories store nothing to cross-check.
  if (!alpha.stores_tuples()) return Status::OK();

  // A materialized column view must mirror the entry vector cell-for-cell
  // (the batch the ForEachCandidate prefilter masks against).
  if (std::string problem = alpha.AuditColumnCache(); !problem.empty()) {
    Report(out, AuditViolationKind::kColumnCacheIncoherent, name,
           where + ": " + std::move(problem));
  }

  ARIEL_ASSIGN_OR_RETURN(auto expected, ExpectedAlphaContents(rule, alpha));

  const HeapRelation* base = alpha.spec().relation;
  std::unordered_set<int64_t> seen;
  for (const AlphaEntry& entry : alpha.entries()) {
    const int64_t enc = EncodeTid(entry.tid);
    if (!seen.insert(enc).second) {
      Report(out, AuditViolationKind::kAlphaDuplicate, name,
             where + " stores tid " + entry.tid.ToString() + " twice");
      continue;
    }
    auto it = expected.find(enc);
    if (it == expected.end()) {
      const bool live = base->Get(entry.tid) != nullptr;
      Report(out, AuditViolationKind::kAlphaExtra, name,
             where + " stores tid " + entry.tid.ToString() +
                 (live ? " whose tuple fails the selection predicate"
                       : " which is no longer live in the base relation"));
      continue;
    }
    if (!(entry.value == *it->second)) {
      Report(out, AuditViolationKind::kAlphaStale, name,
             where + " stores " + entry.value.ToString() + " for tid " +
                 entry.tid.ToString() + " but the base tuple is " +
                 it->second->ToString());
    }
    expected.erase(it);
  }
  for (const auto& [enc, tuple] : expected) {
    Report(out, AuditViolationKind::kAlphaMissing, name,
           where + " is missing tid " + DecodeTid(enc).ToString() + " = " +
               tuple->ToString() + " which satisfies the selection predicate");
  }
  return Status::OK();
}

/// Validates that every instantiation in the P-node binds live base tuples
/// with current values. Event and transition bindings are skipped: they
/// legitimately reference transition history (e.g. a deleted tuple's final
/// value), not current base contents.
void AuditPnode(const RuleNetwork& rule, std::vector<AuditViolation>* out) {
  const PNode* pnode = rule.pnode();
  if (pnode == nullptr) return;
  const std::string& name = rule.rule_name();
  pnode->relation().ForEach([&](TupleId, const Tuple& stored) {
    Row row = pnode->ToRow(stored);
    for (size_t i = 0; i < rule.num_vars(); ++i) {
      const AlphaMemory* alpha = rule.alpha(i);
      if (alpha->spec().on_event.has_value() || alpha->is_transition() ||
          alpha->is_dynamic()) {
        continue;
      }
      const HeapRelation* base = alpha->spec().relation;
      const Tuple* tuple = base->Get(row.tids[i]);
      if (tuple == nullptr) {
        Report(out, AuditViolationKind::kPnodeDangling, name,
               "instantiation binds " + alpha->spec().var_name + " to tid " +
                   row.tids[i].ToString() + " which is no longer live in " +
                   base->name());
        continue;
      }
      if (!(row.current[i] == *tuple)) {
        Report(out, AuditViolationKind::kPnodeStale, name,
               "instantiation binds " + alpha->spec().var_name + " to " +
                   row.current[i].ToString() + " but tid " +
                   row.tids[i].ToString() + " now holds " + tuple->ToString());
      }
    }
  });
}

}  // namespace

Status NetworkAuditor::AuditRule(const RuleNetwork& rule,
                                 std::vector<AuditViolation>* out) {
  for (size_t i = 0; i < rule.num_vars(); ++i) {
    ARIEL_RETURN_NOT_OK(AuditAlphaMemory(rule, *rule.alpha(i), out));
  }
  // Hash join indexes and TID→slot retraction maps must mirror the entry
  // vectors they accelerate (membership both ways).
  for (std::string& problem : rule.AuditJoinIndexes()) {
    Report(out, AuditViolationKind::kJoinIndexInconsistent, rule.rule_name(),
           std::move(problem));
  }
  AuditPnode(rule, out);
  return Status::OK();
}

void NetworkAuditor::AuditSelection(const SelectionNetwork& selection,
                                    std::vector<AuditViolation>* out) {
  for (std::string& problem : selection.AuditIndexes()) {
    Report(out, AuditViolationKind::kIslInconsistent, "selection-network",
           std::move(problem));
  }
}

Result<std::vector<AuditViolation>> NetworkAuditor::AuditAtQuiescence(
    const std::vector<const RuleNetwork*>& rules,
    const SelectionNetwork& selection) {
  std::vector<AuditViolation> violations;
  for (const RuleNetwork* rule : rules) {
    ARIEL_RETURN_NOT_OK(AuditRule(*rule, &violations));
    // Conflict resolution scans only the agenda: an instantiation pending
    // off it would never fire.
    if (!rule->pnode()->empty() && !rule->scheduled()) {
      Report(&violations, AuditViolationKind::kAgendaMissing,
             rule->rule_name(),
             std::to_string(rule->pnode()->size()) +
                 " pending instantiation(s), rule not on the agenda");
    }
  }
  AuditSelection(selection, &violations);
  return violations;
}

}  // namespace ariel
