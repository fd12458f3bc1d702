#include "network/selection_network.h"

#include <algorithm>
#include <sstream>

#include "storage/column_batch.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace ariel {

namespace {

/// MatchBatch builds a ColumnBatch over a relation's token group only when
/// the group is at least this large; below it the per-token scratch-Row
/// path wins (batch construction cost is linear in group size either way,
/// but masks amortize over candidates only once groups have some width).
constexpr size_t kColumnarClassifyMinTokens = 16;

/// Intersects `add` into `acc`.
void IntersectInterval(Interval* acc, const Interval& add) {
  if (add.lo.has_value()) {
    if (!acc->lo.has_value() || *add.lo > *acc->lo ||
        (*add.lo == *acc->lo && !add.lo_closed)) {
      acc->lo = add.lo;
      acc->lo_closed = add.lo_closed;
    }
  }
  if (add.hi.has_value()) {
    if (!acc->hi.has_value() || *add.hi < *acc->hi ||
        (*add.hi == *acc->hi && !add.hi_closed)) {
      acc->hi = add.hi;
      acc->hi_closed = add.hi_closed;
    }
  }
}

/// Ranks interval tightness for anchor choice: 3 = point, 2 = bounded,
/// 1 = half-bounded, 0 = unbounded.
int Tightness(const Interval& iv) {
  if (iv.lo.has_value() && iv.hi.has_value()) {
    return (*iv.lo == *iv.hi) ? 3 : 2;
  }
  if (iv.lo.has_value() || iv.hi.has_value()) return 1;
  return 0;
}

}  // namespace

bool ExtractAnchorInterval(const Expr& selection, const Schema& schema,
                           size_t* attr_pos, Interval* interval) {
  std::map<size_t, Interval> per_attr;
  for (const ExprPtr& conjunct : SplitConjuncts(selection)) {
    if (conjunct->kind != ExprKind::kBinary) continue;
    const auto& bin = static_cast<const BinaryExpr&>(*conjunct);
    if (!IsComparison(bin.op) || bin.op == BinaryOp::kNe) continue;
    const Expr* ref = nullptr;
    const Expr* lit = nullptr;
    BinaryOp op = bin.op;
    if (bin.lhs->kind == ExprKind::kColumnRef &&
        bin.rhs->kind == ExprKind::kLiteral) {
      ref = bin.lhs.get();
      lit = bin.rhs.get();
    } else if (bin.rhs->kind == ExprKind::kColumnRef &&
               bin.lhs->kind == ExprKind::kLiteral) {
      ref = bin.rhs.get();
      lit = bin.lhs.get();
      op = MirrorComparison(bin.op);
    } else {
      continue;
    }
    const auto& col = static_cast<const ColumnRefExpr&>(*ref);
    if (col.previous || col.is_all()) continue;
    int pos = schema.IndexOf(col.attribute);
    if (pos < 0) continue;
    const Value& v = static_cast<const LiteralExpr&>(*lit).value;

    Interval conjunct_iv;
    switch (op) {
      case BinaryOp::kEq: conjunct_iv = Interval::Point(v); break;
      case BinaryOp::kLt: conjunct_iv = Interval::AtMost(v, false); break;
      case BinaryOp::kLe: conjunct_iv = Interval::AtMost(v, true); break;
      case BinaryOp::kGt: conjunct_iv = Interval::AtLeast(v, false); break;
      case BinaryOp::kGe: conjunct_iv = Interval::AtLeast(v, true); break;
      default: continue;
    }
    auto [it, inserted] =
        per_attr.emplace(static_cast<size_t>(pos), conjunct_iv);
    if (!inserted) IntersectInterval(&it->second, conjunct_iv);
  }

  int best_rank = -1;
  for (const auto& [pos, iv] : per_attr) {
    int rank = Tightness(iv);
    if (rank > best_rank) {
      best_rank = rank;
      *attr_pos = pos;
      *interval = iv;
    }
  }
  return best_rank >= 1;  // an unbounded anchor indexes nothing useful
}

Status SelectionNetwork::AddRule(RuleNetwork* rule) {
  for (size_t i = 0; i < rule->num_vars(); ++i) {
    const AlphaMemory* alpha = rule->alpha(i);
    const AlphaSpec& spec = alpha->spec();
    PerRelation& per_rel = relations_[spec.relation->id()];

    NodeInfo node;
    node.id = next_node_id_++;
    node.rule = rule;
    node.alpha_ordinal = i;
    node.indexed = false;

    size_t attr_pos = 0;
    Interval interval;
    if (spec.selection != nullptr &&
        ExtractAnchorInterval(*spec.selection, spec.relation->schema(),
                              &attr_pos, &interval)) {
      node.indexed = true;
      node.anchor_attr = attr_pos;
      node.interval = interval;
      auto& index = per_rel.attr_indexes[attr_pos];
      if (index == nullptr) index = std::make_unique<IntervalSkipList>();
      // An interval-skip-list stab index, not a relation.
      index->Insert(node.id, interval);  // ariel-lint: allow(gateway-mutation)
      ++num_indexed_;
    } else {
      per_rel.residual.push_back(node.id);
      ++num_residual_;
    }
    if (columnar_exec_ && spec.selection != nullptr) {
      // Null when the selection is outside the vectorizable grammar
      // (previous refs, arithmetic, ...) — those verify per token.
      node.vector_selection = VectorPredicate::Compile(
          *spec.selection, spec.var_name, spec.relation->schema());
    }
    int64_t id = node.id;
    per_rel.nodes.emplace(id, std::move(node));
  }
  return Status::OK();
}

void SelectionNetwork::RemoveRule(RuleNetwork* rule) {
  for (auto& [relation_id, per_rel] : relations_) {
    std::vector<int64_t> victims;
    for (const auto& [id, node] : per_rel.nodes) {
      if (node.rule == rule) victims.push_back(id);
    }
    for (int64_t id : victims) {
      const NodeInfo& node = per_rel.nodes.at(id);
      if (node.indexed) {
        per_rel.attr_indexes.at(node.anchor_attr)->Remove(id);
        --num_indexed_;
      } else {
        per_rel.residual.erase(std::find(per_rel.residual.begin(),
                                         per_rel.residual.end(), id));
        --num_residual_;
      }
      per_rel.nodes.erase(id);
    }
  }
}

Status SelectionNetwork::VerifyAndCollect(
    const Token& token, const NodeInfo& node,
    const std::vector<uint8_t>* mask, size_t mask_pos,
    std::vector<ConditionMatch>* out) const {
  ++node.tested;
  const AlphaMemory* alpha = node.rule->alpha(node.alpha_ordinal);
  if (!alpha->AcceptsToken(token)) return Status::OK();
  const CompiledExpr* selection = alpha->compiled_selection();
  if (selection != nullptr) {
    Metrics().selection_predicate_evals.Increment();
    if (mask != nullptr) {
      // Column-kernel verdict for this token's batch position; the grammar
      // guarantees it agrees with EvalPredicate on every row.
      if ((*mask)[mask_pos] == 0) return Status::OK();
    } else {
      Row scratch(node.rule->num_vars());
      scratch.Set(node.alpha_ordinal, token.value, token.tid);
      if (alpha->is_transition()) {
        scratch.SetPrevious(node.alpha_ordinal, token.previous);
      }
      ARIEL_ASSIGN_OR_RETURN(bool ok, selection->EvalPredicate(scratch));
      if (!ok) return Status::OK();
    }
  }
  ++node.matched;
  Metrics().selection_matches.Increment();
  out->push_back(ConditionMatch{node.rule, node.alpha_ordinal});
  return Status::OK();
}

Status SelectionNetwork::MatchBatch(
    std::span<const Token> tokens,
    std::vector<std::vector<ConditionMatch>>* out) const {
  out->resize(tokens.size());
  for (std::vector<ConditionMatch>& matches : *out) matches.clear();
  EngineMetrics& m = Metrics();

  // Stab cache per interval index: tokens sharing an attribute value form a
  // constant-partition and descend the skip list once. The indexes cannot
  // change mid-batch (rule DDL never runs inside a transition), so cached id
  // sets stay valid for the whole batch. A single token stabs directly.
  const bool cache_stabs = tokens.size() > 1;
  std::unordered_map<const IntervalSkipList*,
                     std::unordered_map<Value, std::vector<int64_t>, ValueHash>>
      stab_cache;

  // Columnar verification: tokens of the same relation form a group; each
  // group lazily materializes one ColumnBatch over its token values, and
  // each vector-compiled condition that comes up as a candidate evaluates
  // once per group (a mask consulted by batch position) instead of once per
  // token on a scratch row. Duplicate tids in a batch are fine — masks are
  // positional, not keyed by tid. No group of a smaller batch can reach the
  // threshold, so those skip the grouping.
  struct RelGroup {
    std::vector<size_t> token_idx;  // positions into `tokens`
    std::shared_ptr<const ColumnBatch> batch;
    std::unordered_map<const NodeInfo*, std::vector<uint8_t>> masks;
  };
  const bool columnar =
      columnar_exec_ && tokens.size() >= kColumnarClassifyMinTokens;
  std::unordered_map<uint32_t, RelGroup> groups;
  std::vector<size_t> group_pos(columnar ? tokens.size() : 0, 0);
  if (columnar) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      RelGroup& group = groups[tokens[i].relation_id];
      group_pos[i] = group.token_idx.size();
      group.token_idx.push_back(i);
    }
  }
  auto mask_for = [&](const Token& token,
                      const NodeInfo& node) -> const std::vector<uint8_t>* {
    if (!columnar || node.vector_selection == nullptr) return nullptr;
    RelGroup& group = groups.at(token.relation_id);
    if (group.token_idx.size() < kColumnarClassifyMinTokens) return nullptr;
    auto mask_it = group.masks.find(&node);
    if (mask_it == group.masks.end()) {
      if (group.batch == nullptr) {
        const Schema& schema =
            node.rule->alpha(node.alpha_ordinal)->spec().relation->schema();
        ColumnBatchBuilder builder(schema, group.token_idx.size());
        for (size_t ti : group.token_idx) {
          builder.Append(tokens[ti].tid, tokens[ti].value);
        }
        group.batch = builder.Build(/*source_version=*/0);
        Metrics().columnar_classified_tokens.Increment(group.token_idx.size());
      }
      std::vector<uint8_t> mask;
      node.vector_selection->EvalMask(*group.batch, &mask);
      mask_it = group.masks.emplace(&node, std::move(mask)).first;
    }
    return &mask_it->second;
  };

  // Candidate ids from the attribute interval indexes plus the residuals;
  // verified in registration-id order for deterministic arrival order.
  std::vector<int64_t> candidates;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    auto rel_it = relations_.find(token.relation_id);
    if (rel_it == relations_.end()) continue;
    const PerRelation& per_rel = rel_it->second;
    m.selection_tokens.Increment();
    m.selection_residual_checks.Increment(per_rel.residual.size());

    candidates.assign(per_rel.residual.begin(), per_rel.residual.end());
    for (const auto& [attr_pos, index] : per_rel.attr_indexes) {
      if (attr_pos >= token.value.size()) continue;
      const Value& v = token.value.at(attr_pos);
      if (!cache_stabs) {
        m.selection_stabs.Increment();
        index->Stab(v, &candidates);
        continue;
      }
      auto& per_index = stab_cache[index.get()];
      auto hit = per_index.find(v);
      if (hit == per_index.end()) {
        m.selection_stabs.Increment();
        std::vector<int64_t> ids;
        index->Stab(v, &ids);
        hit = per_index.emplace(v, std::move(ids)).first;
      }
      candidates.insert(candidates.end(), hit->second.begin(),
                        hit->second.end());
    }
    std::sort(candidates.begin(), candidates.end());

    for (int64_t id : candidates) {
      const NodeInfo& node = per_rel.nodes.at(id);
      ARIEL_RETURN_NOT_OK(VerifyAndCollect(token, node, mask_for(token, node),
                                           columnar ? group_pos[i] : 0,
                                           &(*out)[i]));
    }
  }
  return Status::OK();
}

std::string SelectionNetwork::DescribeRule(const RuleNetwork* rule) const {
  // Collect this rule's nodes across all relations, in condition order.
  std::vector<const NodeInfo*> nodes;
  for (const auto& [relation_id, per_rel] : relations_) {
    for (const auto& [id, node] : per_rel.nodes) {
      if (node.rule == rule) nodes.push_back(&node);
    }
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const NodeInfo* a, const NodeInfo* b) {
              return a->alpha_ordinal < b->alpha_ordinal;
            });

  std::ostringstream os;
  for (const NodeInfo* node : nodes) {
    const AlphaSpec& spec = node->rule->alpha(node->alpha_ordinal)->spec();
    os << "  condition " << node->alpha_ordinal << " (" << spec.var_name
       << " in " << spec.relation->name() << "): ";
    if (node->indexed) {
      const Schema& schema = spec.relation->schema();
      os << "indexed on " << schema.attribute(node->anchor_attr).name << " "
         << node->interval.ToString();
    } else {
      os << "residual (verified on every " << spec.relation->name()
         << " token)";
    }
    os << ", tested " << node->tested << ", matched " << node->matched
       << "\n";
  }
  return os.str();
}

std::vector<std::string> SelectionNetwork::AuditIndexes() const {
  std::vector<std::string> problems;
  for (const auto& [rel_id, per] : relations_) {
    const std::string where = "relation " + std::to_string(rel_id);
    size_t indexed = 0;
    for (const auto& [attr, isl] : per.attr_indexes) {
      std::string problem = isl->AuditStabConsistency();
      if (!problem.empty()) {
        problems.push_back(where + " attr " + std::to_string(attr) + ": " +
                           problem);
      }
      indexed += isl->size();
    }
    if (indexed + per.residual.size() != per.nodes.size()) {
      problems.push_back(where + ": " + std::to_string(per.nodes.size()) +
                         " conditions registered but " +
                         std::to_string(indexed) + " indexed + " +
                         std::to_string(per.residual.size()) + " residual");
    }
    for (int64_t id : per.residual) {
      if (per.nodes.find(id) == per.nodes.end()) {
        problems.push_back(where + ": residual id " + std::to_string(id) +
                           " has no registered condition");
      }
    }
  }
  return problems;
}

}  // namespace ariel
