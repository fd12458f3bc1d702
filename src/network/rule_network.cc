#include "network/rule_network.h"

#include <algorithm>
#include <limits>

#include "util/footprint.h"
#include "util/string_util.h"

namespace ariel {

namespace {

/// Minimum stored-α entry count before the scan fallback bothers building
/// a mask; below this the per-scan kernel setup costs more than it saves.
constexpr size_t kColumnarPrefilterMinEntries = 16;

}  // namespace

const char* AlphaKindToString(AlphaKind kind) {
  switch (kind) {
    case AlphaKind::kStored: return "stored";
    case AlphaKind::kVirtual: return "virtual";
    case AlphaKind::kDynamicOn: return "dynamic-on";
    case AlphaKind::kDynamicTrans: return "dynamic-trans";
    case AlphaKind::kSimple: return "simple";
    case AlphaKind::kSimpleOn: return "simple-on";
    case AlphaKind::kSimpleTrans: return "simple-trans";
  }
  return "?";
}

bool AlphaMemory::AcceptsToken(const Token& token) const {
  // On-conditions examine the event specifier (§4.3.1); a token with no
  // specifier (the paper's simple − token) never matches an on-condition.
  if (spec_.on_event.has_value()) {
    if (!token.event.has_value()) return false;
    if (token.event->kind != spec_.on_event->kind) return false;
    if (spec_.on_event->kind == EventKind::kReplace &&
        !spec_.on_event->attributes.empty()) {
      bool touched = false;
      for (const std::string& want : spec_.on_event->attributes) {
        for (const std::string& got : token.event->updated_attrs()) {
          if (EqualsIgnoreCase(want, got)) {
            touched = true;
            break;
          }
        }
      }
      if (!touched) return false;
    }
  }
  // Transition memories consume only Δ tokens (Figure 5: +/− entries for
  // the trans rows are "don't care" — they can never occur).
  if (is_transition() && !token.is_delta()) return false;
  return true;
}

void AlphaMemory::ConfigureJoinIndex(size_t num_vars,
                                     std::vector<JoinKeySpec> specs) {
  num_vars_ = num_vars;
  scratch_row_ = Row(num_vars);
  join_index_.Configure(num_vars, std::move(specs));
}

void AlphaMemory::InsertEntry(AlphaEntry entry) {
  Metrics().alpha_insertions.Increment();
  ++column_version_;
  if (column_cache_ != nullptr) {
    column_cache_.reset();
    Metrics().columnar_batch_invalidations.Increment();
  }
  const uint32_t slot = static_cast<uint32_t>(entries_.size());
  if (!slot_of_.insert_or_assign(EncodeTid(entry.tid), slot).second) {
    ++shadowed_;
  }
  if (join_index_.has_specs()) {
    // Key the entry without copying its tuple: lend the value to the
    // scratch row for evaluation, then take it back.
    scratch_row_.Set(var_ordinal_, std::move(entry.value), entry.tid);
    join_index_.AppendSlot(slot, scratch_row_);
    entry.value = std::move(scratch_row_.current[var_ordinal_]);
  }
  entries_.push_back(std::move(entry));
}

bool AlphaMemory::RemoveEntry(TupleId tid) {
  if (entries_.empty()) return false;
  size_t slot;
  auto it = slot_of_.find(EncodeTid(tid));
  if (it != slot_of_.end()) {
    slot = it->second;
    slot_of_.erase(it);
  } else {
    // The map keeps one slot per tid; an entry shadowed by a duplicate
    // insert is still found by scanning — if any entry is shadowed at all.
    if (shadowed_ == 0) return false;
    size_t i = 0;
    while (i < entries_.size() && !(entries_[i].tid == tid)) ++i;
    if (i == entries_.size()) return false;
    slot = i;
    --shadowed_;
  }
  ++column_version_;
  if (column_cache_ != nullptr) {
    column_cache_.reset();
    Metrics().columnar_batch_invalidations.Increment();
  }
  const size_t last = entries_.size() - 1;
  join_index_.RemoveSlot(slot, last);
  if (slot != last) {
    entries_[slot] = std::move(entries_[last]);
    // A shadowed entry whose tid the map no longer holds becomes reachable.
    if (slot_of_.insert_or_assign(EncodeTid(entries_[slot].tid),
                                  static_cast<uint32_t>(slot)).second) {
      --shadowed_;
    }
  }
  entries_.pop_back();
  Metrics().alpha_removals.Increment();
  return true;
}

void AlphaMemory::Flush() {
  entries_.clear();
  slot_of_.clear();
  shadowed_ = 0;
  join_index_.Clear();
  ++column_version_;
  if (column_cache_ != nullptr) {
    column_cache_.reset();
    Metrics().columnar_batch_invalidations.Increment();
  }
}

std::shared_ptr<const ColumnBatch> AlphaMemory::ColumnView() const {
  if (column_cache_ != nullptr &&
      column_cache_->source_version() == column_version_) {
    return column_cache_;
  }
  ColumnBatchBuilder builder(spec_.relation->schema(), entries_.size());
  for (const AlphaEntry& entry : entries_) {
    builder.Append(entry.tid, entry.value);
  }
  column_cache_ = builder.Build(column_version_);
  Metrics().columnar_batches_built.Increment();
  return column_cache_;
}

std::string AlphaMemory::AuditColumnCache() const {
  if (column_cache_ == nullptr) return "";
  if (column_cache_->source_version() != column_version_) return "";
  const ColumnBatch& batch = *column_cache_;
  if (batch.num_rows() != entries_.size()) {
    return "column cache has " + std::to_string(batch.num_rows()) +
           " row(s) but the memory holds " + std::to_string(entries_.size());
  }
  const Schema& schema = spec_.relation->schema();
  for (size_t row = 0; row < batch.num_rows(); ++row) {
    const AlphaEntry& entry = entries_[row];
    if (!(batch.tids()[row] == entry.tid)) {
      return "column cache row " + std::to_string(row) + " holds " +
             batch.tids()[row].ToString() + " but the memory holds " +
             entry.tid.ToString();
    }
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      Value cached = batch.ValueAt(c, row);
      if (cached.Compare(entry.value.at(c)) != 0) {
        return "column cache cell (" + schema.attribute(c).name + ", " +
               entry.tid.ToString() + ") holds " + cached.ToString() +
               " but the memory holds " + entry.value.at(c).ToString();
      }
    }
  }
  return "";
}

void AlphaMemory::CorruptColumnCacheForTesting() {
  ColumnView();
  // The cache is logically immutable to readers; the test hook reaches
  // through that on purpose to plant a memory/batch disagreement.
  const_cast<ColumnBatch*>(column_cache_.get())  // ariel-lint: allow(const-cast)
      ->CorruptForTesting();
}

std::vector<std::string> AlphaMemory::AuditIncrementalState() const {
  std::vector<std::string> problems;
  // TID→slot map ⇔ entries. Every map entry must point in-range at a
  // matching entry, and the entries no map entry reaches must be exactly
  // the counted shadows.
  for (const auto& [enc, slot] : slot_of_) {
    if (slot >= entries_.size() ||
        EncodeTid(entries_[slot].tid) != enc) {
      problems.push_back("tid-slot map points tid " +
                         DecodeTid(enc).ToString() + " at slot " +
                         std::to_string(slot) +
                         " which holds a different entry");
    }
  }
  if (shadowed_ + slot_of_.size() != entries_.size()) {
    problems.push_back("shadowed-entry count " + std::to_string(shadowed_) +
                       " plus " + std::to_string(slot_of_.size()) +
                       " mapped tids does not match " +
                       std::to_string(entries_.size()) + " entries");
  }
  std::vector<std::string> index_problems = join_index_.Audit(
      entries_.size(), [&](size_t slot, Row* scratch) {
        scratch->Set(var_ordinal_, entries_[slot].value, entries_[slot].tid);
      });
  for (std::string& p : index_problems) problems.push_back(std::move(p));
  return problems;
}

size_t AlphaMemory::EstimatedSize() const {
  if (is_virtual()) return spec_.relation->size();
  return entries_.size();
}

size_t AlphaMemory::FootprintBytes() const {
  size_t bytes = entries_.capacity() * sizeof(AlphaEntry);
  for (const AlphaEntry& e : entries_) {
    bytes += e.value.FootprintBytes() + e.previous.FootprintBytes();
  }
  bytes += HashMapFootprintBytes(slot_of_) + join_index_.FootprintBytes();
  if (column_cache_ != nullptr) bytes += column_cache_->FootprintBytes();
  return bytes;
}

const char* JoinBackendToString(JoinBackend backend) {
  switch (backend) {
    case JoinBackend::kTreat: return "treat";
    case JoinBackend::kRete: return "rete";
  }
  return "?";
}

RuleNetwork::RuleNetwork(std::string rule_name, uint32_t pnode_relation_id,
                         std::vector<AlphaSpec> alphas,
                         std::vector<ExprPtr> join_conjuncts,
                         JoinBackend backend)
    : rule_name_(std::move(rule_name)),
      pnode_relation_id_(pnode_relation_id),
      join_exprs_(std::move(join_conjuncts)),
      backend_(backend) {
  for (size_t i = 0; i < alphas.size(); ++i) {
    alphas_.push_back(
        std::make_unique<AlphaMemory>(std::move(alphas[i]), i));
  }
}

Status RuleNetwork::Init() {
  const size_t n = alphas_.size();
  if (n == 0) {
    return Status::SemanticError("rule \"" + rule_name_ +
                                 "\" has no tuple variables");
  }

  std::vector<PnodeVar> pnode_vars;
  for (const auto& alpha : alphas_) {
    const AlphaSpec& spec = alpha->spec();
    scope_.Add(VarBinding{ToLower(spec.var_name), &spec.relation->schema(),
                          spec.has_previous});
    pnode_vars.push_back(PnodeVar{ToLower(spec.var_name),
                                  &spec.relation->schema(),
                                  spec.has_previous});
    if (alpha->is_virtual() && spec.has_previous) {
      return Status::Internal(
          "virtual α-memories cannot hold transition conditions");
    }
    if (alpha->is_simple() && n > 1) {
      return Status::Internal(
          "simple α-memories are only valid in one-variable rules");
    }
  }
  pnode_ = std::make_unique<PNode>(pnode_relation_id_, rule_name_,
                                   std::move(pnode_vars));

  for (auto& alpha : alphas_) {
    if (alpha->spec_.selection != nullptr) {
      ARIEL_ASSIGN_OR_RETURN(alpha->compiled_selection_,
                             CompileExpr(*alpha->spec_.selection, scope_));
    }
  }

  selection_scratch_ = Row(n);
  adjacency_.assign(n, std::vector<bool>(n, false));
  for (const ExprPtr& expr : join_exprs_) {
    CompiledConjunct cc;
    for (const std::string& var : CollectTupleVars(*expr)) {
      int idx = scope_.IndexOf(var);
      if (idx < 0) {
        return Status::SemanticError("join conjunct references unknown "
                                     "variable \"" + var + "\"");
      }
      cc.vars.push_back(static_cast<size_t>(idx));
    }
    ARIEL_ASSIGN_OR_RETURN(cc.expr, CompileExpr(*expr, scope_));
    for (size_t a : cc.vars) {
      for (size_t b : cc.vars) {
        if (a != b) adjacency_[a][b] = true;
      }
    }
    ARIEL_RETURN_NOT_OK(RecordRelationProbes(*expr));
    if (columnar_exec_) {
      ARIEL_RETURN_NOT_OK(
          RecordBandedProbes(join_conjuncts_.size(), *expr));
    }
    join_conjuncts_.push_back(std::move(cc));
  }
  ARIEL_RETURN_NOT_OK(ConfigureAlphaJoinIndexes());

  for (const auto& alpha : alphas_) {
    if (alpha->is_dynamic()) has_dynamic_ = true;
  }
  // Rete is only offered to multi-variable pattern rules: flushing dynamic
  // bindings out of β chains at every transition would reintroduce the
  // maintenance cost TREAT avoids, and one-variable rules have no joins.
  if (backend_ == JoinBackend::kRete && (has_dynamic_ || n < 2)) {
    backend_ = JoinBackend::kTreat;
  }
  if (backend_ == JoinBackend::kRete) {
    ARIEL_RETURN_NOT_OK(ConfigureBetas());  // levels 1..n-2 used
  }
  initialized_ = true;
  return Status::OK();
}

namespace {

/// True when `attrs` (compiler-lowercased) contains `attr`.
bool AttrListed(const std::vector<std::string>& attrs,
                const std::string& attr) {
  for (const std::string& a : attrs) {
    if (EqualsIgnoreCase(a, attr)) return true;
  }
  return false;
}

}  // namespace

Status RuleNetwork::ConfigureAlphaJoinIndexes() {
  const size_t n = alphas_.size();
  std::vector<std::vector<JoinKeySpec>> specs(n);
  for (const ExprPtr& expr : join_exprs_) {
    if (expr->kind != ExprKind::kBinary) continue;
    const auto& bin = static_cast<const BinaryExpr&>(*expr);
    if (bin.op != BinaryOp::kEq) continue;
    for (bool flip : {false, true}) {
      const Expr* entry_side = flip ? bin.rhs.get() : bin.lhs.get();
      const Expr* probe_side = flip ? bin.lhs.get() : bin.rhs.get();
      if (entry_side->kind != ExprKind::kColumnRef) continue;
      const auto& ref = static_cast<const ColumnRefExpr&>(*entry_side);
      if (ref.previous || ref.is_all()) continue;
      int var = scope_.IndexOf(ref.tuple_var);
      if (var < 0) continue;
      if (!alphas_[var]->stores_tuples()) continue;
      // The compiler only flags attributes it derived as equijoin keys;
      // hand-built specs without metadata stay on the scan path.
      if (!AttrListed(alphas_[var]->spec().equijoin_attrs, ref.attribute)) {
        continue;
      }
      JoinKeySpec spec;
      bool self_reference = false;
      for (const std::string& kv : CollectTupleVars(*probe_side)) {
        int idx = scope_.IndexOf(kv);
        if (idx < 0 || idx == var) {
          self_reference = true;
          break;
        }
        spec.probe_vars.push_back(static_cast<size_t>(idx));
      }
      if (self_reference || spec.probe_vars.empty()) continue;
      ARIEL_ASSIGN_OR_RETURN(spec.entry_expr,
                             CompileExpr(*entry_side, scope_));
      ARIEL_ASSIGN_OR_RETURN(spec.probe_expr,
                             CompileExpr(*probe_side, scope_));
      spec.description = entry_side->ToString() + " = " +
                         probe_side->ToString();
      specs[var].push_back(std::move(spec));
    }
  }
  for (size_t v = 0; v < n; ++v) {
    if (!specs[v].empty()) {
      alphas_[v]->ConfigureJoinIndex(n, std::move(specs[v]));
    }
  }
  return Status::OK();
}

Result<std::vector<JoinKeySpec>> RuleNetwork::DeriveBetaKeySpecs(
    size_t level) const {
  std::vector<JoinKeySpec> specs;
  const size_t arriving = level + 1;
  for (const ExprPtr& expr : join_exprs_) {
    if (expr->kind != ExprKind::kBinary) continue;
    const auto& bin = static_cast<const BinaryExpr&>(*expr);
    if (bin.op != BinaryOp::kEq) continue;
    for (bool flip : {false, true}) {
      const Expr* entry_side = flip ? bin.rhs.get() : bin.lhs.get();
      const Expr* probe_side = flip ? bin.lhs.get() : bin.rhs.get();
      // Entry side: evaluable over the stored prefix [0, level]; probe
      // side: evaluable over the arriving token alone.
      bool entry_ok = true;
      bool entry_nonempty = false;
      for (const std::string& ev : CollectTupleVars(*entry_side)) {
        int idx = scope_.IndexOf(ev);
        if (idx < 0 || static_cast<size_t>(idx) > level) entry_ok = false;
        entry_nonempty = true;
      }
      if (!entry_ok || !entry_nonempty) continue;
      JoinKeySpec spec;
      bool probe_ok = true;
      for (const std::string& pv : CollectTupleVars(*probe_side)) {
        int idx = scope_.IndexOf(pv);
        if (idx < 0 || static_cast<size_t>(idx) != arriving) probe_ok = false;
        spec.probe_vars.push_back(static_cast<size_t>(idx));
      }
      if (!probe_ok || spec.probe_vars.empty()) continue;
      ARIEL_ASSIGN_OR_RETURN(spec.entry_expr,
                             CompileExpr(*entry_side, scope_));
      ARIEL_ASSIGN_OR_RETURN(spec.probe_expr,
                             CompileExpr(*probe_side, scope_));
      spec.description = entry_side->ToString() + " = " +
                         probe_side->ToString();
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

Status RuleNetwork::ConfigureBetas() {
  const size_t n = alphas_.size();
  beta_.clear();
  beta_.resize(n);
  for (size_t level = 1; level + 1 < n; ++level) {
    ARIEL_ASSIGN_OR_RETURN(std::vector<JoinKeySpec> specs,
                           DeriveBetaKeySpecs(level));
    beta_[level].Configure(n, std::move(specs));
  }
  return Status::OK();
}

Status RuleNetwork::RecordBandedProbes(size_t conjunct_idx,
                                       const Expr& conjunct) {
  if (conjunct.kind != ExprKind::kBinary) return Status::OK();
  const auto& bin = static_cast<const BinaryExpr&>(conjunct);
  if (!IsComparison(bin.op)) return Status::OK();

  // Either side of `a.x <op> <expr>` yields a probe into a's memory when
  // the column side is a bare (non-previous) reference into a stored memory
  // and the key side touches only other variables.
  for (bool flip : {false, true}) {
    const Expr* col_side = flip ? bin.rhs.get() : bin.lhs.get();
    const Expr* key_side = flip ? bin.lhs.get() : bin.rhs.get();
    if (col_side->kind != ExprKind::kColumnRef) continue;
    const auto& ref = static_cast<const ColumnRefExpr&>(*col_side);
    if (ref.previous || ref.is_all()) continue;
    int var = scope_.IndexOf(ref.tuple_var);
    if (var < 0) continue;
    if (!alphas_[var]->stores_tuples()) continue;
    int col = alphas_[var]->spec().relation->schema().IndexOf(ref.attribute);
    if (col < 0) continue;

    BandedProbe probe;
    probe.conjunct = conjunct_idx;
    probe.var = static_cast<size_t>(var);
    probe.col = static_cast<size_t>(col);
    probe.op = flip ? MirrorComparison(bin.op) : bin.op;
    bool self_reference = false;
    for (const std::string& kv : CollectTupleVars(*key_side)) {
      int idx = scope_.IndexOf(kv);
      if (idx < 0 || idx == var) {
        self_reference = true;
        break;
      }
      probe.key_vars.push_back(static_cast<size_t>(idx));
    }
    if (self_reference) continue;
    ARIEL_ASSIGN_OR_RETURN(probe.key_expr, CompileExpr(*key_side, scope_));
    banded_probes_.push_back(std::move(probe));
  }
  return Status::OK();
}

Status RuleNetwork::RecordRelationProbes(const Expr& conjunct) {
  if (conjunct.kind != ExprKind::kBinary) return Status::OK();
  const auto& bin = static_cast<const BinaryExpr&>(conjunct);
  if (bin.op != BinaryOp::kEq) return Status::OK();

  // Either side of `a.x = <expr>` yields a probe into a's memory when the
  // other side depends only on other variables.
  for (bool flip : {false, true}) {
    const Expr* ref_side = flip ? bin.rhs.get() : bin.lhs.get();
    const Expr* key_side = flip ? bin.lhs.get() : bin.rhs.get();
    if (ref_side->kind != ExprKind::kColumnRef) continue;
    const auto& ref = static_cast<const ColumnRefExpr&>(*ref_side);
    if (ref.previous || ref.is_all()) continue;
    int var = scope_.IndexOf(ref.tuple_var);
    if (var < 0) continue;
    const AlphaMemory& alpha = *alphas_[var];
    if (!alpha.is_virtual()) continue;  // stored memories hash their entries
    if (!AttrListed(alpha.spec().equijoin_attrs, ref.attribute)) continue;

    RelationProbe probe;
    probe.var = static_cast<size_t>(var);
    probe.attr_name = ToLower(ref.attribute);
    bool self_reference = false;
    for (const std::string& kv : CollectTupleVars(*key_side)) {
      int idx = scope_.IndexOf(kv);
      if (idx < 0 || idx == var) {
        self_reference = true;
        break;
      }
      probe.key_vars.push_back(static_cast<size_t>(idx));
    }
    if (self_reference || probe.key_vars.empty()) continue;
    ARIEL_ASSIGN_OR_RETURN(probe.key_expr, CompileExpr(*key_side, scope_));
    ARIEL_ASSIGN_OR_RETURN(probe.index, alpha.spec().relation->AcquireJoinIndex(
                                            ref.attribute));
    relation_probes_.push_back(std::move(probe));
  }
  return Status::OK();
}

Status RuleNetwork::Arrive(const Token& token, size_t alpha_ordinal,
                           const ProcessedMemories& processed) {
  AlphaMemory* alpha = alphas_[alpha_ordinal].get();
  const size_t n = alphas_.size();
  last_trigger_ =
      LastTrigger{true, token.kind, token.relation_id, token.tid};

  // Does this token assert a binding here, or retract one? Insertion
  // tokens assert; deletion tokens retract — except at on-delete
  // conditions, where the delete-specified − token IS the triggering event
  // (§4.3.1 case 4: "a delete −, which will match any applicable on delete
  // rule conditions"). On-delete bindings are never retracted within a
  // transition, because a deleted tuple cannot be touched again (§4.3.1).
  const bool asserts_binding =
      token.is_insertion() ||
      (alpha->spec().on_event.has_value() &&
       alpha->spec().on_event->kind == EventKind::kDelete);

  if (!asserts_binding) {
    // Deletion handling: drop the entry and delete the affected
    // instantiations directly from the conflict set (P-node); under Rete
    // the β chain sheds the affected partials too. No joins either way —
    // this asymmetry is TREAT's main advantage.
    if (alpha->stores_tuples()) alpha->RemoveEntry(token.tid);
    if (backend_ == JoinBackend::kRete) {
      ReteRetract(alpha_ordinal, token.tid);
    }
    RetractInstantiations(alpha_ordinal, token.tid);
    return Status::OK();
  }

  if (alpha->is_simple()) {
    // One-variable rule: matching data goes straight to the P-node.
    Row row(1);
    row.Set(0, token.value, token.tid);
    if (alpha->is_transition()) row.SetPrevious(0, token.previous);
    return EmitInstantiation(row);
  }

  if (alpha->stores_tuples()) {
    // Compensating + tokens must be idempotent against partially-applied
    // forward retractions: remove any surviving entry before re-inserting.
    if (compensating_) alpha->RemoveEntry(token.tid);
    alpha->InsertEntry(AlphaEntry{token.tid, token.value,
                                  alpha->is_transition() ? token.previous
                                                         : Tuple()});
  }

  if (backend_ == JoinBackend::kRete) {
    // Same idempotence for β chains: shed any partials the forward
    // retraction left behind before re-deriving them.
    if (compensating_) ReteRetract(alpha_ordinal, token.tid);
    return ReteAssert(token, alpha_ordinal, processed);
  }

  // TREAT joins exist only to feed the P-node; in compensation mode the
  // conflict set is snapshot-restored, so the whole walk is skipped.
  if (compensating_) return Status::OK();

  Row row(n);
  row.Set(alpha_ordinal, token.value, token.tid);
  if (alpha->is_transition()) row.SetPrevious(alpha_ordinal, token.previous);
  std::vector<bool> bound(n, false);
  bound[alpha_ordinal] = true;
  return ExtendJoin(token, &row, &bound, 1, processed);
}

// ---------------------------------------------------------------------------
// Rete backend
// ---------------------------------------------------------------------------

Result<bool> RuleNetwork::PrefixConjunctsHold(size_t level, size_t newly,
                                              const Row& row) const {
  for (const CompiledConjunct& cc : join_conjuncts_) {
    bool touches_new = false;
    bool in_prefix = true;
    for (size_t v : cc.vars) {
      if (v == newly) touches_new = true;
      if (v > level) in_prefix = false;
    }
    if (!touches_new || !in_prefix) continue;
    ARIEL_ASSIGN_OR_RETURN(bool ok, cc.expr->EvalPredicate(row));
    if (!ok) return false;
  }
  return true;
}

Status RuleNetwork::ReteExtend(size_t level, Row* row, const Token& token,
                               const ProcessedMemories& processed) {
  const size_t n = alphas_.size();
  if (level == n - 1) return EmitInstantiation(*row);
  if (level >= 1) beta_[level].Add(*row);

  const size_t next = level + 1;
  std::vector<bool> bound(n, false);
  for (size_t k = 0; k <= level; ++k) bound[k] = row->filled[k];
  bound[next] = true;  // mirror ExtendJoin's convention for index probing

  Status status = ForEachCandidate(
      token, next, *row, bound, processed,
      [&](TupleId tid, const Tuple& value, const Tuple& previous) -> Status {
        row->Set(next, value, tid);
        if (alphas_[next]->is_transition()) row->SetPrevious(next, previous);
        ARIEL_ASSIGN_OR_RETURN(bool ok,
                               PrefixConjunctsHold(next, next, *row));
        if (!ok) return Status::OK();
        return ReteExtend(next, row, token, processed);
      });
  row->filled[next] = false;
  return status;
}

Status RuleNetwork::ReteAssert(const Token& token, size_t alpha_ordinal,
                               const ProcessedMemories& processed) {
  const size_t n = alphas_.size();
  Row row(n);
  row.Set(alpha_ordinal, token.value, token.tid);
  if (alphas_[alpha_ordinal]->is_transition()) {
    row.SetPrevious(alpha_ordinal, token.previous);
  }

  if (alpha_ordinal == 0) {
    return ReteExtend(0, &row, token, processed);
  }

  // Join the token leftward against the partials over [0, i-1], then let
  // every surviving combination cascade rightward.
  const size_t i = alpha_ordinal;
  if (i == 1) {
    // β_0 is α_0 itself: enumerate its candidates.
    std::vector<bool> bound(n, false);
    bound[1] = true;
    bound[0] = true;  // index-path convention: the probed var reads as bound
    Status status = ForEachCandidate(
        token, 0, row, bound, processed,
        [&](TupleId tid, const Tuple& value, const Tuple& previous) -> Status {
          row.Set(0, value, tid);
          if (alphas_[0]->is_transition()) row.SetPrevious(0, previous);
          ARIEL_ASSIGN_OR_RETURN(bool ok, PrefixConjunctsHold(1, 1, row));
          if (!ok) return Status::OK();
          return ReteExtend(1, &row, token, processed);
        });
    row.filled[0] = false;
    return status;
  }

  // i >= 2: join against the stored β_{i-1} partials. ReteExtend only
  // appends to β levels >= i, so indexing into the level is safe. When an
  // equijoin key between the prefix and the arriving variable exists, the
  // token's key selects the matching partials directly instead of
  // iterating the whole level.
  const BetaMemory& left = beta_[i - 1];
  const std::vector<Row>& lefts = left.rows();

  auto extend = [&](const Row& partial) -> Status {
    Row combined = partial;
    combined.MergeFrom(row);
    ARIEL_ASSIGN_OR_RETURN(bool ok, PrefixConjunctsHold(i, i, combined));
    if (!ok) return Status::OK();
    return ReteExtend(i, &combined, token, processed);
  };

  if (left.index().has_specs()) {
    int spec = left.index().FindUsableSpec(row.filled);
    if (spec >= 0) {
      const std::vector<uint32_t>* slots =
          left.Probe(static_cast<size_t>(spec), row);
      if (slots != nullptr) {
        Metrics().join_hash_probes.Increment();
        Metrics().join_hash_hits.Increment(slots->size());
        Metrics().join_probes.Increment(slots->size());
        for (uint32_t s : *slots) {
          ARIEL_RETURN_NOT_OK(extend(lefts[s]));
        }
        return Status::OK();
      }
    }
  }
  Metrics().join_scan_fallbacks.Increment();
  Metrics().join_probes.Increment(lefts.size());
  for (size_t idx = 0; idx < lefts.size(); ++idx) {
    ARIEL_RETURN_NOT_OK(extend(lefts[idx]));
  }
  return Status::OK();
}

void RuleNetwork::ReteRetract(size_t var, TupleId tid) {
  // The per-level postings map (var, tid) → slots, so retraction touches
  // only the affected partials instead of scanning each level.
  for (size_t level = std::max<size_t>(var, 1); level + 1 < alphas_.size();
       ++level) {
    if (level >= beta_.size()) break;
    beta_[level].RemoveBindings(var, tid);
  }
}

Status RuleNetwork::PrimeBetas(Optimizer* optimizer) {
  const size_t n = alphas_.size();
  if (backend_ != JoinBackend::kRete) return Status::OK();
  ARIEL_RETURN_NOT_OK(ConfigureBetas());
  for (size_t level = 1; level + 1 < n; ++level) {
    // Plan the prefix join over variables [0, level] using their
    // selections plus the join conjuncts fully contained in the prefix.
    std::vector<PlanVar> vars;
    std::vector<ExprPtr> conjuncts;
    for (size_t v = 0; v <= level; ++v) {
      vars.push_back(PlanVar{alphas_[v]->spec().var_name,
                             alphas_[v]->spec().relation, false});
      if (alphas_[v]->spec().selection != nullptr) {
        conjuncts.push_back(alphas_[v]->spec().selection->Clone());
      }
    }
    for (const ExprPtr& join : join_exprs_) {
      bool in_prefix = true;
      for (const std::string& name : CollectTupleVars(*join)) {
        int idx = scope_.IndexOf(name);
        if (idx < 0 || static_cast<size_t>(idx) > level) in_prefix = false;
      }
      if (in_prefix) conjuncts.push_back(join->Clone());
    }
    ExprPtr qual = CombineConjuncts(std::move(conjuncts));
    ARIEL_ASSIGN_OR_RETURN(Plan plan, optimizer->BuildPlan(vars, qual.get()));
    ARIEL_ASSIGN_OR_RETURN(std::vector<Row> rows, plan.CollectRows());
    for (const Row& prefix_row : rows) {
      Row widened(n);
      for (size_t v = 0; v <= level; ++v) {
        widened.Set(v, prefix_row.current[v], prefix_row.tids[v]);
      }
      beta_[level].Add(std::move(widened));
    }
  }
  return Status::OK();
}

Status RuleNetwork::ExtendJoin(const Token& token, Row* row,
                               std::vector<bool>* bound, size_t num_bound,
                               const ProcessedMemories& processed) {
  const size_t n = alphas_.size();
  if (num_bound == n) return EmitInstantiation(*row);

  // Join-order heuristic: prefer a variable connected to the bound set by
  // some join conjunct; among those, the smallest memory.
  int next = -1;
  bool next_connected = false;
  size_t next_size = std::numeric_limits<size_t>::max();
  for (size_t j = 0; j < n; ++j) {
    if ((*bound)[j]) continue;
    bool connected = false;
    for (size_t i = 0; i < n && !connected; ++i) {
      if ((*bound)[i] && adjacency_[i][j]) connected = true;
    }
    size_t size = alphas_[j]->EstimatedSize();
    if (next < 0 || (connected && !next_connected) ||
        (connected == next_connected && size < next_size)) {
      next = static_cast<int>(j);
      next_connected = connected;
      next_size = size;
    }
  }
  const size_t j = static_cast<size_t>(next);

  (*bound)[j] = true;
  Status status = ForEachCandidate(
      token, j, *row, *bound, processed,
      [&](TupleId tid, const Tuple& value, const Tuple& previous) -> Status {
        row->Set(j, value, tid);
        if (alphas_[j]->is_transition()) row->SetPrevious(j, previous);
        ARIEL_ASSIGN_OR_RETURN(bool ok, JoinConjunctsHold(j, *bound, *row));
        if (!ok) return Status::OK();
        return ExtendJoin(token, row, bound, num_bound + 1, processed);
      });
  (*bound)[j] = false;
  row->filled[j] = false;
  return status;
}

template <typename Fn>
Status RuleNetwork::ForEachCandidate(
    const Token& token, size_t j, const Row& row,
    const std::vector<bool>& bound, const ProcessedMemories& processed,
    Fn&& fn) {
  AlphaMemory* alpha = alphas_[j].get();

  if (alpha->stores_tuples()) {
    // Iterate over a snapshot index range: fn never mutates α-memories.
    const auto& entries = alpha->entries();
    // Keyed path: when an equijoin key into this memory is fully bound,
    // evaluate it once against the partial row and emit only the bucket —
    // O(1 + matches) instead of O(|α|). Residual conjuncts are still
    // verified per candidate by the caller.
    const JoinKeyIndex& jidx = alpha->join_index();
    if (jidx.has_specs()) {
      int spec = jidx.FindUsableSpec(bound);
      if (spec >= 0) {
        const std::vector<uint32_t>* slots =
            jidx.Probe(static_cast<size_t>(spec), row);
        if (slots != nullptr) {
          Metrics().join_hash_probes.Increment();
          Metrics().join_hash_hits.Increment(slots->size());
          Metrics().join_probes.Increment(slots->size());
          for (uint32_t s : *slots) {
            const AlphaEntry& entry = entries[s];
            ARIEL_RETURN_NOT_OK(fn(entry.tid, entry.value, entry.previous));
          }
          return Status::OK();
        }
      }
    }
    // Scan fallback (non-equi conjunct, unbound key, or disabled spec).
    // join_probes counts the candidates actually handed to fn.
    Metrics().join_scan_fallbacks.Increment();

    // Columnar prefilter: AND the banded form of a *prefix* of the
    // conjuncts this join step will evaluate into one mask over the
    // memory's column view, then hand only survivors to fn — pruned
    // candidates are never deep-copied into the partial row. The prefix
    // discipline keeps error behaviour exact: a pruned candidate fails an
    // earlier, error-free conjunct, so the row path would have rejected it
    // before reaching any erroring one. Survivors are still re-verified by
    // the caller.
    std::vector<uint8_t> mask;
    bool prefiltered = false;
    if (columnar_exec_ && !banded_probes_.empty() &&
        entries.size() >= kColumnarPrefilterMinEntries) {
      std::shared_ptr<const ColumnBatch> view;
      for (size_t ci = 0; ci < join_conjuncts_.size(); ++ci) {
        const CompiledConjunct& cc = join_conjuncts_[ci];
        bool touches_j = false;
        bool all_bound = true;
        for (size_t v : cc.vars) {
          if (v == j) touches_j = true;
          if (!bound[v]) all_bound = false;
        }
        if (!touches_j || !all_bound) continue;  // not evaluated this step
        const BandedProbe* probe = nullptr;
        for (const BandedProbe& p : banded_probes_) {
          if (p.conjunct == ci && p.var == j) {
            bool usable = true;
            for (size_t kv : p.key_vars) {
              if (kv == j || !bound[kv]) usable = false;
            }
            if (usable) probe = &p;
            break;
          }
        }
        // Prefix ends at the first conjunct without a usable probe, or
        // whose key errors — the caller row-evaluates from there on.
        if (probe == nullptr) break;
        Result<Value> key = probe->key_expr->Eval(row);
        if (!key.ok()) break;
        if (view == nullptr) {
          view = alpha->ColumnView();
          mask.assign(entries.size(), 1);
        }
        AndCompareColumnScalar(*view, probe->col, probe->op, *key, &mask);
        prefiltered = true;
      }
    }

    size_t emitted = 0;
    size_t pruned = 0;
    Status status = Status::OK();
    for (size_t i = 0; i < entries.size(); ++i) {
      if (prefiltered && mask[i] == 0) {
        ++pruned;
        continue;
      }
      ++emitted;
      status = fn(entries[i].tid, entries[i].value, entries[i].previous);
      if (!status.ok()) break;
    }
    if (pruned > 0) Metrics().columnar_join_prefiltered.Increment(pruned);
    Metrics().join_probes.Increment(emitted);
    return status;
  }

  if (!alpha->is_virtual()) {
    return Status::Internal("join through a simple α-memory");
  }

  // Virtual α-memory (§4.2): derive the node's value from the base
  // relation through the stored predicate, handing each heap tuple to fn by
  // reference. The token's own tuple is already in the relation, so it is
  // skipped here and supplied explicitly iff this memory is in
  // ProcessedMemories — the self-join protocol that makes a token join to
  // itself exactly the right number of times.
  const HeapRelation* relation = alpha->spec().relation;
  const CompiledExpr* selection = alpha->compiled_selection();
  static const Tuple kNoPrevious;

  // join_probes counts the candidates actually emitted to fn — after the
  // self-skip, liveness, and selection filters.
  auto emit = [&](uint32_t slot) -> Status {
    const TupleId tid{relation->id(), slot};
    if (tid == token.tid) return Status::OK();
    const Tuple* tuple = relation->Get(tid);
    if (tuple == nullptr) return Status::OK();
    if (selection != nullptr) {
      selection_scratch_.Set(j, *tuple, tid);
      ARIEL_ASSIGN_OR_RETURN(bool keep,
                             selection->EvalPredicate(selection_scratch_));
      if (!keep) return Status::OK();
    }
    Metrics().join_probes.Increment();
    return fn(tid, *tuple, kNoPrevious);
  };

  // Probe the relation's join hash index when an equijoin key into this
  // memory is fully bound; a key that cannot be evaluated falls back to
  // the scan, where the conjunct itself reports the error per candidate —
  // exactly as a stored memory's keyed probe does.
  const std::vector<uint32_t>* slots = nullptr;
  bool probed = false;
  for (const RelationProbe& probe : relation_probes_) {
    if (probe.var != j) continue;
    bool usable = true;
    for (size_t kv : probe.key_vars) {
      if (!bound[kv] || kv == j) usable = false;
    }
    if (!usable) continue;
    Result<Value> key = probe.key_expr->Eval(row);
    if (!key.ok()) continue;
    slots = probe.index->Find(key.value());
    probed = true;
    break;
  }

  if (probed) {
    Metrics().join_hash_probes.Increment();
    if (slots != nullptr) {
      Metrics().join_hash_hits.Increment(slots->size());
      for (uint32_t slot : *slots) ARIEL_RETURN_NOT_OK(emit(slot));
    }
  } else {
    Metrics().virtual_alpha_scans.Increment();
    for (size_t slot = 0; slot < relation->slot_count(); ++slot) {
      ARIEL_RETURN_NOT_OK(emit(static_cast<uint32_t>(slot)));
    }
  }

  // Self-inclusion applies to asserting tokens only. A deletion token that
  // reached this memory was *removed* from it on arrival — a stored memory
  // would no longer hold it — so an on-delete event binding joining through
  // a virtual memory of the same relation must not pair with the dying
  // tuple.
  if (token.is_insertion() && processed.contains(alpha)) {
    ARIEL_RETURN_NOT_OK(fn(token.tid, token.value, kNoPrevious));
  }
  return Status::OK();
}

Result<bool> RuleNetwork::JoinConjunctsHold(size_t j,
                                            const std::vector<bool>& bound,
                                            const Row& row) const {
  for (const CompiledConjunct& cc : join_conjuncts_) {
    bool touches_j = false;
    bool all_bound = true;
    for (size_t v : cc.vars) {
      if (v == j) touches_j = true;
      if (!bound[v]) all_bound = false;
    }
    if (!touches_j || !all_bound) continue;
    ARIEL_ASSIGN_OR_RETURN(bool ok, cc.expr->EvalPredicate(row));
    if (!ok) return false;
  }
  return true;
}

Status RuleNetwork::EmitInstantiation(const Row& row) {
  if (compensating_) return Status::OK();
  return pnode_->Insert(row, MatchStamp{epoch_, ordinal_});
}

void RuleNetwork::RetractInstantiations(size_t var_ordinal, TupleId tid) {
  if (!compensating_) pnode_->RemoveByTid(var_ordinal, tid);
}

Status RuleNetwork::ArriveAll(std::span<const Token> tokens,
                              std::span<const Arrival> arrivals,
                              uint64_t first_epoch, uint32_t* failed_token) {
  ProcessedMemories processed;
  uint32_t current = std::numeric_limits<uint32_t>::max();
  for (const Arrival& arrival : arrivals) {
    if (arrival.token != current) {
      processed.clear();
      current = arrival.token;
      epoch_ = first_epoch + current;
    }
    processed.insert(alpha(arrival.alpha_ordinal));
    Status status = Arrive(tokens[current], arrival.alpha_ordinal, processed);
    if (!status.ok()) {
      *failed_token = current;
      return status;
    }
  }
  return Status::OK();
}

void RuleNetwork::FlushDynamicMemories() {
  for (auto& alpha : alphas_) {
    if (alpha->is_dynamic()) alpha->Flush();
  }
}

Status RuleNetwork::Prime(Optimizer* optimizer, uint64_t pnode_epoch) {
  // Load stored α-memories from the base relations.
  for (auto& alpha : alphas_) {
    if (alpha->kind() != AlphaKind::kStored) continue;
    alpha->Flush();
    const HeapRelation* relation = alpha->spec().relation;
    const CompiledExpr* selection = alpha->compiled_selection();
    Row scratch(alphas_.size());
    for (TupleId tid : relation->AllTupleIds()) {
      const Tuple* tuple = relation->Get(tid);
      if (tuple == nullptr) continue;
      if (selection != nullptr) {
        scratch.Set(alpha->var_ordinal(), *tuple, tid);
        ARIEL_ASSIGN_OR_RETURN(bool keep, selection->EvalPredicate(scratch));
        if (!keep) continue;
      }
      alpha->InsertEntry(AlphaEntry{tid, *tuple, Tuple()});
    }
  }

  // Load the P-node by running a query equivalent to the whole condition —
  // but only for fully pattern-based rules: event and transition bindings
  // cannot exist at activation time.
  for (const auto& alpha : alphas_) {
    if (alpha->is_dynamic() || alpha->is_transition() ||
        alpha->spec().on_event.has_value()) {
      return Status::OK();
    }
  }
  ARIEL_RETURN_NOT_OK(PrimeBetas(optimizer));
  ARIEL_ASSIGN_OR_RETURN(std::vector<Row> rows,
                         RecomputeInstantiations(optimizer));
  pnode_->Clear();
  for (const Row& row : rows) {
    ARIEL_RETURN_NOT_OK(
        pnode_->Insert(row, MatchStamp{pnode_epoch, ordinal_}));
  }
  return Status::OK();
}

Result<std::vector<Row>> RuleNetwork::RecomputeInstantiations(
    Optimizer* optimizer) const {
  for (const auto& alpha : alphas_) {
    if (alpha->is_dynamic() || alpha->is_transition() ||
        alpha->spec().on_event.has_value()) {
      return Status::InvalidArgument(
          "cannot recompute instantiations of a rule with event or "
          "transition conditions");
    }
  }
  std::vector<PlanVar> vars;
  std::vector<ExprPtr> conjuncts;
  for (const auto& alpha : alphas_) {
    vars.push_back(PlanVar{alpha->spec().var_name, alpha->spec().relation,
                           false});
    if (alpha->spec().selection != nullptr) {
      conjuncts.push_back(alpha->spec().selection->Clone());
    }
  }
  for (const ExprPtr& expr : join_exprs_) conjuncts.push_back(expr->Clone());
  ExprPtr qual = CombineConjuncts(std::move(conjuncts));
  ARIEL_ASSIGN_OR_RETURN(Plan plan, optimizer->BuildPlan(vars, qual.get()));
  return plan.CollectRows();
}

std::vector<std::string> RuleNetwork::AuditJoinIndexes() const {
  std::vector<std::string> problems;
  for (const auto& alpha : alphas_) {
    for (std::string& p : alpha->AuditIncrementalState()) {
      problems.push_back("var " + alpha->spec().var_name + ": " +
                         std::move(p));
    }
  }
  for (size_t level = 1; level + 1 < beta_.size(); ++level) {
    for (std::string& p : beta_[level].AuditIndexes()) {
      problems.push_back("beta[" + std::to_string(level) + "]: " +
                         std::move(p));
    }
  }
  return problems;
}

size_t RuleNetwork::AlphaFootprintBytes() const {
  size_t bytes = 0;
  for (const auto& alpha : alphas_) bytes += alpha->FootprintBytes();
  return bytes;
}

size_t RuleNetwork::BetaFootprintBytes() const {
  size_t bytes = 0;
  for (const auto& level : beta_) {
    bytes += level.rows().capacity() * sizeof(Row);
    for (const Row& row : level.rows()) {
      for (const Tuple& t : row.current) bytes += t.FootprintBytes();
    }
  }
  return bytes;
}

std::vector<size_t> RuleNetwork::BetaSizes() const {
  std::vector<size_t> sizes;
  for (size_t level = 1; level + 1 < beta_.size(); ++level) {
    sizes.push_back(beta_[level].rows().size());
  }
  return sizes;
}

std::string RuleNetwork::ToString() const {
  std::string out = std::string("A-TREAT network for rule \"") + rule_name_ +
                    "\" [backend: " + JoinBackendToString(backend_) + "]\n";
  out += "  root\n";
  for (const auto& alpha : alphas_) {
    const AlphaSpec& spec = alpha->spec();
    out += "  alpha(" + spec.var_name + " in " + spec.relation->name() +
           ") [" + AlphaKindToString(spec.kind) + "]";
    if (spec.on_event.has_value()) {
      out += " on " + spec.on_event->ToString();
    }
    if (spec.selection != nullptr) {
      out += ": " + spec.selection->ToString();
    }
    if (alpha->stores_tuples()) {
      out += "  {" + std::to_string(alpha->entries().size()) + " tuples}";
    }
    out += "\n";
  }
  for (const ExprPtr& join : join_exprs_) {
    out += "  join: " + join->ToString() + "\n";
  }
  for (const RelationProbe& probe : relation_probes_) {
    const AlphaSpec& spec = alphas_[probe.var]->spec();
    out += "  probe " + spec.relation->name() + "." + probe.attr_name +
           " [relation hash, " + std::to_string(probe.index->num_keys()) +
           " keys] for " + spec.var_name + "\n";
  }
  for (const auto& alpha : alphas_) {
    const JoinKeyIndex& jidx = alpha->join_index();
    for (size_t i = 0; i < jidx.num_specs(); ++i) {
      out += "  hash index on " + alpha->spec().var_name + ": " +
             jidx.spec(i).description +
             (jidx.spec_enabled(i) ? "" : " [disabled]") + "\n";
    }
  }
  out += "  P(" + rule_name_ + "): " + std::to_string(pnode_->size()) +
         " instantiations\n";
  return out;
}

}  // namespace ariel
