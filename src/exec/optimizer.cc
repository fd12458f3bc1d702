#include "exec/optimizer.h"

#include <algorithm>
#include <limits>
#include <set>

#include "util/string_util.h"

namespace ariel {

double EstimateSelectivity(const Expr& conjunct) {
  if (conjunct.kind == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(conjunct);
    switch (bin.op) {
      case BinaryOp::kEq: return 0.1;
      case BinaryOp::kNe: return 0.9;
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: return 0.33;
      default: return 0.5;
    }
  }
  if (conjunct.kind == ExprKind::kNew) return 1.0;
  return 0.5;
}

namespace {

/// A qualification conjunct together with the scope variables it touches.
struct Conjunct {
  ExprPtr expr;
  std::vector<size_t> vars;  // ordinals into the scope
  bool used = false;
};

/// True when `expr` is `var.attr <op> literal` (or mirrored); fills the
/// normalized parts. Used for index-bound extraction.
bool MatchAttrLiteral(const Expr& expr, std::string* var, std::string* attr,
                      BinaryOp* op, Value* literal) {
  if (expr.kind != ExprKind::kBinary) return false;
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  if (!IsComparison(bin.op)) return false;
  const Expr* ref = nullptr;
  const Expr* lit = nullptr;
  BinaryOp norm_op = bin.op;
  if (bin.lhs->kind == ExprKind::kColumnRef &&
      bin.rhs->kind == ExprKind::kLiteral) {
    ref = bin.lhs.get();
    lit = bin.rhs.get();
  } else if (bin.rhs->kind == ExprKind::kColumnRef &&
             bin.lhs->kind == ExprKind::kLiteral) {
    ref = bin.rhs.get();
    lit = bin.lhs.get();
    norm_op = MirrorComparison(bin.op);
  } else {
    return false;
  }
  const auto& col = static_cast<const ColumnRefExpr&>(*ref);
  if (col.previous || col.is_all()) return false;
  *var = col.tuple_var;
  *attr = col.attribute;
  *op = norm_op;
  *literal = static_cast<const LiteralExpr&>(*lit).value;
  return true;
}

/// True when `expr` is `a.x = b.y` with a != b: an equijoin predicate.
bool MatchEquiJoin(const Expr& expr, const Scope& scope, size_t* left_var,
                   size_t* right_var, ExprPtr* left_key, ExprPtr* right_key) {
  if (expr.kind != ExprKind::kBinary) return false;
  const auto& bin = static_cast<const BinaryExpr&>(expr);
  if (bin.op != BinaryOp::kEq) return false;
  auto side_var = [&](const Expr& e) -> int {
    std::vector<std::string> vars = CollectTupleVars(e);
    if (vars.size() != 1) return -1;
    return scope.IndexOf(vars[0]);
  };
  int lv = side_var(*bin.lhs);
  int rv = side_var(*bin.rhs);
  if (lv < 0 || rv < 0 || lv == rv) return false;
  *left_var = static_cast<size_t>(lv);
  *right_var = static_cast<size_t>(rv);
  *left_key = bin.lhs->Clone();
  *right_key = bin.rhs->Clone();
  return true;
}

}  // namespace

Result<Plan> Optimizer::BuildPlan(const std::vector<PlanVar>& vars,
                                  const Expr* qual) const {
  // Build the scope. P-node columns already include previous values as
  // plain columns, so has_previous is false for all plan variables.
  Scope scope;
  for (const PlanVar& v : vars) {
    if (v.relation == nullptr) {
      return Status::Internal("plan variable \"" + v.name +
                              "\" has no relation");
    }
    scope.Add(VarBinding{ToLower(v.name), &v.relation->schema(), false});
  }
  size_t n = vars.size();

  // Split and classify conjuncts.
  std::vector<Conjunct> conjuncts;
  if (qual != nullptr) {
    for (ExprPtr& e : SplitConjuncts(*qual)) {
      Conjunct c;
      for (const std::string& name : CollectTupleVars(*e)) {
        int idx = scope.IndexOf(name);
        if (idx < 0) {
          return Status::SemanticError("unknown tuple variable \"" + name +
                                       "\" in qualification");
        }
        c.vars.push_back(static_cast<size_t>(idx));
      }
      c.expr = std::move(e);
      conjuncts.push_back(std::move(c));
    }
  }

  if (n == 0) {
    // Constant command: a single row, filtered by any constant conjuncts.
    PlanNodePtr node = std::make_unique<ConstRowNode>(0);
    for (Conjunct& c : conjuncts) {
      ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr pred,
                             CompileExpr(*c.expr, scope));
      node = std::make_unique<FilterNode>(std::move(node), std::move(pred),
                                          c.expr->ToString());
    }
    return Plan{std::move(scope), std::move(node)};
  }

  // --- Per-variable scans with pushed-down selections ---
  std::vector<PlanNodePtr> scans(n);
  std::vector<double> est(n);
  for (size_t v = 0; v < n; ++v) {
    // Gather this variable's single-variable conjuncts.
    std::vector<Conjunct*> mine;
    for (Conjunct& c : conjuncts) {
      if (c.vars.size() == 1 && c.vars[0] == v) mine.push_back(&c);
    }

    double cardinality = static_cast<double>(vars[v].relation->size());
    for (Conjunct* c : mine) cardinality *= EstimateSelectivity(*c->expr);
    est[v] = std::max(cardinality, 0.1);

    // Try to convert one or more conjuncts into index bounds.
    const BTreeIndex* best_index = nullptr;
    std::string best_attr;
    std::optional<KeyBound> lower, upper;
    std::vector<Conjunct*> bound_conjuncts;
    if (options_.enable_index_scan && !vars[v].is_pnode) {
      // Group bound candidates by attribute; pick the attribute with an
      // index and the most bounds.
      for (const std::string& attr_name :
           vars[v].relation->IndexedAttributes()) {
        std::optional<KeyBound> lo, hi;
        std::vector<Conjunct*> used;
        for (Conjunct* c : mine) {
          std::string cv, ca;
          BinaryOp op;
          Value lit;
          if (!MatchAttrLiteral(*c->expr, &cv, &ca, &op, &lit)) continue;
          if (!EqualsIgnoreCase(ca, attr_name)) continue;
          switch (op) {
            case BinaryOp::kEq:
              lo = KeyBound{lit, true};
              hi = KeyBound{lit, true};
              used.push_back(c);
              break;
            case BinaryOp::kLt:
              if (!hi || lit < hi->key) hi = KeyBound{lit, false};
              used.push_back(c);
              break;
            case BinaryOp::kLe:
              if (!hi || lit < hi->key) hi = KeyBound{lit, true};
              used.push_back(c);
              break;
            case BinaryOp::kGt:
              if (!lo || lit > lo->key) lo = KeyBound{lit, false};
              used.push_back(c);
              break;
            case BinaryOp::kGe:
              if (!lo || lit > lo->key) lo = KeyBound{lit, true};
              used.push_back(c);
              break;
            default:
              break;
          }
        }
        if (used.size() > bound_conjuncts.size()) {
          best_index = vars[v].relation->GetIndex(attr_name);
          best_attr = attr_name;
          lower = lo;
          upper = hi;
          bound_conjuncts = used;
        }
      }
    }

    // Residual = selections not absorbed into index bounds.
    std::vector<ExprPtr> residual;
    for (Conjunct* c : mine) {
      c->used = true;
      if (std::find(bound_conjuncts.begin(), bound_conjuncts.end(), c) ==
          bound_conjuncts.end()) {
        residual.push_back(c->expr->Clone());
      }
    }
    const bool use_index = best_index != nullptr && !bound_conjuncts.empty();

    // Columnar: vector-compile the maximal *prefix* of the residual list.
    // Vectorizing only a prefix keeps error behavior identical to the row
    // path — a conjunct that can raise (arithmetic, non-bool) is never
    // reordered before the mask, so `x != 0 and 1/x > 2` still short-
    // circuits. Index scans stay on the row path (their tid order comes
    // from the index, not the heap batch).
    VectorPredicatePtr vector_filter;
    CompiledExprPtr row_residual;
    if (options_.columnar_exec && !use_index && !residual.empty()) {
      const Schema& schema = vars[v].relation->schema();
      const std::string& var_name = scope.var(v).name;
      size_t prefix = 0;
      while (prefix < residual.size() &&
             VectorPredicate::Compile(*residual[prefix], var_name, schema) !=
                 nullptr) {
        ++prefix;
      }
      if (prefix > 0) {
        std::vector<ExprPtr> head;
        head.reserve(prefix);
        for (size_t i = 0; i < prefix; ++i) {
          head.push_back(residual[i]->Clone());
        }
        ExprPtr head_expr = CombineConjuncts(std::move(head));
        vector_filter = VectorPredicate::Compile(*head_expr, var_name, schema);
        std::vector<ExprPtr> tail;
        for (size_t i = prefix; i < residual.size(); ++i) {
          tail.push_back(residual[i]->Clone());
        }
        if (ExprPtr tail_expr = CombineConjuncts(std::move(tail))) {
          ARIEL_ASSIGN_OR_RETURN(row_residual, CompileExpr(*tail_expr, scope));
        }
      }
    }

    ExprPtr residual_expr = CombineConjuncts(std::move(residual));
    CompiledExprPtr filter;
    if (residual_expr) {
      ARIEL_ASSIGN_OR_RETURN(filter, CompileExpr(*residual_expr, scope));
    }

    if (use_index) {
      scans[v] = std::make_unique<IndexScanNode>(
          vars[v].relation, best_index, best_attr, v, n, std::move(lower),
          std::move(upper), std::move(filter));
    } else {
      scans[v] = std::make_unique<SeqScanNode>(
          vars[v].relation, v, n, std::move(filter),
          vars[v].is_pnode ? "PnodeScan" : "SeqScan", std::move(vector_filter),
          std::move(row_residual), options_.columnar_min_rows);
    }
  }

  auto make_filter = [&](PlanNodePtr child,
                         const Expr& expr) -> Result<PlanNodePtr> {
    ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr pred, CompileExpr(expr, scope));
    return PlanNodePtr(std::make_unique<FilterNode>(
        std::move(child), std::move(pred), expr.ToString()));
  };

  // --- Greedy join ordering ---
  std::set<size_t> joined;
  size_t first = 0;
  for (size_t v = 1; v < n; ++v) {
    if (est[v] < est[first]) first = v;
  }
  PlanNodePtr plan = std::move(scans[first]);
  double plan_card = est[first];
  joined.insert(first);

  while (joined.size() < n) {
    // Prefer a variable connected to the joined set by some join conjunct.
    int next = -1;
    bool next_connected = false;
    for (size_t v = 0; v < n; ++v) {
      if (joined.contains(v)) continue;
      bool connected = false;
      for (const Conjunct& c : conjuncts) {
        if (c.used || c.vars.size() != 2) continue;
        bool touches_v = std::find(c.vars.begin(), c.vars.end(), v) !=
                         c.vars.end();
        bool touches_set = joined.contains(c.vars[0]) ||
                           joined.contains(c.vars[1]);
        if (touches_v && touches_set) {
          connected = true;
          break;
        }
      }
      if (next < 0 || (connected && !next_connected) ||
          (connected == next_connected && est[v] < est[static_cast<size_t>(next)])) {
        next = static_cast<int>(v);
        next_connected = connected;
      }
    }
    size_t v = static_cast<size_t>(next);

    // Gather join conjuncts now fully available (both sides in set+v).
    std::vector<ExprPtr> preds;
    ExprPtr equi_left_key, equi_right_key;
    size_t equi_lv = 0, equi_rv = 0;
    bool have_equi = false;
    double selectivity = 1.0;
    for (Conjunct& c : conjuncts) {
      if (c.used || c.vars.empty()) continue;
      bool available = true;
      bool touches_v = false;
      for (size_t cv : c.vars) {
        if (cv == v) {
          touches_v = true;
        } else if (!joined.contains(cv)) {
          available = false;
        }
      }
      if (!available || !touches_v) continue;
      c.used = true;
      selectivity *= EstimateSelectivity(*c.expr);
      if (!have_equi && c.vars.size() == 2 &&
          MatchEquiJoin(*c.expr, scope, &equi_lv, &equi_rv, &equi_left_key,
                        &equi_right_key)) {
        have_equi = true;
        continue;  // consumed as the merge key
      }
      preds.push_back(std::move(c.expr));
    }

    ExprPtr pred_expr = CombineConjuncts(std::move(preds));
    double product = plan_card * est[v];
    if (have_equi && options_.enable_sort_merge &&
        product >= options_.sort_merge_threshold) {
      // Orient keys: the key whose variable is the incoming scan goes right.
      ExprPtr left_key = std::move(equi_left_key);
      ExprPtr right_key = std::move(equi_right_key);
      if (equi_lv == v) std::swap(left_key, right_key);
      std::string text = left_key->ToString() + " = " + right_key->ToString();
      ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr lk, CompileExpr(*left_key, scope));
      ARIEL_ASSIGN_OR_RETURN(CompiledExprPtr rk,
                             CompileExpr(*right_key, scope));
      plan = std::make_unique<SortMergeJoinNode>(std::move(plan),
                                                 std::move(scans[v]),
                                                 std::move(lk), std::move(rk),
                                                 text);
      if (pred_expr) {
        ARIEL_ASSIGN_OR_RETURN(plan, make_filter(std::move(plan), *pred_expr));
      }
    } else {
      // Nested loop carries all predicates, including the equijoin if any.
      std::vector<ExprPtr> all;
      if (have_equi) {
        all.push_back(std::make_unique<BinaryExpr>(BinaryOp::kEq,
                                                   std::move(equi_left_key),
                                                   std::move(equi_right_key)));
      }
      if (pred_expr) all.push_back(std::move(pred_expr));
      ExprPtr combined = CombineConjuncts(std::move(all));
      CompiledExprPtr predicate;
      std::string text;
      if (combined) {
        text = combined->ToString();
        ARIEL_ASSIGN_OR_RETURN(predicate, CompileExpr(*combined, scope));
      }
      plan = std::make_unique<NestedLoopJoinNode>(std::move(plan),
                                                  std::move(scans[v]),
                                                  std::move(predicate), text);
    }
    plan_card = std::max(product * selectivity, 0.1);
    joined.insert(v);
  }

  // Any remaining conjuncts (constants, 3+-variable residuals) filter on top.
  for (Conjunct& c : conjuncts) {
    if (c.used) continue;
    ARIEL_ASSIGN_OR_RETURN(plan, make_filter(std::move(plan), *c.expr));
  }

  return Plan{std::move(scope), std::move(plan)};
}

}  // namespace ariel
