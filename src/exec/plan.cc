#include "exec/plan.h"

#include <algorithm>
#include <cstring>

#include "util/metrics.h"

namespace ariel {

std::string PlanNode::ToString(int indent) const {
  std::string out(indent * 2, ' ');
  out += Label();
  out += "\n";
  for (const auto& child : children_) {
    out += child->ToString(indent + 1);
  }
  return out;
}

Status ConstRowNode::Execute(const RowConsumer& consume) {
  return consume(Row(num_vars_));
}

Status SeqScanNode::Execute(const RowConsumer& consume) {
  if (vector_filter_ != nullptr) {
    if (relation_->size() >= columnar_min_rows_) {
      return ExecuteColumnar(consume);
    }
    Metrics().columnar_row_fallbacks.Increment();  // below the row threshold
  }
  // Materialize tuple ids first so consumers that mutate the relation
  // (through a pipeline-breaking parent) cannot invalidate the iteration.
  // This is the audited row fallback — the one sanctioned direct heap
  // iteration in the exec kernels.
  std::vector<TupleId> tids = relation_->AllTupleIds();  // ariel-lint: allow(heap-iteration)
  Metrics().tuples_scanned.Increment(tids.size());
  return ScanRows(tids, 0, consume);
}

Status SeqScanNode::ScanRows(const std::vector<TupleId>& tids, size_t from,
                             const RowConsumer& consume) {
  Row row(num_vars_);
  for (size_t i = from; i < tids.size(); ++i) {
    const Tuple* tuple = relation_->Get(tids[i]);
    if (tuple == nullptr) continue;  // deleted mid-scan
    Metrics().values_copied.Increment(tuple->size());
    row.Set(var_, *tuple, tids[i]);
    if (filter_) {
      ARIEL_ASSIGN_OR_RETURN(bool keep, filter_->EvalPredicate(row));
      if (!keep) continue;
    }
    ARIEL_RETURN_NOT_OK(consume(row));
  }
  return Status::OK();
}

Status SeqScanNode::ExecuteColumnar(const RowConsumer& consume) {
  std::shared_ptr<const ColumnBatch> batch = relation_->ColumnView();
  const uint64_t version = batch->source_version();
  const std::vector<TupleId>& tids = batch->tids();
  const size_t n = tids.size();
  Metrics().tuples_scanned.Increment(n);
  Metrics().columnar_scans.Increment();
  Metrics().columnar_scan_rows.Increment(n);
  std::vector<uint8_t> mask;
  vector_filter_->EvalMask(*batch, &mask);
  const uint8_t* m = mask.data();
  Row row(num_vars_);
  for (size_t i = 0; i < n; ++i) {
    if ((i & 7) == 0 && i + 8 <= n) {
      uint64_t eight = 0;
      std::memcpy(&eight, m + i, sizeof eight);
      if (eight == 0) {  // eight rejected rows at once
        i += 7;
        continue;
      }
    }
    if (m[i] == 0) continue;  // rejected without ever copying the tuple
    const Tuple* tuple = relation_->Get(tids[i]);
    if (tuple == nullptr) continue;
    Metrics().values_copied.Increment(tuple->size());
    row.Set(var_, *tuple, tids[i]);
    if (row_residual_) {
      ARIEL_ASSIGN_OR_RETURN(bool keep, row_residual_->EvalPredicate(row));
      if (!keep) continue;
    }
    ARIEL_RETURN_NOT_OK(consume(row));
    if (relation_->version() != version && i + 1 < n) {
      // The consumer mutated the relation: the mask no longer reflects the
      // heap. Finish the remaining positions on the row path (same
      // materialized tid list, full residual re-evaluated per row —
      // exactly what the row fallback would have done from here).
      Metrics().columnar_row_fallbacks.Increment();
      return ScanRows(tids, i + 1, consume);
    }
  }
  return Status::OK();
}

std::string SeqScanNode::Label() const {
  std::string out = label_prefix_ + " " + relation_->name();
  if (filter_) out += " (filtered)";
  return out;
}

Status IndexScanNode::Execute(const RowConsumer& consume) {
  std::vector<TupleId> tids;
  index_->Scan(lower_, upper_, &tids);
  Metrics().tuples_scanned.Increment(tids.size());
  Row row(num_vars_);
  for (TupleId tid : tids) {
    const Tuple* tuple = relation_->Get(tid);
    if (tuple == nullptr) continue;
    Metrics().values_copied.Increment(tuple->size());
    row.Set(var_, *tuple, tid);
    if (filter_) {
      ARIEL_ASSIGN_OR_RETURN(bool keep, filter_->EvalPredicate(row));
      if (!keep) continue;
    }
    ARIEL_RETURN_NOT_OK(consume(row));
  }
  return Status::OK();
}

std::string IndexScanNode::Label() const {
  std::string out = "IndexScan " + relation_->name() + "." + attr_name_ + " ";
  out += lower_.has_value()
             ? (lower_->inclusive ? "[" : "(") + lower_->key.ToString()
             : "(-inf";
  out += ", ";
  out += upper_.has_value()
             ? upper_->key.ToString() + (upper_->inclusive ? "]" : ")")
             : "+inf)";
  if (filter_) out += " (filtered)";
  return out;
}

NestedLoopJoinNode::NestedLoopJoinNode(PlanNodePtr left, PlanNodePtr right,
                                       CompiledExprPtr predicate,
                                       std::string predicate_text)
    : predicate_(std::move(predicate)),
      predicate_text_(std::move(predicate_text)) {
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

Status NestedLoopJoinNode::Execute(const RowConsumer& consume) {
  std::vector<Row> inner;
  ARIEL_RETURN_NOT_OK(children_[1]->Execute([&](const Row& row) {
    inner.push_back(row);
    return Status::OK();
  }));
  return children_[0]->Execute([&](const Row& outer) -> Status {
    for (const Row& inner_row : inner) {
      Row combined = outer;
      combined.MergeFrom(inner_row);
      if (predicate_) {
        ARIEL_ASSIGN_OR_RETURN(bool keep, predicate_->EvalPredicate(combined));
        if (!keep) continue;
      }
      ARIEL_RETURN_NOT_OK(consume(combined));
    }
    return Status::OK();
  });
}

std::string NestedLoopJoinNode::Label() const {
  return "NestedLoopJoin" +
         (predicate_text_.empty() ? "" : " (" + predicate_text_ + ")");
}

SortMergeJoinNode::SortMergeJoinNode(PlanNodePtr left, PlanNodePtr right,
                                     CompiledExprPtr left_key,
                                     CompiledExprPtr right_key,
                                     std::string predicate_text)
    : left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      predicate_text_(std::move(predicate_text)) {
  children_.push_back(std::move(left));
  children_.push_back(std::move(right));
}

Status SortMergeJoinNode::Execute(const RowConsumer& consume) {
  struct Keyed {
    Value key;
    Row row;
  };
  auto materialize = [](PlanNode* node,
                        CompiledExpr* key_expr) -> Result<std::vector<Keyed>> {
    std::vector<Keyed> out;
    ARIEL_RETURN_NOT_OK(node->Execute([&](const Row& row) -> Status {
      ARIEL_ASSIGN_OR_RETURN(Value key, key_expr->Eval(row));
      out.push_back(Keyed{std::move(key), row});
      return Status::OK();
    }));
    std::stable_sort(out.begin(), out.end(), [](const Keyed& a, const Keyed& b) {
      return a.key < b.key;
    });
    return out;
  };

  ARIEL_ASSIGN_OR_RETURN(std::vector<Keyed> left,
                         materialize(children_[0].get(), left_key_.get()));
  ARIEL_ASSIGN_OR_RETURN(std::vector<Keyed> right,
                         materialize(children_[1].get(), right_key_.get()));

  size_t li = 0, ri = 0;
  while (li < left.size() && ri < right.size()) {
    int c = left[li].key.Compare(right[ri].key);
    if (c < 0) {
      ++li;
    } else if (c > 0) {
      ++ri;
    } else {
      // Find the extent of the equal-key group on each side, emit the
      // cross product, then advance both.
      size_t lend = li;
      while (lend < left.size() && left[lend].key == left[li].key) ++lend;
      size_t rend = ri;
      while (rend < right.size() && right[rend].key == right[ri].key) ++rend;
      for (size_t i = li; i < lend; ++i) {
        for (size_t j = ri; j < rend; ++j) {
          Row combined = left[i].row;
          combined.MergeFrom(right[j].row);
          ARIEL_RETURN_NOT_OK(consume(combined));
        }
      }
      li = lend;
      ri = rend;
    }
  }
  return Status::OK();
}

std::string SortMergeJoinNode::Label() const {
  return "SortMergeJoin" +
         (predicate_text_.empty() ? "" : " (" + predicate_text_ + ")");
}

FilterNode::FilterNode(PlanNodePtr child, CompiledExprPtr predicate,
                       std::string predicate_text)
    : predicate_(std::move(predicate)),
      predicate_text_(std::move(predicate_text)) {
  children_.push_back(std::move(child));
}

Status FilterNode::Execute(const RowConsumer& consume) {
  return children_[0]->Execute([&](const Row& row) -> Status {
    ARIEL_ASSIGN_OR_RETURN(bool keep, predicate_->EvalPredicate(row));
    if (keep) return consume(row);
    return Status::OK();
  });
}

std::string FilterNode::Label() const {
  return "Filter (" + predicate_text_ + ")";
}

Result<std::vector<Row>> Plan::CollectRows() const {
  std::vector<Row> rows;
  if (root == nullptr) return rows;
  ARIEL_RETURN_NOT_OK(root->Execute([&](const Row& row) {
    rows.push_back(row);
    return Status::OK();
  }));
  return rows;
}

}  // namespace ariel
