#include "exec/vector_kernels.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/string_util.h"

namespace ariel {
namespace {

constexpr uint64_t kAllValid = ~uint64_t{0};

/// Mirrors the TypeRank lattice inside Value::Compare: null < bool <
/// numeric < string (int and float share a rank and compare numerically).
int TypeRankOf(DataType t) {
  switch (t) {
    case DataType::kNull: return 0;
    case DataType::kBool: return 1;
    case DataType::kInt:
    case DataType::kFloat: return 2;
    case DataType::kString: return 3;
  }
  return 4;
}

bool ApplyOp(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq: return cmp == 0;
    case BinaryOp::kNe: return cmp != 0;
    case BinaryOp::kLt: return cmp < 0;
    case BinaryOp::kLe: return cmp <= 0;
    case BinaryOp::kGt: return cmp > 0;
    case BinaryOp::kGe: return cmp >= 0;
    default: return false;
  }
}

uint8_t Bit(bool b) { return b ? 1 : 0; }

template <BinaryOp kOp>
using OpTag = std::integral_constant<BinaryOp, kOp>;

/// Calls `fn(OpTag<op>{})`, so a kernel picks its operator once per call
/// and every row loop below is specialized for it. Returns false (without
/// calling `fn`) when `op` is not a comparison.
template <typename Fn>
bool DispatchOp(BinaryOp op, Fn&& fn) {
  switch (op) {
    case BinaryOp::kEq: fn(OpTag<BinaryOp::kEq>{}); return true;
    case BinaryOp::kNe: fn(OpTag<BinaryOp::kNe>{}); return true;
    case BinaryOp::kLt: fn(OpTag<BinaryOp::kLt>{}); return true;
    case BinaryOp::kLe: fn(OpTag<BinaryOp::kLe>{}); return true;
    case BinaryOp::kGt: fn(OpTag<BinaryOp::kGt>{}); return true;
    case BinaryOp::kGe: fn(OpTag<BinaryOp::kGe>{}); return true;
    default: return false;
  }
}

/// One comparison outcome from the two strict orderings of a cell against
/// its key. Every operator is a branch-free combination of them, and this
/// folds a NaN exactly as CompareDoubles does: neither ordering holds, so
/// NaN compares equal to everything (kEq is !(x<k) & !(x>k)).
template <BinaryOp kOp>
uint8_t FromOrder(bool lt, bool gt) {
  if constexpr (kOp == BinaryOp::kEq) return static_cast<uint8_t>(!lt & !gt);
  if constexpr (kOp == BinaryOp::kNe) return static_cast<uint8_t>(lt | gt);
  if constexpr (kOp == BinaryOp::kLt) return static_cast<uint8_t>(lt);
  if constexpr (kOp == BinaryOp::kLe) return static_cast<uint8_t>(!gt);
  if constexpr (kOp == BinaryOp::kGt) return static_cast<uint8_t>(gt);
  return static_cast<uint8_t>(!lt);  // kGe
}

template <BinaryOp kOp, typename T, typename K>
uint8_t CompareNumbers(T x, K k) {
  return FromOrder<kOp>(x < k, x > k);
}

template <BinaryOp kOp>
uint8_t CompareStrings(std::string_view x, std::string_view k) {
  if constexpr (kOp == BinaryOp::kEq) return Bit(x == k);
  if constexpr (kOp == BinaryOp::kNe) return Bit(x != k);
  const int cmp = x.compare(k);
  return FromOrder<kOp>(cmp < 0, cmp > 0);
}

/// ANDs `cell(i)` into m[i] for every row i < n, one validity word (64
/// rows) at a time; rows whose validity bit is clear get `null_out`
/// instead. `cell` must be pure and total: on a mixed word it also runs
/// for null rows (reading their zero placeholder), so no loop carries a
/// per-row branch.
template <typename Cell>
void AndByWord(const uint64_t* valid, size_t n, uint8_t null_out, uint8_t* m,
               Cell cell) {
  uint8_t out[64] = {};  // one word's outcomes, ANDed into m in a 2nd pass
  for (size_t base = 0; base < n; base += 64) {
    const uint64_t bits = valid[base >> 6];
    const size_t len = std::min<size_t>(64, n - base);
    uint8_t* mw = m + base;
    if (bits == kAllValid) {  // a full word: bits past n are always clear
      for (size_t j = 0; j < 64; ++j) out[j] = cell(base + j);
      for (size_t j = 0; j < 64; ++j) mw[j] &= out[j];
    } else if (bits == 0) {
      if (null_out == 0) std::memset(mw, 0, len);
    } else {
      for (size_t j = 0; j < len; ++j) {
        const uint8_t ok = static_cast<uint8_t>((bits >> j) & 1);
        out[j] = static_cast<uint8_t>((cell(base + j) & ok) |
                                      (null_out & (ok ^ 1)));
      }
      for (size_t j = 0; j < len; ++j) mw[j] &= out[j];
    }
  }
}

/// AndByWord for a cell over two columns. A null cell ranks below every
/// value, so the outcome of a row with a null side depends only on which
/// sides are null.
template <typename Cell>
void AndByWordPair(const uint64_t* valid_a, const uint64_t* valid_b, size_t n,
                   BinaryOp op, uint8_t* m, Cell cell) {
  const uint8_t b_null = Bit(ApplyOp(op, 1));
  const uint8_t a_null = Bit(ApplyOp(op, -1));
  const uint8_t both_null = Bit(ApplyOp(op, 0));
  uint8_t out[64] = {};
  for (size_t base = 0; base < n; base += 64) {
    const uint64_t bits_a = valid_a[base >> 6];
    const uint64_t bits_b = valid_b[base >> 6];
    const size_t len = std::min<size_t>(64, n - base);
    uint8_t* mw = m + base;
    if ((bits_a & bits_b) == kAllValid) {
      for (size_t j = 0; j < 64; ++j) out[j] = cell(base + j);
      for (size_t j = 0; j < 64; ++j) mw[j] &= out[j];
      continue;
    }
    for (size_t j = 0; j < len; ++j) {
      const uint8_t a = static_cast<uint8_t>((bits_a >> j) & 1);
      const uint8_t b = static_cast<uint8_t>((bits_b >> j) & 1);
      mw[j] &= static_cast<uint8_t>((cell(base + j) & a & b) |
                                    (b_null & a & (b ^ 1)) |
                                    (a_null & (a ^ 1) & b) |
                                    (both_null & ((a | b) ^ 1)));
    }
  }
}

/// AndCompareColumnScalar over a raw mask of batch.num_rows() bytes.
void AndCompareScalar(const ColumnBatch& batch, size_t col, BinaryOp op,
                      const Value& key, uint8_t* m) {
  const ColumnBatch::Column& c = batch.col(col);
  const size_t n = batch.num_rows();
  const uint64_t* valid = c.valid.data();
  const int col_rank = TypeRankOf(c.type);
  const int key_rank = TypeRankOf(key.type());

  if (col_rank != key_rank) {
    // The payload is never inspected: the outcome depends only on whether
    // the cell is null. (A null key also lands here — schema columns are
    // never declared null-typed, so the ranks cannot both be 0.)
    const uint8_t valid_out = Bit(ApplyOp(op, col_rank < key_rank ? -1 : 1));
    const uint8_t null_out = Bit(ApplyOp(op, key.is_null() ? 0 : -1));
    AndByWord(valid, n, null_out, m, [=](size_t) { return valid_out; });
    return;
  }

  // Same rank: a null cell still ranks below the key.
  const uint8_t null_out = Bit(ApplyOp(op, -1));
  const bool comparison = DispatchOp(op, [&](auto tag) {
    constexpr BinaryOp kOp = decltype(tag)::value;
    switch (c.type) {
      case DataType::kInt: {
        const int64_t* x = c.ints.data();
        if (key.is_int()) {  // exact, never through double
          const int64_t k = key.int_value();
          AndByWord(valid, n, null_out, m, [=](size_t i) {
            return CompareNumbers<kOp>(x[i], k);
          });
        } else {
          const double k = key.AsDouble();
          AndByWord(valid, n, null_out, m, [=](size_t i) {
            return CompareNumbers<kOp>(static_cast<double>(x[i]), k);
          });
        }
        break;
      }
      case DataType::kFloat: {
        const double* x = c.floats.data();
        const double k = key.AsDouble();
        AndByWord(valid, n, null_out, m,
                  [=](size_t i) { return CompareNumbers<kOp>(x[i], k); });
        break;
      }
      case DataType::kBool: {
        const uint8_t* x = c.bools.data();
        const uint8_t k = Bit(key.bool_value());
        AndByWord(valid, n, null_out, m,
                  [=](size_t i) { return CompareNumbers<kOp>(x[i], k); });
        break;
      }
      case DataType::kString: {
        const std::string_view k = key.string_value();
        AndByWord(valid, n, null_out, m, [&](size_t i) {
          return CompareStrings<kOp>(batch.StringAt(col, i), k);
        });
        break;
      }
      default:
        break;
    }
  });
  if (!comparison) std::memset(m, 0, n);
}

}  // namespace

void AndCompareColumnScalar(const ColumnBatch& batch, size_t col,
                            BinaryOp op, const Value& key,
                            std::vector<uint8_t>* mask) {
  if (batch.num_rows() == 0) return;
  AndCompareScalar(batch, col, op, key, mask->data());
}

// ---------------------------------------------------------------------------
// VectorPredicate
// ---------------------------------------------------------------------------

struct VectorPredicate::Node {
  enum class Kind : uint8_t {
    kConst,          // constant truth value
    kBoolColumn,     // a bool-typed column used directly as a predicate
    kCompareScalar,  // column <op> literal
    kCompareCols,    // column <op> column (same tuple variable)
    kAnd,
    kOr,
    kNot,
  };

  Kind kind;
  bool const_value = false;
  size_t col = 0;
  size_t col2 = 0;
  BinaryOp op = BinaryOp::kEq;
  Value literal;
  std::unique_ptr<Node> a;
  std::unique_ptr<Node> b;
};

namespace {

using VPNode = VectorPredicate::Node;

}  // namespace

VectorPredicate::VectorPredicate(std::unique_ptr<Node> root)
    : root_(std::move(root)) {}
VectorPredicate::~VectorPredicate() = default;
VectorPredicate::VectorPredicate(VectorPredicate&&) noexcept = default;
VectorPredicate& VectorPredicate::operator=(VectorPredicate&&) noexcept =
    default;

namespace {

std::unique_ptr<VPNode> MakeConst(bool v) {
  auto node = std::make_unique<VPNode>();
  node->kind = VPNode::Kind::kConst;
  node->const_value = v;
  return node;
}

/// Resolves a ColumnRef of `var_name` to its attribute position; -1 when
/// the ref is out of grammar (previous, whole-tuple, another variable, an
/// unknown attribute).
int ResolveColumn(const Expr& expr, std::string_view var_name,
                  const Schema& schema) {
  if (expr.kind != ExprKind::kColumnRef) return -1;
  const auto& col = static_cast<const ColumnRefExpr&>(expr);
  if (col.previous || col.is_all()) return -1;
  if (!EqualsIgnoreCase(col.tuple_var, var_name)) return -1;
  return schema.IndexOf(col.attribute);
}

/// Compiles `expr` at predicate position: the result must be bool-or-null
/// on every row and must never raise ExecutionError (so masks can be
/// computed eagerly over rows the row path would have skipped). Returns
/// nullptr when the expression falls outside that grammar.
std::unique_ptr<VPNode> CompilePredicate(const Expr& expr,
                                         std::string_view var_name,
                                         const Schema& schema) {
  switch (expr.kind) {
    case ExprKind::kLiteral: {
      const Value& v = static_cast<const LiteralExpr&>(expr).value;
      if (v.is_bool()) return MakeConst(v.bool_value());
      if (v.is_null()) return MakeConst(false);  // EvalPredicate: null→false
      return nullptr;  // non-bool literal errors on the row path
    }
    case ExprKind::kNew: {
      // new(v) is the always-true selection condition; it compiles to a
      // true literal on the row path.
      const auto& n = static_cast<const NewExpr&>(expr);
      if (!EqualsIgnoreCase(n.tuple_var, var_name)) return nullptr;
      return MakeConst(true);
    }
    case ExprKind::kColumnRef: {
      int pos = ResolveColumn(expr, var_name, schema);
      if (pos < 0) return nullptr;
      // Only a bool-typed column is safe: any other type would raise
      // ExecutionError at predicate position on the row path.
      if (schema.attribute(static_cast<size_t>(pos)).type != DataType::kBool) {
        return nullptr;
      }
      auto node = std::make_unique<VPNode>();
      node->kind = VPNode::Kind::kBoolColumn;
      node->col = static_cast<size_t>(pos);
      return node;
    }
    case ExprKind::kUnary: {
      const auto& un = static_cast<const UnaryExpr&>(expr);
      if (un.op != UnaryOp::kNot) return nullptr;  // kNeg is arithmetic
      auto operand = CompilePredicate(*un.operand, var_name, schema);
      if (operand == nullptr) return nullptr;
      auto node = std::make_unique<VPNode>();
      node->kind = VPNode::Kind::kNot;
      node->a = std::move(operand);
      return node;
    }
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(expr);
      if (bin.op == BinaryOp::kAnd || bin.op == BinaryOp::kOr) {
        auto lhs = CompilePredicate(*bin.lhs, var_name, schema);
        if (lhs == nullptr) return nullptr;
        auto rhs = CompilePredicate(*bin.rhs, var_name, schema);
        if (rhs == nullptr) return nullptr;
        auto node = std::make_unique<VPNode>();
        node->kind = bin.op == BinaryOp::kAnd ? VPNode::Kind::kAnd
                                              : VPNode::Kind::kOr;
        node->a = std::move(lhs);
        node->b = std::move(rhs);
        return node;
      }
      if (!IsComparison(bin.op)) return nullptr;  // arithmetic can error
      // Comparison operands: column refs of `var_name` or literals, in any
      // combination. Comparisons are total over Values, so they never
      // error regardless of operand types.
      const bool lhs_lit = bin.lhs->kind == ExprKind::kLiteral;
      const bool rhs_lit = bin.rhs->kind == ExprKind::kLiteral;
      if (lhs_lit && rhs_lit) {
        const Value& l = static_cast<const LiteralExpr&>(*bin.lhs).value;
        const Value& r = static_cast<const LiteralExpr&>(*bin.rhs).value;
        return MakeConst(ApplyOp(bin.op, l.Compare(r)));
      }
      if (rhs_lit) {
        int pos = ResolveColumn(*bin.lhs, var_name, schema);
        if (pos < 0) return nullptr;
        auto node = std::make_unique<VPNode>();
        node->kind = VPNode::Kind::kCompareScalar;
        node->col = static_cast<size_t>(pos);
        node->op = bin.op;
        node->literal = static_cast<const LiteralExpr&>(*bin.rhs).value;
        return node;
      }
      if (lhs_lit) {
        int pos = ResolveColumn(*bin.rhs, var_name, schema);
        if (pos < 0) return nullptr;
        auto node = std::make_unique<VPNode>();
        node->kind = VPNode::Kind::kCompareScalar;
        node->col = static_cast<size_t>(pos);
        node->op = MirrorComparison(bin.op);
        node->literal = static_cast<const LiteralExpr&>(*bin.lhs).value;
        return node;
      }
      int lpos = ResolveColumn(*bin.lhs, var_name, schema);
      int rpos = ResolveColumn(*bin.rhs, var_name, schema);
      if (lpos < 0 || rpos < 0) return nullptr;
      auto node = std::make_unique<VPNode>();
      node->kind = VPNode::Kind::kCompareCols;
      node->col = static_cast<size_t>(lpos);
      node->col2 = static_cast<size_t>(rpos);
      node->op = bin.op;
      return node;
    }
    default:
      return nullptr;  // aggregates etc.
  }
}

/// ANDs `a.col <op> b.col2` into m.
void AndCompareCols(const ColumnBatch& batch, const VPNode& node,
                    uint8_t* m) {
  const ColumnBatch::Column& a = batch.col(node.col);
  const ColumnBatch::Column& b = batch.col(node.col2);
  const size_t n = batch.num_rows();
  const uint64_t* va = a.valid.data();
  const uint64_t* vb = b.valid.data();
  const int rank_a = TypeRankOf(a.type);
  const int rank_b = TypeRankOf(b.type);
  const BinaryOp op = node.op;
  if (rank_a != rank_b) {
    const uint8_t out = Bit(ApplyOp(op, rank_a < rank_b ? -1 : 1));
    AndByWordPair(va, vb, n, op, m, [=](size_t) { return out; });
    return;
  }
  const bool comparison = DispatchOp(op, [&](auto tag) {
    constexpr BinaryOp kOp = decltype(tag)::value;
    if (a.type == DataType::kInt && b.type == DataType::kInt) {
      const int64_t* x = a.ints.data();
      const int64_t* y = b.ints.data();
      AndByWordPair(va, vb, n, op, m,
                    [=](size_t i) { return CompareNumbers<kOp>(x[i], y[i]); });
    } else if (a.type == DataType::kInt) {  // mixed numerics as doubles
      const int64_t* x = a.ints.data();
      const double* y = b.floats.data();
      AndByWordPair(va, vb, n, op, m, [=](size_t i) {
        return CompareNumbers<kOp>(static_cast<double>(x[i]), y[i]);
      });
    } else if (b.type == DataType::kInt) {
      const double* x = a.floats.data();
      const int64_t* y = b.ints.data();
      AndByWordPair(va, vb, n, op, m, [=](size_t i) {
        return CompareNumbers<kOp>(x[i], static_cast<double>(y[i]));
      });
    } else if (a.type == DataType::kFloat) {
      const double* x = a.floats.data();
      const double* y = b.floats.data();
      AndByWordPair(va, vb, n, op, m,
                    [=](size_t i) { return CompareNumbers<kOp>(x[i], y[i]); });
    } else if (a.type == DataType::kBool) {
      const uint8_t* x = a.bools.data();
      const uint8_t* y = b.bools.data();
      AndByWordPair(va, vb, n, op, m,
                    [=](size_t i) { return CompareNumbers<kOp>(x[i], y[i]); });
    } else {  // string vs string
      AndByWordPair(va, vb, n, op, m, [&](size_t i) {
        return CompareStrings<kOp>(batch.StringAt(node.col, i),
                                   batch.StringAt(node.col2, i));
      });
    }
  });
  if (!comparison) std::memset(m, 0, n);
}

/// ANDs `node`'s truth value into m[0, n): rows already 0 stay 0. `or` and
/// `not` park their first operand's result in `scratch` (n bytes per
/// level of or/not nesting, carved from the one buffer EvalMask
/// allocates), so no node allocates.
void AndInto(const VPNode& node, const ColumnBatch& batch, uint8_t* m,
             uint8_t* scratch) {
  const size_t n = batch.num_rows();
  switch (node.kind) {
    case VPNode::Kind::kConst:
      if (!node.const_value) std::memset(m, 0, n);
      break;
    case VPNode::Kind::kBoolColumn: {
      const ColumnBatch::Column& c = batch.col(node.col);
      const uint8_t* x = c.bools.data();
      AndByWord(c.valid.data(), n, /*null_out=*/0, m,
                [=](size_t i) { return x[i]; });
      break;
    }
    case VPNode::Kind::kCompareScalar:
      AndCompareScalar(batch, node.col, node.op, node.literal, m);
      break;
    case VPNode::Kind::kCompareCols:
      AndCompareCols(batch, node, m);
      break;
    case VPNode::Kind::kAnd:
      AndInto(*node.a, batch, m, scratch);
      AndInto(*node.b, batch, m, scratch);
      break;
    case VPNode::Kind::kNot:
    case VPNode::Kind::kOr: {
      // s = m & a, then m &= !a — which is all of `not`.
      uint8_t* s = scratch;
      std::memcpy(s, m, n);
      AndInto(*node.a, batch, s, scratch + n);
      for (size_t i = 0; i < n; ++i) m[i] &= s[i] ^ 1;
      if (node.kind == VPNode::Kind::kOr) {
        // m & !a & b, plus the rows a already passed.
        AndInto(*node.b, batch, m, scratch + n);
        for (size_t i = 0; i < n; ++i) m[i] |= s[i];
      }
      break;
    }
  }
}

/// Scratch rows AndInto needs below `node`: one per level of or/not.
size_t ScratchDepth(const VPNode& node) {
  const size_t a = node.a != nullptr ? ScratchDepth(*node.a) : 0;
  const size_t b = node.b != nullptr ? ScratchDepth(*node.b) : 0;
  const bool parks = node.kind == VPNode::Kind::kNot ||
                     node.kind == VPNode::Kind::kOr;
  return std::max(a, b) + (parks ? 1 : 0);
}

}  // namespace

std::unique_ptr<VectorPredicate> VectorPredicate::Compile(
    const Expr& expr, std::string_view var_name, const Schema& schema) {
  auto root = CompilePredicate(expr, var_name, schema);
  if (root == nullptr) return nullptr;
  const size_t scratch_depth = ScratchDepth(*root);
  std::unique_ptr<VectorPredicate> vp(
      new VectorPredicate(std::move(root)));  // ariel-lint: allow(raw-new)
  vp->scratch_depth_ = scratch_depth;
  return vp;
}

void VectorPredicate::EvalMask(const ColumnBatch& batch,
                               std::vector<uint8_t>* mask) const {
  const size_t n = batch.num_rows();
  mask->assign(n, 1);
  if (n == 0) return;
  std::vector<uint8_t> scratch(n * scratch_depth_);
  AndInto(*root_, batch, mask->data(), scratch.data());
}

}  // namespace ariel
