// Unit tests for the columnar execution layer: ColumnBatch round-trips,
// the AndCompareColumnScalar kernel's Value::Compare parity (nulls, mixed
// numerics, strings), the VectorPredicate grammar boundary, randomized
// mask-vs-row-path agreement, kernel parity across validity-word
// boundaries and edge values (NaN, ±0.0, ±inf, int64 extremes, 2^53+1,
// shared string prefixes), and the columnar SeqScanNode against the row
// path — including a consumer that mutates the relation mid-scan.

#include "exec/vector_kernels.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "catalog/catalog.h"
#include "exec/plan.h"
#include "parser/parser.h"
#include "storage/column_batch.h"

namespace ariel {
namespace {

Schema MixedSchema() {
  return Schema({Attribute{"id", DataType::kInt},
                 Attribute{"val", DataType::kInt},
                 Attribute{"score", DataType::kFloat},
                 Attribute{"name", DataType::kString},
                 Attribute{"flag", DataType::kBool}});
}

/// Deterministic mixed-type row stream with nulls sprinkled through every
/// column (null semantics are where a hand-rolled kernel would drift).
Tuple MixedRow(uint64_t i) {
  auto maybe_null = [&](Value v, uint64_t salt) {
    return (i + salt) % 5 == 0 ? Value::Null() : v;
  };
  return Tuple(std::vector<Value>{
      Value::Int(static_cast<int64_t>(i)),
      maybe_null(Value::Int(static_cast<int64_t>((i * 131) % 100)), 1),
      maybe_null(Value::Float(static_cast<double>((i * 17) % 50) / 2.0), 2),
      maybe_null(Value::String("n" + std::to_string(i % 13)), 3),
      maybe_null(Value::Bool(i % 3 == 0), 4)});
}

class VectorKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rel_ = *catalog_.CreateRelation("e", MixedSchema());
    scope_.Add(VarBinding{"e", &rel_->schema(), false});
    for (uint64_t i = 0; i < 64; ++i) {
      ASSERT_OK(rel_->Insert(MixedRow(i)));
    }
  }

  ExprPtr Parse(const std::string& text) {
    auto e = ParseExpression(text);
    EXPECT_OK(e.status());
    return std::move(*e);
  }

  VectorPredicatePtr CompileVector(const std::string& text) {
    ExprPtr e = Parse(text);
    return VectorPredicate::Compile(*e, "e", rel_->schema());
  }

  CompiledExprPtr CompileRow(const std::string& text) {
    auto c = CompileExpr(*Parse(text), scope_);
    EXPECT_OK(c.status());
    return std::move(*c);
  }

  Catalog catalog_;
  HeapRelation* rel_ = nullptr;
  Scope scope_;
};

TEST_F(VectorKernelsTest, ColumnBatchRoundTripsValues) {
  std::shared_ptr<const ColumnBatch> batch = rel_->ColumnView();
  ASSERT_EQ(batch->num_rows(), rel_->size());
  ASSERT_EQ(batch->num_cols(), rel_->schema().num_attributes());
  EXPECT_EQ(batch->source_version(), rel_->version());
  for (size_t row = 0; row < batch->num_rows(); ++row) {
    const Tuple* heap = rel_->Get(batch->tids()[row]);
    ASSERT_NE(heap, nullptr);
    for (size_t c = 0; c < batch->num_cols(); ++c) {
      EXPECT_EQ(batch->ValueAt(c, row).Compare(heap->at(c)), 0)
          << "cell (" << c << ", " << row << ")";
    }
    EXPECT_TRUE(batch->TupleAt(row) == *heap);
  }
}

TEST_F(VectorKernelsTest, ColumnViewIsCachedUntilMutation) {
  auto first = rel_->ColumnView();
  EXPECT_EQ(first.get(), rel_->ColumnView().get());
  ASSERT_OK(rel_->Insert(MixedRow(1000)));
  auto second = rel_->ColumnView();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(second->num_rows(), rel_->size());
}

TEST_F(VectorKernelsTest, CompareKernelMatchesValueCompare) {
  std::shared_ptr<const ColumnBatch> batch = rel_->ColumnView();
  // Keys deliberately cross type ranks: null < bool < numeric < string.
  const std::vector<Value> keys = {
      Value::Null(),         Value::Bool(true),     Value::Int(42),
      Value::Float(12.5),    Value::String("n4"),   Value::Int(-1),
  };
  const std::vector<BinaryOp> ops = {BinaryOp::kEq, BinaryOp::kNe,
                                     BinaryOp::kLt, BinaryOp::kLe,
                                     BinaryOp::kGt, BinaryOp::kGe};
  for (size_t c = 0; c < batch->num_cols(); ++c) {
    for (const Value& key : keys) {
      for (BinaryOp op : ops) {
        std::vector<uint8_t> mask(batch->num_rows(), 1);
        AndCompareColumnScalar(*batch, c, op, key, &mask);
        for (size_t row = 0; row < batch->num_rows(); ++row) {
          const int cmp = batch->ValueAt(c, row).Compare(key);
          bool expect = false;
          switch (op) {
            case BinaryOp::kEq: expect = cmp == 0; break;
            case BinaryOp::kNe: expect = cmp != 0; break;
            case BinaryOp::kLt: expect = cmp < 0; break;
            case BinaryOp::kLe: expect = cmp <= 0; break;
            case BinaryOp::kGt: expect = cmp > 0; break;
            case BinaryOp::kGe: expect = cmp >= 0; break;
            default: FAIL();
          }
          EXPECT_EQ(mask[row] != 0, expect)
              << "col " << c << " row " << row << " key " << key.ToString();
        }
      }
    }
  }
}

TEST_F(VectorKernelsTest, CompareKernelAndsIntoMask) {
  std::shared_ptr<const ColumnBatch> batch = rel_->ColumnView();
  std::vector<uint8_t> mask(batch->num_rows(), 0);
  AndCompareColumnScalar(*batch, 0, BinaryOp::kGe, Value::Int(0), &mask);
  for (uint8_t bit : mask) EXPECT_EQ(bit, 0);  // 0 entries stay 0
}

TEST_F(VectorKernelsTest, GrammarAcceptsNonErroringPredicates) {
  EXPECT_NE(CompileVector("e.val < 50"), nullptr);
  EXPECT_NE(CompileVector("e.val < 50 and e.score >= 2.5"), nullptr);
  EXPECT_NE(CompileVector("e.name = \"n4\" or not e.flag"), nullptr);
  EXPECT_NE(CompileVector("e.val = e.id"), nullptr);
  EXPECT_NE(CompileVector("e.flag"), nullptr);
  EXPECT_NE(CompileVector("10 <= e.val"), nullptr);
}

TEST_F(VectorKernelsTest, GrammarRejectsErroringOrForeignExpressions) {
  // Arithmetic can raise (division by zero) — row path only.
  EXPECT_EQ(CompileVector("e.val + 1 < 50"), nullptr);
  EXPECT_EQ(CompileVector("e.val / e.id > 1"), nullptr);
  // previous refs live outside a ColumnBatch of current values.
  EXPECT_EQ(CompileVector("e.val > previous e.val"), nullptr);
  // Another tuple variable cannot be resolved against this schema.
  EXPECT_EQ(CompileVector("e.val < d.lo"), nullptr);
  // Unknown attribute.
  EXPECT_EQ(CompileVector("e.bogus < 3"), nullptr);
}

TEST_F(VectorKernelsTest, MaskAgreesWithRowPathEverywhere) {
  const std::vector<std::string> predicates = {
      "e.val < 50",
      "e.val >= 10 and e.val < 80",
      "e.name = \"n4\" or e.name = \"n7\"",
      "not (e.val < 50)",
      "e.flag or e.score > 5.0",
      "e.val != 42",       // true for null e.val on both paths
      "e.score <= e.val",  // mixed int/float column-column
      "e.val = e.id",
  };
  std::shared_ptr<const ColumnBatch> batch = rel_->ColumnView();
  for (const std::string& text : predicates) {
    VectorPredicatePtr vp = CompileVector(text);
    ASSERT_NE(vp, nullptr) << text;
    CompiledExprPtr row_pred = CompileRow(text);
    std::vector<uint8_t> mask;
    vp->EvalMask(*batch, &mask);
    ASSERT_EQ(mask.size(), batch->num_rows());
    for (size_t i = 0; i < batch->num_rows(); ++i) {
      Row scratch(1);
      scratch.Set(0, *rel_->Get(batch->tids()[i]), batch->tids()[i]);
      auto expect = row_pred->EvalPredicate(scratch);
      ASSERT_TRUE(expect.ok()) << text << ": " << expect.status().ToString();
      EXPECT_EQ(mask[i] != 0, *expect) << text << " row " << i;
    }
  }
}

TEST_F(VectorKernelsTest, SeqScanColumnarMatchesRowPath) {
  auto collect = [&](size_t columnar_min_rows) {
    ExprPtr pred = Parse("e.val >= 10 and e.val < 80");
    VectorPredicatePtr vp = VectorPredicate::Compile(*pred, "e",
                                                     rel_->schema());
    EXPECT_NE(vp, nullptr);
    SeqScanNode scan(rel_, 0, 1, CompileRow("e.val >= 10 and e.val < 80"),
                     "SeqScan", std::move(vp), nullptr, columnar_min_rows);
    std::vector<std::string> rows;
    EXPECT_OK(scan.Execute([&](const Row& row) {
      rows.push_back(row.tids[0].ToString() + row.current[0].ToString());
      return Status::OK();
    }));
    return rows;
  };
  std::vector<std::string> columnar = collect(/*columnar_min_rows=*/0);
  std::vector<std::string> row_path = collect(/*columnar_min_rows=*/1u << 30);
  EXPECT_FALSE(columnar.empty());
  EXPECT_EQ(columnar, row_path);
}

TEST_F(VectorKernelsTest, SeqScanRowResidualRunsOnSurvivorsOnly) {
  // Vector prefix e.val < 50, arithmetic row residual: survivors of the
  // mask must be re-verified by the residual exactly as the row path does.
  ExprPtr prefix = Parse("e.val < 50");
  VectorPredicatePtr vp =
      VectorPredicate::Compile(*prefix, "e", rel_->schema());
  ASSERT_NE(vp, nullptr);
  SeqScanNode scan(rel_, 0, 1, CompileRow("e.val < 50 and e.id + 0 < 30"),
                   "SeqScan", std::move(vp), CompileRow("e.id + 0 < 30"),
                   /*columnar_min_rows=*/0);
  std::vector<std::string> columnar;
  ASSERT_OK(scan.Execute([&](const Row& row) {
    columnar.push_back(row.tids[0].ToString());
    return Status::OK();
  }));

  SeqScanNode row_scan(rel_, 0, 1,
                       CompileRow("e.val < 50 and e.id + 0 < 30"));
  std::vector<std::string> row_path;
  ASSERT_OK(row_scan.Execute([&](const Row& row) {
    row_path.push_back(row.tids[0].ToString());
    return Status::OK();
  }));
  EXPECT_FALSE(columnar.empty());
  EXPECT_EQ(columnar, row_path);
}

TEST_F(VectorKernelsTest, FilterNodeMaskMatchesRowPath) {
  // A FilterNode evaluates its predicate on the row path only (the planner
  // pushes every single-variable conjunct into the scan); over an
  // unfiltered scan it must emit exactly what the columnar scan's mask
  // admits.
  auto filter = std::make_unique<FilterNode>(
      std::make_unique<SeqScanNode>(rel_, 0, 1, nullptr),
      CompileRow("e.val < 50"), "e.val < 50");
  std::vector<std::string> filtered;
  ASSERT_OK(filter->Execute([&](const Row& row) {
    filtered.push_back(row.tids[0].ToString() + row.current[0].ToString());
    return Status::OK();
  }));

  ExprPtr pred = Parse("e.val < 50");
  SeqScanNode scan(rel_, 0, 1, CompileRow("e.val < 50"), "SeqScan",
                   VectorPredicate::Compile(*pred, "e", rel_->schema()),
                   nullptr, /*columnar_min_rows=*/0);
  std::vector<std::string> columnar;
  ASSERT_OK(scan.Execute([&](const Row& row) {
    columnar.push_back(row.tids[0].ToString() + row.current[0].ToString());
    return Status::OK();
  }));
  EXPECT_FALSE(filtered.empty());
  EXPECT_EQ(filtered, columnar);
}

TEST_F(VectorKernelsTest, CorruptedCacheIsDetectedByAudit) {
  EXPECT_EQ(rel_->AuditColumnCache(), "");  // no cache yet
  rel_->ColumnView();
  EXPECT_EQ(rel_->AuditColumnCache(), "");  // coherent cache
  rel_->CorruptColumnCacheForTesting();
  EXPECT_NE(rel_->AuditColumnCache(), "");
}

// ---------------------------------------------------------------------------
// Kernel parity across validity words and edge values
// ---------------------------------------------------------------------------

bool ApplyCmp(BinaryOp op, int cmp) {
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

const std::vector<BinaryOp>& AllComparisons() {
  static const std::vector<BinaryOp> ops = {BinaryOp::kEq, BinaryOp::kNe,
                                            BinaryOp::kLt, BinaryOp::kLe,
                                            BinaryOp::kGt, BinaryOp::kGe};
  return ops;
}

// Row counts on both sides of every 64-row validity word boundary.
const std::vector<size_t>& EdgeRowCounts() {
  static const std::vector<size_t> counts = {1, 63, 64, 65, 130, 1000};
  return counts;
}

enum class Validity { kAllNull, kAllValid, kMixed, kByWord };

const char* ValidityName(Validity v) {
  switch (v) {
    case Validity::kAllNull: return "all-null";
    case Validity::kAllValid: return "all-valid";
    case Validity::kMixed: return "mixed";
    case Validity::kByWord: return "by-word";
  }
  return "?";
}

// kByWord rotates whole words through all-null, all-valid and mixed, so a
// batch of several words exercises every word-level path of the kernels.
bool CellIsValid(Validity v, size_t row, size_t col) {
  switch (v) {
    case Validity::kAllNull: return false;
    case Validity::kAllValid: return true;
    case Validity::kMixed: return (row * 7 + col * 3) % 4 != 0;
    case Validity::kByWord:
      switch ((row / 64 + col) % 3) {
        case 0: return false;
        case 1: return true;
        default: return (row + col) % 2 == 0;
      }
  }
  return true;
}

Schema EdgeSchema() {
  return Schema({Attribute{"i", DataType::kInt},
                 Attribute{"j", DataType::kInt},
                 Attribute{"f", DataType::kFloat},
                 Attribute{"g", DataType::kFloat},
                 Attribute{"s", DataType::kString},
                 Attribute{"t", DataType::kString},
                 Attribute{"b", DataType::kBool},
                 Attribute{"c", DataType::kBool}});
}

constexpr int64_t kTwo53 = int64_t{1} << 53;

std::vector<Value> EdgeValues(DataType type) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (type) {
    case DataType::kInt:
      return {Value::Int(std::numeric_limits<int64_t>::min()),
              Value::Int(std::numeric_limits<int64_t>::max()),
              Value::Int(0),
              Value::Int(-1),
              Value::Int(1),
              Value::Int(42),
              Value::Int(kTwo53),
              Value::Int(kTwo53 + 1),
              Value::Int(-(kTwo53 + 1))};
    case DataType::kFloat:
      return {Value::Float(std::numeric_limits<double>::quiet_NaN()),
              Value::Float(0.0),
              Value::Float(-0.0),
              Value::Float(inf),
              Value::Float(-inf),
              Value::Float(static_cast<double>(kTwo53)),
              Value::Float(1.5),
              Value::Float(-1.5),
              Value::Float(42.0)};
    case DataType::kString:
      return {Value::String(""),    Value::String("a"),
              Value::String("ab"),  Value::String("abc"),
              Value::String("abd"), Value::String("abcd"),
              Value::String("b")};
    case DataType::kBool:
      return {Value::Bool(false), Value::Bool(true)};
    default:
      return {Value::Null()};
  }
}

// Cells cycle through their column type's edge values; the two columns of
// one type cycle at different strides so column-column compares meet
// every pairing.
std::shared_ptr<const ColumnBatch> EdgeBatch(const Schema& schema,
                                             size_t rows, Validity validity) {
  ColumnBatchBuilder builder(schema, rows);
  for (size_t row = 0; row < rows; ++row) {
    std::vector<Value> cells;
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (!CellIsValid(validity, row, c)) {
        cells.push_back(Value::Null());
        continue;
      }
      const std::vector<Value> pool = EdgeValues(schema.attribute(c).type);
      cells.push_back(pool[(row * (1 + c % 2) + row / pool.size()) %
                           pool.size()]);
    }
    builder.Append(TupleId{1, static_cast<uint32_t>(row)},
                   Tuple(std::move(cells)));
  }
  return builder.Build();
}

// Every edge value of every type, plus the null key.
std::vector<Value> EdgeKeys() {
  std::vector<Value> keys = {Value::Null()};
  for (DataType t : {DataType::kBool, DataType::kInt, DataType::kFloat,
                     DataType::kString}) {
    for (Value& v : EdgeValues(t)) keys.push_back(std::move(v));
  }
  return keys;
}

class KernelParityTest : public ::testing::Test {
 protected:
  KernelParityTest() : schema_(EdgeSchema()) {
    scope_.Add(VarBinding{"e", &schema_, false});
  }

  // `batch`'s rows bound as row-path scratch rows, for TreeMatchesRowPath.
  static std::vector<Row> RowsOf(const ColumnBatch& batch) {
    std::vector<Row> rows;
    for (size_t row = 0; row < batch.num_rows(); ++row) {
      rows.emplace_back(1);
      rows.back().Set(0, batch.TupleAt(row), batch.tids()[row]);
    }
    return rows;
  }

  // Evaluates `text` through VectorPredicate::EvalMask and through the row
  // path's EvalPredicate on every row of `batch` (`rows` = RowsOf(batch));
  // returns false (after recording the first disagreement) when they
  // differ.
  bool TreeMatchesRowPath(const std::string& text, const ColumnBatch& batch,
                          const std::vector<Row>& rows) {
    auto expr = ParseExpression(text);
    EXPECT_OK(expr.status());
    if (!expr.ok()) return false;
    VectorPredicatePtr vp = VectorPredicate::Compile(**expr, "e", schema_);
    EXPECT_NE(vp, nullptr) << text;
    if (vp == nullptr) return false;
    auto row_pred = CompileExpr(**expr, scope_);
    EXPECT_OK(row_pred.status());
    if (!row_pred.ok()) return false;
    std::vector<uint8_t> mask;
    vp->EvalMask(batch, &mask);
    EXPECT_EQ(mask.size(), batch.num_rows());
    for (size_t row = 0; row < batch.num_rows(); ++row) {
      auto want = (*row_pred)->EvalPredicate(rows[row]);
      EXPECT_OK(want.status());
      if (!want.ok() || (mask[row] != 0) != *want) {
        ADD_FAILURE() << text << " row " << row << ": "
                      << batch.TupleAt(row).ToString();
        return false;
      }
    }
    return true;
  }

  Schema schema_;
  Scope scope_;
};

TEST_F(KernelParityTest, ScalarKernelMatchesValueCompareAcrossWords) {
  const std::vector<Value> keys = EdgeKeys();
  for (size_t rows : EdgeRowCounts()) {
    for (Validity validity : {Validity::kAllNull, Validity::kAllValid,
                              Validity::kMixed, Validity::kByWord}) {
      auto batch = EdgeBatch(schema_, rows, validity);
      for (size_t c = 0; c < batch->num_cols(); ++c) {
        std::vector<Value> cells;
        for (size_t row = 0; row < rows; ++row) {
          cells.push_back(batch->ValueAt(c, row));
        }
        for (const Value& key : keys) {
          for (BinaryOp op : AllComparisons()) {
            // A mask that already holds zeros: the kernel must AND into it.
            std::vector<uint8_t> mask(rows);
            for (size_t row = 0; row < rows; ++row) mask[row] = row % 3 != 1;
            AndCompareColumnScalar(*batch, c, op, key, &mask);
            for (size_t row = 0; row < rows; ++row) {
              const bool want =
                  row % 3 != 1 && ApplyCmp(op, cells[row].Compare(key));
              if ((mask[row] != 0) != want) {
                FAIL() << rows << " rows, " << ValidityName(validity)
                       << ": column " << schema_.attribute(c).name << " ("
                       << cells[row].ToString() << ") op "
                       << static_cast<int>(op) << " key " << key.ToString()
                       << " row " << row;
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelParityTest, ColumnKernelMatchesValueCompareAndRowPath) {
  static const char* const kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  for (size_t rows : EdgeRowCounts()) {
    for (Validity validity : {Validity::kAllNull, Validity::kAllValid,
                              Validity::kMixed, Validity::kByWord}) {
      SCOPED_TRACE(std::to_string(rows) + " rows, " + ValidityName(validity));
      auto batch = EdgeBatch(schema_, rows, validity);
      const std::vector<Row> bound = RowsOf(*batch);
      std::vector<std::vector<Value>> cells(schema_.num_attributes());
      for (size_t c = 0; c < cells.size(); ++c) {
        for (size_t row = 0; row < rows; ++row) {
          cells[c].push_back(batch->ValueAt(c, row));
        }
      }
      for (size_t a = 0; a < schema_.num_attributes(); ++a) {
        for (size_t b = 0; b < schema_.num_attributes(); ++b) {
          for (size_t o = 0; o < AllComparisons().size(); ++o) {
            const std::string text = "e." + schema_.attribute(a).name + " " +
                                     kOps[o] + " e." +
                                     schema_.attribute(b).name;
            ASSERT_TRUE(TreeMatchesRowPath(text, *batch, bound));
            // And against Value::Compare directly.
            auto expr = ParseExpression(text);
            ASSERT_OK(expr.status());
            std::vector<uint8_t> mask;
            VectorPredicate::Compile(**expr, "e", schema_)
                ->EvalMask(*batch, &mask);
            for (size_t row = 0; row < rows; ++row) {
              const int cmp = cells[a][row].Compare(cells[b][row]);
              if ((mask[row] != 0) != ApplyCmp(AllComparisons()[o], cmp)) {
                FAIL() << text << " row " << row;
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelParityTest, PredicateTreesMatchRowPathAcrossWords) {
  // Every comparison operator, in and/or/not trees nested up to three
  // or/not levels deep, with literal keys on both sides of the
  // int/float/string edges that literals can spell.
  const std::vector<std::string> predicates = {
      "e.i < 42 and e.f >= 1.5",
      "e.i = 0 or e.s = \"ab\"",
      "not (e.f != 0.0)",
      "not (e.i <= 1 or not e.b)",
      "(e.s > \"abc\" or e.f > 42.0) and not (e.j >= 9007199254740993)",
      "e.b and (e.c or e.i = e.j)",
      "not not e.c",
      "e.f = e.g or (e.s <= e.t and not (e.i > e.f))",
      "e.s = \"\" or e.t < \"ab\"",
      "e.i != 9007199254740993 and e.f < 9007199254740993",
      "e.f = 9007199254740992.0 or e.i = 9007199254740992.0",
      "not (not (e.s >= \"abcd\" or e.b) or not (e.g <= 0.0 or e.c))",
      "true and e.b",
      "false or e.c",
      "null or not e.b",
      "42 > e.i and \"b\" <= e.t",
  };
  for (size_t rows : EdgeRowCounts()) {
    for (Validity validity : {Validity::kAllNull, Validity::kAllValid,
                              Validity::kMixed, Validity::kByWord}) {
      SCOPED_TRACE(std::to_string(rows) + " rows, " + ValidityName(validity));
      auto batch = EdgeBatch(schema_, rows, validity);
      const std::vector<Row> bound = RowsOf(*batch);
      for (const std::string& text : predicates) {
        ASSERT_TRUE(TreeMatchesRowPath(text, *batch, bound));
      }
    }
  }
}

// Sparse masks exercise the scan's eight-rows-at-a-time skip over zero
// mask bytes: survivors right after, inside and at the end of runs of
// rejected rows must all be emitted, in heap order.
TEST(SeqScanSparseMaskTest, SparseSurvivorsMatchRowPath) {
  Catalog catalog;
  HeapRelation* rel = *catalog.CreateRelation("e", MixedSchema());
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_OK(rel->Insert(MixedRow(i)));
  Scope scope;
  scope.Add(VarBinding{"e", &rel->schema(), false});
  for (const std::string text :
       {"e.id = 8", "e.id = 7 or e.id = 9", "e.id = 15 or e.id = 16",
        "e.id >= 992", "e.id = 999", "e.id < 0", "e.val = 7"}) {
    SCOPED_TRACE(text);
    auto collect = [&](size_t columnar_min_rows) {
      auto parsed = ParseExpression(text);
      EXPECT_OK(parsed.status());
      ExprPtr pred = std::move(*parsed);
      auto filter = CompileExpr(*pred, scope);
      EXPECT_OK(filter.status());
      SeqScanNode scan(rel, 0, 1, std::move(*filter), "SeqScan",
                       VectorPredicate::Compile(*pred, "e", rel->schema()),
                       nullptr, columnar_min_rows);
      std::vector<std::string> rows;
      EXPECT_OK(scan.Execute([&](const Row& row) {
        rows.push_back(row.tids[0].ToString());
        return Status::OK();
      }));
      return rows;
    };
    EXPECT_EQ(collect(/*columnar_min_rows=*/0),
              collect(/*columnar_min_rows=*/1u << 30));
  }
}

// A consumer that mutates the scanned relation after the k-th surviving
// row must see the same rows from the columnar scan (which falls back to
// the row path from the next position on) as from the row path itself.
TEST(SeqScanMutationTest, MidScanMutationMatchesRowPath) {
  constexpr size_t kRows = 300;
  const std::string pred_text = "e.val < 30";
  // Run on a fresh relation each time: the consumer mutates it.
  auto run = [&](size_t columnar_min_rows, int mutate_after) {
    Catalog catalog;
    HeapRelation* rel = *catalog.CreateRelation("e", MixedSchema());
    for (uint64_t i = 0; i < kRows; ++i) {
      EXPECT_OK(rel->Insert(MixedRow(i)));
    }
    Scope scope;
    scope.Add(VarBinding{"e", &rel->schema(), false});
    auto parsed = ParseExpression(pred_text);
    EXPECT_OK(parsed.status());
    ExprPtr pred = std::move(*parsed);
    auto filter = CompileExpr(*pred, scope);
    EXPECT_OK(filter.status());
    SeqScanNode scan(rel, 0, 1, std::move(*filter), "SeqScan",
                     VectorPredicate::Compile(*pred, "e", rel->schema()),
                     nullptr, columnar_min_rows);
    std::vector<std::string> rows;
    int emitted = 0;
    EXPECT_OK(scan.Execute([&](const Row& row) -> Status {
      rows.push_back(row.tids[0].ToString() + row.current[0].ToString());
      if (emitted++ != mutate_after) return Status::OK();
      // Later slots: one starts passing, one stops, one is deleted, and a
      // passing tuple is appended past the materialized tid list.
      const uint32_t slot = row.tids[0].slot;
      auto later = [&](uint32_t d) { return TupleId{rel->id(), slot + d}; };
      auto set_val = [&](TupleId tid, int64_t val) -> Status {
        const Tuple* t = rel->Get(tid);
        if (t == nullptr) return Status::OK();
        Tuple copy = *t;
        copy.at(1) = Value::Int(val);
        return rel->Update(tid, std::move(copy));
      };
      ARIEL_RETURN_NOT_OK(set_val(later(1), 5));
      ARIEL_RETURN_NOT_OK(set_val(later(2), 99));
      if (rel->Get(later(3)) != nullptr) {
        ARIEL_RETURN_NOT_OK(rel->Delete(later(3)));
      }
      Tuple fresh = MixedRow(kRows + 1);
      fresh.at(1) = Value::Int(1);
      return rel->Insert(std::move(fresh)).status();
    }));
    return rows;
  };
  for (int k : {-1, 0, 1, 7, 20, 1000}) {
    SCOPED_TRACE("mutate after surviving row " + std::to_string(k));
    std::vector<std::string> columnar = run(/*columnar_min_rows=*/0, k);
    std::vector<std::string> row_path = run(/*columnar_min_rows=*/1u << 30, k);
    EXPECT_FALSE(columnar.empty());
    EXPECT_EQ(columnar, row_path);
  }
}

}  // namespace
}  // namespace ariel
