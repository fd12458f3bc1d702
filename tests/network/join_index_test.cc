// Unit tests of the hash equijoin index layer (join_index.h): bucket
// maintenance under swap-and-pop, probe vs scan-fallback decisions,
// disable-on-eval-error degradation, the audit cross-checks (including the
// planted-corruption hook), and the Rete β-level wrapper's postings.

#include "network/join_index.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "test_util.h"

#include "catalog/catalog.h"
#include "network/rule_network.h"
#include "parser/parser.h"

namespace ariel {
namespace {

/// Two-variable scope: r(k int, v string) joined to s(k int) on r.k = s.k.
/// Variable ordinals: r = 0, s = 1.
class JoinIndexTest : public ::testing::Test {
 protected:
  JoinIndexTest()
      : r_schema_({Attribute{"k", DataType::kInt},
                   Attribute{"v", DataType::kString}}),
        s_schema_({Attribute{"k", DataType::kInt}}) {
    scope_.Add(VarBinding{"r", &r_schema_, false});
    scope_.Add(VarBinding{"s", &s_schema_, false});
  }

  CompiledExprPtr Compile(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto compiled = CompileExpr(**parsed, scope_);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return std::move(*compiled);
  }

  /// Spec for probing r's memory when s is bound: bucket on r.k, probe with
  /// s.k.
  JoinKeySpec RkSpec() {
    JoinKeySpec spec;
    spec.entry_expr = Compile("r.k");
    spec.probe_expr = Compile("s.k");
    spec.probe_vars = {1};
    spec.description = "r.k = s.k";
    return spec;
  }

  Row RRow(int64_t k) {
    Row row(2);
    row.Set(0, Tuple(std::vector<Value>{Value::Int(k), Value::String("x")}),
            TupleId{1, static_cast<uint32_t>(k)});
    return row;
  }

  Row SRow(int64_t k) {
    Row row(2);
    row.Set(1, Tuple(std::vector<Value>{Value::Int(k)}),
            TupleId{2, static_cast<uint32_t>(k)});
    return row;
  }

  static std::vector<uint32_t> Sorted(const std::vector<uint32_t>* slots) {
    EXPECT_NE(slots, nullptr);
    if (slots == nullptr) return {};
    std::vector<uint32_t> out = *slots;
    std::sort(out.begin(), out.end());
    return out;
  }

  Schema r_schema_;
  Schema s_schema_;
  Scope scope_;
};

// Footprint accounting counts what a keyed memory holds beyond its entries:
// the hash buckets and per-slot keys, plus the TID→slot map and any cached
// column view every stored memory carries.
TEST_F(JoinIndexTest, KeyedAlphaMemoryReportsMoreBytesThanUnkeyed) {
  HeapRelation r(1, "r", r_schema_);
  auto make = [&]() {
    AlphaSpec spec;
    spec.var_name = "r";
    spec.relation = &r;
    spec.kind = AlphaKind::kStored;
    return AlphaMemory(std::move(spec), 0);
  };
  AlphaMemory keyed = make();
  AlphaMemory unkeyed = make();
  std::vector<JoinKeySpec> specs;
  specs.push_back(RkSpec());
  keyed.ConfigureJoinIndex(2, std::move(specs));
  size_t entry_bytes = 0;
  for (int64_t k = 0; k < 40; ++k) {
    AlphaEntry entry{TupleId{1, static_cast<uint32_t>(k)},
                     Tuple(std::vector<Value>{Value::Int(k % 8),
                                              Value::String("x")}),
                     Tuple()};
    entry_bytes += sizeof(AlphaEntry) + entry.value.FootprintBytes() +
                   entry.previous.FootprintBytes();
    keyed.InsertEntry(entry);
    unkeyed.InsertEntry(std::move(entry));
  }
  EXPECT_GT(unkeyed.FootprintBytes(), entry_bytes);  // the TID→slot map
  EXPECT_GT(keyed.FootprintBytes(), unkeyed.FootprintBytes());
  EXPECT_GT(keyed.FootprintBytes() - unkeyed.FootprintBytes(),
            40 * (sizeof(Value) + sizeof(uint32_t)));  // slot keys + buckets

  const size_t before_view = keyed.FootprintBytes();
  ASSERT_NE(keyed.ColumnView(), nullptr);
  EXPECT_GT(keyed.FootprintBytes(), before_view);
}

TEST_F(JoinIndexTest, AppendProbeAndSwapPopRemove) {
  JoinKeyIndex index;
  std::vector<JoinKeySpec> specs;
  specs.push_back(RkSpec());
  index.Configure(2, std::move(specs));
  ASSERT_TRUE(index.has_specs());
  ASSERT_EQ(index.num_specs(), 1u);

  // Mirror of the backing entry vector: the key stored at each slot.
  std::vector<int64_t> keys = {1, 2, 1, 3, 2};
  for (size_t s = 0; s < keys.size(); ++s) index.AppendSlot(s, RRow(keys[s]));

  // Usable only when the probe side (s, ordinal 1) is bound.
  EXPECT_EQ(index.FindUsableSpec({false, true}), 0);
  EXPECT_EQ(index.FindUsableSpec({true, false}), -1);
  EXPECT_EQ(index.FindUsableSpec({false, false}), -1);

  EXPECT_EQ(Sorted(index.Probe(0, SRow(1))), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Sorted(index.Probe(0, SRow(3))), (std::vector<uint32_t>{3}));
  // Key absent: empty bucket, NOT a scan fallback.
  EXPECT_EQ(Sorted(index.Probe(0, SRow(9))), (std::vector<uint32_t>{}));

  // Swap-and-pop removals, exercising both the move and the no-move case.
  auto remove = [&](size_t slot) {
    const size_t last = keys.size() - 1;
    index.RemoveSlot(slot, last);
    keys[slot] = keys[last];
    keys.pop_back();
  };
  remove(0);  // slot 4 (key 2) moves into slot 0
  remove(3);  // removes the last slot: no move
  // Now keys = {2, 2, 1}.
  EXPECT_EQ(Sorted(index.Probe(0, SRow(2))), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Sorted(index.Probe(0, SRow(1))), (std::vector<uint32_t>{2}));
  EXPECT_EQ(Sorted(index.Probe(0, SRow(3))), (std::vector<uint32_t>{}));

  auto fill = [&](size_t s, Row* scratch) {
    scratch->Set(0, Tuple(std::vector<Value>{Value::Int(keys[s]),
                                             Value::String("x")}));
  };
  EXPECT_TRUE(index.Audit(keys.size(), fill).empty());

  index.Clear();
  keys.clear();
  EXPECT_EQ(Sorted(index.Probe(0, SRow(2))), (std::vector<uint32_t>{}));
  EXPECT_TRUE(index.Audit(0, fill).empty());
}

TEST_F(JoinIndexTest, UnkeyableEntryDisablesSpecInsteadOfFailing) {
  JoinKeyIndex index;
  std::vector<JoinKeySpec> specs;
  specs.push_back(RkSpec());
  index.Configure(2, std::move(specs));

  index.AppendSlot(0, RRow(1));
  ASSERT_TRUE(index.spec_enabled(0));

  // An entry whose r slot holds an empty tuple cannot be keyed (attribute
  // index out of range): the spec must degrade to the scan path, not error.
  Row bad(2);
  bad.Set(0, Tuple());
  index.AppendSlot(1, bad);

  EXPECT_FALSE(index.spec_enabled(0));
  EXPECT_EQ(index.FindUsableSpec({false, true}), -1);
  EXPECT_EQ(index.Probe(0, SRow(1)), nullptr);

  // Maintenance continues harmlessly on the disabled spec.
  index.AppendSlot(2, RRow(5));
  index.RemoveSlot(0, 2);
  auto fill = [](size_t, Row*) {};
  EXPECT_TRUE(index.Audit(2, fill).empty());  // disabled specs are skipped
}

TEST_F(JoinIndexTest, AuditDetectsPlantedBucketCorruption) {
  JoinKeyIndex index;
  std::vector<JoinKeySpec> specs;
  specs.push_back(RkSpec());
  index.Configure(2, std::move(specs));
  std::vector<int64_t> keys = {1, 2};
  for (size_t s = 0; s < keys.size(); ++s) index.AppendSlot(s, RRow(keys[s]));
  auto fill = [&](size_t s, Row* scratch) {
    scratch->Set(0, Tuple(std::vector<Value>{Value::Int(keys[s]),
                                             Value::String("x")}));
  };
  ASSERT_TRUE(index.Audit(keys.size(), fill).empty());

  // A slot planted under the wrong key sits in a bucket whose key disagrees
  // with the slot's own key: exactly one problem.
  index.PlantBucketEntryForTesting(0, Value::Int(7), 0);
  EXPECT_EQ(index.Audit(keys.size(), fill).size(), 1u);
}

TEST_F(JoinIndexTest, AuditDetectsOutOfRangeSlot) {
  JoinKeyIndex index;
  std::vector<JoinKeySpec> specs;
  specs.push_back(RkSpec());
  index.Configure(2, std::move(specs));
  index.AppendSlot(0, RRow(1));
  auto fill = [&](size_t, Row* scratch) {
    scratch->Set(0, Tuple(std::vector<Value>{Value::Int(1),
                                             Value::String("x")}));
  };
  index.PlantBucketEntryForTesting(0, Value::Int(1), 41);
  EXPECT_EQ(index.Audit(1, fill).size(), 1u);
}

TEST_F(JoinIndexTest, BetaMemoryPostingsAndKeyedProbe) {
  BetaMemory beta;
  std::vector<JoinKeySpec> specs;
  specs.push_back(RkSpec());
  beta.Configure(2, std::move(specs));

  // Partials binding r only; two of them bind the same r tuple (tid 1:5).
  auto partial = [&](int64_t k, uint32_t slot_in_page) {
    Row row(2);
    row.Set(0, Tuple(std::vector<Value>{Value::Int(k), Value::String("x")}),
            TupleId{1, slot_in_page});
    return row;
  };
  beta.Add(partial(1, 5));
  beta.Add(partial(2, 6));
  beta.Add(partial(1, 5));
  beta.Add(partial(1, 7));
  ASSERT_EQ(beta.rows().size(), 4u);
  EXPECT_TRUE(beta.AuditIndexes().empty());

  EXPECT_EQ(beta.Probe(0, SRow(1))->size(), 3u);
  EXPECT_EQ(beta.Probe(0, SRow(2))->size(), 1u);

  // Retraction of r tid 1:5 removes exactly the two partials binding it.
  EXPECT_EQ(beta.RemoveBindings(0, TupleId{1, 5}), 2u);
  EXPECT_EQ(beta.rows().size(), 2u);
  EXPECT_EQ(beta.Probe(0, SRow(1))->size(), 1u);
  EXPECT_TRUE(beta.AuditIndexes().empty());

  // Retracting an unbound tid is a no-op.
  EXPECT_EQ(beta.RemoveBindings(0, TupleId{1, 99}), 0u);

  beta.Clear();
  EXPECT_TRUE(beta.rows().empty());
  EXPECT_EQ(beta.Probe(0, SRow(1))->size(), 0u);
  EXPECT_TRUE(beta.AuditIndexes().empty());
}

}  // namespace
}  // namespace ariel
