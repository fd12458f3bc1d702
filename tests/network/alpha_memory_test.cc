// Exhaustive validation of Figure 5: the action each α-memory kind takes
// for each token kind, including the "don't care" combinations (transition
// memories never see non-Δ tokens) and event-specifier admission (§4.3.1).

#include <gtest/gtest.h>

#include "test_util.h"

#include "catalog/catalog.h"
#include "network/rule_network.h"
#include "parser/parser.h"

namespace ariel {
namespace {

class AlphaMemoryTest : public ::testing::Test {
 protected:
  AlphaMemoryTest() {
    rel_ = *catalog_.CreateRelation(
        "t", Schema({Attribute{"x", DataType::kInt},
                     Attribute{"y", DataType::kInt}}));
  }

  AlphaSpec Spec(AlphaKind kind, std::optional<EventSpec> on_event = {},
                 bool has_previous = false) {
    AlphaSpec spec;
    spec.var_name = "t";
    spec.relation = rel_;
    spec.kind = kind;
    spec.on_event = std::move(on_event);
    spec.has_previous = has_previous;
    return spec;
  }

  Token Make(TokenKind kind, std::optional<TokenEvent> event = {}) {
    Token token;
    token.kind = kind;
    token.relation_id = rel_->id();
    token.tid = TupleId{rel_->id(), 7};
    token.value = Tuple(std::vector<Value>{Value::Int(1), Value::Int(2)});
    if (kind == TokenKind::kDeltaPlus || kind == TokenKind::kDeltaMinus) {
      token.previous =
          Tuple(std::vector<Value>{Value::Int(0), Value::Int(2)});
    }
    token.event = std::move(event);
    return token;
  }

  Catalog catalog_;
  HeapRelation* rel_;
};

TEST_F(AlphaMemoryTest, StoredAcceptsAllTokenKinds) {
  AlphaMemory alpha(Spec(AlphaKind::kStored), 0);
  EXPECT_TRUE(alpha.AcceptsToken(Make(TokenKind::kPlus,
                                      TokenEvent{EventKind::kAppend, {}})));
  EXPECT_TRUE(alpha.AcceptsToken(Make(TokenKind::kMinus,
                                      TokenEvent{EventKind::kDelete, {}})));
  EXPECT_TRUE(alpha.AcceptsToken(
      Make(TokenKind::kDeltaPlus, TokenEvent{EventKind::kReplace, {"x"}})));
  EXPECT_TRUE(alpha.AcceptsToken(
      Make(TokenKind::kDeltaMinus, TokenEvent{EventKind::kReplace, {"x"}})));
  // Tokens without specifier (the simple −) also reach pattern memories.
  EXPECT_TRUE(alpha.AcceptsToken(Make(TokenKind::kMinus)));
}

TEST_F(AlphaMemoryTest, TransitionMemoryOnlyAcceptsDeltas) {
  AlphaMemory alpha(Spec(AlphaKind::kDynamicTrans, {}, true), 0);
  EXPECT_FALSE(alpha.AcceptsToken(Make(TokenKind::kPlus,
                                       TokenEvent{EventKind::kAppend, {}})));
  EXPECT_FALSE(alpha.AcceptsToken(Make(TokenKind::kMinus)));
  EXPECT_TRUE(alpha.AcceptsToken(
      Make(TokenKind::kDeltaPlus, TokenEvent{EventKind::kReplace, {"x"}})));
  EXPECT_TRUE(alpha.AcceptsToken(
      Make(TokenKind::kDeltaMinus, TokenEvent{EventKind::kReplace, {"x"}})));
}

TEST_F(AlphaMemoryTest, OnConditionFiltersBySpecifier) {
  EventSpec on_append;
  on_append.kind = EventKind::kAppend;
  on_append.relation = "t";
  AlphaMemory alpha(Spec(AlphaKind::kDynamicOn, on_append), 0);
  EXPECT_TRUE(alpha.AcceptsToken(Make(TokenKind::kPlus,
                                      TokenEvent{EventKind::kAppend, {}})));
  // Retraction of an in-transition insert carries the append specifier and
  // must reach on-append memories (to undo the binding).
  EXPECT_TRUE(alpha.AcceptsToken(Make(TokenKind::kMinus,
                                      TokenEvent{EventKind::kAppend, {}})));
  EXPECT_FALSE(alpha.AcceptsToken(Make(TokenKind::kMinus,
                                       TokenEvent{EventKind::kDelete, {}})));
  // The specifier-less simple − never wakes on-conditions.
  EXPECT_FALSE(alpha.AcceptsToken(Make(TokenKind::kMinus)));
  EXPECT_FALSE(alpha.AcceptsToken(
      Make(TokenKind::kDeltaPlus, TokenEvent{EventKind::kReplace, {"x"}})));
}

TEST_F(AlphaMemoryTest, OnReplaceAttributeListMatching) {
  EventSpec on_replace;
  on_replace.kind = EventKind::kReplace;
  on_replace.relation = "t";
  on_replace.attributes = {"x"};
  AlphaMemory alpha(Spec(AlphaKind::kSimpleOn, on_replace), 0);
  EXPECT_TRUE(alpha.AcceptsToken(
      Make(TokenKind::kDeltaPlus, TokenEvent{EventKind::kReplace, {"x"}})));
  EXPECT_TRUE(alpha.AcceptsToken(Make(
      TokenKind::kDeltaPlus, TokenEvent{EventKind::kReplace, {"y", "x"}})));
  EXPECT_FALSE(alpha.AcceptsToken(
      Make(TokenKind::kDeltaPlus, TokenEvent{EventKind::kReplace, {"y"}})));

  // An on-replace condition with no attribute list matches any replace.
  EventSpec any_replace;
  any_replace.kind = EventKind::kReplace;
  any_replace.relation = "t";
  AlphaMemory any(Spec(AlphaKind::kSimpleOn, any_replace), 0);
  EXPECT_TRUE(any.AcceptsToken(
      Make(TokenKind::kDeltaPlus, TokenEvent{EventKind::kReplace, {"y"}})));
}

TEST_F(AlphaMemoryTest, EntryStorageByTid) {
  AlphaMemory alpha(Spec(AlphaKind::kStored), 0);
  alpha.InsertEntry(AlphaEntry{TupleId{1, 1},
                               Tuple(std::vector<Value>{Value::Int(1)}),
                               Tuple()});
  alpha.InsertEntry(AlphaEntry{TupleId{1, 2},
                               Tuple(std::vector<Value>{Value::Int(2)}),
                               Tuple()});
  EXPECT_EQ(alpha.entries().size(), 2u);
  EXPECT_TRUE(alpha.RemoveEntry(TupleId{1, 1}));
  EXPECT_FALSE(alpha.RemoveEntry(TupleId{1, 1}));  // idempotent
  EXPECT_EQ(alpha.entries().size(), 1u);
  alpha.Flush();
  EXPECT_TRUE(alpha.entries().empty());
}

TEST_F(AlphaMemoryTest, ShadowedDuplicateTidStillRemovable) {
  AlphaMemory alpha(Spec(AlphaKind::kStored), 0);
  const TupleId tid{1, 1};
  alpha.InsertEntry(AlphaEntry{tid, Tuple(std::vector<Value>{Value::Int(1)}),
                               Tuple()});
  alpha.InsertEntry(AlphaEntry{TupleId{1, 2},
                               Tuple(std::vector<Value>{Value::Int(2)}),
                               Tuple()});
  // The duplicate shadows the first entry's slot in the tid map.
  alpha.InsertEntry(AlphaEntry{tid, Tuple(std::vector<Value>{Value::Int(3)}),
                               Tuple()});
  EXPECT_TRUE(alpha.AuditIncrementalState().empty());
  EXPECT_TRUE(alpha.RemoveEntry(tid));  // through the map
  EXPECT_TRUE(alpha.AuditIncrementalState().empty());
  EXPECT_TRUE(alpha.RemoveEntry(tid));  // the shadowed entry
  EXPECT_TRUE(alpha.AuditIncrementalState().empty());
  ASSERT_EQ(alpha.entries().size(), 1u);
  EXPECT_EQ(alpha.entries()[0].tid, (TupleId{1, 2}));
  EXPECT_FALSE(alpha.RemoveEntry(tid));
}

TEST_F(AlphaMemoryTest, RemovingAbsentTidMisses) {
  AlphaMemory alpha(Spec(AlphaKind::kStored), 0);
  alpha.InsertEntry(AlphaEntry{TupleId{1, 1},
                               Tuple(std::vector<Value>{Value::Int(1)}),
                               Tuple()});
  EXPECT_FALSE(alpha.RemoveEntry(TupleId{1, 9}));
  EXPECT_EQ(alpha.entries().size(), 1u);
  EXPECT_TRUE(alpha.AuditIncrementalState().empty());
}

TEST_F(AlphaMemoryTest, KindPredicates) {
  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kStored), 0).stores_tuples());
  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kDynamicOn), 0).stores_tuples());
  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kDynamicTrans), 0).stores_tuples());
  EXPECT_FALSE(AlphaMemory(Spec(AlphaKind::kVirtual), 0).stores_tuples());
  EXPECT_FALSE(AlphaMemory(Spec(AlphaKind::kSimple), 0).stores_tuples());

  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kVirtual), 0).is_virtual());
  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kSimple), 0).is_simple());
  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kSimpleOn), 0).is_simple());
  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kSimpleTrans), 0).is_simple());

  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kDynamicOn), 0).is_dynamic());
  EXPECT_TRUE(AlphaMemory(Spec(AlphaKind::kDynamicTrans), 0).is_dynamic());
  EXPECT_FALSE(AlphaMemory(Spec(AlphaKind::kStored), 0).is_dynamic());
  EXPECT_FALSE(AlphaMemory(Spec(AlphaKind::kSimpleOn), 0).is_dynamic());
}

TEST_F(AlphaMemoryTest, EstimatedSizeAndFootprint) {
  AlphaMemory stored(Spec(AlphaKind::kStored), 0);
  for (uint32_t i = 0; i < 5; ++i) {
    stored.InsertEntry(AlphaEntry{
        TupleId{1, i},
        Tuple(std::vector<Value>{Value::String(std::string(50, 'x'))}),
        Tuple()});
  }
  EXPECT_EQ(stored.EstimatedSize(), 5u);
  EXPECT_GT(stored.FootprintBytes(), 5 * 50u);

  // Virtual memories estimate by base-relation size and hold no bytes.
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(rel_->Insert(Tuple(std::vector<Value>{Value::Int(i),
                                                      Value::Int(i)})));
  }
  AlphaMemory virt(Spec(AlphaKind::kVirtual), 0);
  EXPECT_EQ(virt.EstimatedSize(), 3u);
  EXPECT_EQ(virt.FootprintBytes(), 0u);
}

TEST_F(AlphaMemoryTest, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(AlphaKind::kSimpleTrans); ++k) {
    EXPECT_STRNE(AlphaKindToString(static_cast<AlphaKind>(k)), "?");
  }
}

}  // namespace
}  // namespace ariel
