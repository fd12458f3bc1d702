// Direct unit tests of the A-TREAT join network: token-driven join
// extension, the virtual-memory self-join protocol (§4.2's worked example),
// priming, and introspection.

#include "network/rule_network.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "test_util.h"

#include "catalog/catalog.h"
#include "parser/parser.h"

namespace ariel {
namespace {

class RuleNetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    emp_ = *catalog_.CreateRelation(
        "emp", Schema({Attribute{"name", DataType::kString},
                       Attribute{"sal", DataType::kInt},
                       Attribute{"dno", DataType::kInt}}));
    dept_ = *catalog_.CreateRelation(
        "dept", Schema({Attribute{"dno", DataType::kInt},
                        Attribute{"name", DataType::kString}}));
  }

  ExprPtr Parse(const std::string& text) {
    auto e = ParseExpression(text);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(*e);
  }

  AlphaSpec Spec(const std::string& var, HeapRelation* rel, AlphaKind kind,
                 const std::string& selection) {
    AlphaSpec spec;
    spec.var_name = var;
    spec.relation = rel;
    spec.kind = kind;
    if (!selection.empty()) spec.selection = Parse(selection);
    return spec;
  }

  /// Emits a + token for a freshly inserted tuple through the network,
  /// mimicking the selection network's arrival protocol for a network whose
  /// every alpha is checked manually.
  Status InsertAndArrive(RuleNetwork* net, HeapRelation* rel, Tuple tuple,
                         const std::vector<size_t>& matching_alphas) {
    auto tid = rel->Insert(std::move(tuple));
    if (!tid.ok()) return tid.status();
    Token token;
    token.kind = TokenKind::kPlus;
    token.relation_id = rel->id();
    token.tid = *tid;
    token.value = *rel->Get(*tid);
    token.event = TokenEvent{EventKind::kAppend, {}};
    RuleNetwork::ProcessedMemories processed;
    for (size_t ordinal : matching_alphas) {
      processed.insert(net->alpha(ordinal));
      ARIEL_RETURN_NOT_OK(net->Arrive(token, ordinal, processed));
    }
    return Status::OK();
  }

  Catalog catalog_;
  HeapRelation* emp_;
  HeapRelation* dept_;
};

TEST_F(RuleNetworkTest, TwoWayJoinBuildsInstantiations) {
  std::vector<AlphaSpec> specs;
  specs.push_back(Spec("emp", emp_, AlphaKind::kStored, "emp.sal > 10"));
  specs.push_back(Spec("dept", dept_, AlphaKind::kStored, ""));
  std::vector<ExprPtr> joins;
  joins.push_back(Parse("emp.dno = dept.dno"));
  RuleNetwork net("r", 7000, std::move(specs), std::move(joins));
  ASSERT_OK(net.Init());

  // dept first: no instantiation yet (no emp).
  ASSERT_OK(InsertAndArrive(&net, dept_,
                              Tuple(std::vector<Value>{Value::Int(1),
                                                       Value::String("d1")}),
                              {1}));
  EXPECT_EQ(net.pnode()->size(), 0u);

  // Matching emp: one instantiation.
  ASSERT_OK(InsertAndArrive(&net, emp_,
                              Tuple(std::vector<Value>{Value::String("a"),
                                                       Value::Int(20),
                                                       Value::Int(1)}),
                              {0}));
  EXPECT_EQ(net.pnode()->size(), 1u);

  // emp in another department: no join partner.
  ASSERT_OK(InsertAndArrive(&net, emp_,
                              Tuple(std::vector<Value>{Value::String("b"),
                                                       Value::Int(20),
                                                       Value::Int(9)}),
                              {0}));
  EXPECT_EQ(net.pnode()->size(), 1u);

  // Second dept with dno=1: joins the existing emp.
  ASSERT_OK(InsertAndArrive(&net, dept_,
                              Tuple(std::vector<Value>{Value::Int(1),
                                                       Value::String("d2")}),
                              {1}));
  EXPECT_EQ(net.pnode()->size(), 2u);
}

TEST_F(RuleNetworkTest, DeletionRemovesFromMemoryAndPnode) {
  std::vector<AlphaSpec> specs;
  specs.push_back(Spec("emp", emp_, AlphaKind::kStored, ""));
  specs.push_back(Spec("dept", dept_, AlphaKind::kStored, ""));
  std::vector<ExprPtr> joins;
  joins.push_back(Parse("emp.dno = dept.dno"));
  RuleNetwork net("r", 7001, std::move(specs), std::move(joins));
  ASSERT_OK(net.Init());

  ASSERT_OK(InsertAndArrive(&net, dept_,
                              Tuple(std::vector<Value>{Value::Int(1),
                                                       Value::String("d")}),
                              {1}));
  ASSERT_OK(InsertAndArrive(&net, emp_,
                              Tuple(std::vector<Value>{Value::String("a"),
                                                       Value::Int(20),
                                                       Value::Int(1)}),
                              {0}));
  ASSERT_EQ(net.pnode()->size(), 1u);

  TupleId victim = emp_->AllTupleIds()[0];
  Token minus;
  minus.kind = TokenKind::kMinus;
  minus.relation_id = emp_->id();
  minus.tid = victim;
  minus.value = *emp_->Get(victim);
  minus.event = TokenEvent{EventKind::kDelete, {}};
  RuleNetwork::ProcessedMemories processed;
  processed.insert(net.alpha(0));
  ASSERT_OK(net.Arrive(minus, 0, processed));
  EXPECT_EQ(net.pnode()->size(), 0u);
  EXPECT_TRUE(net.alpha(0)->entries().empty());
}

TEST_F(RuleNetworkTest, VirtualSelfJoinExactlyOnce) {
  // The §4.2 correctness property, unit-level: a self-join rule over emp
  // with BOTH memories virtual. Inserting a tuple that pairs with itself
  // must produce the (t, t) instantiation exactly once, plus one (t, x)
  // and one (x, t) per other matching tuple x.
  std::vector<AlphaSpec> specs;
  specs.push_back(Spec("e1", emp_, AlphaKind::kVirtual, "e1.sal > 0"));
  specs.push_back(Spec("e2", emp_, AlphaKind::kVirtual, "e2.sal > 0"));
  std::vector<ExprPtr> joins;
  joins.push_back(Parse("e1.dno = e2.dno"));
  RuleNetwork net("r", 7002, std::move(specs), std::move(joins));
  ASSERT_OK(net.Init());

  // Pre-existing tuple x in dno 1 (insert silently, prime memories: for
  // virtual alphas priming is a no-op, so just insert into the relation).
  ASSERT_OK(emp_->Insert(Tuple(std::vector<Value>{Value::String("x"),
                                                    Value::Int(5),
                                                    Value::Int(1)})));

  // New tuple t in dno 1; it matches both alphas.
  ASSERT_OK(InsertAndArrive(&net, emp_,
                              Tuple(std::vector<Value>{Value::String("t"),
                                                       Value::Int(7),
                                                       Value::Int(1)}),
                              {0, 1}));
  // Expected new instantiations: (t,x), (x,t), (t,t) = 3. (x,x) existed
  // conceptually before t arrived and is not created by t's token.
  EXPECT_EQ(net.pnode()->size(), 3u);
}

TEST_F(RuleNetworkTest, StoredSelfJoinMatchesVirtualBehaviour) {
  std::vector<AlphaSpec> specs;
  specs.push_back(Spec("e1", emp_, AlphaKind::kStored, "e1.sal > 0"));
  specs.push_back(Spec("e2", emp_, AlphaKind::kStored, "e2.sal > 0"));
  std::vector<ExprPtr> joins;
  joins.push_back(Parse("e1.dno = e2.dno"));
  RuleNetwork net("r", 7003, std::move(specs), std::move(joins));
  ASSERT_OK(net.Init());

  // Pre-existing x must be in the stored memories (prime by hand).
  auto xtid = emp_->Insert(Tuple(std::vector<Value>{Value::String("x"),
                                                    Value::Int(5),
                                                    Value::Int(1)}));
  ASSERT_OK(xtid);
  for (size_t i = 0; i < 2; ++i) {
    net.alpha(i)->InsertEntry(
        AlphaEntry{*xtid, *emp_->Get(*xtid), Tuple()});
  }

  ASSERT_OK(InsertAndArrive(&net, emp_,
                              Tuple(std::vector<Value>{Value::String("t"),
                                                       Value::Int(7),
                                                       Value::Int(1)}),
                              {0, 1}));
  EXPECT_EQ(net.pnode()->size(), 3u);  // same (t,x), (x,t), (t,t)
}

TEST_F(RuleNetworkTest, PrimeLoadsMemoriesAndPnode) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(emp_->Insert(Tuple(std::vector<Value>{
                                 Value::String("e"), Value::Int(10 * i),
                                 Value::Int(1)})));
  }
  ASSERT_OK(dept_->Insert(Tuple(std::vector<Value>{Value::Int(1),
                                                     Value::String("d")})));
  std::vector<AlphaSpec> specs;
  specs.push_back(Spec("emp", emp_, AlphaKind::kStored, "emp.sal >= 20"));
  specs.push_back(Spec("dept", dept_, AlphaKind::kStored, ""));
  std::vector<ExprPtr> joins;
  joins.push_back(Parse("emp.dno = dept.dno"));
  RuleNetwork net("r", 7004, std::move(specs), std::move(joins));
  ASSERT_OK(net.Init());
  Optimizer optimizer;
  ASSERT_OK(net.Prime(&optimizer, 1));
  EXPECT_EQ(net.alpha(0)->entries().size(), 2u);  // sal 20, 30
  EXPECT_EQ(net.alpha(1)->entries().size(), 1u);
  EXPECT_EQ(net.pnode()->size(), 2u);
}

TEST_F(RuleNetworkTest, RecomputeRejectsDynamicRules) {
  std::vector<AlphaSpec> specs;
  AlphaSpec on = Spec("emp", emp_, AlphaKind::kSimpleOn, "");
  EventSpec event;
  event.kind = EventKind::kAppend;
  event.relation = "emp";
  on.on_event = event;
  specs.push_back(std::move(on));
  RuleNetwork net("r", 7005, std::move(specs), {});
  ASSERT_OK(net.Init());
  Optimizer optimizer;
  EXPECT_FALSE(net.RecomputeInstantiations(&optimizer).ok());
  // Prime still succeeds (it just leaves the P-node empty).
  EXPECT_OK(net.Prime(&optimizer, 1));
  EXPECT_EQ(net.pnode()->size(), 0u);
}

TEST_F(RuleNetworkTest, InitRejectsMalformedNetworks) {
  {
    RuleNetwork net("r", 7006, {}, {});
    EXPECT_FALSE(net.Init().ok());  // no variables
  }
  {
    // Simple memory in a multi-variable rule is an internal error.
    std::vector<AlphaSpec> specs;
    specs.push_back(Spec("emp", emp_, AlphaKind::kSimple, ""));
    specs.push_back(Spec("dept", dept_, AlphaKind::kStored, ""));
    RuleNetwork net("r", 7007, std::move(specs), {});
    EXPECT_FALSE(net.Init().ok());
  }
  {
    // Virtual transition memory is impossible.
    std::vector<AlphaSpec> specs;
    AlphaSpec bad = Spec("emp", emp_, AlphaKind::kVirtual, "");
    bad.has_previous = true;
    specs.push_back(std::move(bad));
    specs.push_back(Spec("dept", dept_, AlphaKind::kStored, ""));
    RuleNetwork net("r", 7008, std::move(specs), {});
    EXPECT_FALSE(net.Init().ok());
  }
}

TEST_F(RuleNetworkTest, InterleavedInsertRemoveKeepsMapAndIndexConsistent) {
  // Regression for the O(1) RemoveEntry path: interleaved insertions and
  // removals hitting front, middle, and back slots must keep entries(), the
  // TID→slot map, and the hash join index in agreement at every step.
  std::vector<AlphaSpec> specs;
  AlphaSpec e = Spec("emp", emp_, AlphaKind::kStored, "");
  e.equijoin_attrs = {"dno"};
  specs.push_back(std::move(e));
  AlphaSpec d = Spec("dept", dept_, AlphaKind::kStored, "");
  d.equijoin_attrs = {"dno"};
  specs.push_back(std::move(d));
  std::vector<ExprPtr> joins;
  joins.push_back(Parse("emp.dno = dept.dno"));
  RuleNetwork net("r", 7010, std::move(specs), std::move(joins));
  ASSERT_OK(net.Init());
  AlphaMemory* mem = net.alpha(0);
  ASSERT_TRUE(mem->join_index().has_specs());  // the metadata gate engaged

  auto entry = [](uint32_t slot, int64_t dno) {
    return AlphaEntry{TupleId{1, slot},
                      Tuple(std::vector<Value>{Value::String("e"),
                                               Value::Int(10),
                                               Value::Int(dno)}),
                      Tuple()};
  };
  auto expect_state = [&](std::vector<uint32_t> expected_slots) {
    std::vector<uint32_t> got;
    for (const AlphaEntry& en : mem->entries()) got.push_back(en.tid.slot);
    std::sort(got.begin(), got.end());
    std::sort(expected_slots.begin(), expected_slots.end());
    EXPECT_EQ(got, expected_slots);
    for (const std::string& p : mem->AuditIncrementalState()) {
      ADD_FAILURE() << p;
    }
  };

  mem->InsertEntry(entry(0, 1));
  mem->InsertEntry(entry(1, 2));
  mem->InsertEntry(entry(2, 1));
  expect_state({0, 1, 2});
  EXPECT_TRUE(mem->RemoveEntry(TupleId{1, 0}));  // front: swap-pop moves 2
  expect_state({1, 2});
  mem->InsertEntry(entry(3, 3));
  mem->InsertEntry(entry(4, 2));
  expect_state({1, 2, 3, 4});
  EXPECT_TRUE(mem->RemoveEntry(TupleId{1, 3}));  // middle
  EXPECT_TRUE(mem->RemoveEntry(TupleId{1, 1}));
  expect_state({2, 4});
  mem->InsertEntry(entry(0, 5));  // re-insert a previously removed tid
  expect_state({0, 2, 4});
  EXPECT_FALSE(mem->RemoveEntry(TupleId{1, 9}));  // absent tid: no-op
  expect_state({0, 2, 4});
  EXPECT_TRUE(mem->RemoveEntry(TupleId{1, 4}));  // back: no swap move
  EXPECT_TRUE(mem->RemoveEntry(TupleId{1, 2}));
  EXPECT_TRUE(mem->RemoveEntry(TupleId{1, 0}));
  expect_state({});

  mem->InsertEntry(entry(6, 1));
  mem->Flush();
  expect_state({});
}

TEST_F(RuleNetworkTest, FlushOnlyTouchesDynamicMemories) {
  std::vector<AlphaSpec> specs;
  specs.push_back(Spec("emp", emp_, AlphaKind::kStored, ""));
  AlphaSpec dyn = Spec("dept", dept_, AlphaKind::kDynamicOn, "");
  EventSpec event;
  event.kind = EventKind::kAppend;
  event.relation = "dept";
  dyn.on_event = event;
  specs.push_back(std::move(dyn));
  std::vector<ExprPtr> joins;
  joins.push_back(Parse("emp.dno = dept.dno"));
  RuleNetwork net("r", 7009, std::move(specs), std::move(joins));
  ASSERT_OK(net.Init());
  EXPECT_TRUE(net.has_dynamic_memories());

  net.alpha(0)->InsertEntry(AlphaEntry{TupleId{1, 0}, Tuple(), Tuple()});
  net.alpha(1)->InsertEntry(AlphaEntry{TupleId{2, 0}, Tuple(), Tuple()});
  net.FlushDynamicMemories();
  EXPECT_EQ(net.alpha(0)->entries().size(), 1u);  // stored survives
  EXPECT_TRUE(net.alpha(1)->entries().empty());   // dynamic flushed
}

}  // namespace
}  // namespace ariel
