#include "network/pnode.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ariel {
namespace {

class PNodeTest : public ::testing::Test {
 protected:
  PNodeTest()
      : emp_schema_({Attribute{"name", DataType::kString},
                     Attribute{"sal", DataType::kFloat}}),
        dept_schema_({Attribute{"dno", DataType::kInt}}) {}

  PNode MakeTwoVar(bool emp_has_previous = false) {
    return PNode(5000, "r",
                 {PnodeVar{"emp", &emp_schema_, emp_has_previous},
                  PnodeVar{"dept", &dept_schema_, false}});
  }

  Row MakeRow(const std::string& name, double sal, int64_t dno,
              uint32_t emp_slot, uint32_t dept_slot) {
    Row row(2);
    row.Set(0, Tuple(std::vector<Value>{Value::String(name),
                                        Value::Float(sal)}),
            TupleId{1, emp_slot});
    row.Set(1, Tuple(std::vector<Value>{Value::Int(dno)}),
            TupleId{2, dept_slot});
    return row;
  }

  Schema emp_schema_;
  Schema dept_schema_;
};

TEST_F(PNodeTest, SchemaLayout) {
  PNode pnode = MakeTwoVar(/*emp_has_previous=*/true);
  const Schema& schema = pnode.relation().schema();
  // emp.tid, emp.name, emp.sal, emp.previous.name, emp.previous.sal,
  // dept.tid, dept.dno
  ASSERT_EQ(schema.num_attributes(), 7u);
  EXPECT_EQ(schema.attribute(0).name, "emp.tid");
  EXPECT_EQ(schema.attribute(1).name, "emp.name");
  EXPECT_EQ(schema.attribute(3).name, "emp.previous.name");
  EXPECT_EQ(schema.attribute(5).name, "dept.tid");
  EXPECT_EQ(schema.attribute(6).name, "dept.dno");
  EXPECT_EQ(schema.attribute(0).type, DataType::kInt);
}

TEST_F(PNodeTest, InsertAndRemoveByTid) {
  PNode pnode = MakeTwoVar();
  ASSERT_OK(pnode.Insert(MakeRow("a", 1.0, 1, 10, 20), {}));
  ASSERT_OK(pnode.Insert(MakeRow("b", 2.0, 1, 11, 20), {}));
  ASSERT_OK(pnode.Insert(MakeRow("a", 1.0, 2, 10, 21), {}));
  EXPECT_EQ(pnode.size(), 3u);

  // Removing emp tid (1,10) kills the two instantiations binding it.
  EXPECT_EQ(pnode.RemoveByTid(0, TupleId{1, 10}), 2u);
  EXPECT_EQ(pnode.size(), 1u);
  // Removing an absent tid is a no-op.
  EXPECT_EQ(pnode.RemoveByTid(0, TupleId{1, 99}), 0u);
  // Removing by the dept variable.
  EXPECT_EQ(pnode.RemoveByTid(1, TupleId{2, 20}), 1u);
  EXPECT_TRUE(pnode.empty());
}

TEST_F(PNodeTest, RowRoundTripWithPrevious) {
  PNode pnode = MakeTwoVar(/*emp_has_previous=*/true);
  Row row = MakeRow("a", 2.0, 3, 10, 20);
  row.SetPrevious(0, Tuple(std::vector<Value>{Value::String("a"),
                                              Value::Float(1.0)}));
  ASSERT_OK(pnode.Insert(row, {}));

  const Tuple* stored = nullptr;
  pnode.relation().ForEach([&](TupleId, const Tuple& t) { stored = &t; });
  ASSERT_NE(stored, nullptr);
  Row back = pnode.ToRow(*stored);
  EXPECT_EQ(back.tids[0], (TupleId{1, 10}));
  EXPECT_EQ(back.tids[1], (TupleId{2, 20}));
  EXPECT_EQ(back.current[0].at(1), Value::Float(2.0));
  EXPECT_EQ(back.previous[0].at(1), Value::Float(1.0));
  EXPECT_EQ(back.current[1].at(0), Value::Int(3));
}

TEST_F(PNodeTest, InsertValidatesArityAndBinding) {
  PNode pnode = MakeTwoVar();
  Row unbound(2);
  unbound.Set(0, Tuple(std::vector<Value>{Value::String("a"),
                                          Value::Float(1.0)}),
              TupleId{1, 0});
  EXPECT_FALSE(pnode.Insert(unbound, {}).ok());  // dept slot missing

  Row wrong_arity(2);
  wrong_arity.Set(0, Tuple(std::vector<Value>{Value::String("a")}),
                  TupleId{1, 0});
  wrong_arity.Set(1, Tuple(std::vector<Value>{Value::Int(1)}), TupleId{2, 0});
  EXPECT_FALSE(pnode.Insert(wrong_arity, {}).ok());

  Row wrong_vars(1);
  EXPECT_FALSE(pnode.Insert(wrong_vars, {}).ok());
}

TEST_F(PNodeTest, MatchStampOrdersByEpochThenOrdinal) {
  PNode pnode = MakeTwoVar();
  EXPECT_EQ(pnode.last_insert_stamp(), MatchStamp{});
  ASSERT_OK(pnode.Insert(MakeRow("a", 1.0, 1, 10, 20), MatchStamp{4, 2}));
  EXPECT_EQ(pnode.last_insert_stamp(), (MatchStamp{4, 2}));
  EXPECT_LT((MatchStamp{4, 9}), (MatchStamp{5, 1}));
  EXPECT_LT((MatchStamp{5, 1}), (MatchStamp{5, 2}));

  // A restore brings back the captured stamp with the captured rows.
  PNode::State state = pnode.CaptureState();
  ASSERT_OK(pnode.Insert(MakeRow("b", 2.0, 1, 11, 20), MatchStamp{6, 2}));
  ASSERT_OK(pnode.RestoreState(state));
  EXPECT_EQ(pnode.last_insert_stamp(), (MatchStamp{4, 2}));
  EXPECT_EQ(pnode.size(), 1u);
}

TEST_F(PNodeTest, ClearAndDrainInto) {
  PNode pnode = MakeTwoVar();
  ASSERT_OK(pnode.Insert(MakeRow("a", 1.0, 1, 10, 20), {}));
  ASSERT_OK(pnode.Insert(MakeRow("b", 2.0, 1, 11, 20), {}));

  std::unique_ptr<HeapRelation> buffer = pnode.MakeFiringBuffer();
  EXPECT_EQ(buffer->schema(), pnode.relation().schema());
  pnode.DrainInto(buffer.get());
  EXPECT_EQ(buffer->size(), 2u);
  EXPECT_TRUE(pnode.empty());

  // New instantiations land in the live P-node, not the drained buffer.
  ASSERT_OK(pnode.Insert(MakeRow("c", 3.0, 2, 12, 21), {}));
  EXPECT_EQ(pnode.size(), 1u);
  EXPECT_EQ(buffer->size(), 2u);

  pnode.Clear();
  EXPECT_TRUE(pnode.empty());
}

}  // namespace
}  // namespace ariel
