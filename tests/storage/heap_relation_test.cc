#include "storage/heap_relation.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "test_util.h"

#include "catalog/catalog.h"

namespace ariel {
namespace {

Schema EmpSchema() {
  return Schema({Attribute{"name", DataType::kString},
                 Attribute{"sal", DataType::kFloat},
                 Attribute{"dno", DataType::kInt}});
}

Tuple Emp(const std::string& name, double sal, int64_t dno) {
  return Tuple(std::vector<Value>{Value::String(name), Value::Float(sal),
                                  Value::Int(dno)});
}

TEST(HeapRelationTest, InsertGetDelete) {
  HeapRelation rel(1, "emp", EmpSchema());
  auto tid = rel.Insert(Emp("a", 10.0, 1));
  ASSERT_OK(tid);
  ASSERT_NE(rel.Get(*tid), nullptr);
  EXPECT_EQ(rel.Get(*tid)->at(0), Value::String("a"));
  EXPECT_EQ(rel.size(), 1u);

  ASSERT_OK(rel.Delete(*tid));
  EXPECT_EQ(rel.Get(*tid), nullptr);
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_FALSE(rel.Delete(*tid).ok());  // double delete rejected
}

TEST(HeapRelationTest, TidsStableAcrossUnrelatedMutations) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  TupleId b = *rel.Insert(Emp("b", 2.0, 1));
  TupleId c = *rel.Insert(Emp("c", 3.0, 1));
  ASSERT_OK(rel.Delete(b));
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(rel.Insert(Emp("x", 9.0, 2)));
  }
  // a and c still resolve to their original tuples.
  EXPECT_EQ(rel.Get(a)->at(0), Value::String("a"));
  EXPECT_EQ(rel.Get(c)->at(0), Value::String("c"));
}

TEST(HeapRelationTest, FreeSlotsAreReused) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  ASSERT_OK(rel.Delete(a));
  TupleId b = *rel.Insert(Emp("b", 2.0, 1));
  EXPECT_EQ(a.slot, b.slot);  // slot recycled
  EXPECT_EQ(rel.Get(b)->at(0), Value::String("b"));
}

TEST(HeapRelationTest, UpdateInPlace) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  ASSERT_OK(rel.Update(a, Emp("a", 99.0, 2)));
  EXPECT_EQ(rel.Get(a)->at(1), Value::Float(99.0));
  EXPECT_FALSE(rel.Update(TupleId{1, 999}, Emp("x", 0.0, 0)).ok());
}

TEST(HeapRelationTest, SchemaCoercionAndErrors) {
  HeapRelation rel(1, "emp", EmpSchema());
  // Int literal into a float column coerces.
  Tuple t(std::vector<Value>{Value::String("a"), Value::Int(5),
                             Value::Int(1)});
  auto tid = rel.Insert(std::move(t));
  ASSERT_OK(tid);
  EXPECT_EQ(rel.Get(*tid)->at(1), Value::Float(5.0));

  // Wrong arity rejected.
  EXPECT_FALSE(rel.Insert(Tuple(std::vector<Value>{Value::Int(1)})).ok());
  // Wrong type rejected.
  EXPECT_FALSE(rel.Insert(Tuple(std::vector<Value>{
                              Value::Int(1), Value::Float(1.0),
                              Value::Int(1)}))
                   .ok());
  // Nulls are allowed in any column.
  EXPECT_OK(rel.Insert(Tuple(std::vector<Value>{
                             Value::Null(), Value::Null(), Value::Null()})));
}

TEST(HeapRelationTest, ForEachVisitsLiveTuplesOnly) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  ASSERT_OK(rel.Insert(Emp("b", 2.0, 1)));
  ASSERT_OK(rel.Delete(a));
  size_t count = 0;
  rel.ForEach([&](TupleId, const Tuple& t) {
    EXPECT_EQ(t.at(0), Value::String("b"));
    ++count;
  });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(rel.AllTupleIds().size(), 1u);
}

TEST(HeapRelationTest, IndexMaintainedByMutations) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 10.0, 1));
  ASSERT_OK(rel.CreateIndex("sal"));  // built over existing data
  const BTreeIndex* index = rel.GetIndex("sal");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->size(), 1u);

  TupleId b = *rel.Insert(Emp("b", 20.0, 1));
  EXPECT_EQ(index->size(), 2u);

  ASSERT_OK(rel.Update(b, Emp("b", 30.0, 1)));
  std::vector<TupleId> out;
  index->Lookup(Value::Float(20.0), &out);
  EXPECT_TRUE(out.empty());
  index->Lookup(Value::Float(30.0), &out);
  EXPECT_EQ(out.size(), 1u);

  ASSERT_OK(rel.Delete(a));
  EXPECT_EQ(index->size(), 1u);

  EXPECT_EQ(rel.GetIndex("name"), nullptr);
  EXPECT_FALSE(rel.CreateIndex("nonexistent").ok());
  EXPECT_EQ(rel.IndexedAttributes().size(), 1u);
}

TEST(SchemaTest, LookupIsCaseInsensitive) {
  Schema schema = EmpSchema();
  EXPECT_EQ(schema.IndexOf("SAL"), 1);
  EXPECT_EQ(schema.IndexOf("nope"), -1);
  ASSERT_OK(schema.Find("dno"));
  EXPECT_EQ(*schema.Find("dno"), 2u);
  EXPECT_FALSE(schema.Find("nope").ok());
}

TEST(SchemaTest, ToStringRendersTypes) {
  EXPECT_EQ(EmpSchema().ToString(), "(name=string, sal=float, dno=int)");
}

TEST(CatalogTest, CreateLookupDrop) {
  Catalog catalog;
  auto rel = catalog.CreateRelation("Emp", EmpSchema());
  ASSERT_OK(rel);
  EXPECT_EQ((*rel)->name(), "emp");
  EXPECT_NE(catalog.GetRelation("EMP"), nullptr);
  EXPECT_EQ(catalog.GetRelationById((*rel)->id()), *rel);

  EXPECT_FALSE(catalog.CreateRelation("emp", EmpSchema()).ok());
  ASSERT_OK(catalog.DropRelation("emp"));
  EXPECT_EQ(catalog.GetRelation("emp"), nullptr);
  EXPECT_FALSE(catalog.DropRelation("emp").ok());
}

TEST(CatalogTest, RelationNamesSorted) {
  Catalog catalog;
  ASSERT_OK(catalog.CreateRelation("zeta", EmpSchema()));
  ASSERT_OK(catalog.CreateRelation("alpha", EmpSchema()));
  EXPECT_EQ(catalog.RelationNames(),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(catalog.num_relations(), 2u);
}

TEST(TupleTest, ConcatAndToString) {
  Tuple a(std::vector<Value>{Value::Int(1)});
  Tuple b(std::vector<Value>{Value::String("x")});
  Tuple c = Tuple::Concat(a, b);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ToString(), "[1, \"x\"]");
}

TEST(TupleTest, TidEncodingRoundTrip) {
  TupleId tid{0x12345678u, 0x9ABCDEF0u};
  EXPECT_EQ(DecodeTid(EncodeTid(tid)), tid);
  EXPECT_EQ(DecodeTid(EncodeTid(TupleId{1, 0})), (TupleId{1, 0}));
}

// Copy-on-write pins (ISSUE 10): a PinStore() handle is an immutable image
// of the relation at pin time. Mutations after the pin detach into a fresh
// store, so the pinned image never changes underneath the reader.
TEST(HeapRelationTest, PinnedStoreIsImmuneToLaterMutations) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 1.0, 1));
  TupleId b = *rel.Insert(Emp("b", 2.0, 1));
  const uint64_t pinned_version = rel.version();
  std::shared_ptr<const TupleStore> pin = rel.PinStore();

  ASSERT_OK(rel.Insert(Emp("c", 3.0, 1)));  // appends a new slot
  ASSERT_OK(rel.Delete(a));
  ASSERT_OK(rel.Update(b, Emp("b2", 20.0, 2)));

  // The pinned image still shows the pre-mutation world (two slots, no c)...
  EXPECT_EQ(pin->slots.size(), 2u);
  ASSERT_LT(a.slot, pin->slots.size());
  ASSERT_TRUE(pin->slots[a.slot].has_value());
  EXPECT_EQ(pin->slots[a.slot]->at(0), Value::String("a"));
  ASSERT_TRUE(pin->slots[b.slot].has_value());
  EXPECT_EQ(pin->slots[b.slot]->at(0), Value::String("b"));
  // ...while the live relation moved on.
  EXPECT_EQ(rel.Get(a), nullptr);
  EXPECT_EQ(rel.Get(b)->at(0), Value::String("b2"));
  EXPECT_GT(rel.version(), pinned_version);
}

// Without an outstanding pin the store is not cloned: mutations write the
// same TupleStore object in place (the zero-copy fast path).
TEST(HeapRelationTest, UnpinnedMutationsDoNotClone) {
  HeapRelation rel(1, "emp", EmpSchema());
  ASSERT_OK(rel.Insert(Emp("a", 1.0, 1)));
  const TupleStore* before = rel.PinStore().get();  // pin dropped immediately
  ASSERT_OK(rel.Insert(Emp("b", 2.0, 1)));
  EXPECT_EQ(rel.PinStore().get(), before);
}

// Two pins across a mutation see two distinct stores; dropping the old pin
// releases the old image.
TEST(HeapRelationTest, PinsAcrossMutationsSeeDistinctStores) {
  HeapRelation rel(1, "emp", EmpSchema());
  ASSERT_OK(rel.Insert(Emp("a", 1.0, 1)));
  std::shared_ptr<const TupleStore> old_pin = rel.PinStore();
  ASSERT_OK(rel.Insert(Emp("b", 2.0, 1)));
  std::shared_ptr<const TupleStore> new_pin = rel.PinStore();
  EXPECT_NE(old_pin.get(), new_pin.get());
  EXPECT_EQ(old_pin->live_count, 1u);
  EXPECT_EQ(new_pin->live_count, 2u);
}

/// Slots of `rel`'s join hash index bucket for `key`, sorted.
std::vector<uint32_t> Bucket(const JoinIndexLease& lease, const Value& key) {
  const std::vector<uint32_t>* slots = lease->Find(key);
  if (slots == nullptr) return {};
  std::vector<uint32_t> sorted = *slots;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

TEST(RelationJoinIndexTest, MaintainedByEveryMutator) {
  HeapRelation rel(1, "emp", EmpSchema());
  TupleId a = *rel.Insert(Emp("a", 10.0, 1));
  TupleId b = *rel.Insert(Emp("b", 20.0, 2));
  auto lease = rel.AcquireJoinIndex("DNO");  // built over existing data
  ASSERT_OK(lease);
  EXPECT_EQ(Bucket(*lease, Value::Int(1)), std::vector<uint32_t>{a.slot});
  EXPECT_EQ((*lease)->num_keys(), 2u);

  TupleId c = *rel.Insert(Emp("c", 30.0, 1));
  EXPECT_EQ(Bucket(*lease, Value::Int(1)),
            (std::vector<uint32_t>{a.slot, c.slot}));
  // Int and float keys that compare equal share a bucket (kEq semantics).
  EXPECT_EQ(Bucket(*lease, Value::Float(1.0)),
            (std::vector<uint32_t>{a.slot, c.slot}));

  // A listed update re-keys; an update that does not list dno keeps the key.
  ASSERT_OK(rel.Update(a, Emp("a", 10.0, 2), nullptr));
  EXPECT_EQ(Bucket(*lease, Value::Int(1)), std::vector<uint32_t>{c.slot});
  const std::vector<std::string> sal_only = {"sal"};
  ASSERT_OK(rel.Update(a, Emp("a", 11.0, 2), &sal_only));
  const std::vector<std::string> dno_only = {"dno"};
  ASSERT_OK(rel.Update(b, Emp("b", 20.0, 3), &dno_only));
  EXPECT_EQ(Bucket(*lease, Value::Int(2)), std::vector<uint32_t>{a.slot});
  EXPECT_EQ(Bucket(*lease, Value::Int(3)), std::vector<uint32_t>{b.slot});

  // Delete then restore under the same id, as rollback does.
  ASSERT_OK(rel.Delete(c));
  EXPECT_EQ((*lease)->Find(Value::Int(1)), nullptr);  // empty bucket dropped
  ASSERT_OK(rel.InsertAt(c, Emp("c", 30.0, 1)));
  EXPECT_EQ(Bucket(*lease, Value::Int(1)), std::vector<uint32_t>{c.slot});
  // A wholesale update that keeps the key (as a rollback's restore does)
  // leaves the bucket as it was.
  ASSERT_OK(rel.Update(c, Emp("c", 31.0, 1), nullptr));
  EXPECT_EQ(Bucket(*lease, Value::Int(1)), std::vector<uint32_t>{c.slot});
  EXPECT_TRUE(rel.AuditJoinIndexes().empty());
}

TEST(RelationJoinIndexTest, RemovalFromALargeBucketKeepsTheRest) {
  HeapRelation rel(1, "emp", EmpSchema());
  auto lease = rel.AcquireJoinIndex("dno");
  ASSERT_OK(lease);
  std::vector<TupleId> tids;
  for (int i = 0; i < 100; ++i) {
    tids.push_back(*rel.Insert(Emp("e" + std::to_string(i), i, 7)));
  }
  // Remove from the front, the middle and the back of the one bucket.
  for (size_t i : {0u, 50u, 99u, 1u, 98u}) ASSERT_OK(rel.Delete(tids[i]));
  EXPECT_EQ((*lease)->Find(Value::Int(7))->size(), 95u);
  EXPECT_TRUE(rel.AuditJoinIndexes().empty());
  // Freed slots are recycled and re-indexed under their new key.
  TupleId reused = *rel.Insert(Emp("r", 1.0, 8));
  EXPECT_EQ(Bucket(*lease, Value::Int(8)), std::vector<uint32_t>{reused.slot});
  EXPECT_TRUE(rel.AuditJoinIndexes().empty());
}

TEST(RelationJoinIndexTest, LeasesAreCountedAndInvisibleToIndexListing) {
  HeapRelation rel(1, "emp", EmpSchema());
  ASSERT_OK(rel.Insert(Emp("a", 10.0, 1)).status());
  auto first = rel.AcquireJoinIndex("dno");
  auto second = rel.AcquireJoinIndex("dno");
  ASSERT_OK(first);
  ASSERT_OK(second);
  EXPECT_EQ(first->get(), second->get());  // one shared index per attribute
  EXPECT_EQ(rel.num_join_indexes(), 1u);
  EXPECT_TRUE(rel.IndexedAttributes().empty());
  EXPECT_GT(rel.JoinIndexFootprintBytes(), 0u);
  EXPECT_FALSE(rel.AcquireJoinIndex("nonexistent").ok());

  *first = JoinIndexLease();  // release one lease: the index stays
  EXPECT_EQ(rel.num_join_indexes(), 1u);
  {
    JoinIndexLease moved = std::move(*second);
    EXPECT_EQ(rel.num_join_indexes(), 1u);
  }  // the last lease goes out of scope: the index is dropped
  EXPECT_EQ(rel.num_join_indexes(), 0u);
  EXPECT_EQ(rel.JoinIndexFootprintBytes(), 0u);
}

TEST(RelationJoinIndexTest, AuditFindsPlantedAndDeadEntries) {
  HeapRelation rel(1, "emp", EmpSchema());
  ASSERT_OK(rel.Insert(Emp("a", 10.0, 1)).status());
  TupleId b = *rel.Insert(Emp("b", 20.0, 2));
  auto lease = rel.AcquireJoinIndex("dno");
  ASSERT_OK(lease);
  ASSERT_OK(rel.Delete(b));
  rel.PlantJoinIndexEntryForTesting("dno", Value::Int(2), b.slot);
  std::vector<std::string> problems = rel.AuditJoinIndexes();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("dead slot"), std::string::npos) << problems[0];

  HeapRelation fresh(2, "emp2", EmpSchema());
  TupleId c = *fresh.Insert(Emp("c", 10.0, 1));
  auto fresh_lease = fresh.AcquireJoinIndex("dno");
  ASSERT_OK(fresh_lease);
  fresh.PlantJoinIndexEntryForTesting("dno", Value::Int(5), c.slot);
  problems = fresh.AuditJoinIndexes();
  ASSERT_EQ(problems.size(), 2u);  // wrong key, and listed twice
  EXPECT_NE(problems[0].find("whose tuple holds 1"), std::string::npos)
      << problems[0];
  EXPECT_NE(problems[1].find("2 times"), std::string::npos) << problems[1];
}

}  // namespace
}  // namespace ariel
