// Unit tests for src/model: values, schemas, relations, databases, valuations.

#include <gtest/gtest.h>

#include "src/model/database.h"
#include "src/model/schema.h"
#include "src/model/value.h"

namespace mudb::model {
namespace {

TEST(ValueTest, KindsAndSorts) {
  Value b = Value::BaseConst("x");
  Value n = Value::NumConst(2.5);
  Value bn = Value::BaseNull(3);
  Value nn = Value::NumNull(4);
  EXPECT_EQ(b.sort(), Sort::kBase);
  EXPECT_EQ(n.sort(), Sort::kNum);
  EXPECT_EQ(bn.sort(), Sort::kBase);
  EXPECT_EQ(nn.sort(), Sort::kNum);
  EXPECT_FALSE(b.is_null());
  EXPECT_TRUE(bn.is_null());
  EXPECT_TRUE(nn.is_null());
  EXPECT_EQ(b.base_const(), "x");
  EXPECT_DOUBLE_EQ(n.num_const(), 2.5);
  EXPECT_EQ(bn.null_id(), 3u);
  EXPECT_EQ(nn.null_id(), 4u);
}

TEST(ValueTest, SyntacticEquality) {
  EXPECT_EQ(Value::BaseConst("a"), Value::BaseConst("a"));
  EXPECT_NE(Value::BaseConst("a"), Value::BaseConst("b"));
  EXPECT_EQ(Value::NumNull(1), Value::NumNull(1));
  EXPECT_NE(Value::NumNull(1), Value::NumNull(2));
  // Same id in different sorts is a different null.
  EXPECT_NE(Value::BaseNull(1), Value::NumNull(1));
  EXPECT_NE(Value::NumConst(1.0), Value::BaseConst("1"));
}

TEST(ValueTest, OrderingIsTotalOnMixedKinds) {
  std::vector<Value> values{Value::NumNull(2), Value::BaseConst("z"),
                            Value::NumConst(-1), Value::BaseNull(0)};
  std::sort(values.begin(), values.end());
  for (size_t i = 1; i < values.size(); ++i) {
    EXPECT_TRUE(values[i - 1] < values[i] || values[i - 1] == values[i]);
  }
}

TEST(ValueTest, ToStringRendersNullMarks) {
  EXPECT_EQ(Value::BaseNull(2).ToString(), "\xE2\x8A\xA5" "2");
  EXPECT_EQ(Value::NumNull(7).ToString(), "\xE2\x8A\xA4" "7");
  EXPECT_EQ(Value::BaseConst("abc").ToString(), "abc");
}

TEST(ValueTest, HashDistinguishesKinds) {
  EXPECT_NE(Value::BaseNull(1).Hash(), Value::NumNull(1).Hash());
  EXPECT_EQ(Value::NumConst(3.5).Hash(), Value::NumConst(3.5).Hash());
}

RelationSchema ProductsSchema() {
  return RelationSchema("Products", {{"id", Sort::kBase},
                                     {"seg", Sort::kBase},
                                     {"rrp", Sort::kNum},
                                     {"dis", Sort::kNum}});
}

TEST(SchemaTest, BasicAccessors) {
  RelationSchema s = ProductsSchema();
  EXPECT_EQ(s.name(), "Products");
  EXPECT_EQ(s.arity(), 4u);
  EXPECT_EQ(s.num_base_columns(), 2u);
  EXPECT_EQ(s.num_numeric_columns(), 2u);
  EXPECT_EQ(*s.ColumnIndex("rrp"), 2u);
  EXPECT_FALSE(s.ColumnIndex("nope").has_value());
  EXPECT_EQ(s.ToString(),
            "Products(id:base, seg:base, rrp:num, dis:num)");
}

TEST(SchemaTest, ValidateTupleAcceptsMatching) {
  RelationSchema s = ProductsSchema();
  EXPECT_TRUE(s.ValidateTuple({Value::BaseConst("p1"), Value::BaseNull(0),
                               Value::NumConst(10), Value::NumNull(1)})
                  .ok());
}

TEST(SchemaTest, ValidateTupleRejectsArity) {
  RelationSchema s = ProductsSchema();
  EXPECT_FALSE(s.ValidateTuple({Value::BaseConst("p1")}).ok());
}

TEST(SchemaTest, ValidateTupleRejectsSortMismatch) {
  RelationSchema s = ProductsSchema();
  // A numeric value in a base column and vice versa.
  EXPECT_FALSE(s.ValidateTuple({Value::NumConst(1), Value::BaseConst("s"),
                                Value::NumConst(1), Value::NumConst(1)})
                   .ok());
  EXPECT_FALSE(s.ValidateTuple({Value::BaseConst("p"), Value::BaseConst("s"),
                                Value::BaseNull(0), Value::NumConst(1)})
                   .ok());
}

TEST(RelationTest, InsertValidatesAndStores) {
  Relation r(ProductsSchema());
  EXPECT_TRUE(r.Insert({Value::BaseConst("p"), Value::BaseConst("s"),
                        Value::NumConst(1), Value::NumConst(2)})
                  .ok());
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.Insert({Value::BaseConst("p")}).ok());
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, InsertDistinctDeduplicates) {
  Relation r(ProductsSchema());
  Tuple t{Value::BaseConst("p"), Value::BaseConst("s"), Value::NumConst(1),
          Value::NumConst(2)};
  EXPECT_TRUE(r.InsertDistinct(t).ok());
  EXPECT_TRUE(r.InsertDistinct(t).ok());
  EXPECT_EQ(r.size(), 1u);
}

TEST(DatabaseTest, CreateAndLookup) {
  Database db;
  EXPECT_TRUE(db.CreateRelation(ProductsSchema()).ok());
  EXPECT_FALSE(db.CreateRelation(ProductsSchema()).ok());  // duplicate
  EXPECT_TRUE(db.GetRelation("Products").ok());
  EXPECT_FALSE(db.GetRelation("Nope").ok());
  EXPECT_EQ(db.GetRelation("Nope").status().code(),
            util::StatusCode::kNotFound);
}

TEST(DatabaseTest, FreshNullsHaveDistinctIds) {
  Database db;
  Value a = db.MakeNumNull();
  Value b = db.MakeNumNull();
  Value c = db.MakeBaseNull();
  Value d = db.MakeBaseNull();
  EXPECT_NE(a.null_id(), b.null_id());
  EXPECT_NE(c.null_id(), d.null_id());
}

TEST(DatabaseTest, CollectNumNullIdsInFirstAppearanceOrder) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(ProductsSchema()).ok());
  Value n1 = db.MakeNumNull();
  Value n2 = db.MakeNumNull();
  // Insert n2 before n1 so appearance order differs from id order.
  ASSERT_TRUE(db.Insert("Products", {Value::BaseConst("a"),
                                     Value::BaseConst("s"), n2, n1})
                  .ok());
  std::vector<NullId> ids = db.CollectNumNullIds();
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], n2.null_id());
  EXPECT_EQ(ids[1], n1.null_id());
}

TEST(DatabaseTest, TotalTuplesAndToString) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(ProductsSchema()).ok());
  ASSERT_TRUE(db.Insert("Products", {Value::BaseConst("a"),
                                     Value::BaseConst("s"),
                                     Value::NumConst(1), Value::NumConst(2)})
                  .ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
  EXPECT_NE(db.ToString().find("Products"), std::string::npos);
}

TEST(ValuationTest, AppliesToValuesAndTuples) {
  Valuation v;
  v.SetBase(0, "hello");
  v.SetNum(1, 3.5);
  EXPECT_EQ(v.Apply(Value::BaseNull(0)), Value::BaseConst("hello"));
  EXPECT_EQ(v.Apply(Value::NumNull(1)), Value::NumConst(3.5));
  // Unassigned nulls survive.
  EXPECT_EQ(v.Apply(Value::NumNull(9)), Value::NumNull(9));
  Tuple t{Value::BaseNull(0), Value::NumNull(1), Value::NumConst(7)};
  Tuple applied = v.Apply(t);
  EXPECT_EQ(applied[0], Value::BaseConst("hello"));
  EXPECT_EQ(applied[1], Value::NumConst(3.5));
  EXPECT_EQ(applied[2], Value::NumConst(7));
}

TEST(ValuationTest, AppliesToWholeDatabase) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(ProductsSchema()).ok());
  Value n = db.MakeNumNull();
  Value b = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("Products",
                        {b, Value::BaseConst("s"), n, Value::NumConst(2)})
                  .ok());
  Valuation v;
  v.SetBase(b.null_id(), "bound");
  v.SetNum(n.null_id(), 1.25);
  Database applied = v.Apply(db);
  const Tuple& t = applied.GetRelation("Products").value()->tuples()[0];
  EXPECT_EQ(t[0], Value::BaseConst("bound"));
  EXPECT_EQ(t[2], Value::NumConst(1.25));
}

TEST(BijectiveValuationTest, MapsAllBaseNullsInjectively) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema(
      "R", {{"a", Sort::kBase}, {"b", Sort::kBase}})).ok());
  Value n1 = db.MakeBaseNull();
  Value n2 = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("R", {n1, n2}).ok());
  ASSERT_TRUE(db.Insert("R", {n1, Value::BaseConst("c")}).ok());
  Valuation v = MakeBijectiveBaseValuation(db);
  ASSERT_EQ(v.base_map().size(), 2u);
  EXPECT_NE(v.base_map().at(n1.null_id()), v.base_map().at(n2.null_id()));
  // Range disjoint from the database's constants.
  EXPECT_NE(v.base_map().at(n1.null_id()), "c");
}

TEST(BijectiveValuationTest, AvoidsPrefixCollisions) {
  Database db;
  ASSERT_TRUE(
      db.CreateRelation(RelationSchema("R", {{"a", Sort::kBase}})).ok());
  // A constant that looks like a default-mapped null.
  ASSERT_TRUE(db.Insert("R", {Value::BaseConst("@null_0")}).ok());
  Value n = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("R", {n}).ok());
  Valuation v = MakeBijectiveBaseValuation(db);
  EXPECT_NE(v.base_map().at(n.null_id()), "@null_0");
}

TEST(BijectiveValuationTest, AvoidsExtraConstants) {
  // Constants from outside the database (a query's, a candidate's) are
  // avoided as well.
  Database db;
  ASSERT_TRUE(
      db.CreateRelation(RelationSchema("R", {{"a", Sort::kBase}})).ok());
  Value n = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("R", {n}).ok());
  const std::string spelled = "@null_" + std::to_string(n.null_id());
  EXPECT_EQ(MakeBijectiveBaseValuation(db).base_map().at(n.null_id()),
            spelled);
  Valuation v = MakeBijectiveBaseValuation(db, "@null_", {}, {spelled});
  EXPECT_NE(v.base_map().at(n.null_id()), spelled);
}

}  // namespace
}  // namespace mudb::model
