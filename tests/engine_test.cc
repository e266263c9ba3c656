// Tests for the CQ engine: IR validation, candidate enumeration, constraint
// collection, LIMIT, and agreement with the general grounding pipeline.

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/datagen/datagen.h"
#include "src/engine/cq.h"
#include "src/engine/eval.h"
#include "src/measure/measure.h"
#include "src/sql/parser.h"
#include "src/translate/ground.h"
#include "src/util/fingerprint.h"

namespace mudb::engine {
namespace {

using logic::AtomArg;
using logic::CmpOp;
using logic::Term;
using logic::TypedVar;
using model::Database;
using model::RelationSchema;
using model::Sort;
using model::Value;

Database TinySalesDb() {
  Database db;
  MUDB_CHECK(db.CreateRelation(RelationSchema("P", {{"id", Sort::kBase},
                                                    {"seg", Sort::kBase},
                                                    {"rrp", Sort::kNum}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema("M", {{"seg", Sort::kBase},
                                                    {"price", Sort::kNum}}))
                 .ok());
  return db;
}

ConjunctiveQuery AdvantageQuery() {
  // SELECT P.id FROM P, M WHERE P.seg = M.seg AND P.rrp <= M.price.
  ConjunctiveQuery cq;
  cq.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                  AtomArg::BaseVar("seg"),
                                  AtomArg::NumVar("rrp")}});
  cq.atoms.push_back(
      CqAtom{"M", {AtomArg::BaseVar("seg"), AtomArg::NumVar("price")}});
  cq.comparisons.push_back(
      CqComparison{Term::Var("rrp"), CmpOp::kLe, Term::Var("price")});
  cq.output.push_back(TypedVar{"id", Sort::kBase});
  return cq;
}

TEST(CqValidationTest, AcceptsWellFormed) {
  Database db = TinySalesDb();
  EXPECT_TRUE(AdvantageQuery().Validate(db).ok());
}

TEST(CqValidationTest, RejectsUnknownRelationAndArity) {
  Database db = TinySalesDb();
  ConjunctiveQuery cq = AdvantageQuery();
  cq.atoms[0].relation = "Nope";
  EXPECT_FALSE(cq.Validate(db).ok());
  cq = AdvantageQuery();
  cq.atoms[0].args.pop_back();
  EXPECT_FALSE(cq.Validate(db).ok());
}

TEST(CqValidationTest, RejectsCompoundNumericAtomArg) {
  Database db = TinySalesDb();
  ConjunctiveQuery cq = AdvantageQuery();
  cq.atoms[0].args[2] =
      AtomArg::Num(Term::Var("x") + Term::Const(1));
  EXPECT_FALSE(cq.Validate(db).ok());
}

TEST(CqValidationTest, RejectsUnboundComparisonAndOutput) {
  Database db = TinySalesDb();
  ConjunctiveQuery cq = AdvantageQuery();
  cq.comparisons.push_back(
      CqComparison{Term::Var("ghost"), CmpOp::kLt, Term::Const(0)});
  EXPECT_FALSE(cq.Validate(db).ok());
  cq = AdvantageQuery();
  cq.output.push_back(TypedVar{"ghost", Sort::kNum});
  EXPECT_FALSE(cq.Validate(db).ok());
}

TEST(CqToQueryTest, RoundTripsThroughLogic) {
  Database db = TinySalesDb();
  auto q = AdvantageQuery().ToQuery(db);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->output.size(), 1u);
  EXPECT_EQ(q->output[0].name, "id");
  EXPECT_TRUE(q->formula.IsConjunctive());
}

TEST(EvalTest, CompleteWitnessIsCertain) {
  Database db = TinySalesDb();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->candidates.size(), 1u);
  const Candidate& c = result->candidates[0];
  EXPECT_EQ(c.output[0], Value::BaseConst("p1"));
  EXPECT_TRUE(c.certain);
  EXPECT_EQ(c.constraint.kind(), constraints::RealFormula::Kind::kTrue);
}

TEST(EvalTest, FailingCompleteWitnessProducesNoCandidate) {
  Database db = TinySalesDb();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              Value::NumConst(30)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->candidates.empty());
}

TEST(EvalTest, NullWitnessCollectsConstraint) {
  Database db = TinySalesDb();
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              top})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  const Candidate& c = result->candidates[0];
  EXPECT_FALSE(c.certain);
  EXPECT_EQ(c.witnesses, 1u);
  // Constraint should be z <= 20, i.e. ν = 1/2.
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(c.constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 0.5, 1e-9);
}

TEST(EvalTest, BaseNullsJoinOnlyWithThemselves) {
  Database db = TinySalesDb();
  Value seg_null = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), seg_null,
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  // ⊥ != "s1" under the naive semantics: no candidates.
  auto r1 = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->candidates.empty());
  // A market row with the *same* null joins.
  ASSERT_TRUE(db.Insert("M", {seg_null, Value::NumConst(30)}).ok());
  auto r2 = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2->candidates.size(), 1u);
  EXPECT_TRUE(r2->candidates[0].certain);
}

TEST(EvalTest, QueryConstantNeverJoinsBaseNull) {
  // A base null stands for a value distinct from every constant (Prop. 5.2),
  // including a query constant spelled like some internal name for it.
  Database db = TinySalesDb();
  Value seg_null = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), seg_null,
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(db.Insert("M", {seg_null, Value::NumConst(30)}).ok());
  const std::string spelled = "@null_" + std::to_string(seg_null.null_id());
  // As an atom argument.
  ConjunctiveQuery cq;
  cq.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                  AtomArg::BaseConst(spelled),
                                  AtomArg::NumVar("rrp")}});
  cq.output.push_back(TypedVar{"id", Sort::kBase});
  auto r1 = EvaluateCq(db, cq);
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_TRUE(r1->candidates.empty());
  // As an equality on a joined, projected column.
  ConjunctiveQuery joined = AdvantageQuery();
  joined.base_equalities.push_back(CqBaseEquality{
      logic::BaseArg::Var("seg"), logic::BaseArg::Const(spelled)});
  joined.output = {TypedVar{"seg", Sort::kBase}};
  auto r2 = EvaluateCq(db, joined);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_TRUE(r2->candidates.empty());
  // The null itself still joins with itself.
  auto r3 = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(r3.ok()) << r3.status();
  ASSERT_EQ(r3->candidates.size(), 1u);
  EXPECT_TRUE(r3->candidates[0].certain);
}

TEST(EvalTest, NullOutputValueSurvivesRoundTrip) {
  // Output a base null: it should come back as the original ⊥, not as the
  // internal fresh-constant encoding.
  Database db = TinySalesDb();
  Value id_null = db.MakeBaseNull();
  ASSERT_TRUE(db.Insert("P", {id_null, Value::BaseConst("s1"),
                              Value::NumConst(10)})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(20)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_EQ(result->candidates[0].output[0], id_null);
}

TEST(EvalTest, MultipleWitnessesDisjoin) {
  // Two market rows for the same segment: candidate constraint is the OR of
  // the per-witness constraints: z <= 10 || z <= 30 ⟺ z <= 30: ν = 1/2.
  Database db = TinySalesDb();
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              top})
                  .ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(10)}).ok());
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(30)}).ok());
  auto result = EvaluateCq(db, AdvantageQuery());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_EQ(result->candidates[0].witnesses, 2u);
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(result->candidates[0].constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 0.5, 1e-9);
}

TEST(EvalTest, LimitKeepsFirstDistinctOutputs) {
  Database db = TinySalesDb();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p" + std::to_string(i)),
                                Value::BaseConst("s1"), Value::NumConst(5)})
                    .ok());
  }
  ASSERT_TRUE(
      db.Insert("M", {Value::BaseConst("s1"), Value::NumConst(10)}).ok());
  ConjunctiveQuery cq = AdvantageQuery();
  cq.limit = 3;
  auto result = EvaluateCq(db, cq);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 3u);
}

TEST(EvalTest, MeasureZeroEqualityPruned) {
  // Join on a numeric column via a shared variable: P2(x) ⋈ Q2(x) with a
  // null on one side forces z = c: pruned by default.
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("P2", {{"x", Sort::kNum}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema("Q2", {{"x", Sort::kNum}}))
                  .ok());
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P2", {top}).ok());
  ASSERT_TRUE(db.Insert("Q2", {Value::NumConst(5)}).ok());
  ConjunctiveQuery cq;
  cq.atoms.push_back(CqAtom{"P2", {AtomArg::NumVar("x")}});
  cq.atoms.push_back(CqAtom{"Q2", {AtomArg::NumVar("x")}});
  cq.output.push_back(TypedVar{"x", Sort::kNum});
  auto pruned = EvaluateCq(db, cq);
  ASSERT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned->candidates.empty());

  EvalOptions keep;
  keep.prune_measure_zero = false;
  auto kept = EvaluateCq(db, cq, keep);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept->candidates.size(), 1u);
  // The kept constraint z = 5 has measure zero.
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(kept->candidates[0].constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 0.0, 1e-9);
}

TEST(EvalTest, IdenticalNullJoinsWithItself) {
  Database db;
  ASSERT_TRUE(db.CreateRelation(RelationSchema("P2", {{"x", Sort::kNum}}))
                  .ok());
  ASSERT_TRUE(db.CreateRelation(RelationSchema("Q2", {{"x", Sort::kNum}}))
                  .ok());
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P2", {top}).ok());
  ASSERT_TRUE(db.Insert("Q2", {top}).ok());
  ConjunctiveQuery cq;
  cq.atoms.push_back(CqAtom{"P2", {AtomArg::NumVar("x")}});
  cq.atoms.push_back(CqAtom{"Q2", {AtomArg::NumVar("x")}});
  cq.output.push_back(TypedVar{"x", Sort::kNum});
  auto result = EvaluateCq(db, cq);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_TRUE(result->candidates[0].certain);
  EXPECT_EQ(result->candidates[0].output[0], top);
}

// ---- Pinned result digest --------------------------------------------------
//
// Everything the evaluator hands downstream — each candidate's output tuple,
// witness count, certain flag and the exact structure of its constraint
// (formula kinds, comparison ops, every monomial exponent and the bits of
// every coefficient), plus witnesses_enumerated and null_order — hashed into
// one fingerprint per input set. The expected constants were computed with
// the string-keyed evaluator of commit 59039bf; any rewrite of the evaluator
// must reproduce them bit for bit.

void AbsorbString(util::FingerprintHasher* h, const std::string& s) {
  h->Absorb(s.size());
  for (unsigned char ch : s) h->Absorb(ch);
}

void AbsorbValue(util::FingerprintHasher* h, const Value& v) {
  h->Absorb(static_cast<uint64_t>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kBaseConst:
      AbsorbString(h, v.base_const());
      break;
    case Value::Kind::kNumConst:
      h->AbsorbDouble(v.num_const());
      break;
    case Value::Kind::kBaseNull:
    case Value::Kind::kNumNull:
      h->Absorb(v.null_id());
      break;
  }
}

void AbsorbFormula(util::FingerprintHasher* h,
                   const constraints::RealFormula& f) {
  h->Absorb(static_cast<uint64_t>(f.kind()));
  if (f.kind() == constraints::RealFormula::Kind::kAtom) {
    h->Absorb(static_cast<uint64_t>(f.atom().op));
    const auto& terms = f.atom().poly.terms();
    h->Absorb(terms.size());
    for (const auto& [monomial, coeff] : terms) {
      h->Absorb(monomial.size());
      for (uint32_t e : monomial) h->Absorb(e);
      h->AbsorbDouble(coeff);
    }
    return;
  }
  h->Absorb(f.children().size());
  for (const constraints::RealFormula& child : f.children()) {
    AbsorbFormula(h, child);
  }
}

void AbsorbResult(util::FingerprintHasher* h, const EvalResult& r) {
  h->Absorb(r.candidates.size());
  for (const Candidate& c : r.candidates) {
    h->Absorb(c.output.size());
    for (const Value& v : c.output) AbsorbValue(h, v);
    h->Absorb(c.witnesses);
    h->Absorb(c.certain ? 1 : 0);
    AbsorbFormula(h, c.constraint);
  }
  h->Absorb(r.witnesses_enumerated);
  h->Absorb(r.null_order.size());
  for (model::NullId id : r.null_order) h->Absorb(id);
}

// A database exercising the evaluator's corner cases: base nulls in a join
// column and in an output column, one numeric null used twice in a product,
// a null against a constant 0 and against an infinite constant.
Database CornerCaseDb() {
  Database db;
  MUDB_CHECK(db.CreateRelation(RelationSchema("P", {{"id", Sort::kBase},
                                                    {"seg", Sort::kBase},
                                                    {"a", Sort::kNum},
                                                    {"b", Sort::kNum},
                                                    {"c", Sort::kNum}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema("M", {{"seg", Sort::kBase},
                                                    {"price", Sort::kNum}}))
                 .ok());
  MUDB_CHECK(db.CreateRelation(RelationSchema("K", {{"id", Sort::kBase},
                                                    {"v", Sort::kNum}}))
                 .ok());
  const double inf = std::numeric_limits<double>::infinity();
  Value seg_null = db.MakeBaseNull();     // shared by P and M: joins
  Value lone_seg_null = db.MakeBaseNull();  // in P only: joins nothing
  Value id_null = db.MakeBaseNull();      // an output column null
  Value z0 = db.MakeNumNull();
  Value z1 = db.MakeNumNull();
  Value z2 = db.MakeNumNull();
  Value z3 = db.MakeNumNull();
  auto bc = [](const char* s) { return Value::BaseConst(s); };
  auto nc = [](double d) { return Value::NumConst(d); };
  auto insert = [&](const char* rel, model::Tuple t) {
    MUDB_CHECK(db.Insert(rel, std::move(t)).ok());
  };
  insert("P", {bc("p0"), bc("s1"), nc(0.1), nc(0.7), nc(3.3)});
  insert("P", {bc("p1"), bc("s1"), z0, z0, nc(2.5)});  // z0 * z0
  insert("P", {bc("p2"), bc("s2"), z1, nc(0.0), nc(1.1)});  // z1 * 0
  insert("P", {bc("p3"), bc("s2"), nc(inf), nc(0.0), z2});  // inf * 0
  insert("P", {id_null, seg_null, nc(0.3), z2, nc(0.9)});
  insert("P", {bc("p5"), lone_seg_null, z3, nc(1.5), nc(-2.0)});
  insert("P", {bc("p6"), bc("s1"), nc(-1.25), z1, z3});
  insert("P", {bc("p7"), seg_null, nc(4.0), nc(0.2), nc(0.6)});
  insert("M", {bc("s1"), nc(1.0)});
  insert("M", {bc("s1"), z3});
  insert("M", {bc("s2"), nc(-0.5)});
  insert("M", {seg_null, nc(2.0)});
  insert("M", {bc("s3"), z0});
  insert("K", {bc("k0"), nc(5.0)});
  insert("K", {bc("k1"), z1});
  insert("K", {bc("k2"), nc(6.0)});
  insert("K", {bc("k3"), nc(0.1)});
  return db;
}

TEST(EvalTest, MatchesDigestPinnedOnParent) {
  // The three Figure 1 queries and one union over a small sales database.
  datagen::SalesConfig config;
  config.num_products = 4000;
  config.num_orders = 2400;
  config.num_segments = 40;
  config.null_rate = 0.08;
  auto sales = datagen::MakeSalesDatabase(config);
  ASSERT_TRUE(sales.ok()) << sales.status();
  const char* const kFig1[] = {
      "SELECT P.seg FROM Products P, Market M "
      "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 25",
      "SELECT P.id FROM Products P, Orders O, Market M "
      "WHERE P.seg = M.seg AND P.id = O.pr AND "
      "P.rrp * P.dis * O.q <= 0.5 * M.rrp * M.dis * O.dis LIMIT 25",
      "SELECT O.id FROM Products P, Orders O "
      "WHERE P.id = O.pr AND O.dis >= 1.6 * P.dis * O.q LIMIT 25",
  };
  util::FingerprintHasher sales_hash;
  for (const char* sql : kFig1) {
    auto cq = sql::ParseSqlQuery(sql, *sales);
    ASSERT_TRUE(cq.ok()) << cq.status();
    auto r = EvaluateCq(*sales, *cq);
    ASSERT_TRUE(r.ok()) << r.status();
    AbsorbResult(&sales_hash, *r);
  }
  auto uq = sql::ParseSqlUnionQuery(
      "SELECT P.id FROM Products P, Market M "
      "WHERE P.seg = M.seg AND P.rrp - M.rrp > 10 "
      "UNION SELECT O.pr FROM Orders O WHERE O.q * O.dis < 1 LIMIT 60",
      *sales);
  ASSERT_TRUE(uq.ok()) << uq.status();
  auto ur = EvaluateUnion(*sales, *uq);
  ASSERT_TRUE(ur.ok()) << ur.status();
  AbsorbResult(&sales_hash, *ur);

  // The corner cases, through SQL where the front-end can express them.
  Database db = CornerCaseDb();
  util::FingerprintHasher corner_hash;
  const char* const kCorner[] = {
      // Base-null join column and base-null output; z0 * z0.
      "SELECT P.id, M.seg FROM P, M WHERE P.seg = M.seg AND "
      "P.a * P.b <= M.price",
      // Right-nested product; a constant 0 and an infinite constant factor.
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND "
      "P.a * (P.b * P.c) < 0.3 * M.price",
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND "
      "P.a * (P.b * P.c) * M.price < 1",
      "SELECT P.id, P.a FROM P WHERE P.a * 0.0 <= P.c",
      // Add/Neg sides with nulls, and a constant join column.
      "SELECT P.id, M.price FROM P, M WHERE P.seg = M.seg AND "
      "P.a - M.price + 2 * P.b > -P.c",
      "SELECT P.seg, P.id FROM P, M WHERE P.seg = M.seg AND M.seg = 's1' "
      "AND P.c - P.c * 2 >= M.price - 1",
      // LIMIT cuts the candidate list.
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND P.c > M.price LIMIT 2",
  };
  for (const char* sql : kCorner) {
    auto cq = sql::ParseSqlQuery(sql, db);
    ASSERT_TRUE(cq.ok()) << sql << ": " << cq.status();
    auto r = EvaluateCq(db, *cq);
    ASSERT_TRUE(r.ok()) << r.status();
    AbsorbResult(&corner_hash, *r);
  }
  // A numeric constant atom argument and a numeric join, pruned and kept.
  ConjunctiveQuery cq;
  cq.atoms.push_back(CqAtom{"K", {AtomArg::BaseVar("k"),
                                  AtomArg::NumConst(5.0)}});
  cq.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                  AtomArg::BaseVar("seg"),
                                  AtomArg::NumVar("a"), AtomArg::NumVar("b"),
                                  AtomArg::NumVar("c")}});
  cq.atoms.push_back(
      CqAtom{"M", {AtomArg::BaseVar("seg"), AtomArg::NumVar("a")}});
  cq.comparisons.push_back(
      CqComparison{Term::Var("b") * Term::Var("c"), CmpOp::kNeq,
                   Term::Var("a")});
  cq.output = {TypedVar{"k", Sort::kBase}, TypedVar{"id", Sort::kBase},
               TypedVar{"a", Sort::kNum}};
  EvalOptions keep;
  keep.prune_measure_zero = false;
  for (const EvalOptions& options : {EvalOptions{}, keep}) {
    auto r = EvaluateCq(db, cq, options);
    ASSERT_TRUE(r.ok()) << r.status();
    AbsorbResult(&corner_hash, *r);
  }

  util::Fingerprint128 sales_fp = sales_hash.Digest();
  EXPECT_EQ(sales_fp.hi, 0x0bd71fee8e28142eull);
  EXPECT_EQ(sales_fp.lo, 0xb5857756518dd086ull);
  util::Fingerprint128 corner_fp = corner_hash.Digest();
  EXPECT_EQ(corner_fp.hi, 0x37bc3adc0bb2b56cull);
  EXPECT_EQ(corner_fp.lo, 0x2948df1d7710cd8dull);
}

// Comparisons between two products are decided from coefficients and null
// factors without Polynomial arithmetic; appending "+ 0" to the right side
// forces the Polynomial path, which must give the same bits.
TEST(EvalTest, ProductComparisonsMatchPolynomialArithmetic) {
  Database db = CornerCaseDb();
  const char* const kConditions[] = {
      "P.a * P.b <= M.price",
      "P.a * P.b = M.price",
      "P.a * P.b = P.b * P.a",
      "P.b * P.c = P.c * P.b",
      "P.b * P.c < P.c * P.b * 2",
      "P.a * 0.0 = M.price * 0",
      "P.b * P.a >= 0.5 * (M.price * P.c)",
      "P.a * (P.b * P.c) * M.price < 1",
  };
  EvalOptions keep;
  keep.prune_measure_zero = false;
  for (const char* cond : kConditions) {
    const std::string sql =
        std::string("SELECT P.id, M.seg FROM P, M WHERE P.seg = M.seg AND ") +
        cond;
    auto product = sql::ParseSqlQuery(sql, db);
    auto general = sql::ParseSqlQuery(sql + " + 0", db);
    ASSERT_TRUE(product.ok()) << sql << ": " << product.status();
    ASSERT_TRUE(general.ok()) << sql << ": " << general.status();
    for (const EvalOptions& options : {EvalOptions{}, keep}) {
      auto want = EvaluateCq(db, *general, options);
      auto got = EvaluateCq(db, *product, options);
      ASSERT_TRUE(want.ok()) << want.status();
      ASSERT_TRUE(got.ok()) << got.status();
      util::FingerprintHasher want_hash, got_hash;
      AbsorbResult(&want_hash, *want);
      AbsorbResult(&got_hash, *got);
      EXPECT_EQ(got_hash.Digest(), want_hash.Digest())
          << cond << (options.prune_measure_zero ? "" : " (kept)");
    }
  }
}

// LIMIT only cuts the candidate list: the kept candidates are the first ones
// of the unlimited result, bit for bit, and every witness is still counted,
// including those whose output tuple the LIMIT drops.
TEST(EvalTest, LimitKeepsAPrefixAndCountsEveryWitness) {
  Database db = CornerCaseDb();
  // Makes p8 a certain answer of a * b = price, ahead of null witnesses.
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p8"), Value::BaseConst("s1"),
                              Value::NumConst(2.0), Value::NumConst(0.5),
                              Value::NumConst(1.0)})
                  .ok());
  const char* const kQueries[] = {
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND P.a * P.b <= M.price",
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND P.a * P.c < P.c * P.a",
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND P.a * P.b = M.price",
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND P.a * P.b = P.b * P.a",
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND "
      "P.a * 0.0 = M.price * 0",
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND "
      "P.b * P.a >= 0.5 * (M.price * P.c)",
      "SELECT P.id FROM P, M WHERE P.seg = M.seg AND P.a - M.price > 0",
      "SELECT M.seg FROM P, M WHERE P.seg = M.seg AND P.c * 2 <> M.price",
  };
  EvalOptions keep;
  keep.prune_measure_zero = false;
  for (const char* sql : kQueries) {
    auto full_cq = sql::ParseSqlQuery(sql, db);
    ASSERT_TRUE(full_cq.ok()) << sql << ": " << full_cq.status();
    for (const EvalOptions& options : {EvalOptions{}, keep}) {
      auto full = EvaluateCq(db, *full_cq, options);
      ASSERT_TRUE(full.ok()) << full.status();
      for (size_t limit : {1, 2}) {
        ConjunctiveQuery limited_cq = *full_cq;
        limited_cq.limit = limit;
        auto limited = EvaluateCq(db, limited_cq, options);
        ASSERT_TRUE(limited.ok()) << limited.status();
        EvalResult prefix = *full;
        if (prefix.candidates.size() > limit) prefix.candidates.resize(limit);
        util::FingerprintHasher want, got;
        AbsorbResult(&want, prefix);
        AbsorbResult(&got, *limited);
        EXPECT_EQ(got.Digest(), want.Digest()) << sql << " LIMIT " << limit;
        EXPECT_EQ(limited->witnesses_enumerated, full->witnesses_enumerated)
            << sql << " LIMIT " << limit;
      }
    }
  }
}

// ---- Unions of conjunctive queries ----------------------------------------

TEST(UnionTest, MergesBranchesAndOrsConstraints) {
  // Two branches over the same relation: id selected when its rrp is below
  // 10 (branch 1) or above 20 (branch 2); for a null rrp the constraint is
  // the OR: z < 10 || z > 20, ν = 1.
  Database db = TinySalesDb();
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              top})
                  .ok());
  auto branch = [](logic::CmpOp op, double bound) {
    ConjunctiveQuery cq;
    cq.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                    AtomArg::BaseVar("seg"),
                                    AtomArg::NumVar("rrp")}});
    cq.comparisons.push_back(
        CqComparison{Term::Var("rrp"), op, Term::Const(bound)});
    cq.output.push_back(TypedVar{"id", Sort::kBase});
    return cq;
  };
  UnionQuery uq;
  uq.branches.push_back(branch(logic::CmpOp::kLt, 10));
  uq.branches.push_back(branch(logic::CmpOp::kGt, 20));
  auto result = EvaluateUnion(db, uq);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->candidates.size(), 1u);
  const Candidate& c = result->candidates[0];
  EXPECT_EQ(c.witnesses, 2u);
  measure::MeasureOptions opts;
  auto mu = measure::ComputeNu(c.constraint, opts);
  ASSERT_TRUE(mu.ok());
  EXPECT_NEAR(mu->value, 1.0, 1e-9);  // z<10 || z>20 asymptotically certain
}

TEST(UnionTest, CertainInOneBranchWins) {
  Database db = TinySalesDb();
  Value top = db.MakeNumNull();
  ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p1"), Value::BaseConst("s1"),
                              top})
                  .ok());
  ConjunctiveQuery uncertain;
  uncertain.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                         AtomArg::BaseVar("seg"),
                                         AtomArg::NumVar("rrp")}});
  uncertain.comparisons.push_back(
      CqComparison{Term::Var("rrp"), logic::CmpOp::kLt, Term::Const(0)});
  uncertain.output.push_back(TypedVar{"id", Sort::kBase});
  ConjunctiveQuery certain = uncertain;
  certain.comparisons.clear();  // bare projection: always true
  UnionQuery uq;
  uq.branches.push_back(uncertain);
  uq.branches.push_back(certain);
  auto result = EvaluateUnion(db, uq);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 1u);
  EXPECT_TRUE(result->candidates[0].certain);
}

TEST(UnionTest, LimitAppliesToMergedResult) {
  Database db = TinySalesDb();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p" + std::to_string(i)),
                                Value::BaseConst("s1"), Value::NumConst(i)})
                    .ok());
  }
  ConjunctiveQuery all;
  all.atoms.push_back(CqAtom{"P", {AtomArg::BaseVar("id"),
                                   AtomArg::BaseVar("seg"),
                                   AtomArg::NumVar("rrp")}});
  all.output.push_back(TypedVar{"id", Sort::kBase});
  UnionQuery uq;
  uq.branches.push_back(all);
  uq.branches.push_back(all);
  uq.limit = 4;
  auto result = EvaluateUnion(db, uq);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidates.size(), 4u);
}

TEST(UnionTest, ValidationCatchesMismatches) {
  Database db = TinySalesDb();
  UnionQuery empty;
  EXPECT_FALSE(EvaluateUnion(db, empty).ok());
}

// Differential: for candidates produced by the CQ engine, ν of the engine's
// constraint equals ν of the general Prop. 5.3 grounding.
TEST(EvalVsGroundTest, MeasuresAgree) {
  Database db = TinySalesDb();
  util::Rng rng(17);
  // Keep the total null count <= 8 so the order-exact engine stays usable on
  // the general-grounding side.
  for (int i = 0; i < 6; ++i) {
    Value rrp = rng.Bernoulli(0.5)
                    ? db.MakeNumNull()
                    : Value::NumConst(rng.UniformInt(5, 25));
    ASSERT_TRUE(db.Insert("P", {Value::BaseConst("p" + std::to_string(i)),
                                Value::BaseConst("s" + std::to_string(i % 3)),
                                rrp})
                    .ok());
  }
  for (int s = 0; s < 3; ++s) {
    Value price = s == 0 ? db.MakeNumNull()
                         : Value::NumConst(rng.UniformInt(5, 25));
    ASSERT_TRUE(
        db.Insert("M", {Value::BaseConst("s" + std::to_string(s)), price})
            .ok());
  }
  ConjunctiveQuery cq = AdvantageQuery();
  auto result = EvaluateCq(db, cq);
  ASSERT_TRUE(result.ok());
  auto q = cq.ToQuery(db);
  ASSERT_TRUE(q.ok());
  ASSERT_FALSE(result->candidates.empty());
  for (const Candidate& c : result->candidates) {
    measure::MeasureOptions opts;
    auto mu_engine = measure::ComputeNu(c.constraint, opts);
    ASSERT_TRUE(mu_engine.ok());
    auto mu_ground = measure::ComputeMeasure(*q, db, c.output, opts);
    ASSERT_TRUE(mu_ground.ok()) << mu_ground.status();
    EXPECT_NEAR(mu_engine->value, mu_ground->value, 1e-9)
        << "candidate " << c.output[0].ToString();
  }
}

}  // namespace
}  // namespace mudb::engine
