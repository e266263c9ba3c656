// Candidate-answer enumeration for conjunctive queries over incomplete
// databases — the paper's §9 pipeline (what Postgres + the "compact
// representation of φ_{q,D,a,s}" did in the authors' prototype).
//
// Semantics: base nulls behave naively — a null joins only with itself and
// never with a constant, query constants included. This is what Prop. 5.2's
// bijective base valuation buys, obtained here without copying the database:
// base values are compared as model::Values, and an output base null comes
// back as itself. Numeric nulls flow through joins and comparisons
// symbolically. Every join witness of an output tuple contributes one DNF
// disjunct: the conjunction of the arithmetic atoms the witness requires,
// with numeric nulls replaced by z-variables (z_i is the i-th numeric null in
// Database::CollectNumNullIds order). The measure of the candidate is then ν
// of the disjunction (Thm. 5.4), evaluated by the engines in src/measure.
//
// Each query is compiled once: variables become slots pointing into the
// database's tuples, joins probe hash indexes on the bound base columns, and
// comparisons become postfix programs. A comparison of two products
// (variables, constants and ·, like the Figure 1 queries) is decided from its
// coefficients in double arithmetic with Polynomial's rules, so it folds to a
// sign when constant and builds a polynomial only for a kept atom on nulls.
// Sides with sums or negations build polynomials, folded when constant.
//
// Witnesses whose constraints force a numeric null to equal a point value
// (z = c, z = z') span measure-zero sets; with prune_measure_zero (default)
// they are dropped, which does not change μ.

#ifndef MUDB_SRC_ENGINE_EVAL_H_
#define MUDB_SRC_ENGINE_EVAL_H_

#include <cstdint>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/engine/cq.h"
#include "src/model/database.h"
#include "src/util/status.h"

namespace mudb::engine {

/// One candidate answer: an output tuple (which may contain nulls) and the
/// grounded constraint formula whose ν is its measure of certainty.
struct Candidate {
  model::Tuple output;
  constraints::RealFormula constraint;
  /// Number of join witnesses contributing to this tuple (after pruning).
  size_t witnesses = 0;
  /// True when some fully-constant witness satisfied all conditions, i.e.
  /// the tuple is an answer regardless of the nulls (μ = 1).
  bool certain = false;
};

struct EvalOptions {
  /// Drop measure-zero witnesses (pointwise numeric equalities on nulls).
  bool prune_measure_zero = true;
  /// Abort with ResourceExhausted beyond this many enumerated witnesses.
  size_t max_witnesses = 50'000'000;
};

struct EvalResult {
  /// Candidates in enumeration order (at most cq.limit if set).
  std::vector<Candidate> candidates;
  /// Meaning of constraint variables: z_i is numeric null null_order[i].
  std::vector<model::NullId> null_order;
  /// Total witnesses enumerated (including pruned ones).
  size_t witnesses_enumerated = 0;
};

/// Evaluates a conjunctive query, producing candidates with constraints.
util::StatusOr<EvalResult> EvaluateCq(const model::Database& db,
                                      const ConjunctiveQuery& cq,
                                      const EvalOptions& options = {});

/// Evaluates a union of conjunctive queries: branch results are merged by
/// output tuple (first-appearance order across branches, branch order first)
/// with constraints OR-ed; a tuple certain in any branch is certain. Branch
/// LIMITs are ignored — the union's `limit` applies to the merged result.
util::StatusOr<EvalResult> EvaluateUnion(const model::Database& db,
                                         const UnionQuery& query,
                                         const EvalOptions& options = {});

}  // namespace mudb::engine

#endif  // MUDB_SRC_ENGINE_EVAL_H_
