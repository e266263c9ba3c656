#include "src/engine/eval.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

namespace mudb::engine {

namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using logic::AtomArg;
using logic::Term;
using model::Database;
using model::NullId;
using model::Relation;
using model::Sort;
using model::Tuple;
using model::Value;
using poly::Polynomial;

size_t CombineHash(size_t seed, size_t h) {
  return seed ^ (h + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2));
}

// Double arithmetic with Polynomial's rules for constant polynomials: a zero
// factor gives the zero polynomial even against inf/NaN, and a zero term is
// never stored. Every zero-valued double (±0) stands for the zero polynomial.
double PolyMul(double a, double b) {
  return (a == 0.0 || b == 0.0) ? 0.0 : a * b;
}

int Sign(double c) { return c > 0 ? 1 : (c < 0 ? -1 : 0); }

// One step of a comparison side compiled to postfix over variable slots.
struct TermOp {
  enum class Kind { kSlot, kConst, kAdd, kMul, kNeg };
  Kind kind;
  int slot = -1;       // kSlot
  double value = 0.0;  // kConst
};

struct CompiledSide {
  std::vector<TermOp> program;  // postfix, children left to right
  /// Only variables, constants and products: with nulls, one monomial.
  bool product = true;
};

struct CompiledComparison {
  CompiledSide lhs;
  CompiledSide rhs;
  CmpOp op;
};

// One step of binding a tuple to an atom, in argument order. Base columns
// probed through the index are already known equal and need no step.
struct BindOp {
  enum class Kind {
    kBind,        // first occurrence of a variable: env[slot] = &t[column]
    kCheckBase,   // base variable bound earlier in the same atom
    kNumRebind,   // numeric variable bound earlier: pointwise equality
    kNumConstEq,  // numeric constant argument: pointwise equality
  };
  Kind kind;
  size_t column;
  int slot = -1;
  double value = 0.0;  // kNumConstEq
};

// A value known at compile time (a query constant) or read from a slot.
struct SlotOrConst {
  int slot = -1;
  Value constant;
};

// Rows of a relation grouped by the values of some columns. Lookups hash the
// key with Value::Hash and compare with Value equality, so a base null
// matches only itself.
class ProbeIndex {
 public:
  void Build(const std::vector<Tuple>& tuples, std::vector<size_t> columns) {
    tuples_ = &tuples;
    columns_ = std::move(columns);
    const size_t n = tuples.size();
    MUDB_CHECK(n < kEmpty);  // row ids and group ids are 32-bit
    size_t capacity = 2;
    while (capacity < 2 * n) capacity *= 2;
    mask_ = capacity - 1;
    table_.assign(capacity, kEmpty);
    std::vector<uint32_t> row_group(n);
    for (size_t t = 0; t < n; ++t) {
      size_t hash = 0;
      for (size_t c : columns_) hash = CombineHash(hash, tuples[t][c].Hash());
      size_t i = hash & mask_;
      for (; table_[i] != kEmpty; i = (i + 1) & mask_) {
        const Group& g = groups_[table_[i]];
        if (g.hash == hash && SameKey(tuples[g.first_row], tuples[t])) break;
      }
      if (table_[i] == kEmpty) {
        table_[i] = static_cast<uint32_t>(groups_.size());
        groups_.push_back(Group{hash, static_cast<uint32_t>(t), 0, 0});
      }
      row_group[t] = table_[i];
      ++groups_[table_[i]].size;
    }
    uint32_t begin = 0;
    for (Group& g : groups_) {
      g.begin = begin;
      begin += g.size;
    }
    rows_.resize(n);
    std::vector<uint32_t> filled(groups_.size(), 0);
    for (size_t t = 0; t < n; ++t) {
      uint32_t g = row_group[t];
      rows_[groups_[g].begin + filled[g]++] = static_cast<uint32_t>(t);
    }
    // Within a group, rows are visited in the order this engine has always
    // used, which its results depend on (each constraint's disjunct order,
    // the candidates a LIMIT keeps): that of a libstdc++
    // std::unordered_multimap filled in row order. While that table held at
    // most 20 elements (rows 0..20) an insert went right after the first
    // equal key; later inserts went in front of the group. So: rows from 21
    // on newest first, then the first of rows 0..20, then the rest of those
    // newest first. Fixed here, the order no longer depends on the library.
    constexpr uint32_t kSmallTableRows = 21;
    for (const Group& g : groups_) {
      uint32_t* first = rows_.data() + g.begin;
      uint32_t* last = first + g.size;
      uint32_t* small_end = std::lower_bound(first, last, kSmallTableRows);
      if (small_end != first) std::reverse(first + 1, small_end);
      std::reverse(small_end, last);
      std::rotate(first, small_end, last);
    }
  }

  /// The rows whose key columns equal `key` (one value per column), in
  /// visiting order.
  std::pair<const uint32_t*, const uint32_t*> Find(
      const std::vector<const Value*>& key) const {
    size_t hash = 0;
    for (const Value* v : key) hash = CombineHash(hash, v->Hash());
    for (size_t i = hash & mask_; table_[i] != kEmpty; i = (i + 1) & mask_) {
      const Group& g = groups_[table_[i]];
      if (g.hash == hash && KeyMatches(key, (*tuples_)[g.first_row])) {
        const uint32_t* first = rows_.data() + g.begin;
        return {first, first + g.size};
      }
    }
    return {nullptr, nullptr};
  }

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};

  struct Group {
    size_t hash;
    uint32_t first_row;
    uint32_t begin;  // offset into rows_
    uint32_t size;
  };

  bool SameKey(const Tuple& a, const Tuple& b) const {
    for (size_t c : columns_) {
      if (a[c] != b[c]) return false;
    }
    return true;
  }

  bool KeyMatches(const std::vector<const Value*>& key, const Tuple& t) const {
    for (size_t i = 0; i < key.size(); ++i) {
      if (*key[i] != t[columns_[i]]) return false;
    }
    return true;
  }

  const std::vector<Tuple>* tuples_ = nullptr;
  std::vector<size_t> columns_;
  size_t mask_ = 0;
  std::vector<uint32_t> table_;  // open addressing: group id or kEmpty
  std::vector<Group> groups_;
  std::vector<uint32_t> rows_;   // row ids, grouped
};

struct PlannedAtom {
  const CqAtom* atom;
  const Relation* relation;
  /// Base positions whose value is known when this atom is processed
  /// (constants, or variables bound by earlier atoms).
  std::vector<size_t> probe_positions;
  /// Comparisons fully bound once this atom is processed.
  std::vector<const CqComparison*> ready_comparisons;

  // Compiled form (see Evaluator::Compile).
  std::vector<SlotOrConst> probe_args;  // one per probe position
  ProbeIndex index;                     // unused without probe positions
  std::vector<BindOp> binds;
  std::vector<CompiledComparison> comparisons;
};

class Evaluator {
 public:
  Evaluator(const Database& db, const ConjunctiveQuery& cq,
            const EvalOptions& options)
      : db_(db), cq_(cq), options_(options) {
    for (NullId id : db.CollectNumNullIds()) {
      z_index_.emplace(id, static_cast<int>(null_order_.size()));
      null_order_.push_back(id);
    }
  }

  util::StatusOr<EvalResult> Run() {
    MUDB_RETURN_IF_ERROR(cq_.Validate(db_));
    RewriteBaseEqualities();
    EvalResult result;
    result.null_order = null_order_;
    if (impossible_) return result;  // contradictory constant equalities
    MUDB_RETURN_IF_ERROR(Plan());
    Compile();
    MUDB_RETURN_IF_ERROR(Enumerate(0, false));
    result.witnesses_enumerated = witnesses_enumerated_;
    for (CandidateState& state : candidates_) {
      Candidate c;
      c.output = std::move(state.output);
      c.witnesses = state.disjuncts.size();
      c.certain = state.certain;
      c.constraint = state.certain
                         ? RealFormula::True()
                         : RealFormula::Or(std::move(state.disjuncts));
      result.candidates.push_back(std::move(c));
    }
    return result;
  }

 private:
  struct CandidateState {
    Tuple output;
    std::vector<RealFormula> disjuncts;
    bool certain = false;
  };

  // ---- Base-equality absorption -------------------------------------------
  //
  // Conditions like P.seg = M.seg arrive as CqBaseEquality conjuncts (the SQL
  // front-end gives every table its own column variables). Treating them as
  // post-filters would force cross-products, so before planning we unify
  // variables connected by var-var equalities (union-find) and substitute
  // constants for var-const equalities; joins then flow through the hash
  // indexes on shared variables.

  std::string Canon(const std::string& var) {
    auto it = parent_.find(var);
    if (it == parent_.end() || it->second == var) return var;
    std::string root = Canon(it->second);
    parent_[var] = root;
    return root;
  }

  void RewriteBaseEqualities() {
    rewritten_ = cq_;
    // Pass 1: union var-var equalities.
    for (const CqBaseEquality& eq : rewritten_.base_equalities) {
      if (eq.lhs.is_var() && eq.rhs.is_var()) {
        std::string a = Canon(eq.lhs.text());
        std::string b = Canon(eq.rhs.text());
        if (a != b) parent_[a] = b;
      }
    }
    // Pass 2: bind var-const equalities; detect const-const contradictions.
    for (const CqBaseEquality& eq : rewritten_.base_equalities) {
      if (eq.lhs.is_var() && eq.rhs.is_var()) continue;
      if (!eq.lhs.is_var() && !eq.rhs.is_var()) {
        if (eq.lhs.text() != eq.rhs.text()) impossible_ = true;
        continue;
      }
      const logic::BaseArg& var = eq.lhs.is_var() ? eq.lhs : eq.rhs;
      const logic::BaseArg& cst = eq.lhs.is_var() ? eq.rhs : eq.lhs;
      std::string root = Canon(var.text());
      auto [it, inserted] = const_binding_.emplace(root, cst.text());
      if (!inserted && it->second != cst.text()) impossible_ = true;
    }
    rewritten_.base_equalities.clear();
    // Pass 3: rewrite atom arguments to canonical variables / constants.
    for (CqAtom& atom : rewritten_.atoms) {
      for (AtomArg& arg : atom.args) {
        if (arg.sort() != Sort::kBase || !arg.base().is_var()) continue;
        std::string root = Canon(arg.base().text());
        auto it = const_binding_.find(root);
        if (it != const_binding_.end()) {
          arg = AtomArg::BaseConst(it->second);
        } else if (root != arg.base().text()) {
          arg = AtomArg::BaseVar(root);
        }
      }
    }
  }

  // ---- Planning ----------------------------------------------------------

  util::Status Plan() {
    const size_t n = rewritten_.atoms.size();
    if (n == 0) {
      return util::Status::InvalidArgument("query has no relational atoms");
    }
    std::vector<bool> placed(n, false);
    std::set<std::string> bound_vars;
    std::set<const CqComparison*> scheduled;

    auto bound_base_positions = [&](const CqAtom& atom) {
      std::vector<size_t> cols;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const AtomArg& a = atom.args[i];
        if (a.sort() != Sort::kBase) continue;
        if (!a.base().is_var() || bound_vars.count(a.base().text()) > 0) {
          cols.push_back(i);
        }
      }
      return cols;
    };

    for (size_t step = 0; step < n; ++step) {
      // Greedy: maximize the number of probe-able base positions, then
      // prefer smaller relations.
      int best = -1;
      size_t best_probe = 0, best_size = 0;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        MUDB_ASSIGN_OR_RETURN(const Relation* rel,
                              db_.GetRelation(rewritten_.atoms[i].relation));
        size_t probe = bound_base_positions(rewritten_.atoms[i]).size();
        size_t size = rel->size();
        if (best < 0 || probe > best_probe ||
            (probe == best_probe && size < best_size)) {
          best = static_cast<int>(i);
          best_probe = probe;
          best_size = size;
        }
      }
      const CqAtom& atom = rewritten_.atoms[best];
      MUDB_ASSIGN_OR_RETURN(const Relation* rel,
                            db_.GetRelation(atom.relation));
      PlannedAtom planned;
      planned.atom = &atom;
      planned.relation = rel;
      planned.probe_positions = bound_base_positions(atom);
      placed[best] = true;
      // Newly bound variables (base and numeric).
      for (const AtomArg& a : atom.args) {
        if (a.sort() == Sort::kBase) {
          if (a.base().is_var()) bound_vars.insert(a.base().text());
        } else if (a.term().kind() == Term::Kind::kVar) {
          bound_vars.insert(a.term().var_name());
        }
      }
      plan_.push_back(std::move(planned));

      // Schedule comparisons at the earliest step where all their variables
      // are bound.
      for (const CqComparison& cmp : rewritten_.comparisons) {
        if (scheduled.count(&cmp)) continue;
        std::set<std::string> vars;
        cmp.lhs.CollectVariables(&vars);
        cmp.rhs.CollectVariables(&vars);
        bool all_bound = std::all_of(
            vars.begin(), vars.end(),
            [&](const std::string& v) { return bound_vars.count(v) > 0; });
        if (all_bound) {
          plan_.back().ready_comparisons.push_back(&cmp);
          scheduled.insert(&cmp);
        }
      }
    }
    if (scheduled.size() != rewritten_.comparisons.size()) {
      return util::Status::Internal("unschedulable comparison (unbound vars)");
    }
    return util::Status::OK();
  }

  // ---- Compilation -------------------------------------------------------
  //
  // Every variable gets a slot; during enumeration env_[slot] points at the
  // bound entry of a tuple of db_. Whether a variable is already bound when
  // an argument is reached is the same on every branch, so binding compiles
  // to a fixed list of steps per atom and needs no undo trail.

  int SlotOf(const std::string& var) {
    return slots_.emplace(var, static_cast<int>(slots_.size())).first->second;
  }

  void CompileTerm(const Term& t, CompiledSide* side) {
    switch (t.kind()) {
      case Term::Kind::kVar: {
        int slot = slots_.at(t.var_name());
        side->program.push_back({TermOp::Kind::kSlot, slot, 0.0});
        return;
      }
      case Term::Kind::kConst:
        side->program.push_back({TermOp::Kind::kConst, -1, t.const_value()});
        return;
      case Term::Kind::kAdd:
      case Term::Kind::kMul:
        CompileTerm(t.children()[0], side);
        CompileTerm(t.children()[1], side);
        if (t.kind() == Term::Kind::kAdd) {
          side->program.push_back({TermOp::Kind::kAdd, -1, 0.0});
          side->product = false;
        } else {
          side->program.push_back({TermOp::Kind::kMul, -1, 0.0});
        }
        return;
      case Term::Kind::kNeg:
        CompileTerm(t.children()[0], side);
        side->program.push_back({TermOp::Kind::kNeg, -1, 0.0});
        side->product = false;
        return;
    }
  }

  void Compile() {
    std::map<int, size_t> bound;  // slot -> plan step that binds it
    for (size_t depth = 0; depth < plan_.size(); ++depth) {
      PlannedAtom& p = plan_[depth];
      const CqAtom& atom = *p.atom;
      for (size_t col : p.probe_positions) {
        const logic::BaseArg& b = atom.args[col].base();
        SlotOrConst arg;
        if (b.is_var()) {
          arg.slot = SlotOf(b.text());
        } else {
          arg.constant = Value::BaseConst(b.text());
        }
        p.probe_args.push_back(std::move(arg));
      }
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const AtomArg& a = atom.args[i];
        if (std::find(p.probe_positions.begin(), p.probe_positions.end(), i) !=
            p.probe_positions.end()) {
          continue;
        }
        if (a.sort() == Sort::kNum && a.term().kind() == Term::Kind::kConst) {
          p.binds.push_back(
              {BindOp::Kind::kNumConstEq, i, -1, a.term().const_value()});
          continue;
        }
        int slot = SlotOf(a.sort() == Sort::kBase ? a.base().text()
                                                  : a.term().var_name());
        BindOp::Kind kind = BindOp::Kind::kBind;
        if (!bound.emplace(slot, depth).second) {
          kind = a.sort() == Sort::kBase ? BindOp::Kind::kCheckBase
                                         : BindOp::Kind::kNumRebind;
        }
        p.binds.push_back({kind, i, slot, 0.0});
      }
      if (!p.probe_positions.empty()) {
        p.index.Build(p.relation->tuples(), p.probe_positions);
      }
      for (const CqComparison* cmp : p.ready_comparisons) {
        CompiledComparison c;
        c.op = cmp->op;
        CompileTerm(cmp->lhs, &c.lhs);
        CompileTerm(cmp->rhs, &c.rhs);
        p.comparisons.push_back(std::move(c));
      }
    }
    for (const logic::TypedVar& v : cq_.output) {
      SlotOrConst col;
      if (v.sort == Sort::kBase) {
        std::string root = Canon(v.name);
        auto it = const_binding_.find(root);
        if (it != const_binding_.end()) {
          col.constant = Value::BaseConst(it->second);
        } else {
          col.slot = slots_.at(root);
        }
      } else {
        col.slot = slots_.at(v.name);
      }
      if (col.slot >= 0) {
        output_depth_ = std::max(output_depth_, bound.at(col.slot));
      }
      output_.push_back(std::move(col));
    }
    env_.assign(slots_.size(), nullptr);
  }

  // ---- Enumeration -------------------------------------------------------

  const Value& Resolve(const SlotOrConst& arg) const {
    return arg.slot >= 0 ? *env_[arg.slot] : arg.constant;
  }

  Polynomial ValueToPoly(const Value& v) const {
    if (v.kind() == Value::Kind::kNumConst) {
      return Polynomial::Constant(v.num_const());
    }
    MUDB_CHECK(v.kind() == Value::Kind::kNumNull);
    return Polynomial::Variable(z_index_.at(v.null_id()));
  }

  // Evaluates a product side in double arithmetic with Polynomial's rules.
  // A null counts as an exact factor 1.0 and its z-index is appended to
  // `zs`, so the result is the coefficient of the side's monomial,
  // multiplied out in tree order as the Polynomial products did.
  double EvalSide(const CompiledSide& side, std::vector<int>* zs) {
    stack_.clear();
    for (const TermOp& op : side.program) {
      switch (op.kind) {
        case TermOp::Kind::kSlot: {
          const Value& v = *env_[op.slot];
          if (v.kind() == Value::Kind::kNumConst) {
            stack_.push_back(v.num_const());
          } else {
            zs->push_back(z_index_.at(v.null_id()));
            stack_.push_back(1.0);
          }
          break;
        }
        case TermOp::Kind::kConst:
          stack_.push_back(op.value);
          break;
        case TermOp::Kind::kMul: {
          double b = stack_.back();
          stack_.pop_back();
          stack_.back() = PolyMul(stack_.back(), b);
          break;
        }
        case TermOp::Kind::kAdd:
        case TermOp::Kind::kNeg:
          MUDB_CHECK(false);  // not a product side
      }
    }
    return stack_.back();
  }

  // The polynomial coeff · Π z over the z-indices `zs`.
  static Polynomial ProductPoly(const std::vector<int>& zs, double coeff) {
    if (zs.empty()) return Polynomial::Constant(coeff);
    poly::Monomial m(*std::max_element(zs.begin(), zs.end()) + 1);
    for (int z : zs) ++m[z];
    return Polynomial::FromMonomial(std::move(m), coeff);
  }

  // The polynomial of a side with sums or negations, read from the slots.
  Polynomial SideToPoly(const CompiledSide& side) {
    std::vector<Polynomial> stack;
    for (const TermOp& op : side.program) {
      switch (op.kind) {
        case TermOp::Kind::kSlot:
          stack.push_back(ValueToPoly(*env_[op.slot]));
          break;
        case TermOp::Kind::kConst:
          stack.push_back(Polynomial::Constant(op.value));
          break;
        case TermOp::Kind::kAdd:
        case TermOp::Kind::kMul: {
          Polynomial b = std::move(stack.back());
          stack.pop_back();
          Polynomial& a = stack.back();
          a = op.kind == TermOp::Kind::kAdd ? a + b : a * b;
          break;
        }
        case TermOp::Kind::kNeg:
          stack.back() = -stack.back();
          break;
      }
    }
    return std::move(stack.back());
  }

  // Outcome of trying to add a constraint along the current branch.
  enum class Add { kOk, kDead };

  // Adds `poly op 0`; folds constants, prunes measure-zero equalities.
  Add AddConstraint(Polynomial poly, CmpOp op) {
    if (poly.IsConstant()) {
      return constraints::CmpTruthFromSign(op, Sign(poly.ConstantTerm()))
                 ? Add::kOk
                 : Add::kDead;
    }
    if (op == CmpOp::kEq && options_.prune_measure_zero) {
      return Add::kDead;  // nontrivial equality on nulls: measure zero
    }
    branch_atoms_.push_back(RealFormula::Cmp(std::move(poly), op));
    return Add::kOk;
  }

  // Adds `lhs - rhs op 0` as AddConstraint would. With `count_only` (the
  // LIMIT drops the branch's output tuple, so its witnesses are only
  // counted) product comparisons build no polynomial.
  Add AddComparison(const CompiledComparison& cmp, bool count_only) {
    if (cmp.lhs.product && cmp.rhs.product) {
      return AddProductComparison(cmp, count_only);
    }
    return AddConstraint(SideToPoly(cmp.lhs) - SideToPoly(cmp.rhs), cmp.op);
  }

  // Two product sides: lhs·m_l - rhs·m_r is decided from the coefficients
  // and the sorted null factors by Polynomial's rules (zero coefficients
  // vanish, equal monomials merge); a polynomial is built only for an atom
  // that is kept.
  Add AddProductComparison(const CompiledComparison& cmp, bool count_only) {
    lhs_zs_.clear();
    rhs_zs_.clear();
    const double lhs = EvalSide(cmp.lhs, &lhs_zs_);
    const double rhs = EvalSide(cmp.rhs, &rhs_zs_);
    std::sort(lhs_zs_.begin(), lhs_zs_.end());
    std::sort(rhs_zs_.begin(), rhs_zs_.end());
    double constant = 0.0;
    bool variable = false;
    if (lhs_zs_ == rhs_zs_) {
      const double c = lhs - rhs;
      if (lhs_zs_.empty()) {
        constant = c;
      } else {
        variable = c != 0.0;
      }
    } else {
      for (const auto& [c, zs] : {std::pair(lhs, &lhs_zs_),
                                  std::pair(-rhs, &rhs_zs_)}) {
        if (c == 0.0) continue;
        if (zs->empty()) {
          constant = c;
        } else {
          variable = true;
        }
      }
    }
    if (!variable) {
      return constraints::CmpTruthFromSign(cmp.op, Sign(constant))
                 ? Add::kOk
                 : Add::kDead;
    }
    if (cmp.op == CmpOp::kEq && options_.prune_measure_zero) {
      return Add::kDead;  // nontrivial equality on nulls: measure zero
    }
    if (!count_only) {
      branch_atoms_.push_back(RealFormula::Cmp(
          ProductPoly(lhs_zs_, lhs) - ProductPoly(rhs_zs_, rhs), cmp.op));
    }
    return Add::kOk;
  }

  // Binds one tuple to an atom; returns false if the branch dies.
  bool BindTuple(const PlannedAtom& p, const Tuple& t) {
    for (const BindOp& op : p.binds) {
      const Value& v = t[op.column];
      switch (op.kind) {
        case BindOp::Kind::kBind:
          env_[op.slot] = &v;
          break;
        case BindOp::Kind::kCheckBase:
          if (*env_[op.slot] != v) return false;
          break;
        case BindOp::Kind::kNumRebind:
          // Rebinding to a different value: requires pointwise equality.
          if (*env_[op.slot] != v &&
              AddConstraint(ValueToPoly(*env_[op.slot]) - ValueToPoly(v),
                            CmpOp::kEq) == Add::kDead) {
            return false;
          }
          break;
        case BindOp::Kind::kNumConstEq:
          if (AddConstraint(ValueToPoly(v) - Polynomial::Constant(op.value),
                            CmpOp::kEq) == Add::kDead) {
            return false;
          }
          break;
      }
    }
    return true;
  }

  // `dropped`: the branch's output tuple is fixed and the LIMIT drops it, so
  // its witnesses are only counted and build no constraints.
  util::Status Enumerate(size_t depth, bool dropped) {
    if (depth == plan_.size()) {
      return FinishWitness(dropped);
    }
    const PlannedAtom& p = plan_[depth];
    const auto& tuples = p.relation->tuples();

    auto try_tuple = [&](size_t row) -> util::Status {
      size_t atom_trail = branch_atoms_.size();
      bool ok = BindTuple(p, tuples[row]);
      bool drop = dropped;
      if (ok && depth == output_depth_ && LimitReached()) {
        size_t hash;
        drop = FindCandidate(&hash) == nullptr;
      }
      for (size_t i = 0; ok && i < p.comparisons.size(); ++i) {
        const CompiledComparison& cmp = p.comparisons[i];
        ok = AddComparison(cmp, drop) == Add::kOk;
      }
      util::Status status = util::Status::OK();
      if (ok) status = Enumerate(depth + 1, drop);
      branch_atoms_.resize(atom_trail);
      return status;
    };

    if (!p.probe_positions.empty()) {
      probe_key_.clear();
      for (const SlotOrConst& arg : p.probe_args) {
        probe_key_.push_back(&Resolve(arg));
      }
      auto [first, last] = p.index.Find(probe_key_);
      for (const uint32_t* row = first; row != last; ++row) {
        MUDB_RETURN_IF_ERROR(try_tuple(*row));
      }
    } else {
      for (size_t row = 0; row < tuples.size(); ++row) {
        MUDB_RETURN_IF_ERROR(try_tuple(row));
      }
    }
    return util::Status::OK();
  }

  bool LimitReached() const {
    return cq_.limit && candidates_.size() >= *cq_.limit;
  }

  // The candidate of the current output tuple, if any; sets *hash to the
  // tuple's hash.
  CandidateState* FindCandidate(size_t* hash) {
    *hash = 0;
    for (const SlotOrConst& col : output_) {
      *hash = CombineHash(*hash, Resolve(col).Hash());
    }
    auto [lo, hi] = candidate_index_.equal_range(*hash);
    for (auto it = lo; it != hi; ++it) {
      const Tuple& out = candidates_[it->second].output;
      bool same = true;
      for (size_t i = 0; same && i < output_.size(); ++i) {
        same = Resolve(output_[i]) == out[i];
      }
      if (same) return &candidates_[it->second];
    }
    return nullptr;
  }

  util::Status FinishWitness(bool dropped) {
    ++witnesses_enumerated_;
    if (witnesses_enumerated_ > options_.max_witnesses) {
      return util::Status::ResourceExhausted(
          "witness enumeration exceeded max_witnesses");
    }
    if (dropped) return util::Status::OK();
    size_t hash;
    CandidateState* state = FindCandidate(&hash);
    if (state == nullptr) {
      if (LimitReached()) {
        return util::Status::OK();  // LIMIT reached; ignore new tuples
      }
      candidate_index_.emplace(hash, candidates_.size());
      state = &candidates_.emplace_back();
      state->output.reserve(output_.size());
      for (const SlotOrConst& col : output_) {
        state->output.push_back(Resolve(col));
      }
    }
    if (state->certain) return util::Status::OK();
    if (branch_atoms_.empty()) {
      state->certain = true;
      state->disjuncts.clear();
      return util::Status::OK();
    }
    state->disjuncts.push_back(RealFormula::And(branch_atoms_));
    return util::Status::OK();
  }

  const Database& db_;
  const ConjunctiveQuery& cq_;
  ConjunctiveQuery rewritten_;
  bool impossible_ = false;
  std::unordered_map<std::string, std::string> parent_;       // union-find
  std::unordered_map<std::string, std::string> const_binding_;  // root -> const
  EvalOptions options_;
  std::unordered_map<NullId, int> z_index_;
  std::vector<NullId> null_order_;

  std::vector<PlannedAtom> plan_;
  std::map<std::string, int> slots_;  // variable -> slot
  std::vector<SlotOrConst> output_;
  size_t output_depth_ = 0;  // the plan step that binds the last output slot

  std::vector<const Value*> env_;  // slot -> bound entry of a db_ tuple
  std::vector<const Value*> probe_key_;
  std::vector<double> stack_;
  std::vector<int> lhs_zs_;  // z-indices of a product side's null factors
  std::vector<int> rhs_zs_;
  std::vector<RealFormula> branch_atoms_;

  std::vector<CandidateState> candidates_;  // first-appearance order
  std::unordered_multimap<size_t, size_t> candidate_index_;  // hash -> index
  size_t witnesses_enumerated_ = 0;
};

}  // namespace

util::StatusOr<EvalResult> EvaluateCq(const model::Database& db,
                                      const ConjunctiveQuery& cq,
                                      const EvalOptions& options) {
  Evaluator evaluator(db, cq, options);
  return evaluator.Run();
}

util::StatusOr<EvalResult> EvaluateUnion(const model::Database& db,
                                         const UnionQuery& query,
                                         const EvalOptions& options) {
  MUDB_RETURN_IF_ERROR(query.Validate(db));
  EvalResult merged;
  std::map<Tuple, size_t> index;  // output tuple -> position in candidates
  for (const ConjunctiveQuery& branch : query.branches) {
    ConjunctiveQuery unlimited = branch;
    unlimited.limit.reset();  // the union's limit applies after merging
    MUDB_ASSIGN_OR_RETURN(EvalResult r, EvaluateCq(db, unlimited, options));
    if (merged.null_order.empty()) merged.null_order = r.null_order;
    merged.witnesses_enumerated += r.witnesses_enumerated;
    for (Candidate& c : r.candidates) {
      auto [it, inserted] = index.emplace(c.output, merged.candidates.size());
      if (inserted) {
        merged.candidates.push_back(std::move(c));
        continue;
      }
      Candidate& existing = merged.candidates[it->second];
      existing.witnesses += c.witnesses;
      if (existing.certain) continue;
      if (c.certain) {
        existing.certain = true;
        existing.constraint = constraints::RealFormula::True();
      } else {
        std::vector<constraints::RealFormula> both;
        both.push_back(std::move(existing.constraint));
        both.push_back(std::move(c.constraint));
        existing.constraint = constraints::RealFormula::Or(std::move(both));
      }
    }
  }
  if (query.limit && merged.candidates.size() > *query.limit) {
    merged.candidates.resize(*query.limit);
  }
  return merged;
}

}  // namespace mudb::engine
