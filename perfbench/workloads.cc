#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <utility>

#include "src/datagen/datagen.h"
#include "src/engine/eval.h"
#include "src/measure/measure.h"
#include "src/service/ranking_service.h"
#include "src/service/ranking_session.h"
#include "src/service/sharded_service.h"
#include "src/sql/parser.h"
#include "src/util/fingerprint.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

using mudb::constraints::CmpOp;
using mudb::constraints::RealFormula;
using mudb::measure::Method;
using mudb::measure::MeasureOptions;
using mudb::measure::MeasureResult;
using mudb::poly::Polynomial;
using mudb::service::BatchStats;
using mudb::service::MeasureRequest;
using mudb::util::FingerprintHasher;

constexpr double kPi = 3.14159265358979323846;

// --- schedule and digest helpers -------------------------------------------

// The seed of op k: a pure function of (run seed, k, stream), so two runs
// with one seed draw identical inputs op by op.
uint64_t OpSeed(uint64_t seed, int64_t k, uint64_t stream = 0) {
  FingerprintHasher h(0x5EED);
  h.Absorb(seed);
  h.Absorb(static_cast<uint64_t>(k));
  h.Absorb(stream);
  return h.Digest().hi;
}

// Set-up — the warm-up op (k < 0) and any initial state — draws from this
// seed in every run, so that setup_s measures the same work whatever the
// run's seed.
constexpr uint64_t kSetupSeed = 0x3A12'0B5E'ED00'0001ull;

// The seed op k's inputs derive from.
uint64_t ScheduleSeed(uint64_t seed, int64_t k) {
  return k < 0 ? kSetupSeed : seed;
}

// A uniform draw in [0, 1) keyed like OpSeed.
double OpUniform(uint64_t seed, int64_t k, uint64_t stream) {
  return static_cast<double>(OpSeed(seed, k, stream) >> 11) * 0x1p-53;
}

void AbsorbResult(FingerprintHasher& h, const MeasureResult& r) {
  h.AbsorbDouble(r.value);
  h.AbsorbDouble(r.ci_lo);
  h.AbsorbDouble(r.ci_hi);
  h.Absorb(static_cast<uint64_t>(r.tier));
  h.Absorb(static_cast<uint64_t>(r.samples));
}

void AddBatch(BatchStats* sum, const BatchStats& b) {
  sum->requests += b.requests;
  sum->request_cache_hits += b.request_cache_hits;
  sum->body_cache_hits += b.body_cache_hits;
  sum->bodies += b.bodies;
  sum->unique_bodies += b.unique_bodies;
  sum->sampling_steps += b.sampling_steps;
  sum->samples += b.samples;
  sum->wall_ms += b.wall_ms;
}

// after − before, field by field (lifetime counters of a shard worker).
BatchStats Delta(const BatchStats& after, const BatchStats& before) {
  BatchStats d;
  d.requests = after.requests - before.requests;
  d.request_cache_hits = after.request_cache_hits - before.request_cache_hits;
  d.body_cache_hits = after.body_cache_hits - before.body_cache_hits;
  d.bodies = after.bodies - before.bodies;
  d.unique_bodies = after.unique_bodies - before.unique_bodies;
  d.sampling_steps = after.sampling_steps - before.sampling_steps;
  d.samples = after.samples - before.samples;
  return d;
}

// The ladder accounting of one RunTopK call.
void CountRanking(const mudb::service::RankingOutcome& outcome,
                  OpCounters* c) {
  for (const BatchStats& t : outcome.tier_stats) {
    AddBatch(&c->service, t);
    c->ranking_evaluations += t.requests;
  }
  c->ranking_tiers = static_cast<int64_t>(outcome.tier_stats.size());
  c->ranking_candidates = static_cast<int64_t>(outcome.candidates.size());
  for (const auto& cand : outcome.candidates) c->ranking_pruned += cand.pruned;
}

// The ε a ranked candidate's result ran at: its ladder tier's ε, clamped to
// the request's own final ε (the ladder never runs finer than it).
double TierEpsilon(const mudb::service::RankingOptions& ranking, int tier,
                   double final_eps) {
  if (tier < static_cast<int>(ranking.ladder.size())) {
    return std::max(ranking.ladder[static_cast<size_t>(tier)], final_eps);
  }
  return final_eps;
}

// --- cone geometry with analytic truths -------------------------------------

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

// The positive orthant of R^n: ν = 2^-n.
RealFormula Orthant(int n) {
  std::vector<RealFormula> parts;
  for (int i = 0; i < n; ++i) parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  return RealFormula::And(std::move(parts));
}

// Polar angles (beta, beta + alpha) in the (z0, z1) plane, alpha < π, with
// every other coordinate positive: ν = alpha / (2π) · 2^-(n-2), because the
// Gaussian measure of a product cone is the product of the factors'.
RealFormula WedgeCone(int n, double beta, double alpha) {
  const double end = beta + alpha;
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(
      C(std::sin(beta)) * Z(0) - C(std::cos(beta)) * Z(1), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(
      C(std::cos(end)) * Z(1) - C(std::sin(end)) * Z(0), CmpOp::kLt));
  for (int i = 2; i < n; ++i) parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  return RealFormula::And(std::move(parts));
}

// A candidate of the cone workloads: the shared orthant ∨ a private wedge
// cone, or the wedge cone alone.
struct Cone {
  int n = 3;
  double beta = 0.0;
  double alpha = 0.0;
  bool with_orthant = true;

  RealFormula Formula() const {
    if (!with_orthant) return WedgeCone(n, beta, alpha);
    std::vector<RealFormula> ors{Orthant(n), WedgeCone(n, beta, alpha)};
    return RealFormula::Or(std::move(ors));
  }

  // Both bodies are products of a planar sector with the positive orthant
  // of z2..z_{n-1}, so ν of the union is the measure of the union of the
  // sectors (0, π/2) and (beta, beta + alpha), over 2π, times 2^-(n-2).
  double Truth() const {
    double angle = alpha;
    if (with_orthant) {
      const double overlap =
          std::max(0.0, std::min(kPi / 2, beta + alpha) - std::max(0.0, beta));
      angle += kPi / 2 - overlap;
    }
    return angle / (2 * kPi) * std::ldexp(1.0, -(n - 2));
  }

  void Absorb(FingerprintHasher& h) const {
    h.Absorb(static_cast<uint64_t>(n));
    h.AbsorbDouble(beta);
    h.AbsorbDouble(alpha);
    h.Absorb(with_orthant ? 1 : 0);
  }
};

// "" when an FPRAS answer lies within 3× `eps` (relative) of the truth.
// `eps` is the ε the answer should have run at, derived by the caller from
// the request and the answer's ladder tier, never from the result itself.
std::string CheckRelative(double value, double truth, double eps,
                          const char* what, size_t index) {
  if (!(std::abs(value - truth) <= 3 * eps * truth)) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s %zu: value %.6f, truth %.6f, epsilon %.3f", what, index,
                  value, truth, eps);
    return buf;
  }
  return "";
}

// The k most certain candidates by analytic ν, most certain first (ties by
// index).
std::vector<size_t> AnalyticTopK(const std::vector<double>& truths, int k) {
  std::vector<size_t> order(truths.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return truths[a] > truths[b];
  });
  order.resize(std::min(order.size(), static_cast<size_t>(k)));
  return order;
}

// "" when the top-k candidate `index` ran at the final ε.
std::string CheckFinal(const mudb::service::RankingOptions& ranking,
                       const MeasureResult& r, double final_eps,
                       size_t index) {
  const double eps = TierEpsilon(ranking, r.tier, final_eps);
  if (eps != final_eps) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "top-k candidate %zu stopped at tier %d (epsilon %.3f), not "
                  "at the final epsilon %.3f",
                  index, r.tier, eps, final_eps);
    return buf;
  }
  return "";
}

MeasureOptions FprasOptions(double epsilon, uint64_t seed) {
  MeasureOptions opts;
  opts.method = Method::kFpras;
  opts.epsilon = epsilon;
  opts.seed = seed;
  return opts;
}

mudb::service::ServiceOptions ServiceWith(int workers) {
  mudb::service::ServiceOptions opts;
  opts.num_threads = workers;
  return opts;
}

// --- sales_sql_topk -----------------------------------------------------------

// The three decision-support queries of the paper's Figure 1.
const char* const kSalesQueries[] = {
    "SELECT P.seg FROM Products P, Market M "
    "WHERE P.seg = M.seg AND P.rrp * P.dis <= M.rrp * M.dis LIMIT 25",
    "SELECT P.id FROM Products P, Orders O, Market M "
    "WHERE P.seg = M.seg AND P.id = O.pr AND "
    "P.rrp * P.dis * O.q <= 0.5 * M.rrp * M.dis * O.dis LIMIT 25",
    "SELECT O.id FROM Products P, Orders O "
    "WHERE P.id = O.pr AND O.dis >= 1.6 * P.dis * O.q LIMIT 25",
};
constexpr double kSalesEpsilon = 0.05;

class SalesSqlTopK : public Workload {
 public:
  SalesSqlTopK(mudb::model::Database db, uint64_t seed, int workers)
      : db_(std::move(db)), seed_(seed), service_(ServiceWith(workers)) {
    ranking_.k = 5;
    ranking_.ladder = {0.2, 0.1};
  }

  OpResult RunOp(int64_t k) override {
    OpResult op;
    const char* sql = kSalesQueries[static_cast<size_t>((k + 3) % 3)];
    const uint64_t op_seed = OpSeed(ScheduleSeed(seed_, k), k);
    FingerprintHasher input(0x1);
    input.Absorb(static_cast<uint64_t>((k + 3) % 3));
    input.Absorb(op_seed);
    op.input_digest = input.Digest().hi;

    mudb::util::WallTimer parse_timer;
    auto cq = mudb::sql::ParseSqlQuery(sql, db_);
    op.counters.sql_parse_ms = parse_timer.ElapsedMillis();
    if (!cq.ok()) {
      op.error = "parse: " + cq.status().ToString();
      return op;
    }

    mudb::util::WallTimer eval_timer;
    auto eval = mudb::engine::EvaluateCq(db_, *cq);
    op.counters.engine_eval_ms = eval_timer.ElapsedMillis();
    if (!eval.ok()) {
      op.error = "eval: " + eval.status().ToString();
      return op;
    }
    op.counters.engine_witnesses =
        static_cast<int64_t>(eval->witnesses_enumerated);
    op.counters.engine_candidates =
        static_cast<int64_t>(eval->candidates.size());

    requests_.clear();
    for (size_t i = 0; i < eval->candidates.size(); ++i) {
      MeasureOptions opts;
      opts.method = Method::kAfpras;
      opts.epsilon = kSalesEpsilon;
      opts.seed = OpSeed(op_seed, static_cast<int64_t>(i));
      requests_.push_back(
          MeasureRequest::Nu(eval->candidates[i].constraint, opts));
    }
    auto ranked = service_.RunTopK(requests_, ranking_);
    if (!ranked.ok()) {
      op.error = "rank: " + ranked.status().ToString();
      return op;
    }
    outcome_ = std::move(*ranked);

    FingerprintHasher h(0x2);
    h.Absorb(eval->witnesses_enumerated);
    for (size_t i : outcome_->top_k) h.Absorb(i);
    for (const auto& c : outcome_->candidates) {
      AbsorbResult(h, c.result);
      h.Absorb(c.pruned ? 1 : 0);
    }
    op.fingerprint = h.Digest().hi;
    op.ok = true;
    op.candidates = static_cast<int64_t>(requests_.size());
    CountRanking(*outcome_, &op.counters);
    return op;
  }

  std::string CheckLastOp() override {
    if (!outcome_.has_value()) return "no ranked outcome";
    const double tier_delta =
        mudb::service::RankingTierDelta(ranking_, requests_.size());
    for (size_t i : outcome_->top_k) {
      const MeasureResult& got = outcome_->candidates[i].result;
      if (!got.is_exact) {
        std::string err = CheckFinal(ranking_, got, kSalesEpsilon, i);
        if (!err.empty()) return err;
        continue;
      }
      // An exact answer is frozen at the tier that computed it; a
      // sequential ComputeNu at the final ε must agree that it is exact.
      MeasureOptions opts = requests_[i].options;
      opts.delta = tier_delta;
      auto ref = mudb::measure::ComputeNu(*requests_[i].formula, opts);
      if (!ref.ok()) return "reference: " + ref.status().ToString();
      if (!ref->is_exact ||
          std::memcmp(&ref->value, &got.value, sizeof(double)) != 0) {
        return "top-k candidate " + std::to_string(i) +
               " is exact, but its sequential ComputeNu is not";
      }
    }
    for (size_t i = 0; i < requests_.size(); ++i) {
      const MeasureResult& got = outcome_->candidates[i].result;
      const RealFormula& formula = *requests_[i].formula;
      MeasureOptions opts = requests_[i].options;
      opts.epsilon = TierEpsilon(ranking_, got.tier, opts.epsilon);
      opts.delta = tier_delta;
      const std::set<int> used = formula.UsedVariables();
      if (!used.empty() && used.size() <= 2) {
        // Compact the used variables onto z0, z1 for the exact engine.
        std::vector<int> remap(static_cast<size_t>(formula.NumVariables()), -1);
        int next = 0;
        for (int v : used) remap[static_cast<size_t>(v)] = next++;
        MeasureOptions exact;
        exact.method = Method::kExact2D;
        auto truth = mudb::measure::ComputeNu(formula.RemapVariables(remap),
                                              exact);
        if (!truth.ok()) return "exact-2d: " + truth.status().ToString();
        if (!(std::abs(got.value - truth->value) <= 3 * opts.epsilon)) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        "candidate %zu: value %.6f, exact %.6f, epsilon %.3f",
                        i, got.value, truth->value, opts.epsilon);
          return buf;
        }
        continue;
      }
      auto ref = mudb::measure::ComputeNu(formula, opts);
      if (!ref.ok()) return "reference: " + ref.status().ToString();
      if (std::memcmp(&ref->value, &got.value, sizeof(double)) != 0 ||
          std::memcmp(&ref->ci_lo, &got.ci_lo, sizeof(double)) != 0 ||
          std::memcmp(&ref->ci_hi, &got.ci_hi, sizeof(double)) != 0) {
        return "candidate " + std::to_string(i) +
               " differs from its sequential ComputeNu";
      }
    }
    return "";
  }

 private:
  mudb::model::Database db_;
  uint64_t seed_;
  mudb::service::MeasureService service_;
  mudb::service::RankingOptions ranking_;
  std::vector<MeasureRequest> requests_;
  std::optional<mudb::service::RankingOutcome> outcome_;
};

// --- cone_fpras_topk ----------------------------------------------------------

constexpr double kConeEpsilon = 0.15;

// The candidates of every cone op: one 3-D cone (the shared orthant ∨ a
// wedge mostly outside it, ν ≈ 0.34) that holds the top-1, two 4-D cones
// (the 4-D orthant, shared, ∨ a wedge inside it, ν = 1/16) and one 5-D cone
// (likewise, ν = 1/32). The 4-D and 5-D cones fall to the ladder's coarse
// tier and only the 3-D bodies pay the final ε, so every op does the same
// work.
std::vector<Cone> RankedCones(uint64_t seed, int64_t k) {
  std::vector<Cone> cones(4);
  for (size_t c = 0; c < cones.size(); ++c) {
    Cone& cone = cones[c];
    const double jitter = 0.02 * OpUniform(seed, k, 1 + c);
    if (c == 0) {
      cone.n = 3;
      cone.beta = kPi / 2 - 0.3;
      cone.alpha = 2.95 + jitter;
    } else {
      cone.n = c <= 2 ? 4 : 5;
      cone.beta = 0.1;
      cone.alpha = 1.3 + 0.1 * static_cast<double>(c % 2) + jitter;
    }
  }
  return cones;
}

class ConeFprasTopK : public Workload {
 public:
  ConeFprasTopK(uint64_t seed, int workers)
      : seed_(seed), service_(ServiceWith(workers)) {
    ranking_.k = 1;
    ranking_.ladder = {0.45};
  }

  OpResult RunOp(int64_t k) override {
    OpResult op;
    const uint64_t seed = ScheduleSeed(seed_, k);
    const uint64_t op_seed = OpSeed(seed, k);
    cones_ = RankedCones(seed, k);
    std::vector<MeasureRequest> requests;
    FingerprintHasher input(0x3);
    for (const Cone& cone : cones_) {
      cone.Absorb(input);
      // One seed per op: each orthant body is then one cache key for every
      // candidate of its dimension.
      requests.push_back(MeasureRequest::Nu(cone.Formula(),
                                            FprasOptions(kConeEpsilon, op_seed)));
    }
    input.Absorb(op_seed);
    op.input_digest = input.Digest().hi;

    auto ranked = service_.RunTopK(std::move(requests), ranking_);
    if (!ranked.ok()) {
      op.error = "rank: " + ranked.status().ToString();
      return op;
    }
    outcome_ = std::move(*ranked);
    FingerprintHasher h(0x4);
    for (size_t i : outcome_->top_k) h.Absorb(i);
    for (const auto& c : outcome_->candidates) {
      AbsorbResult(h, c.result);
      h.Absorb(c.pruned ? 1 : 0);
    }
    op.fingerprint = h.Digest().hi;
    op.ok = true;
    op.candidates = static_cast<int64_t>(cones_.size());
    CountRanking(*outcome_, &op.counters);
    return op;
  }

  std::string CheckLastOp() override {
    if (!outcome_.has_value()) return "no ranked outcome";
    std::vector<double> truths;
    for (const Cone& cone : cones_) truths.push_back(cone.Truth());
    // The analytic top-k is well separated (ν ≈ 0.34 against 1/16 and
    // 1/32), so the ranked answer must match it exactly.
    if (outcome_->top_k != AnalyticTopK(truths, ranking_.k)) {
      return "top-k differs from the analytic ranking";
    }
    for (size_t i : outcome_->top_k) {
      std::string err = CheckFinal(ranking_, outcome_->candidates[i].result,
                                   kConeEpsilon, i);
      if (!err.empty()) return err;
    }
    for (size_t i = 0; i < cones_.size(); ++i) {
      const MeasureResult& r = outcome_->candidates[i].result;
      std::string err =
          CheckRelative(r.value, truths[i],
                        TierEpsilon(ranking_, r.tier, kConeEpsilon), "cone", i);
      if (!err.empty()) return err;
    }
    return "";
  }

 private:
  uint64_t seed_;
  mudb::service::MeasureService service_;
  mudb::service::RankingOptions ranking_;
  std::vector<Cone> cones_;
  std::optional<mudb::service::RankingOutcome> outcome_;
};

// --- rerank_stream ------------------------------------------------------------

constexpr int kRerankAnchors = 4;
constexpr int kRerankStream = 20;
constexpr double kRerankEpsilon = 0.1;

// One long-lived session: kRerankAnchors wide cones hold the top-k and are
// never touched; kRerankStream thin wedges below the cut stream through in
// FIFO order. Every op is one delta of the same shape — refine one live
// stream wedge (narrow it, as learning a tighter range for its null would),
// insert a fresh wedge, remove the oldest — so every op falls in one cost
// class: two coarse-tier evaluations, everything else a memo replay.
class RerankStream : public Workload {
 public:
  RerankStream(uint64_t seed, int workers)
      : seed_(seed), service_(ServiceWith(workers)),
        session_(&service_, Options()) {}

  // Cold-ranks the anchors and the initial stream (part of set-up).
  std::string Init() {
    mudb::service::RankingDelta delta;
    std::vector<Cone> cones;
    for (int a = 0; a < kRerankAnchors; ++a) {
      Cone anchor;
      anchor.beta = kPi / 2 - 0.3;
      anchor.alpha = 2.6 + 0.15 * a;
      cones.push_back(anchor);
    }
    for (int s = 0; s < kRerankStream; ++s) {
      cones.push_back(StreamCone(-2 - s));
    }
    for (size_t i = 0; i < cones.size(); ++i) {
      delta.inserts.push_back(MeasureRequest::Nu(
          cones[i].Formula(), FprasOptions(kRerankEpsilon, OpSeed(kSetupSeed, -100, i))));
    }
    auto outcome = session_.Rerank(std::move(delta));
    if (!outcome.ok()) return outcome.status().ToString();
    for (size_t i = 0; i < cones.size(); ++i) {
      live_.emplace_back(outcome->inserted_ids[i], cones[i]);
    }
    return "";
  }

  OpResult RunOp(int64_t k) override {
    OpResult op;
    const uint64_t op_seed = OpSeed(ScheduleSeed(seed_, k), k);
    // live_[0..anchors) are the anchors; the stream follows, oldest first.
    const size_t oldest = kRerankAnchors;
    const size_t refined = live_.size() - 1;  // the newest stream wedge
    Cone narrowed = live_[refined].second;
    narrowed.alpha *= 0.85;
    const Cone fresh = StreamCone(k);

    FingerprintHasher input(0x5);
    narrowed.Absorb(input);
    fresh.Absorb(input);
    input.Absorb(op_seed);
    op.input_digest = input.Digest().hi;

    mudb::service::RankingDelta delta;
    delta.removals.push_back(live_[oldest].first);
    delta.updates.emplace_back(
        live_[refined].first,
        MeasureRequest::Nu(narrowed.Formula(),
                           FprasOptions(kRerankEpsilon, OpSeed(op_seed, 1))));
    delta.inserts.push_back(MeasureRequest::Nu(
        fresh.Formula(), FprasOptions(kRerankEpsilon, OpSeed(op_seed, 2))));
    auto outcome = session_.Rerank(std::move(delta));
    if (!outcome.ok()) {
      op.error = "rerank: " + outcome.status().ToString();
      return op;
    }
    live_[refined].second = narrowed;
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(oldest));
    live_.emplace_back(outcome->inserted_ids[0], fresh);
    outcome_ = std::move(*outcome);

    FingerprintHasher h(0x6);
    for (auto id : outcome_->top_k) h.Absorb(id);
    for (const auto& c : outcome_->candidates) {
      h.Absorb(c.id);
      AbsorbResult(h, c.result);
      h.Absorb(c.pruned ? 1 : 0);
      h.Absorb(c.frozen ? 1 : 0);
    }
    op.fingerprint = h.Digest().hi;
    op.ok = true;
    op.candidates = static_cast<int64_t>(outcome_->candidates.size());
    OpCounters& c = op.counters;
    for (const BatchStats& t : outcome_->tier_stats) AddBatch(&c.service, t);
    c.ranking_tiers = static_cast<int64_t>(outcome_->tier_stats.size());
    c.ranking_evaluations = outcome_->evaluations;
    c.ranking_warm_hits = outcome_->warm_hits;
    c.ranking_invalidated = outcome_->invalidated;
    c.ranking_candidates = op.candidates;
    for (const auto& cand : outcome_->candidates) c.ranking_pruned += cand.pruned;
    return op;
  }

  std::string CheckLastOp() override {
    if (!outcome_.has_value()) return "no rerank outcome";
    // Both lists ascend by id: live_ keeps insertion order.
    if (live_.size() != outcome_->candidates.size()) return "live set drifted";
    const mudb::service::RankingOptions ranking = Options();
    std::vector<double> truths;
    for (size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].first != outcome_->candidates[i].id) return "id mismatch";
      truths.push_back(live_[i].second.Truth());
    }
    // The anchors (ν ≥ 0.30) sit far above every stream wedge (ν ≤ 0.064),
    // but only a few percent apart from each other: compare the top-k as a
    // set, not in order.
    std::set<mudb::service::CandidateId> want, got;
    for (size_t i : AnalyticTopK(truths, ranking.k)) want.insert(live_[i].first);
    got.insert(outcome_->top_k.begin(), outcome_->top_k.end());
    if (got != want) return "top-k differs from the analytic ranking";
    for (size_t i = 0; i < live_.size(); ++i) {
      const MeasureResult& r = outcome_->candidates[i].result;
      if (got.count(live_[i].first) != 0) {
        std::string err = CheckFinal(ranking, r, kRerankEpsilon, i);
        if (!err.empty()) return err;
      }
      std::string err = CheckRelative(
          r.value, truths[i], TierEpsilon(ranking, r.tier, kRerankEpsilon),
          "candidate", i);
      if (!err.empty()) return err;
    }
    return "";
  }

 private:
  static mudb::service::RankingOptions Options() {
    mudb::service::RankingOptions opts;
    opts.k = kRerankAnchors;
    opts.ladder = {0.3, 0.2};
    opts.per_estimate_delta = 0.01;
    return opts;
  }

  // The stream wedge inserted by op k: a thin 3-D wedge alone (no orthant),
  // its angle drawn from the op's stream.
  Cone StreamCone(int64_t k) const {
    const uint64_t seed = ScheduleSeed(seed_, k);
    Cone cone;
    cone.with_orthant = false;
    cone.beta = kPi * OpUniform(seed, k, 3);
    cone.alpha = 0.5 + 0.3 * OpUniform(seed, k, 4);
    return cone;
  }

  uint64_t seed_;
  mudb::service::MeasureService service_;
  mudb::service::RankingSession session_;
  std::vector<std::pair<mudb::service::CandidateId, Cone>> live_;
  std::optional<mudb::service::RerankOutcome> outcome_;
};

// --- shard_faults -------------------------------------------------------------

constexpr int kShardDistinct = 4;
constexpr int kShardRepeats = 2;
constexpr double kShardEpsilon = 0.15;
constexpr double kShardFaultRate = 0.2;

// 2 shards × `workers` pool threads, in-process transport failing ~20% of
// deliveries with transient kUnavailable (no latency spikes), retries with
// backoff, local recompute once retries run out. Op k is a cold batch:
// kShardDistinct 3-D cones (shared orthant ∨ private wedge), each repeated
// kShardRepeats times, all at the op's fresh seed.
class ShardFaults : public Workload {
 public:
  ShardFaults(uint64_t seed, int workers)
      : seed_(seed), fabric_(Options(workers)) {}

  OpResult RunOp(int64_t k) override {
    OpResult op;
    const uint64_t seed = ScheduleSeed(seed_, k);
    const uint64_t op_seed = OpSeed(seed, k);
    FingerprintHasher input(0x7);
    cones_.clear();
    std::vector<MeasureRequest> requests;
    for (int r = 0; r < kShardDistinct * kShardRepeats; ++r) {
      const int d = r % kShardDistinct;
      Cone cone;
      cone.beta = kPi / 2 - 0.3;
      cone.alpha = 1.5 + 1.5 * d / (kShardDistinct - 1) +
                   0.02 * OpUniform(seed, k, 1 + static_cast<uint64_t>(d));
      cone.Absorb(input);
      cones_.push_back(cone);
      requests.push_back(MeasureRequest::Nu(cone.Formula(),
                                            FprasOptions(kShardEpsilon, op_seed)));
    }
    input.Absorb(op_seed);
    op.input_digest = input.Digest().hi;

    std::vector<BatchStats> before;
    for (int s = 0; s < fabric_.num_shards(); ++s) {
      before.push_back(fabric_.shard(s).lifetime_stats());
    }
    auto outcome = fabric_.RunBatch(std::move(requests));
    OpCounters& c = op.counters;
    for (int s = 0; s < fabric_.num_shards(); ++s) {
      AddBatch(&c.service, Delta(fabric_.shard(s).lifetime_stats(),
                                 before[static_cast<size_t>(s)]));
    }
    c.service.wall_ms = outcome.stats.wall_ms;
    c.shard_requests = outcome.stats.requests;
    c.shard_attempts = outcome.stats.attempts;
    c.shard_degraded = outcome.stats.degraded;

    FingerprintHasher h(0x8);
    results_.clear();
    for (auto& r : outcome.results) {
      if (!r.ok()) {
        op.error = "request: " + r.status().ToString();
        return op;
      }
      AbsorbResult(h, r->result);
      results_.push_back(r->result);
    }
    op.fingerprint = h.Digest().hi;
    op.ok = true;
    op.candidates = static_cast<int64_t>(results_.size());
    return op;
  }

  std::string CheckLastOp() override {
    if (results_.size() != cones_.size()) return "missing responses";
    for (size_t i = 0; i < results_.size(); ++i) {
      std::string err = CheckRelative(results_[i].value, cones_[i].Truth(),
                                      kShardEpsilon, "request", i);
      if (!err.empty()) return err;
    }
    return "";
  }

 private:
  static mudb::service::ShardedServiceOptions Options(int workers) {
    mudb::service::ShardedServiceOptions opts;
    opts.num_shards = 2;
    opts.shard_options.num_threads = workers;
    opts.router_threads = 2;
    opts.retry.max_attempts = 4;
    opts.degrade = mudb::service::DegradeMode::kLocalRecompute;
    mudb::service::FaultInjectorOptions faults;
    // A fixed fault seed: the warm-up op then meets the same faults,
    // retries and backoff sleeps in every run, and only the requests of the
    // timed ops (their seeds, hence their routing) vary with --seed.
    faults.seed = OpSeed(kSetupSeed, -1, 0xFA17);
    faults.unavailable_rate = kShardFaultRate;
    opts.faults = faults;
    return opts;
  }

  uint64_t seed_;
  mudb::service::ShardedMeasureService fabric_;
  std::vector<Cone> cones_;
  std::vector<MeasureResult> results_;
};

}  // namespace

void AddCounters(OpCounters* sum, const OpCounters& c) {
  sum->sql_parse_ms += c.sql_parse_ms;
  sum->engine_eval_ms += c.engine_eval_ms;
  sum->engine_witnesses += c.engine_witnesses;
  sum->engine_candidates += c.engine_candidates;
  AddBatch(&sum->service, c.service);
  sum->ranking_tiers += c.ranking_tiers;
  sum->ranking_evaluations += c.ranking_evaluations;
  sum->ranking_pruned += c.ranking_pruned;
  sum->ranking_candidates += c.ranking_candidates;
  sum->ranking_warm_hits += c.ranking_warm_hits;
  sum->ranking_invalidated += c.ranking_invalidated;
  sum->shard_requests += c.shard_requests;
  sum->shard_attempts += c.shard_attempts;
  sum->shard_degraded += c.shard_degraded;
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"sales_sql_topk", 90, 3, 2,
       "sales db 40000 products + 24000 orders + 400 segments, null rate "
       "0.08, generator seed 42; 3 Fig. 1 queries, LIMIT 25, top-5, AFPRAS "
       "eps 0.05"},
      {"cone_fpras_topk", 90, 1, 2,
       "4 cone DNFs (dims 3, 4, 4, 5), top-1, FPRAS eps 0.15"},
      {"rerank_stream", 95, 1, 2,
       "session of 4 anchors + 20 streamed wedges (dim 3), top-4, FPRAS eps "
       "0.1; delta = refine 1 + insert 1 + remove 1"},
      {"shard_faults", 90, 1, 1,
       "2 shards, 20% transient faults; batch of 4 dim-3 cone DNFs x 2 "
       "repeats, FPRAS eps 0.15"},
  };
  return kSpecs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec,
                                       uint64_t seed, int workers,
                                       double* datagen_ms,
                                       std::string* error) {
  *datagen_ms = 0.0;
  const std::string name = spec.name;
  if (name == "sales_sql_topk") {
    // The database is the generator's default one (seed 42) in every run:
    // --seed drives the per-op estimator seeds, so runs with different
    // seeds do the same join work and differ only in their samples.
    mudb::datagen::SalesConfig config;
    config.num_products = 40000;
    config.num_orders = 24000;
    config.num_segments = 400;
    config.null_rate = 0.08;
    mudb::util::WallTimer timer;
    auto db = mudb::datagen::MakeSalesDatabase(config);
    *datagen_ms = timer.ElapsedMillis();
    if (!db.ok()) {
      *error = "datagen: " + db.status().ToString();
      return nullptr;
    }
    return std::make_unique<SalesSqlTopK>(std::move(*db), seed, workers);
  }
  if (name == "cone_fpras_topk") {
    return std::make_unique<ConeFprasTopK>(seed, workers);
  }
  if (name == "rerank_stream") {
    auto w = std::make_unique<RerankStream>(seed, workers);
    *error = w->Init();
    if (!error->empty()) return nullptr;
    return w;
  }
  if (name == "shard_faults") {
    return std::make_unique<ShardFaults>(seed, workers);
  }
  *error = "unknown workload " + name;
  return nullptr;
}

}  // namespace perfbench
