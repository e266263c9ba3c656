#include "src/service/measure_service.h"

#include <cstdio>
#include <utility>

#include "src/obs/metrics.h"
#include "src/service/ranking_session.h"
#include "src/service/service_errors.h"
#include "src/translate/ground.h"
#include "src/util/timer.h"

namespace mudb::service {

namespace {

/// Entries each cache holds (the body cache and the result memo), and the
/// lock shards each is split into.
constexpr size_t kCacheCapacity = 4096;
constexpr int kCacheShards = 8;

/// Short hex prefix of a request signature for span annotations — enough
/// to correlate spans with cache keys, without dumping 128-bit keys.
std::string KeyPrefix(const convex::CanonicalBodyKey& key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>(key.fp.hi >> 32));
  return buf;
}

}  // namespace

MeasureService::MeasureService(const ServiceOptions& options)
    : options_(options),
      pool_(util::ThreadPool::ResolveThreadCount(options.num_threads)),
      body_cache_(EstimateCache::Options{kCacheCapacity, kCacheShards}),
      result_cache_(kCacheCapacity, kCacheShards) {
  // Mirror the result-memo counters into the registry ("service.cache.*";
  // the body cache publishes "service.body_cache.*" from its own ctor).
  result_cache_.PublishMetrics("service.cache");
}

util::StatusOr<measure::MeasureResult> MeasureService::Run(
    const MeasureRequest& request) {
  std::lock_guard<std::mutex> lock(run_mu_);
  return Process(request);
}

util::Status MeasureService::Attribute(util::Status status) const {
  if (status.ok() || options_.shard_id < 0) return status;
  util::Status attributed(
      status.code(), "[shard " + std::to_string(options_.shard_id) + "] " +
                         status.message());
  attributed.WithShard(options_.shard_id);
  return attributed;
}

util::StatusOr<measure::MeasureResult> MeasureService::Process(
    const MeasureRequest& request) {
  static obs::Counter* const m_requests =
      obs::MetricsRegistry::Global().counter("service.requests");
  static obs::Counter* const m_steps =
      obs::MetricsRegistry::Global().counter("service.sampling_steps");
  static obs::Counter* const m_samples =
      obs::MetricsRegistry::Global().counter("service.samples");
  static obs::Histogram* const m_request_ms =
      obs::MetricsRegistry::Global().histogram("service.request_ms");

  obs::Span span("service.process");
  const int64_t t0 = obs::Clock::NowNanos();
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  m_requests->Inc();

  // Validate the error-model knobs before grounding or memo lookups: a
  // degenerate ε/δ must fail identically on the service and direct paths
  // (byte-identical when unsharded; sharded services stamp their shard id).
  util::Status valid = measure::ValidateMeasureOptions(request.options);
  if (!valid.ok()) return Attribute(std::move(valid));

  // Resolve the formula: ground the query form first (Prop. 5.3).
  const constraints::RealFormula* formula = nullptr;
  translate::GroundResult ground;
  if (request.formula.has_value()) {
    formula = &*request.formula;
  } else {
    if (request.query == nullptr || request.db == nullptr) {
      return Attribute(util::Status::InvalidArgument(
          "MeasureRequest needs a formula or a (query, db, candidate)"));
    }
    translate::GroundOptions gopts;
    gopts.max_atoms = request.options.max_ground_atoms;
    obs::Span ground_span("service.ground");
    util::StatusOr<translate::GroundResult> grounded = translate::GroundQuery(
        *request.query, *request.db, request.candidate, gopts);
    if (!grounded.ok()) return Attribute(grounded.status());
    ground = std::move(grounded).value();
    formula = &ground.formula;
  }

  // Result memo: a repeated request replays its result without sampling.
  // The signature covers everything the result depends on (request_key.h),
  // so a hit is bit-identical to re-execution.
  convex::CanonicalBodyKey signature =
      RequestSignature(*formula, request.options);
  // The memo Lookup itself publishes service.cache.hit / .miss.
  if (std::optional<MemoEntry> memo = result_cache_.Lookup(signature)) {
    total_request_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (span.recording()) {
      span.Annotate("cache", "hit");
      span.Annotate("key_prefix", KeyPrefix(signature));
    }
    m_request_ms->Observe(
        obs::Clock::NanosToMillis(obs::Clock::NowNanos() - t0));
    return memo->result;
  }
  if (span.recording()) {
    span.Annotate("cache", "miss");
    span.Annotate("key_prefix", KeyPrefix(signature));
  }

  // Execute with the service's pool and body cache plugged in (caller
  // overrides win: a request carrying its own pool/cache keeps it).
  measure::MeasureOptions opts = request.options;
  if (opts.pool == nullptr) opts.pool = &pool_;
  if (opts.body_cache == nullptr) opts.body_cache = &body_cache_;
  util::StatusOr<measure::MeasureResult> result =
      ComputeNu(*formula, opts);
  if (!result.ok()) {
    // Execution failures name the request (and the shard, when sharded) so
    // one bad request in a batch of dozens is attributable from its status
    // alone: "[req:9f3a6b21 shard 2] <engine message>".
    return AnnotateRequestError(result.status(), signature,
                                options_.shard_id);
  }
  total_body_cache_hits_.fetch_add(result->body_cache_hits,
                                   std::memory_order_relaxed);
  total_bodies_.fetch_add(result->bodies, std::memory_order_relaxed);
  total_unique_bodies_.fetch_add(result->unique_bodies,
                                 std::memory_order_relaxed);
  total_sampling_steps_.fetch_add(result->sampling_steps,
                                  std::memory_order_relaxed);
  total_samples_.fetch_add(result->samples, std::memory_order_relaxed);
  m_steps->Inc(result->sampling_steps);
  m_samples->Inc(result->samples);
  result_cache_.Insert(signature, MemoEntry{*result});
  m_request_ms->Observe(
      obs::Clock::NanosToMillis(obs::Clock::NowNanos() - t0));
  return result;
}

MeasureService::BatchOutcome MeasureService::RunBatch(
    std::vector<MeasureRequest> requests) {
  static obs::Histogram* const m_batch_ms =
      obs::MetricsRegistry::Global().histogram("service.batch_ms");
  obs::Span span("service.batch");
  if (span.recording()) {
    span.Annotate("requests", static_cast<double>(requests.size()));
  }
  util::WallTimer timer;
  BatchStats before = lifetime_stats();
  BatchOutcome outcome;
  outcome.results.reserve(requests.size());
  for (const MeasureRequest& request : requests) {
    outcome.results.push_back(Run(request));
  }
  BatchStats after = lifetime_stats();
  outcome.stats.requests = after.requests - before.requests;
  outcome.stats.request_cache_hits =
      after.request_cache_hits - before.request_cache_hits;
  outcome.stats.body_cache_hits =
      after.body_cache_hits - before.body_cache_hits;
  outcome.stats.bodies = after.bodies - before.bodies;
  outcome.stats.unique_bodies = after.unique_bodies - before.unique_bodies;
  outcome.stats.sampling_steps =
      after.sampling_steps - before.sampling_steps;
  outcome.stats.samples = after.samples - before.samples;
  outcome.stats.wall_ms = timer.ElapsedMillis();
  outcome.trace_id = span.context().trace_id;
  if (span.recording()) {
    span.Annotate("cache_hits",
                  static_cast<double>(outcome.stats.request_cache_hits));
    span.Annotate("sampling_steps",
                  static_cast<double>(outcome.stats.sampling_steps));
  }
  m_batch_ms->Observe(outcome.stats.wall_ms);
  return outcome;
}

util::StatusOr<RankingOutcome> MeasureService::RunTopK(
    std::vector<MeasureRequest> candidates, const RankingOptions& options) {
  // A one-shot ranking IS a fresh session fed one all-inserts delta: ids
  // are assigned densely in input order, so id == input index. Rerank
  // validates options and candidates before executing anything.
  RankingSession session(this, options);
  RankingDelta delta;
  delta.inserts = std::move(candidates);
  MUDB_ASSIGN_OR_RETURN(RerankOutcome rerank,
                        session.Rerank(std::move(delta)));

  RankingOutcome outcome;
  outcome.candidates.reserve(rerank.candidates.size());
  for (SessionCandidate& cand : rerank.candidates) {
    RankedCandidate ranked;
    ranked.index = static_cast<size_t>(cand.id);
    ranked.result = std::move(cand.result);
    ranked.pruned = cand.pruned;
    outcome.candidates.push_back(std::move(ranked));
  }
  outcome.top_k.reserve(rerank.top_k.size());
  for (CandidateId id : rerank.top_k) {
    outcome.top_k.push_back(static_cast<size_t>(id));
  }
  outcome.tier_stats = std::move(rerank.tier_stats);
  outcome.total_sampling_steps = rerank.total_sampling_steps;
  outcome.trace_id = rerank.trace_id;
  return outcome;
}

BatchStats MeasureService::lifetime_stats() const {
  BatchStats s;
  s.requests = total_requests_.load(std::memory_order_relaxed);
  s.request_cache_hits =
      total_request_cache_hits_.load(std::memory_order_relaxed);
  s.body_cache_hits = total_body_cache_hits_.load(std::memory_order_relaxed);
  s.bodies = total_bodies_.load(std::memory_order_relaxed);
  s.unique_bodies = total_unique_bodies_.load(std::memory_order_relaxed);
  s.sampling_steps = total_sampling_steps_.load(std::memory_order_relaxed);
  s.samples = total_samples_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mudb::service
