#include "src/service/sharded_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "src/obs/metrics.h"
#include "src/service/request_key.h"
#include "src/service/service_errors.h"
#include "src/translate/ground.h"
#include "src/util/timer.h"

namespace mudb::service {

namespace {

int ResolveRouterThreads(int requested, int num_shards) {
  if (requested >= 1) return requested;
  return std::clamp(2 * num_shards, 1, 16);
}

std::string ShardKeyPrefix(const convex::CanonicalBodyKey& key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>(key.fp.hi >> 32));
  return buf;
}

}  // namespace

ShardedMeasureService::ShardedMeasureService(
    const ShardedServiceOptions& options, ShardTransport* transport)
    : options_(options),
      router_pool_(
          ResolveRouterThreads(options.router_threads, options.num_shards)) {
  MUDB_CHECK(options_.num_shards >= 1);
  MUDB_CHECK(options_.retry.max_attempts >= 1);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  std::vector<MeasureService*> shard_ptrs;
  for (int s = 0; s < options_.num_shards; ++s) {
    ServiceOptions shard_options = options_.shard_options;
    shard_options.shard_id = s;
    shards_.push_back(std::make_unique<MeasureService>(shard_options));
    shard_ptrs.push_back(shards_.back().get());
  }
  per_shard_requests_ =
      std::make_unique<std::atomic<int64_t>[]>(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) per_shard_requests_[s] = 0;

  if (transport != nullptr) {
    MUDB_CHECK(transport->num_shards() == options_.num_shards);
    transport_ = transport;
  } else {
    in_process_ = std::make_unique<InProcessShardTransport>(shard_ptrs);
    transport_ = in_process_.get();
    if (options_.faults.has_value()) {
      injector_ = std::make_unique<FaultInjector>(options_.num_shards,
                                                  *options_.faults);
      faulty_ = std::make_unique<FaultInjectingTransport>(in_process_.get(),
                                                          injector_.get());
      transport_ = faulty_.get();
    }
  }
}

int ShardedMeasureService::ShardFor(
    const convex::CanonicalBodyKey& signature) const {
  // fp.hi is avalanche-mixed; mod keeps every shard populated for any N.
  return static_cast<int>(signature.fp.hi %
                          static_cast<uint64_t>(shards_.size()));
}

util::StatusOr<ShardedResponse> ShardedMeasureService::Call(
    MeasureRequest request, util::Deadline deadline) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter* const m_requests = reg.counter("shard.requests");
  static obs::Counter* const m_attempts = reg.counter("shard.attempts");
  static obs::Counter* const m_retries = reg.counter("shard.retry");
  static obs::Counter* const m_transient =
      reg.counter("shard.transient_failure");
  static obs::Counter* const m_failures = reg.counter("shard.failure");
  static obs::Counter* const m_deadline =
      reg.counter("shard.deadline_expired");
  static obs::Histogram* const m_request_ms =
      reg.histogram("shard.request_ms");

  obs::Span span("shard.request");
  const int64_t t0 = obs::Clock::NowNanos();
  const auto observe_wall = [&] {
    m_request_ms->Observe(
        obs::Clock::NanosToMillis(obs::Clock::NowNanos() - t0));
  };
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  m_requests->Inc();

  // Permanent-error gate, identical to the unsharded path: a malformed
  // request fails here once, with no retry (retrying identical content
  // cannot help) and no shard attribution (no shard was involved).
  util::Status valid = measure::ValidateMeasureOptions(request.options);
  if (!valid.ok()) {
    total_failures_.fetch_add(1, std::memory_order_relaxed);
    m_failures->Inc();
    observe_wall();
    return valid;
  }

  // Ground the query form centrally so routing sees content: shard workers
  // always receive formula-form requests.
  if (!request.formula.has_value()) {
    if (request.query == nullptr || request.db == nullptr) {
      total_failures_.fetch_add(1, std::memory_order_relaxed);
      m_failures->Inc();
      observe_wall();
      return util::Status::InvalidArgument(
          "MeasureRequest needs a formula or a (query, db, candidate)");
    }
    translate::GroundOptions gopts;
    gopts.max_atoms = request.options.max_ground_atoms;
    obs::Span ground_span("shard.ground");
    util::StatusOr<translate::GroundResult> ground = translate::GroundQuery(
        *request.query, *request.db, request.candidate, gopts);
    if (!ground.ok()) {
      total_failures_.fetch_add(1, std::memory_order_relaxed);
      m_failures->Inc();
      observe_wall();
      return ground.status();
    }
    request.formula = std::move(ground.value().formula);
    request.query = nullptr;
    request.db = nullptr;
    request.candidate = model::Tuple{};
  }

  const convex::CanonicalBodyKey signature =
      RequestSignature(*request.formula, request.options);
  const int shard = ShardFor(signature);
  per_shard_requests_[static_cast<size_t>(shard)].fetch_add(
      1, std::memory_order_relaxed);
  if (span.recording()) {
    span.Annotate("shard", static_cast<double>(shard));
    span.Annotate("key_prefix", ShardKeyPrefix(signature));
  }

  // The jitter stream is a pure function of the request seed: the delay
  // schedule of a request is reproducible, run to run.
  util::Rng jitter = util::BackoffRng(request.options.seed);
  util::Status last_error;
  for (int attempt = 1; attempt <= options_.retry.max_attempts; ++attempt) {
    if (deadline.expired()) {
      total_deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      total_failures_.fetch_add(1, std::memory_order_relaxed);
      m_deadline->Inc();
      m_failures->Inc();
      observe_wall();
      return AnnotateRequestError(
          util::Status::DeadlineExceeded("deadline expired before delivery"),
          signature, shard, attempt - 1);
    }
    total_attempts_.fetch_add(1, std::memory_order_relaxed);
    m_attempts->Inc();
    if (attempt > 1) {
      total_retries_.fetch_add(1, std::memory_order_relaxed);
      m_retries->Inc();
    }

    util::StatusOr<measure::MeasureResult> result = [&] {
      obs::Span attempt_span("shard.attempt");
      if (attempt_span.recording()) {
        attempt_span.Annotate("attempt", static_cast<double>(attempt));
        // No annotation without a deadline: remaining_ms() is +inf then.
        const double remaining = deadline.remaining_ms();
        if (std::isfinite(remaining)) {
          attempt_span.Annotate("deadline_remaining_ms", remaining);
        }
      }
      return transport_->Call(shard, request);
    }();
    if (result.ok()) {
      ShardedResponse response;
      response.result = *result;
      response.shard = shard;
      response.attempts = attempt;
      response.trace_id = span.context().trace_id;
      observe_wall();
      return response;
    }
    if (!result.status().IsRetryable()) {
      // Permanent: the shard already attributed its own message (its
      // shard_id is set); only the structured attempt count is added here.
      total_failures_.fetch_add(1, std::memory_order_relaxed);
      m_failures->Inc();
      util::Status status = result.status();
      status.WithAttempts(attempt);
      if (status.context().shard_id < 0) status.WithShard(shard);
      observe_wall();
      return status;
    }
    total_transient_failures_.fetch_add(1, std::memory_order_relaxed);
    m_transient->Inc();
    last_error = result.status();
    if (attempt < options_.retry.max_attempts) {
      double delay_ms = options_.retry.backoff.DelayMs(attempt - 1, jitter);
      if (!deadline.infinite()) {
        delay_ms = std::min(delay_ms,
                            std::max(0.0, deadline.remaining_ms()));
      }
      if (delay_ms > 0) {
        obs::Span backoff_span("shard.backoff");
        if (backoff_span.recording()) {
          backoff_span.Annotate("attempt", static_cast<double>(attempt));
          backoff_span.Annotate("delay_ms", delay_ms);
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
    }
  }
  util::StatusOr<ShardedResponse> degraded =
      Degrade(request, signature, shard, options_.retry.max_attempts,
              std::move(last_error), deadline);
  if (degraded.ok()) {
    degraded.value().trace_id = span.context().trace_id;
  }
  observe_wall();
  return degraded;
}

util::StatusOr<ShardedResponse> ShardedMeasureService::Degrade(
    const MeasureRequest& request, const convex::CanonicalBodyKey& signature,
    int shard, int attempts, util::Status last_error,
    const util::Deadline& deadline) {
  static obs::Counter* const m_degraded =
      obs::MetricsRegistry::Global().counter("shard.degraded");
  static obs::Counter* const m_degrade_failures =
      obs::MetricsRegistry::Global().counter("shard.failure");
  if (options_.degrade != DegradeMode::kNone && !deadline.expired()) {
    obs::Span span("shard.degrade");
    if (span.recording()) {
      span.Annotate("mode", options_.degrade == DegradeMode::kCoarsenEpsilon
                                ? "coarsen_epsilon"
                                : "local_recompute");
      span.Annotate("attempts_exhausted", static_cast<double>(attempts));
      const double remaining = deadline.remaining_ms();
      if (std::isfinite(remaining)) {
        span.Annotate("deadline_remaining_ms", remaining);
      }
    }
    // Local re-execution never consults the failing transport. It computes
    // exactly what the unsharded service would: ComputeNu is a pure
    // function of (formula, options), so the degraded result stays
    // bit-deterministic — at the original ε (kLocalRecompute) or at the
    // stamped coarser ε (kCoarsenEpsilon).
    measure::MeasureOptions opts = request.options;
    double degraded_epsilon = 0.0;
    if (options_.degrade == DegradeMode::kCoarsenEpsilon) {
      degraded_epsilon = std::min(1.0, opts.epsilon * options_.coarsen_factor);
      opts.epsilon = degraded_epsilon;
      if (span.recording()) span.Annotate("epsilon", degraded_epsilon);
    }
    util::StatusOr<measure::MeasureResult> local =
        measure::ComputeNu(*request.formula, opts);
    if (local.ok()) {
      total_degraded_.fetch_add(1, std::memory_order_relaxed);
      m_degraded->Inc();
      ShardedResponse response;
      response.result = *local;
      response.shard = -1;
      response.attempts = attempts;
      response.degraded = true;
      response.degraded_epsilon = degraded_epsilon;
      return response;
    }
    total_failures_.fetch_add(1, std::memory_order_relaxed);
    m_degrade_failures->Inc();
    return AnnotateRequestError(local.status(), signature, -1, attempts);
  }
  total_failures_.fetch_add(1, std::memory_order_relaxed);
  m_degrade_failures->Inc();
  return AnnotateRequestError(std::move(last_error), signature, shard,
                              attempts);
}

ShardedMeasureService::BatchOutcome ShardedMeasureService::RunBatch(
    std::vector<MeasureRequest> requests) {
  static obs::Histogram* const m_batch_ms =
      obs::MetricsRegistry::Global().histogram("shard.batch_ms");
  obs::Span span("shard.batch");
  if (span.recording()) {
    span.Annotate("requests", static_cast<double>(requests.size()));
  }
  util::WallTimer timer;
  std::lock_guard<std::mutex> lock(batch_mu_);
  ShardedStats before = stats();
  std::vector<std::optional<util::StatusOr<ShardedResponse>>> slots(
      requests.size());
  router_pool_.ParallelFor(
      static_cast<int64_t>(requests.size()), [&](int64_t i) {
        const size_t slot = static_cast<size_t>(i);
        slots[slot] = Call(std::move(requests[slot]));
      });
  BatchOutcome outcome;
  outcome.results.reserve(slots.size());
  for (auto& slot : slots) outcome.results.push_back(std::move(*slot));
  ShardedStats after = stats();
  outcome.stats.requests = after.requests - before.requests;
  outcome.stats.attempts = after.attempts - before.attempts;
  outcome.stats.retries = after.retries - before.retries;
  outcome.stats.transient_failures =
      after.transient_failures - before.transient_failures;
  outcome.stats.degraded = after.degraded - before.degraded;
  outcome.stats.failures = after.failures - before.failures;
  outcome.stats.deadline_expired =
      after.deadline_expired - before.deadline_expired;
  outcome.stats.per_shard_requests.resize(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    outcome.stats.per_shard_requests[s] =
        after.per_shard_requests[s] - before.per_shard_requests[s];
  }
  outcome.stats.wall_ms = timer.ElapsedMillis();
  if (span.recording()) {
    span.Annotate("retries", static_cast<double>(outcome.stats.retries));
    span.Annotate("degraded", static_cast<double>(outcome.stats.degraded));
  }
  m_batch_ms->Observe(outcome.stats.wall_ms);
  return outcome;
}

ShardedStats ShardedMeasureService::stats() const {
  ShardedStats s;
  s.requests = total_requests_.load(std::memory_order_relaxed);
  s.attempts = total_attempts_.load(std::memory_order_relaxed);
  s.retries = total_retries_.load(std::memory_order_relaxed);
  s.transient_failures =
      total_transient_failures_.load(std::memory_order_relaxed);
  s.degraded = total_degraded_.load(std::memory_order_relaxed);
  s.failures = total_failures_.load(std::memory_order_relaxed);
  s.deadline_expired =
      total_deadline_expired_.load(std::memory_order_relaxed);
  s.per_shard_requests.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    s.per_shard_requests[i] =
        per_shard_requests_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace mudb::service
