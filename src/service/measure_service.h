// MeasureService: the measurement serving layer.
//
// Real workloads evaluate the paper's μ(q, D, (a,s)) for *many* candidate
// tuples over one database, and those requests share almost all of their
// constraint geometry. The service amortizes that sharing:
//
//   * every grounded constraint system is canonicalized into
//     content-addressed keys (convex/canonical.h), and identical convex
//     bodies are deduplicated within and across requests through a sharded,
//     size-bounded EstimateCache — each unique body is sampled once per
//     (ε tier, seed path), then every later occurrence is a cache hit;
//   * whole results are memoized by request signature (request_key.h), so a
//     repeated candidate skips sampling entirely;
//   * requests run synchronously on the caller's thread (Run, RunBatch),
//     one at a time per service, and each request's estimator samples on
//     the service's util::ThreadPool — the same parallel sampling runtime
//     the direct API uses.
//
// Determinism contract: a batch of N requests returns results bit-identical
// to N sequential ComputeNu / ComputeMeasure calls with the same per-request
// options, for any thread count, any request order, any batch composition,
// any number of concurrent callers, and any cache state. This holds
// because every cached value is a pure function of its key (see
// estimate_cache.h) and requests are mutually independent.
// `service_test.cc` locks the contract in.
//
// Lifetimes: query-path requests borrow the Query/Database; keep them alive
// until the request's result is returned. The service owns its caches and
// its thread pool.

#ifndef MUDB_SRC_SERVICE_MEASURE_SERVICE_H_
#define MUDB_SRC_SERVICE_MEASURE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/constraints/real_formula.h"
#include "src/logic/formula.h"
#include "src/measure/measure.h"
#include "src/model/database.h"
#include "src/service/estimate_cache.h"
#include "src/service/request_key.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace mudb::service {

struct RankingOptions;  // ranking_service.h
struct RankingOutcome;

struct ServiceOptions {
  /// Worker threads for the estimators (0 or negative = all hardware
  /// threads). Results are bit-identical for any value.
  int num_threads = 1;
  /// Identity of this service inside a sharded fabric (sharded_service.h):
  /// >= 0 makes every error this service produces carry the shard id, both
  /// in the message and in the structured util::StatusContext payload, so
  /// batch failures are attributable. -1 (the default) = unsharded; error
  /// messages then stay byte-identical to the direct ComputeNu path.
  int shard_id = -1;
};

/// One measurement request: a pre-grounded formula, or a (query, database,
/// candidate) triple grounded by the service. Exactly one of the two forms.
struct MeasureRequest {
  /// Form 1: evaluate ν(formula).
  std::optional<constraints::RealFormula> formula;
  /// Form 2: evaluate μ(query, db, candidate). Borrowed, not owned.
  const logic::Query* query = nullptr;
  const model::Database* db = nullptr;
  model::Tuple candidate;
  /// Per-request engine options (method, ε/δ, seed, ...). The service fills
  /// in pool and body_cache; num_threads cannot change results.
  measure::MeasureOptions options;

  static MeasureRequest Nu(constraints::RealFormula f,
                           measure::MeasureOptions opts = {}) {
    MeasureRequest r;
    r.formula = std::move(f);
    r.options = opts;
    return r;
  }
  static MeasureRequest Mu(const logic::Query* q, const model::Database* d,
                           model::Tuple cand,
                           measure::MeasureOptions opts = {}) {
    MeasureRequest r;
    r.query = q;
    r.db = d;
    r.candidate = std::move(cand);
    r.options = opts;
    return r;
  }
};

/// Per-batch accounting, aggregated from MeasureResult /
/// FprasResult-derived counters of the requests the batch executed.
struct BatchStats {
  int64_t requests = 0;
  /// Requests answered from the result memo (zero sampling performed).
  int64_t request_cache_hits = 0;
  /// Unique-body volume estimates served by the body cache (executed
  /// requests only).
  int64_t body_cache_hits = 0;
  /// Convex bodies entering FPRAS unions, before / after canonical dedup.
  int64_t bodies = 0;
  int64_t unique_bodies = 0;
  /// Hit-and-run steps actually sampled by this batch.
  int64_t sampling_steps = 0;
  /// Direction samples drawn by AFPRAS-family engines in this batch.
  int64_t samples = 0;
  /// Wall time of the whole batch (submission to last result).
  double wall_ms = 0.0;
};

class MeasureService {
 public:
  explicit MeasureService(const ServiceOptions& options = {});

  MeasureService(const MeasureService&) = delete;
  MeasureService& operator=(const MeasureService&) = delete;

  /// Executes one request on the calling thread and returns its result.
  /// Thread-safe: concurrent callers are served one at a time, since the
  /// pool takes one submitter at a time.
  util::StatusOr<measure::MeasureResult> Run(const MeasureRequest& request);

  /// Runs every request in order and reports per-batch accounting. Results
  /// are positionally aligned with `requests` and bit-identical to
  /// sequential ComputeNu/ComputeMeasure calls with the same per-request
  /// options. The stats delta is attributed to this batch; attribute
  /// precisely by not interleaving concurrent Runs with a RunBatch call.
  struct BatchOutcome {
    std::vector<util::StatusOr<measure::MeasureResult>> results;
    BatchStats stats;
    /// Flight-recorder handle: the trace id of the batch's span tree when
    /// tracing was enabled (obs::CollectTrace(trace_id) fetches it), 0
    /// otherwise. Carries no result data — purely an index into obs.
    uint64_t trace_id = 0;
  };
  BatchOutcome RunBatch(std::vector<MeasureRequest> requests);

  /// Adaptive-precision top-k ranking over this service's caches: walks an
  /// ε-ladder, pruning candidates whose confidence interval falls below
  /// the k-th best, so most candidates never pay for the final precision.
  /// One batch per tier, run as a one-shot RankingSession (see
  /// ranking_service.h for the ladder, δ-split, and determinism contract;
  /// callers that re-rank as the database mutates should hold a session
  /// instead). Fails with InvalidArgument on malformed options (k < 1,
  /// non-decreasing ladder, ε/δ outside their ranges — every candidate's
  /// MeasureOptions is validated up front) and propagates the first
  /// failing candidate's status (lowest input index) if a request errors.
  util::StatusOr<RankingOutcome> RunTopK(
      std::vector<MeasureRequest> candidates, const RankingOptions& options);

  /// Cache introspection (cheap; safe to call any time).
  CacheStats body_cache_stats() const { return body_cache_.stats(); }
  int64_t body_cache_steps_saved() const { return body_cache_.steps_saved(); }
  CacheStats result_cache_stats() const { return result_cache_.stats(); }
  /// Lifetime totals over every request the service executed (the same
  /// counters BatchStats reports per batch).
  BatchStats lifetime_stats() const;

 private:
  /// A memoized result plus what it cost originally (replays are free).
  struct MemoEntry {
    measure::MeasureResult result;
  };

  util::StatusOr<measure::MeasureResult> Process(
      const MeasureRequest& request);
  /// Stamps the shard id onto pre-signature errors (validation, grounding)
  /// when this service runs inside a sharded fabric; pass-through when
  /// unsharded, keeping those messages byte-identical to the direct path.
  util::Status Attribute(util::Status status) const;

  ServiceOptions options_;
  std::mutex run_mu_;  // held by Run: one pool submitter at a time
  util::ThreadPool pool_;
  EstimateCache body_cache_;
  ShardedLruCache<MemoEntry> result_cache_;

  // Lifetime counters, written under run_mu_, read lock-free.
  std::atomic<int64_t> total_requests_{0};
  std::atomic<int64_t> total_request_cache_hits_{0};
  std::atomic<int64_t> total_body_cache_hits_{0};
  std::atomic<int64_t> total_bodies_{0};
  std::atomic<int64_t> total_unique_bodies_{0};
  std::atomic<int64_t> total_sampling_steps_{0};
  std::atomic<int64_t> total_samples_{0};
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_MEASURE_SERVICE_H_
