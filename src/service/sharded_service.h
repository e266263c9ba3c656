// ShardedMeasureService: fault-tolerant sharded serving, in-process.
//
// One MeasureService is single-node. The caches underneath it are already
// content-addressed (128-bit canonical/raw keys) — the hard part of
// sharding — so this layer adds the *protocol*: a router that partitions
// requests across N shard services by canonical request signature, a shard
// transport seam with deterministic fault injection (shard_transport.h,
// fault_injector.h), a retry policy (capped exponential backoff with
// deterministic jitter from the request's RNG substream, util/backoff.h),
// per-request deadlines (util/deadline.h), and graceful degradation when a
// shard keeps failing. Everything runs in-process on purpose: the protocol
// is proven correct and bit-deterministic here before any real networking
// exists, and a network transport later slots into the same seam.
//
// Threading: Call routes one request on the caller's thread. RunBatch runs
// Call over the batch on a util::ThreadPool of router_threads (the calling
// thread included), so up to that many requests are in flight across the
// shards; each shard serves its requests one at a time on its own pool.
// Pool jobs adopt the submitter's span context, so every request's spans
// parent under the batch span.
//
// Routing: shard = signature mod N, where the signature is the canonical
// content key of (grounded formula, options) from request_key.h. Routing by
// content (never by arrival order or a round-robin counter) means a
// repeated request always lands on the shard that already memoized it, and
// the assignment is a pure function of the request.
//
// Failure handling, layered by the retryable-vs-permanent taxonomy
// (util/status.h):
//   * permanent errors (invalid options, malformed request, infeasible
//     engine input) return immediately — retrying identical content cannot
//     help;
//   * transient errors (kUnavailable from the transport, kResourceExhausted,
//     kAborted) are retried up to RetryPolicy::max_attempts with capped
//     exponential backoff; the jitter stream is a pure function of the
//     request seed, so a request's delay schedule is reproducible;
//   * the per-request deadline is checked between attempts; expiry returns
//     kDeadlineExceeded (never a hang — Call always returns);
//   * when retries are exhausted and the deadline still has budget, the
//     router degrades instead of failing: re-execute locally
//     (kLocalRecompute) or serve a coarser-ε interval (kCoarsenEpsilon,
//     ε scaled by `coarsen_factor`). Degraded responses are stamped
//     (ShardedResponse::degraded / degraded_epsilon) so callers can tell.
//
// Determinism contract (the fabric corollary): every request that
// ultimately succeeds returns a result that is a bitwise-pure function of
// its cache key — independent of which shard computed it, how many retries
// occurred, and what fault schedule ran. Non-degraded and kLocalRecompute
// responses are bit-identical to the unsharded MeasureService; a
// kCoarsenEpsilon response is bit-identical to the unsharded service
// evaluating the same request at the stamped coarser ε. The chaos test
// (sharded_service_test.cc) hard-asserts this across randomized fault
// schedules × thread counts × shard counts.
//
// Error attribution: terminal failures carry the request-signature prefix,
// the shard id, and the attempt count — in the message and in the
// structured util::StatusContext payload (service_errors.h).

#ifndef MUDB_SRC_SERVICE_SHARDED_SERVICE_H_
#define MUDB_SRC_SERVICE_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/convex/canonical.h"
#include "src/measure/measure.h"
#include "src/service/fault_injector.h"
#include "src/service/measure_service.h"
#include "src/service/shard_transport.h"
#include "src/util/backoff.h"
#include "src/util/deadline.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace mudb::service {

/// Retry knobs for transient delivery failures.
struct RetryPolicy {
  /// Total delivery attempts per request (first try included). 1 = never
  /// retry.
  int max_attempts = 4;
  /// Backoff between attempts (capped exponential, deterministic jitter).
  util::BackoffPolicy backoff;
};

/// What the router serves when a shard keeps failing but the deadline still
/// has budget.
enum class DegradeMode {
  /// No fallback: exhausted retries surface the last transient error.
  kNone,
  /// Re-execute the request locally in the router, full precision. Bitwise
  /// the unsharded result; costs router CPU (no shard cache reuse).
  kLocalRecompute,
  /// Re-execute locally at ε · coarsen_factor: a cheaper, wider interval —
  /// the "serve a coarser answer instead of queueing" overload story. The
  /// served ε is stamped in ShardedResponse::degraded_epsilon.
  kCoarsenEpsilon,
};

struct ShardedServiceOptions {
  /// Shard count (>= 1).
  int num_shards = 4;
  /// Options for every shard service (its thread count). The router
  /// overrides shard_id per shard; results are bit-identical for any
  /// num_threads by the underlying contract.
  ServiceOptions shard_options;
  /// Threads RunBatch routes on, its caller included (0 = 2 · num_shards,
  /// clamped to [1, 16]). Bounds in-flight requests; never affects result
  /// bits.
  int router_threads = 0;
  RetryPolicy retry;
  DegradeMode degrade = DegradeMode::kLocalRecompute;
  /// ε multiplier for DegradeMode::kCoarsenEpsilon (> 1; the result is
  /// clamped to ε <= 1).
  double coarsen_factor = 2.0;
  /// When set, every delivery goes through a FaultInjectingTransport with
  /// this schedule (chaos testing / benches). Unset = clean transport.
  std::optional<FaultInjectorOptions> faults;
};

/// One routed result plus its delivery metadata.
struct ShardedResponse {
  measure::MeasureResult result;
  /// Shard that produced the result; -1 when degradation computed it
  /// locally in the router.
  int shard = -1;
  /// Delivery attempts consumed (1 = first try succeeded).
  int attempts = 1;
  /// True when the response was served by degradation after retries were
  /// exhausted; `result` is then the local (possibly coarser-ε) evaluation.
  bool degraded = false;
  /// The coarsened ε served under kCoarsenEpsilon (0 otherwise).
  double degraded_epsilon = 0.0;
  /// Flight-recorder handle: trace id of this request's span tree when
  /// tracing was enabled (obs::CollectTrace fetches it), 0 otherwise.
  /// Delivery metadata only — never part of `result`.
  uint64_t trace_id = 0;
};

/// Router accounting. Snapshot via stats(); all counters are lifetime
/// totals (RunBatch reports the per-batch delta).
struct ShardedStats {
  int64_t requests = 0;
  /// Transport calls issued (>= requests; retries add calls).
  int64_t attempts = 0;
  /// Attempts beyond each request's first.
  int64_t retries = 0;
  /// Retryable failures observed from the transport.
  int64_t transient_failures = 0;
  /// Responses served via degradation.
  int64_t degraded = 0;
  /// Terminal non-OK responses.
  int64_t failures = 0;
  /// Requests that terminated with kDeadlineExceeded.
  int64_t deadline_expired = 0;
  /// Requests routed to each shard (index = shard id).
  std::vector<int64_t> per_shard_requests;
  /// Wall time of the batch (RunBatch only).
  double wall_ms = 0.0;
};

class ShardedMeasureService {
 public:
  /// Builds num_shards in-process MeasureService shards and the transport
  /// stack (fault-injecting when options.faults is set). `transport`, when
  /// given, replaces the built-in stack (testing seam; borrowed, must
  /// outlive the service, and its num_shards() must match).
  explicit ShardedMeasureService(const ShardedServiceOptions& options = {},
                                 ShardTransport* transport = nullptr);

  ShardedMeasureService(const ShardedMeasureService&) = delete;
  ShardedMeasureService& operator=(const ShardedMeasureService&) = delete;

  /// Routes one request on the calling thread: grounds it, delivers it to
  /// its shard with retries, and degrades when retries run out. Never
  /// hangs on expiry: a request whose deadline passes returns
  /// kDeadlineExceeded. Thread-safe.
  util::StatusOr<ShardedResponse> Call(
      MeasureRequest request,
      util::Deadline deadline = util::Deadline::Infinite());

  /// Calls every request (no deadline) on the router pool and reports the
  /// stats delta. Results are positionally aligned with `requests`.
  /// Thread-safe; concurrent batches run one at a time.
  struct BatchOutcome {
    std::vector<util::StatusOr<ShardedResponse>> results;
    ShardedStats stats;
  };
  BatchOutcome RunBatch(std::vector<MeasureRequest> requests);

  /// The shard a signature routes to: fp.hi mod num_shards (pure function
  /// of the content key; exposed for tests and benches).
  int ShardFor(const convex::CanonicalBodyKey& signature) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// The shard services (cache introspection in tests).
  MeasureService& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  /// The owned injector when options.faults was set (nullptr otherwise);
  /// tests use it for targeted FailNext / SetDown control.
  FaultInjector* fault_injector() { return injector_.get(); }

  ShardedStats stats() const;

 private:
  util::StatusOr<ShardedResponse> Degrade(
      const MeasureRequest& request,
      const convex::CanonicalBodyKey& signature, int shard, int attempts,
      util::Status last_error, const util::Deadline& deadline);

  ShardedServiceOptions options_;
  std::vector<std::unique_ptr<MeasureService>> shards_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<InProcessShardTransport> in_process_;
  std::unique_ptr<FaultInjectingTransport> faulty_;
  ShardTransport* transport_;  // the top of the stack (or the external one)

  std::mutex batch_mu_;  // held by RunBatch: one router_pool_ submitter
  util::ThreadPool router_pool_;

  std::atomic<int64_t> total_requests_{0};
  std::atomic<int64_t> total_attempts_{0};
  std::atomic<int64_t> total_retries_{0};
  std::atomic<int64_t> total_transient_failures_{0};
  std::atomic<int64_t> total_degraded_{0};
  std::atomic<int64_t> total_failures_{0};
  std::atomic<int64_t> total_deadline_expired_{0};
  std::unique_ptr<std::atomic<int64_t>[]> per_shard_requests_;
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_SHARDED_SERVICE_H_
