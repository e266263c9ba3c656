// Chaos and concurrency tests for ShardedMeasureService: the determinism
// contract under faults (every successful estimate is bit-identical to the
// unsharded service across fault schedules × router thread counts × shard
// counts), terminal-failure classification under the retryable/permanent
// taxonomy, deadline expiry (kDeadlineExceeded, never a hang), content-pure
// routing, and per-shard memo hygiene (a mid-batch fault never poisons a
// sibling's memoization; errors are never memoized).
//
// This suite runs under TSan in CI; the chaos matrix shrinks its seed count
// there to keep the run bounded while every matrix cell stays covered.

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/constraints/real_formula.h"
#include "src/measure/measure.h"
#include "src/poly/polynomial.h"
#include "src/service/fault_injector.h"
#include "src/service/measure_service.h"
#include "src/service/request_key.h"
#include "src/service/sharded_service.h"
#include "src/util/deadline.h"
#include "src/util/status.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MUDB_TSAN 1
#endif
#endif
#if !defined(MUDB_TSAN) && defined(__SANITIZE_THREAD__)
#define MUDB_TSAN 1
#endif

namespace mudb::service {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using measure::MeasureOptions;
using measure::MeasureResult;
using measure::Method;
using poly::Polynomial;

Polynomial Z(int i) { return Polynomial::Variable(i); }
Polynomial C(double c) { return Polynomial::Constant(c); }

// 3-D positive orthant: cheap single-body FPRAS.
RealFormula Orthant3D() {
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  return RealFormula::And(std::move(parts));
}

// Tilted halfspace: one body, distinct content per (c0, c1, c2).
RealFormula Halfspace3D(double c0, double c1, double c2) {
  return RealFormula::Cmp(C(c0) * Z(0) + C(c1) * Z(1) + C(c2) * Z(2) - C(1),
                          CmpOp::kLt);
}

// 2-D orthant: exact path under kAuto, no sampling at all.
RealFormula Orthant2D() {
  std::vector<RealFormula> parts;
  parts.push_back(RealFormula::Cmp(-Z(0), CmpOp::kLt));
  parts.push_back(RealFormula::Cmp(-Z(1), CmpOp::kLt));
  return RealFormula::And(std::move(parts));
}

MeasureOptions Opts(Method method, double epsilon, uint64_t seed) {
  MeasureOptions o;
  o.method = method;
  o.epsilon = epsilon;
  o.seed = seed;
  return o;
}

// The chaos battery: cheap but heterogeneous (sampling + exact paths,
// repeated content, distinct seeds) so requests spread across shards and a
// repeated entry exercises the shard memo.
std::vector<MeasureRequest> ChaosBattery() {
  std::vector<MeasureRequest> reqs;
  reqs.push_back(MeasureRequest::Nu(Orthant3D(), Opts(Method::kFpras, 0.5, 31)));
  reqs.push_back(
      MeasureRequest::Nu(Halfspace3D(1, 1, 1), Opts(Method::kFpras, 0.5, 32)));
  reqs.push_back(
      MeasureRequest::Nu(Halfspace3D(2, 1, 1), Opts(Method::kFpras, 0.5, 33)));
  reqs.push_back(MeasureRequest::Nu(Orthant2D(), Opts(Method::kAuto, 0.1, 34)));
  // Same content as request 0: must land on the same shard and may memoize.
  reqs.push_back(MeasureRequest::Nu(Orthant3D(), Opts(Method::kFpras, 0.5, 31)));
  // Same formula, different seed: distinct content, never conflated.
  reqs.push_back(MeasureRequest::Nu(Orthant3D(), Opts(Method::kFpras, 0.5, 35)));
  return reqs;
}

std::vector<MeasureResult> UnshardedBaseline(
    const std::vector<MeasureRequest>& reqs) {
  std::vector<MeasureResult> out;
  for (const MeasureRequest& req : reqs) {
    auto r = measure::ComputeNu(*req.formula, req.options);
    EXPECT_TRUE(r.ok()) << r.status();
    out.push_back(*r);
  }
  return out;
}

void ExpectBitIdentical(const MeasureResult& got, const MeasureResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.value, want.value) << label;
  EXPECT_EQ(got.ci_lo, want.ci_lo) << label;
  EXPECT_EQ(got.ci_hi, want.ci_hi) << label;
  EXPECT_EQ(got.method_used, want.method_used) << label;
  EXPECT_EQ(got.is_exact, want.is_exact) << label;
}

// ---- Routing ---------------------------------------------------------------

TEST(ShardedServiceTest, RoutingIsAPureFunctionOfRequestContent) {
  ShardedServiceOptions opts;
  opts.num_shards = 4;
  ShardedMeasureService a(opts);
  ShardedMeasureService b(opts);
  std::vector<MeasureRequest> reqs = ChaosBattery();
  bool spread = false;
  int first = -1;
  for (const MeasureRequest& req : reqs) {
    convex::CanonicalBodyKey signature =
        RequestSignature(*req.formula, req.options);
    int shard = a.ShardFor(signature);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 4);
    // Routing depends on the service only through num_shards.
    EXPECT_EQ(shard, b.ShardFor(signature));
    if (first < 0) first = shard;
    spread = spread || shard != first;
  }
  // Identical content routes identically (requests 0 and 4 share content).
  EXPECT_EQ(a.ShardFor(RequestSignature(*reqs[0].formula, reqs[0].options)),
            a.ShardFor(RequestSignature(*reqs[4].formula, reqs[4].options)));
  // The battery reaches more than one shard, so the matrix below actually
  // exercises cross-shard traffic.
  EXPECT_TRUE(spread);
}

// ---- The chaos matrix ------------------------------------------------------

// Fault schedules × router threads × shard counts, with degradation on:
// every request must succeed, and every result must be bit-identical to the
// unsharded baseline no matter which shard served it, how many retries it
// took, or whether the router degraded to a local recompute.
TEST(ShardedServiceTest, ChaosMatrixPreservesBitIdentityOfSuccesses) {
#ifdef MUDB_TSAN
  constexpr uint64_t kSchedules = 5;
#else
  constexpr uint64_t kSchedules = 20;
#endif
  std::vector<MeasureRequest> reqs = ChaosBattery();
  std::vector<MeasureResult> baseline = UnshardedBaseline(reqs);

  for (int threads : {1, 2, 8}) {
    for (int shards : {1, 2, 4}) {
      for (uint64_t schedule = 1; schedule <= kSchedules; ++schedule) {
        ShardedServiceOptions opts;
        opts.num_shards = shards;
        opts.router_threads = threads;
        opts.retry.max_attempts = 3;
        opts.retry.backoff.initial_ms = 0.01;
        opts.retry.backoff.max_ms = 0.05;
        opts.degrade = DegradeMode::kLocalRecompute;
        FaultInjectorOptions faults;
        faults.seed = schedule;
        faults.unavailable_rate = 0.2;
        faults.latency_rate = 0.1;
        faults.latency_spike_ms = 0.01;
        opts.faults = faults;

        ShardedMeasureService service(opts);
        auto outcome = service.RunBatch(ChaosBattery());
        ASSERT_EQ(outcome.results.size(), baseline.size());
        const std::string cell = "threads=" + std::to_string(threads) +
                                 " shards=" + std::to_string(shards) +
                                 " schedule=" + std::to_string(schedule);
        for (size_t i = 0; i < baseline.size(); ++i) {
          ASSERT_TRUE(outcome.results[i].ok())
              << cell << " request " << i << ": "
              << outcome.results[i].status();
          ExpectBitIdentical(outcome.results[i]->result, baseline[i],
                             cell + " request " + std::to_string(i));
        }
        EXPECT_EQ(outcome.stats.requests,
                  static_cast<int64_t>(baseline.size()));
        EXPECT_EQ(outcome.stats.failures, 0) << cell;
        // Every request is accounted to exactly one shard.
        int64_t routed = 0;
        for (int64_t n : outcome.stats.per_shard_requests) routed += n;
        EXPECT_EQ(routed, outcome.stats.requests) << cell;
      }
    }
  }
}

// With degradation off and an aggressive schedule, requests may fail — and
// every failure must classify correctly: transient kUnavailable, retryable,
// with the attempt budget recorded. Successes stay bit-identical.
TEST(ShardedServiceTest, ChaosFailuresClassifyAsRetryableTransients) {
#ifdef MUDB_TSAN
  constexpr uint64_t kSchedules = 5;
#else
  constexpr uint64_t kSchedules = 20;
#endif
  std::vector<MeasureRequest> reqs = ChaosBattery();
  std::vector<MeasureResult> baseline = UnshardedBaseline(reqs);

  int64_t failures_seen = 0;
  for (uint64_t schedule = 1; schedule <= kSchedules; ++schedule) {
    ShardedServiceOptions opts;
    opts.num_shards = 2;
    opts.router_threads = 4;
    opts.retry.max_attempts = 2;
    opts.retry.backoff.initial_ms = 0.01;
    opts.retry.backoff.max_ms = 0.05;
    opts.degrade = DegradeMode::kNone;
    FaultInjectorOptions faults;
    faults.seed = schedule;
    faults.unavailable_rate = 0.6;
    opts.faults = faults;

    ShardedMeasureService service(opts);
    auto outcome = service.RunBatch(ChaosBattery());
    for (size_t i = 0; i < outcome.results.size(); ++i) {
      if (outcome.results[i].ok()) {
        ExpectBitIdentical(outcome.results[i]->result, baseline[i],
                           "schedule " + std::to_string(schedule) +
                               " request " + std::to_string(i));
        continue;
      }
      ++failures_seen;
      const util::Status& status = outcome.results[i].status();
      EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
      EXPECT_TRUE(status.IsRetryable());
      EXPECT_EQ(status.context().attempts, 2);
      EXPECT_GE(status.context().shard_id, 0);
      EXPECT_NE(status.message().find("req:"), std::string::npos);
    }
  }
  // At 60% per-call fault rate and 2 attempts, P(fail) = 0.36 per request:
  // the matrix cannot plausibly complete without terminal failures.
  EXPECT_GT(failures_seen, 0);
}

// Two client threads share one faulty fabric: RunBatch admits one batch at
// a time, so each batch's stats delta is exactly its own, and every OK
// result is still bit-identical to the unsharded baseline.
TEST(ShardedServiceTest, ConcurrentBatchesMatchUnsharded) {
  std::vector<MeasureRequest> reqs = ChaosBattery();
  std::vector<MeasureResult> baseline = UnshardedBaseline(reqs);

  ShardedServiceOptions opts;
  opts.num_shards = 2;
  opts.router_threads = 2;
  opts.retry.max_attempts = 3;
  opts.retry.backoff.initial_ms = 0.01;
  opts.retry.backoff.max_ms = 0.05;
  FaultInjectorOptions faults;
  faults.seed = 7;
  faults.unavailable_rate = 0.2;
  opts.faults = faults;
  ShardedMeasureService service(opts);

  constexpr int kClients = 2;
  constexpr int kBatchesPerClient = 3;
  std::vector<std::vector<ShardedMeasureService::BatchOutcome>> outcomes(
      kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int b = 0; b < kBatchesPerClient; ++b) {
        outcomes[static_cast<size_t>(c)].push_back(
            service.RunBatch(ChaosBattery()));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int64_t ok = 0;
  for (int c = 0; c < kClients; ++c) {
    for (const auto& outcome : outcomes[static_cast<size_t>(c)]) {
      ASSERT_EQ(outcome.results.size(), baseline.size());
      EXPECT_EQ(outcome.stats.requests,
                static_cast<int64_t>(baseline.size()));
      for (size_t i = 0; i < baseline.size(); ++i) {
        if (!outcome.results[i].ok()) continue;
        ++ok;
        ExpectBitIdentical(outcome.results[i]->result, baseline[i],
                           "client " + std::to_string(c) + " request " +
                               std::to_string(i));
      }
    }
  }
  EXPECT_GT(ok, 0);
}

// ---- Deadlines -------------------------------------------------------------

TEST(ShardedServiceTest, ExpiredDeadlineReturnsDeadlineExceededNotAHang) {
  ShardedMeasureService service(ShardedServiceOptions{});
  util::StatusOr<ShardedResponse> response =
      service.Call(MeasureRequest::Nu(Orthant3D(),
                                      Opts(Method::kFpras, 0.5, 41)),
                   util::Deadline::After(0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.status().context().attempts, 0);
  EXPECT_EQ(service.stats().deadline_expired, 1);
}

TEST(ShardedServiceTest, DeadlineExpiryDuringRetriesCompletesWait) {
  // A permanently down shard with an effectively unbounded retry budget:
  // only the deadline can end the request, and Call must still return.
  ShardedServiceOptions opts;
  opts.num_shards = 1;
  opts.retry.max_attempts = 1000000;
  opts.retry.backoff.initial_ms = 1.0;
  opts.retry.backoff.max_ms = 2.0;
  opts.degrade = DegradeMode::kLocalRecompute;  // unreachable past expiry
  opts.faults = FaultInjectorOptions{};
  ShardedMeasureService service(opts);
  service.fault_injector()->SetDown(0, true);

  util::StatusOr<ShardedResponse> response =
      service.Call(MeasureRequest::Nu(Orthant3D(),
                                      Opts(Method::kFpras, 0.5, 42)),
                   util::Deadline::After(25.0));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_GT(response.status().context().attempts, 0);
  EXPECT_EQ(service.stats().deadline_expired, 1);
}

// ---- Memo hygiene under faults ---------------------------------------------

TEST(ShardedServiceTest, MidBatchFaultDoesNotPoisonSiblingMemoization) {
  std::vector<MeasureRequest> reqs = ChaosBattery();
  std::vector<MeasureResult> baseline = UnshardedBaseline(reqs);

  ShardedServiceOptions opts;
  opts.num_shards = 2;
  opts.retry.max_attempts = 3;
  opts.retry.backoff.initial_ms = 0.01;
  opts.retry.backoff.max_ms = 0.05;
  opts.faults = FaultInjectorOptions{};  // zero rates: targeted faults only
  ShardedMeasureService service(opts);

  // Two transient failures mid-batch on the busier shard: the affected
  // requests retry and land; every sibling is untouched.
  std::vector<int> per_shard(2, 0);
  for (const MeasureRequest& req : reqs) {
    ++per_shard[static_cast<size_t>(
        service.ShardFor(RequestSignature(*req.formula, req.options)))];
  }
  const int target = per_shard[0] >= per_shard[1] ? 0 : 1;
  ASSERT_GE(per_shard[static_cast<size_t>(target)], 2);
  service.fault_injector()->FailNext(target, 2);
  auto first = service.RunBatch(ChaosBattery());
  for (size_t i = 0; i < first.results.size(); ++i) {
    ASSERT_TRUE(first.results[i].ok()) << first.results[i].status();
    ExpectBitIdentical(first.results[i]->result, baseline[i],
                       "first batch request " + std::to_string(i));
  }
  EXPECT_EQ(first.stats.transient_failures, 2);
  EXPECT_EQ(first.stats.failures, 0);

  // The identical batch again, fault-free: every request was delivered and
  // memoized on its shard during the faulty batch, so the rerun is pure
  // replay — and still bit-identical.
  int64_t hits_before = 0;
  for (int s = 0; s < service.num_shards(); ++s) {
    hits_before += service.shard(s).lifetime_stats().request_cache_hits;
  }
  auto second = service.RunBatch(ChaosBattery());
  for (size_t i = 0; i < second.results.size(); ++i) {
    ASSERT_TRUE(second.results[i].ok()) << second.results[i].status();
    ExpectBitIdentical(second.results[i]->result, baseline[i],
                       "second batch request " + std::to_string(i));
  }
  int64_t hits_after = 0;
  for (int s = 0; s < service.num_shards(); ++s) {
    hits_after += service.shard(s).lifetime_stats().request_cache_hits;
  }
  EXPECT_EQ(hits_after - hits_before,
            static_cast<int64_t>(second.results.size()));
}

TEST(ShardedServiceTest, TerminalErrorsAreNeverMemoized) {
  auto baseline = measure::ComputeNu(Orthant3D(), Opts(Method::kFpras,
                                                       0.5, 43));
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  ShardedServiceOptions opts;
  opts.num_shards = 1;
  opts.retry.max_attempts = 2;
  opts.retry.backoff.initial_ms = 0.01;
  opts.retry.backoff.max_ms = 0.05;
  opts.degrade = DegradeMode::kNone;
  opts.faults = FaultInjectorOptions{};
  ShardedMeasureService service(opts);

  // Exhaust the retry budget: the request fails terminally, and nothing is
  // memoized anywhere (the fault struck before the shard ever ran it).
  service.fault_injector()->FailNext(0, opts.retry.max_attempts);
  MeasureRequest failing =
      MeasureRequest::Nu(Orthant3D(), Opts(Method::kFpras, 0.5, 43));
  util::StatusOr<ShardedResponse> failed =
      service.Call(std::move(failing));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(service.shard(0).result_cache_stats().entries, 0);

  // The identical request after recovery: a fresh, successful compute with
  // the exact unsharded bits — no poisoned cache entry to collide with.
  util::StatusOr<ShardedResponse> response =
      service.Call(
          MeasureRequest::Nu(Orthant3D(), Opts(Method::kFpras, 0.5, 43)));
  ASSERT_TRUE(response.ok()) << response.status();
  ExpectBitIdentical(response->result, *baseline, "post-recovery");
  EXPECT_EQ(service.shard(0).result_cache_stats().entries, 1);
}

// ---- Permanent errors ------------------------------------------------------

TEST(ShardedServiceTest, DegenerateOptionsFailIdenticallyToTheDirectPath) {
  // Validation runs once at the router boundary, before any shard or fault
  // is involved: same code and byte-identical message as the direct API,
  // no retries burned, no shard attribution.
  RealFormula f = Orthant3D();
  MeasureOptions bad = Opts(Method::kFpras, 0.0, 5);
  auto direct = measure::ComputeNu(f, bad);
  ASSERT_FALSE(direct.ok());

  ShardedServiceOptions opts;
  opts.faults = FaultInjectorOptions{};
  ShardedMeasureService service(opts);
  util::StatusOr<ShardedResponse> served =
      service.Call(MeasureRequest::Nu(f, bad));
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), direct.status().code());
  EXPECT_EQ(served.status().message(), direct.status().message());
  EXPECT_FALSE(served.status().IsRetryable());
  EXPECT_EQ(service.stats().attempts, 0);
}

TEST(ShardedServiceTest, MalformedRequestIsAPermanentError) {
  ShardedMeasureService service{ShardedServiceOptions{}};
  MeasureRequest empty;  // neither formula nor (query, db)
  util::StatusOr<ShardedResponse> response =
      service.Call(std::move(empty));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(response.status().IsRetryable());
}

}  // namespace
}  // namespace mudb::service
