// Tests for the deterministic fault-injection seam (src/service/): the
// seeded FaultInjector schedule (reproducible per seed, independent per
// shard, unshifted by explicit controls), the FaultInjectingTransport
// decorator (retryable classification, shard attribution, pass-through on
// clean calls), and the router's retry/degradation behavior driven through
// targeted FailNext / SetDown faults.

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/constraints/real_formula.h"
#include "src/measure/measure.h"
#include "src/poly/polynomial.h"
#include "src/service/fault_injector.h"
#include "src/service/measure_service.h"
#include "src/service/shard_transport.h"
#include "src/service/sharded_service.h"
#include "src/util/status.h"

namespace mudb::service {
namespace {

using constraints::CmpOp;
using constraints::RealFormula;
using measure::MeasureOptions;
using measure::MeasureResult;
using measure::Method;
using poly::Polynomial;

// ---- FaultInjector schedule ------------------------------------------------

std::vector<FaultInjector::Decision> Drain(FaultInjector& injector, int shard,
                                           int n) {
  std::vector<FaultInjector::Decision> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(injector.Decide(shard));
  return out;
}

TEST(FaultInjectorTest, ScheduleIsAPureFunctionOfTheSeed) {
  FaultInjectorOptions opts;
  opts.seed = 7;
  opts.unavailable_rate = 0.3;
  opts.latency_rate = 0.2;
  opts.latency_spike_ms = 0.5;
  FaultInjector a(2, opts);
  FaultInjector b(2, opts);
  for (int shard = 0; shard < 2; ++shard) {
    std::vector<FaultInjector::Decision> da = Drain(a, shard, 64);
    std::vector<FaultInjector::Decision> db = Drain(b, shard, 64);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(da[static_cast<size_t>(i)].fail,
                db[static_cast<size_t>(i)].fail)
          << "shard " << shard << " call " << i;
      EXPECT_EQ(da[static_cast<size_t>(i)].latency_ms,
                db[static_cast<size_t>(i)].latency_ms);
    }
  }

  FaultInjectorOptions other = opts;
  other.seed = 8;
  FaultInjector c(2, opts);
  FaultInjector d(2, other);
  std::vector<FaultInjector::Decision> dc = Drain(c, 0, 64);
  std::vector<FaultInjector::Decision> dd = Drain(d, 0, 64);
  bool diverged = false;
  for (size_t i = 0; i < dc.size(); ++i) {
    diverged = diverged || dc[i].fail != dd[i].fail;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, ShardsHaveIndependentSchedules) {
  FaultInjectorOptions opts;
  opts.seed = 11;
  opts.unavailable_rate = 0.5;
  FaultInjector injector(2, opts);
  std::vector<FaultInjector::Decision> s0 = Drain(injector, 0, 64);
  std::vector<FaultInjector::Decision> s1 = Drain(injector, 1, 64);
  bool diverged = false;
  for (size_t i = 0; i < s0.size(); ++i) {
    diverged = diverged || s0[i].fail != s1[i].fail;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, ZeroRatesNeverFault) {
  FaultInjector injector(1, FaultInjectorOptions{});
  for (int i = 0; i < 100; ++i) {
    FaultInjector::Decision d = injector.Decide(0);
    EXPECT_FALSE(d.fail);
    EXPECT_EQ(d.latency_ms, 0.0);
  }
  EXPECT_EQ(injector.injected_failures(), 0);
  EXPECT_EQ(injector.injected_latency_spikes(), 0);
}

TEST(FaultInjectorTest, RateOneAlwaysFaults) {
  FaultInjectorOptions opts;
  opts.unavailable_rate = 1.0;
  opts.latency_rate = 1.0;
  opts.latency_spike_ms = 0.25;
  FaultInjector injector(1, opts);
  for (int i = 0; i < 10; ++i) {
    FaultInjector::Decision d = injector.Decide(0);
    EXPECT_TRUE(d.fail);
    EXPECT_EQ(d.latency_ms, 0.25);
  }
  EXPECT_EQ(injector.injected_failures(), 10);
  EXPECT_EQ(injector.injected_latency_spikes(), 10);
}

TEST(FaultInjectorTest, FailNextFailsExactlyK) {
  FaultInjector injector(2, FaultInjectorOptions{});
  injector.FailNext(0, 3);
  EXPECT_TRUE(injector.Decide(0).fail);
  EXPECT_TRUE(injector.Decide(0).fail);
  // The other shard is unaffected.
  EXPECT_FALSE(injector.Decide(1).fail);
  EXPECT_TRUE(injector.Decide(0).fail);
  EXPECT_FALSE(injector.Decide(0).fail);
  EXPECT_EQ(injector.injected_failures(), 3);
}

TEST(FaultInjectorTest, SetDownFailsUntilRecovery) {
  FaultInjector injector(1, FaultInjectorOptions{});
  injector.SetDown(0, true);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(injector.Decide(0).fail);
  injector.SetDown(0, false);
  EXPECT_FALSE(injector.Decide(0).fail);
}

TEST(FaultInjectorTest, ExplicitControlsDoNotShiftTheRandomSchedule) {
  FaultInjectorOptions opts;
  opts.seed = 19;
  opts.unavailable_rate = 0.4;
  opts.latency_rate = 0.4;
  opts.latency_spike_ms = 0.5;
  FaultInjector clean(1, opts);
  FaultInjector forced(1, opts);
  forced.FailNext(0, 5);
  std::vector<FaultInjector::Decision> a = Drain(clean, 0, 32);
  std::vector<FaultInjector::Decision> b = Drain(forced, 0, 32);
  for (size_t i = 0; i < a.size(); ++i) {
    // Latency draws are never overridden; fail decisions realign as soon as
    // the explicit faults are exhausted because every Decide consumes
    // exactly two draws.
    EXPECT_EQ(a[i].latency_ms, b[i].latency_ms) << "call " << i;
    if (i >= 5) {
      EXPECT_EQ(a[i].fail, b[i].fail) << "call " << i;
    } else {
      EXPECT_TRUE(b[i].fail);
    }
  }
}

// ---- FaultInjectingTransport -----------------------------------------------

/// Fake downstream transport: returns a recognizable fixed result and
/// counts deliveries, so tests can tell injected failures from delivered
/// calls without running an estimator.
class RecordingTransport : public ShardTransport {
 public:
  explicit RecordingTransport(int num_shards) : num_shards_(num_shards) {}

  util::StatusOr<measure::MeasureResult> Call(
      int shard, const MeasureRequest& request) override {
    (void)request;
    ++calls_;
    last_shard_ = shard;
    MeasureResult result;
    result.value = 0.625;
    result.is_exact = true;
    return result;
  }

  int num_shards() const override { return num_shards_; }
  int calls() const { return calls_; }
  int last_shard() const { return last_shard_; }

 private:
  int num_shards_;
  int calls_ = 0;
  int last_shard_ = -1;
};

TEST(FaultInjectingTransportTest, InjectedFailureIsRetryableAndAttributed) {
  RecordingTransport downstream(2);
  FaultInjector injector(2, FaultInjectorOptions{});
  FaultInjectingTransport transport(&downstream, &injector);
  injector.SetDown(1, true);

  MeasureRequest request;  // never delivered, content irrelevant
  util::StatusOr<MeasureResult> failed = transport.Call(1, request);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(failed.status().IsRetryable());
  EXPECT_EQ(failed.status().context().shard_id, 1);
  EXPECT_EQ(downstream.calls(), 0);  // the fault struck before delivery

  util::StatusOr<MeasureResult> delivered = transport.Call(0, request);
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(delivered->value, 0.625);
  EXPECT_EQ(downstream.calls(), 1);
  EXPECT_EQ(downstream.last_shard(), 0);
}

// ---- Router retry / degradation under targeted faults ----------------------

Polynomial Z(int i) { return Polynomial::Variable(i); }

// A 3-D positive orthant cone: cheap single-run FPRAS work.
RealFormula Orthant3D() {
  std::vector<RealFormula> parts;
  for (int i = 0; i < 3; ++i) {
    parts.push_back(RealFormula::Cmp(-Z(i), CmpOp::kLt));
  }
  return RealFormula::And(std::move(parts));
}

MeasureOptions CheapOpts(uint64_t seed) {
  MeasureOptions o;
  o.method = Method::kFpras;
  o.epsilon = 0.5;
  o.seed = seed;
  return o;
}

ShardedServiceOptions SingleShardOptions() {
  ShardedServiceOptions opts;
  opts.num_shards = 1;
  opts.retry.max_attempts = 3;
  opts.retry.backoff.initial_ms = 0.01;
  opts.retry.backoff.max_ms = 0.05;
  opts.faults = FaultInjectorOptions{};  // zero rates: targeted faults only
  return opts;
}

TEST(FaultRetryTest, TransientFaultsAreRetriedToABitIdenticalResult) {
  auto baseline = measure::ComputeNu(Orthant3D(), CheapOpts(21));
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  ShardedMeasureService service(SingleShardOptions());
  ASSERT_NE(service.fault_injector(), nullptr);
  service.fault_injector()->FailNext(0, 2);  // two failures, third try lands

  util::StatusOr<ShardedResponse> response =
      service.Call(MeasureRequest::Nu(Orthant3D(), CheapOpts(21)));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->attempts, 3);
  EXPECT_EQ(response->shard, 0);
  EXPECT_FALSE(response->degraded);
  EXPECT_EQ(response->result.value, baseline->value);
  EXPECT_EQ(response->result.ci_lo, baseline->ci_lo);
  EXPECT_EQ(response->result.ci_hi, baseline->ci_hi);

  ShardedStats stats = service.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.transient_failures, 2);
  EXPECT_EQ(stats.degraded, 0);
  EXPECT_EQ(stats.failures, 0);
}

TEST(FaultRetryTest, DownShardDegradesToLocalBitIdenticalRecompute) {
  auto baseline = measure::ComputeNu(Orthant3D(), CheapOpts(22));
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  ShardedServiceOptions opts = SingleShardOptions();
  opts.degrade = DegradeMode::kLocalRecompute;
  ShardedMeasureService service(opts);
  service.fault_injector()->SetDown(0, true);

  util::StatusOr<ShardedResponse> response =
      service.Call(MeasureRequest::Nu(Orthant3D(), CheapOpts(22)));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->shard, -1);
  EXPECT_EQ(response->attempts, opts.retry.max_attempts);
  EXPECT_EQ(response->degraded_epsilon, 0.0);
  EXPECT_EQ(response->result.value, baseline->value);
  EXPECT_EQ(response->result.ci_lo, baseline->ci_lo);
  EXPECT_EQ(response->result.ci_hi, baseline->ci_hi);
  EXPECT_EQ(service.stats().degraded, 1);
  EXPECT_EQ(service.stats().failures, 0);
}

TEST(FaultRetryTest, CoarsenEpsilonDegradationStampsTheServedEpsilon) {
  MeasureOptions request_opts = CheapOpts(23);
  ShardedServiceOptions opts = SingleShardOptions();
  opts.degrade = DegradeMode::kCoarsenEpsilon;
  opts.coarsen_factor = 1.5;

  MeasureOptions coarse = request_opts;
  coarse.epsilon = request_opts.epsilon * opts.coarsen_factor;
  auto baseline = measure::ComputeNu(Orthant3D(), coarse);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  ShardedMeasureService service(opts);
  service.fault_injector()->SetDown(0, true);
  util::StatusOr<ShardedResponse> response =
      service.Call(MeasureRequest::Nu(Orthant3D(), request_opts));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->degraded);
  EXPECT_EQ(response->degraded_epsilon, coarse.epsilon);
  EXPECT_EQ(response->result.value, baseline->value);
  EXPECT_EQ(response->result.ci_lo, baseline->ci_lo);
  EXPECT_EQ(response->result.ci_hi, baseline->ci_hi);
  EXPECT_EQ(response->result.epsilon_used, baseline->epsilon_used);
}

TEST(FaultRetryTest, NoDegradationSurfacesTheRetryableErrorWithContext) {
  ShardedServiceOptions opts = SingleShardOptions();
  opts.degrade = DegradeMode::kNone;
  ShardedMeasureService service(opts);
  service.fault_injector()->SetDown(0, true);

  util::StatusOr<ShardedResponse> response =
      service.Call(MeasureRequest::Nu(Orthant3D(), CheapOpts(24)));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), util::StatusCode::kUnavailable);
  EXPECT_TRUE(response.status().IsRetryable());
  EXPECT_EQ(response.status().context().shard_id, 0);
  EXPECT_EQ(response.status().context().attempts, opts.retry.max_attempts);
  // The terminal message names the request and the shard.
  EXPECT_NE(response.status().message().find("req:"), std::string::npos);
  EXPECT_NE(response.status().message().find("shard 0"), std::string::npos);

  ShardedStats stats = service.stats();
  EXPECT_EQ(stats.failures, 1);
  EXPECT_EQ(stats.transient_failures,
            static_cast<int64_t>(opts.retry.max_attempts));
}

}  // namespace
}  // namespace mudb::service
