// Deterministic fault injection for the in-process shard fabric.
//
// The sharded router's protocol — routing, retry, backoff, deadline,
// degradation — must be proven correct without real networking, so faults
// are injected at the shard transport seam (shard_transport.h) from a
// seeded schedule instead of from real failures. Two fault sources compose:
//
//   * a *seeded random schedule*: shard s's i-th transport call consults a
//     decision that is a pure function of (seed, s, i) — per-call transient
//     kUnavailable with probability `unavailable_rate`, and latency spikes
//     with probability `latency_rate`. Replaying a run with the same seed
//     and per-shard call orders replays the exact fault sequence;
//   * *explicit controls* for targeted tests: FailNext(shard, k) makes the
//     next k calls on a shard fail, SetDown(shard) fails every call until
//     cleared — the "shard crashed / shard rebooted" story.
//
// What fault injection can never do: change result bits. Faults live
// entirely outside the shard services, so a request that ultimately succeeds
// (directly, after retries, or via degradation) returns the same bitwise
// result as a run with no faults at all — the chaos test
// (sharded_service_test.cc) hard-asserts this across schedules.
//
// Thread-safety: per-shard state under a per-shard mutex; safe for
// concurrent Decide calls from any number of router threads. With
// concurrent callers the assignment of schedule positions to requests
// follows arrival order at the shard — the schedule itself stays fixed.

#ifndef MUDB_SRC_SERVICE_FAULT_INJECTOR_H_
#define MUDB_SRC_SERVICE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/util/rng.h"

namespace mudb::service {

struct FaultInjectorOptions {
  /// Root seed of the per-shard decision streams (shard s draws from
  /// Rng(seed).Split(s), so schedules are independent across shards).
  uint64_t seed = 1;
  /// Probability that a call fails with transient kUnavailable.
  double unavailable_rate = 0.0;
  /// Probability that a call is delayed by `latency_spike_ms` first. A
  /// delayed call can still fail: the draws are independent.
  double latency_rate = 0.0;
  /// Injected delay per latency spike.
  double latency_spike_ms = 1.0;
};

class FaultInjector {
 public:
  /// What the transport must do with one call.
  struct Decision {
    /// Fail this call with kUnavailable instead of delivering it.
    bool fail = false;
    /// Sleep this long before delivering (or failing) the call.
    double latency_ms = 0.0;
  };

  FaultInjector(int num_shards, const FaultInjectorOptions& options);

  /// The decision for the next call on `shard`. Thread-safe.
  Decision Decide(int shard);

  /// The next `k` calls on `shard` fail with kUnavailable (on top of the
  /// random schedule; explicit controls are consulted first).
  void FailNext(int shard, int k);
  /// While down, every call on `shard` fails. Models a crashed shard; clear
  /// with `down = false` to model its recovery.
  void SetDown(int shard, bool down);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Total calls failed / delayed so far (all shards).
  int64_t injected_failures() const {
    return injected_failures_.load(std::memory_order_relaxed);
  }
  int64_t injected_latency_spikes() const {
    return injected_latency_spikes_.load(std::memory_order_relaxed);
  }

 private:
  struct ShardState {
    std::mutex mu;
    util::Rng rng{0};    // per-shard decision stream; guarded by mu
    int fail_next = 0;   // guarded by mu
    bool down = false;   // guarded by mu
  };

  FaultInjectorOptions options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::atomic<int64_t> injected_failures_{0};
  std::atomic<int64_t> injected_latency_spikes_{0};
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_FAULT_INJECTOR_H_
