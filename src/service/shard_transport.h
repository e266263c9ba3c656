// The shard transport seam of the sharded serving fabric.
//
// ShardedMeasureService (sharded_service.h) never talks to its shard
// services directly: every delivery goes through a ShardTransport, so the
// *protocol* — routing, retry on transient failure, deadlines, degradation
// — is written against an interface that an eventual network transport can
// implement, while today's implementations stay in-process:
//
//   * InProcessShardTransport delivers to a fixed set of MeasureService
//     shards (one MeasureService::Run per call, on the caller's thread);
//   * FaultInjectingTransport decorates any transport with a deterministic
//     FaultInjector: a call may be delayed (latency spike) and/or rejected
//     with a transient, retryable kUnavailable *before* it reaches the
//     shard — exactly where a network failure would strike, so the shard's
//     caches never observe the fault.
//
// Contract every implementation must keep: a call either returns the
// shard's result unchanged or a Status that classifies correctly under
// util::Status::IsRetryable() (transient delivery failures are retryable;
// the shard's own permanent errors pass through). Transports never mutate
// the request, so a retry delivers byte-identical content.

#ifndef MUDB_SRC_SERVICE_SHARD_TRANSPORT_H_
#define MUDB_SRC_SERVICE_SHARD_TRANSPORT_H_

#include <vector>

#include "src/measure/measure.h"
#include "src/service/fault_injector.h"
#include "src/service/measure_service.h"
#include "src/util/status.h"

namespace mudb::service {

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Delivers `request` to `shard` and returns its result. Synchronous and
  /// thread-safe: callers that want overlap issue calls from several
  /// threads (ShardedMeasureService::RunBatch uses its router pool).
  virtual util::StatusOr<measure::MeasureResult> Call(
      int shard, const MeasureRequest& request) = 0;

  virtual int num_shards() const = 0;
};

/// Delivery to in-process MeasureService shards (borrowed, not owned).
class InProcessShardTransport : public ShardTransport {
 public:
  explicit InProcessShardTransport(std::vector<MeasureService*> shards)
      : shards_(std::move(shards)) {}

  util::StatusOr<measure::MeasureResult> Call(
      int shard, const MeasureRequest& request) override;

  int num_shards() const override { return static_cast<int>(shards_.size()); }

 private:
  std::vector<MeasureService*> shards_;
};

/// Decorator: consults `injector` before delegating. Injected failures
/// return kUnavailable with the shard id stamped in the structured context;
/// injected latency sleeps before the call proceeds.
class FaultInjectingTransport : public ShardTransport {
 public:
  /// Both pointers are borrowed and must outlive the transport.
  FaultInjectingTransport(ShardTransport* wrapped, FaultInjector* injector)
      : wrapped_(wrapped), injector_(injector) {}

  util::StatusOr<measure::MeasureResult> Call(
      int shard, const MeasureRequest& request) override;

  int num_shards() const override { return wrapped_->num_shards(); }

 private:
  ShardTransport* wrapped_;
  FaultInjector* injector_;
};

}  // namespace mudb::service

#endif  // MUDB_SRC_SERVICE_SHARD_TRANSPORT_H_
