#include "src/service/shard_transport.h"

#include <chrono>
#include <thread>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace mudb::service {

util::StatusOr<measure::MeasureResult> InProcessShardTransport::Call(
    int shard, const MeasureRequest& request) {
  MUDB_CHECK(shard >= 0 && shard < num_shards());
  return shards_[static_cast<size_t>(shard)]->Run(request);
}

util::StatusOr<measure::MeasureResult> FaultInjectingTransport::Call(
    int shard, const MeasureRequest& request) {
  static obs::Counter* const m_strikes =
      obs::MetricsRegistry::Global().counter("shard.fault.injected");
  static obs::Counter* const m_latency =
      obs::MetricsRegistry::Global().counter("shard.fault.latency_injected");
  FaultInjector::Decision decision = injector_->Decide(shard);
  if (decision.latency_ms > 0) {
    m_latency->Inc();
    obs::Span span("shard.fault.latency");
    if (span.recording()) {
      span.Annotate("shard", static_cast<double>(shard));
      span.Annotate("latency_ms", decision.latency_ms);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(decision.latency_ms));
  }
  if (decision.fail) {
    m_strikes->Inc();
    obs::Span span("shard.fault.strike");
    if (span.recording()) {
      span.Annotate("shard", static_cast<double>(shard));
    }
    return util::Status::Unavailable("injected transient fault")
        .WithShard(shard);
  }
  return wrapped_->Call(shard, request);
}

}  // namespace mudb::service
