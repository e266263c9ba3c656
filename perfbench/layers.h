// Per-layer attribution from outside the library: aggregation of the spans
// src/ already emits (obs/trace.h), plus the process-level readings (CPU
// time, peak RSS) the benchmark reports beside them.

#ifndef MUDB_PERFBENCH_LAYERS_H_
#define MUDB_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

/// Totals for one span name, summed over every span of that name.
struct SpanTotals {
  double total_ms = 0.0;
  /// Span time minus the part of its interval its child spans cover.
  double self_ms = 0.0;
  int64_t count = 0;
};

/// Adds `spans` (one op's finished spans) into `by_name`. A span's children
/// are the spans naming it as parent, wherever they ran; the union of their
/// intervals, clipped to the parent's, is what the parent's self time
/// excludes.
void AggregateSpans(const std::vector<mudb::obs::SpanRecord>& spans,
                    std::map<std::string, SpanTotals>* by_name);

/// CPU seconds consumed by the whole process so far (every thread).
double ProcessCpuSeconds();

/// Peak resident set size (VmHWM) in MB; 0 if /proc is unavailable.
double PeakRssMb();

}  // namespace perfbench

#endif  // MUDB_PERFBENCH_LAYERS_H_
