#include "perfbench/layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <unordered_map>
#include <utility>

namespace perfbench {

void AggregateSpans(const std::vector<mudb::obs::SpanRecord>& spans,
                    std::map<std::string, SpanTotals>* by_name) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id != 0) children[spans[i].parent_id].push_back(i);
  }
  for (const mudb::obs::SpanRecord& span : spans) {
    const int64_t start = span.start_nanos;
    const int64_t end = span.end_nanos;
    std::vector<std::pair<int64_t, int64_t>> covered;
    auto it = children.find(span.span_id);
    if (it != children.end()) {
      for (size_t c : it->second) {
        const int64_t lo = std::max(start, spans[c].start_nanos);
        const int64_t hi = std::min(end, spans[c].end_nanos);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t child_nanos = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (run_hi < lo) {
        if (run_hi > run_lo) child_nanos += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) child_nanos += run_hi - run_lo;

    SpanTotals& totals = (*by_name)[span.name];
    totals.total_ms += (end - start) * 1e-6;
    totals.self_ms += (end - start - child_nanos) * 1e-6;
    ++totals.count;
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace perfbench
