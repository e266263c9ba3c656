// The benchmark's workloads: each one owns long-lived mudb state (database,
// services, session) built at construction, and runs op k of a fixed
// schedule on demand. Op k's inputs are a pure function of (seed, k), and
// the schedule cycles with a fixed period, so the k-th op of every run with
// the same seed does the same work however many ops the run's length allows.

#ifndef MUDB_PERFBENCH_WORKLOADS_H_
#define MUDB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/service/measure_service.h"

namespace perfbench {

/// The accounting one op's calls returned, summed over the op. Filled from
/// the structs the public API already hands back (EvalResult, BatchStats,
/// RankingOutcome, RerankOutcome, ShardedStats) and from the benchmark's
/// own timers around sql::ParseSqlQuery and engine::EvaluateCq.
struct OpCounters {
  double sql_parse_ms = 0.0;
  double engine_eval_ms = 0.0;
  int64_t engine_witnesses = 0;
  int64_t engine_candidates = 0;
  /// Σ over the op's MeasureService batches (ranking tiers, or the shard
  /// workers' lifetime-counter deltas); wall_ms is the batches' wall time.
  mudb::service::BatchStats service;
  int64_t ranking_tiers = 0;
  int64_t ranking_evaluations = 0;
  int64_t ranking_pruned = 0;
  int64_t ranking_candidates = 0;
  int64_t ranking_warm_hits = 0;
  int64_t ranking_invalidated = 0;
  int64_t shard_requests = 0;
  int64_t shard_attempts = 0;
  int64_t shard_degraded = 0;
};

/// sum += c, field by field.
void AddCounters(OpCounters* sum, const OpCounters& c);

struct OpResult {
  /// False when a call returned a non-OK status; `error` says which.
  bool ok = false;
  std::string error;
  /// Digest of the op's inputs (the schedule) and of its result bits.
  uint64_t input_digest = 0;
  uint64_t fingerprint = 0;
  /// Candidate measurements the op completed.
  int64_t candidates = 0;
  OpCounters counters;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs op k (k = -1 is the untimed warm-up op, drawn from its own
  /// stream). This is the timed region.
  virtual OpResult RunOp(int64_t k) = 0;
  /// Checks the last op's outputs against references computed here, outside
  /// the timed region. Returns "" when every output is correct.
  virtual std::string CheckLastOp() = 0;
};

/// Static facts about one workload.
struct WorkloadSpec {
  const char* name;
  /// The fixed tail percentile reported as latency_tail_ms.
  int tail_percentile;
  /// Ops per schedule cycle; a time-bounded run stops on a cycle boundary.
  int period;
  /// Sampling threads of the workload's service (per shard for
  /// shard_faults) unless --workers overrides it.
  int default_workers;
  /// The stated input size, echoed in the attribution header.
  const char* input;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when `name` names no workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Builds the workload's state. `datagen_ms` receives the time spent in
/// datagen::MakeSalesDatabase (0 for workloads without a database). Returns
/// nullptr and sets `error` when set-up fails.
std::unique_ptr<Workload> MakeWorkload(const WorkloadSpec& spec,
                                       uint64_t seed, int workers,
                                       double* datagen_ms,
                                       std::string* error);

}  // namespace perfbench

#endif  // MUDB_PERFBENCH_WORKLOADS_H_
