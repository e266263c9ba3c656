// perfbench: mudb's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workers <n>] [--ops <n>]
//
// One process, one client thread, closed loop: op k starts when op k-1 has
// returned. Set-up (database or candidate build, service or session
// construction, one untimed warm-up op) runs three times and its median is
// setup_s. The timed loop then runs the workload's fixed op schedule for
// --seconds of wall time, stopping on a cycle boundary (or for exactly
// --ops ops), and checks every op's outputs outside the timed region.
//
// --trace 0 prints the end-to-end metrics. --trace 1 additionally rebuilds
// the workload, replays the same ops with obs tracing enabled, fails the
// run unless every traced op is bit-identical to its untraced twin, and
// prints the per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/obs/trace.h"
#include "src/util/fingerprint.h"
#include "src/util/timer.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
/// Ops whose results make up the printed output fingerprint: a fixed prefix
/// of the schedule, so runs of different lengths stay comparable.
constexpr int64_t kFingerprintOps = 12;

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  int workers = 0;   // 0 = the workload's default
  int64_t ops = 0;   // 0 = time-bounded by --seconds
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workers <n>] [--ops <n>]\n"
               "workloads:");
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
}

bool ParseInt(const std::string& text, int64_t lo, int64_t hi, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    int64_t n = 0;
    if (arg == "--workload") {
      if (FindWorkload(value) == nullptr) return false;
      flags->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      char* end = nullptr;
      errno = 0;
      flags->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || errno != 0 || *end != '\0') {
        return false;
      }
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseInt(value, 1, 3600, &n)) return false;
      flags->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!ParseInt(value, 0, 1, &n)) return false;
      flags->trace = static_cast<int>(n);
      have_trace = true;
    } else if (arg == "--workers") {
      if (!ParseInt(value, 1, 2, &n)) return false;
      flags->workers = static_cast<int>(n);
    } else if (arg == "--ops") {
      if (!ParseInt(value, 1, 1'000'000, &n)) return false;
      flags->ops = n;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

/// Everything one pass over the schedule recorded.
struct Run {
  std::vector<double> latency_ms;  // per op; +inf for a failed op
  std::vector<double> cpu_s;       // process CPU during each op
  double timed_s = 0.0;            // Σ wall of every op, failed ones too
  std::vector<OpResult> ops;
  int64_t failed = 0;
  std::string wrong;  // first output-check failure, "" if none
  std::map<std::string, SpanTotals> spans;  // traced passes only
};

/// Runs ops 0, 1, ... of `workload`: exactly `fixed_ops` of them when > 0,
/// else whole cycles of `period` ops until the ops' own time (the timed
/// region, without the checks) reaches `seconds`.
/// With `twins` set (a traced pass), op k's fingerprint must equal
/// twins->ops[k]'s.
void RunSchedule(Workload& workload, int64_t fixed_ops, double seconds,
                 int period, const Run* twins, Run* run) {
  for (int64_t k = 0;; ++k) {
    if (fixed_ops > 0 ? k >= fixed_ops
                      : (k % period == 0 && run->timed_s >= seconds)) {
      break;
    }
    if (twins != nullptr) mudb::obs::ClearTraces();
    const double cpu0 = ProcessCpuSeconds();
    mudb::util::WallTimer timer;
    OpResult op = workload.RunOp(k);
    const double ms = timer.ElapsedMillis();
    run->timed_s += ms * 1e-3;
    run->cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    if (twins != nullptr) AggregateSpans(mudb::obs::CollectSpans(), &run->spans);

    // Untimed: output checks and the twin comparison.
    if (!op.ok) {
      ++run->failed;
      std::fprintf(stderr, "op %" PRId64 " failed: %s\n", k, op.error.c_str());
    } else if (run->wrong.empty()) {
      std::string err = workload.CheckLastOp();
      if (!err.empty()) run->wrong = "op " + std::to_string(k) + ": " + err;
    }
    if (twins != nullptr && run->wrong.empty() &&
        (op.fingerprint != twins->ops[static_cast<size_t>(k)].fingerprint ||
         op.input_digest != twins->ops[static_cast<size_t>(k)].input_digest)) {
      run->wrong = "traced op " + std::to_string(k) +
                   " is not bit-identical to its untraced twin";
    }
    run->latency_ms.push_back(op.ok ? ms : HUGE_VAL);
    run->ops.push_back(std::move(op));
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, and how many samples lie beyond it.
double Percentile(std::vector<double> v, int p, int64_t* beyond) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = (static_cast<size_t>(p) * n + 99) / 100;  // ceil(p·n/100)
  rank = std::max<size_t>(rank, 1);
  if (beyond != nullptr) *beyond = static_cast<int64_t>(n - rank);
  return v[rank - 1];
}

uint64_t Digest(const Run& run, bool inputs, int64_t* covered) {
  mudb::util::FingerprintHasher h(inputs ? 0xD1 : 0xD2);
  const int64_t n =
      std::min<int64_t>(kFingerprintOps, static_cast<int64_t>(run.ops.size()));
  for (int64_t k = 0; k < n; ++k) {
    const OpResult& op = run.ops[static_cast<size_t>(k)];
    h.Absorb(inputs ? op.input_digest : op.fingerprint);
  }
  *covered = n;
  return h.Digest().hi;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Sums and averages over a run's ops. Wall and CPU time cover every op,
/// failed ones too; work done counts only the ops that succeeded.
struct Totals {
  OpCounters sum;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t candidates = 0;
  int64_t ops = 0;

  explicit Totals(const Run& run) : wall_s(run.timed_s) {
    ops = static_cast<int64_t>(run.ops.size());
    for (size_t k = 0; k < run.ops.size(); ++k) {
      const OpResult& op = run.ops[k];
      cpu_s += run.cpu_s[k];
      if (!op.ok) continue;
      candidates += op.candidates;
      AddCounters(&sum, op.counters);
    }
  }
  double PerOp(double v) const { return Ratio(v, static_cast<double>(ops)); }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    // A latency a failed op turned infinite has no JSON number; report the
    // largest finite double instead.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                     : 1.7976931348623157e308;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

std::unique_ptr<Workload> SetUp(const WorkloadSpec& spec, const Flags& flags,
                                int workers, double* datagen_ms) {
  std::string error;
  auto workload = MakeWorkload(spec, flags.seed, workers, datagen_ms, &error);
  if (workload == nullptr) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return nullptr;
  }
  OpResult warm = workload->RunOp(-1);
  if (!warm.ok) {
    std::fprintf(stderr, "warm-up op failed: %s\n", warm.error.c_str());
    return nullptr;
  }
  error = workload->CheckLastOp();
  if (!error.empty()) {
    std::fprintf(stderr, "warm-up op is wrong: %s\n", error.c_str());
    return nullptr;
  }
  return workload;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    PrintUsage();
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(flags.workload);
  const int workers = flags.workers > 0 ? flags.workers : spec.default_workers;

#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
#ifdef MUDB_OBS_DISABLED
  const char* obs_state = "compiled out";
#else
  const char* obs_state = "compiled in";
#endif
  std::printf("# perfbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              spec.name, flags.seed, flags.seconds, flags.trace);
  std::printf("# host: nproc=%ld compiler=\"%s\" build=%s obs=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), compiler, PERFBENCH_BUILD_TYPE,
              obs_state);
  std::printf("# load: closed loop, 1 client thread, workers=%d, tail=p%d\n",
              workers, spec.tail_percentile);
  std::printf("# input: %s\n", spec.input);
  std::fflush(stdout);

  // Set-up, several times; the last build is the one measured.
  std::vector<double> setup_s, datagen_ms;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    workload.reset();
    double datagen = 0.0;
    mudb::util::WallTimer timer;
    workload = SetUp(spec, flags, workers, &datagen);
    if (workload == nullptr) return 1;
    setup_s.push_back(timer.ElapsedSeconds());
    datagen_ms.push_back(datagen);
  }

  Run run;
  RunSchedule(*workload, flags.ops, flags.seconds, spec.period, nullptr, &run);
  workload.reset();

  Run traced;
  if (flags.trace == 1) {
    double datagen = 0.0;
    workload = SetUp(spec, flags, workers, &datagen);
    if (workload == nullptr) return 1;
    mudb::obs::ClearTraces();
    mudb::obs::EnableTracing();
    RunSchedule(*workload, static_cast<int64_t>(run.ops.size()), 0.0,
                spec.period, &run, &traced);
    mudb::obs::DisableTracing();
    workload.reset();
    if (mudb::obs::DroppedSpanCount() > 0 && traced.wrong.empty()) {
      traced.wrong = "span buffer overflow: per-layer totals incomplete";
    }
  }

  const int64_t attempted = static_cast<int64_t>(run.ops.size());
  int64_t beyond = 0;
  const double p50 = Percentile(run.latency_ms, 50, nullptr);
  const double tail = Percentile(run.latency_ms, spec.tail_percentile, &beyond);
  const Totals t(run);
  int64_t covered = 0;
  const uint64_t schedule = Digest(run, true, &covered);
  const uint64_t fingerprint = Digest(run, false, &covered);
  const bool correct = run.wrong.empty() && traced.wrong.empty();
  if (!run.wrong.empty()) std::fprintf(stderr, "WRONG: %s\n", run.wrong.c_str());
  if (!traced.wrong.empty()) {
    std::fprintf(stderr, "WRONG: %s\n", traced.wrong.c_str());
  }

  std::printf("# ops=%" PRId64 " period=%d failed=%" PRId64
              " timed_wall_s=%.3f\n",
              attempted, spec.period, run.failed, t.wall_s);
  std::vector<double> cpu_ms;
  for (double c : run.cpu_s) cpu_ms.push_back(c * 1e3);
  std::printf("# process cpu per op: p50 %.3f ms (host noise shows as wall "
              "moving without it)\n",
              Percentile(cpu_ms, 50, nullptr));
  std::printf("# tail=p%d samples_beyond_tail=%" PRId64 "\n",
              spec.tail_percentile, beyond);
  std::printf("# schedule=%016" PRIx64 " fingerprint=%016" PRIx64
              " (first %" PRId64 " ops)\n",
              schedule, fingerprint, covered);

  std::vector<Metric> metrics;
  if (flags.trace == 0) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"latency_p50_ms", p50, "ms"},
        {"latency_tail_ms", tail, "ms"},
        {"candidates_per_s", Ratio(static_cast<double>(t.candidates), t.wall_s),
         "1/s"},
        {"ok_frac",
         Ratio(static_cast<double>(attempted - run.failed),
               static_cast<double>(attempted)),
         "frac"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  } else {
    std::printf("# %-24s %12s %12s %10s\n", "span (traced, per op)", "self_ms",
                "total_ms", "count");
    for (const auto& [name, s] : traced.spans) {
      std::printf("# %-24s %12.4f %12.4f %10.2f\n", name.c_str(),
                  t.PerOp(s.self_ms), t.PerOp(s.total_ms),
                  t.PerOp(static_cast<double>(s.count)));
    }
    auto span_ms = [&](const char* name) {
      auto it = traced.spans.find(name);
      return it == traced.spans.end() ? 0.0 : t.PerOp(it->second.total_ms);
    };
    auto span_count = [&](const char* name) {
      auto it = traced.spans.find(name);
      return it == traced.spans.end()
                 ? 0.0
                 : t.PerOp(static_cast<double>(it->second.count));
    };
    const OpCounters& c = t.sum;
    const double steps = static_cast<double>(c.service.sampling_steps);
    const double traced_p50 = Percentile(traced.latency_ms, 50, nullptr);
    metrics = {
        {"datagen.build_ms", Median(datagen_ms), "ms"},
        {"sql.parse_ms", t.PerOp(c.sql_parse_ms), "ms"},
        {"engine.eval_ms", t.PerOp(c.engine_eval_ms), "ms"},
        {"engine.witnesses", t.PerOp(static_cast<double>(c.engine_witnesses)),
         "count"},
        {"engine.candidates",
         t.PerOp(static_cast<double>(c.engine_candidates)), "count"},
        {"afpras.estimate_ms", span_ms("afpras.estimate"), "ms"},
        {"afpras.samples", t.PerOp(static_cast<double>(c.service.samples)),
         "count"},
        {"fpras.build_bodies_ms", span_ms("fpras.build_bodies"), "ms"},
        {"volume.anneal_phase_ms", span_ms("volume.anneal_phase"), "ms"},
        {"convex.steps", t.PerOp(steps), "count"},
        {"convex.steps_per_cpu_s", Ratio(steps, t.cpu_s), "1/s"},
        {"volume.karp_luby_ms", span_ms("volume.karp_luby"), "ms"},
        {"volume.body_estimates", span_count("volume.body_estimate"), "count"},
        {"pool.cpu_per_wall", Ratio(t.cpu_s, t.wall_s), "ratio"},
        {"service.batch_ms", t.PerOp(c.service.wall_ms), "ms"},
        {"service.request_hit_rate",
         Ratio(static_cast<double>(c.service.request_cache_hits),
               static_cast<double>(c.service.requests)),
         "frac"},
        {"service.body_hit_rate",
         Ratio(static_cast<double>(c.service.body_cache_hits),
               static_cast<double>(c.service.unique_bodies)),
         "frac"},
        {"service.dedup_ratio",
         Ratio(static_cast<double>(c.service.unique_bodies),
               static_cast<double>(c.service.bodies)),
         "frac"},
        {"ranking.tiers", t.PerOp(static_cast<double>(c.ranking_tiers)),
         "count"},
        {"ranking.evaluations",
         t.PerOp(static_cast<double>(c.ranking_evaluations)), "count"},
        {"ranking.pruned_frac",
         Ratio(static_cast<double>(c.ranking_pruned),
               static_cast<double>(c.ranking_candidates)),
         "frac"},
        {"ranking.steps_per_candidate",
         Ratio(steps + static_cast<double>(c.service.samples),
               static_cast<double>(c.ranking_candidates)),
         "count"},
        {"ranking.rerank_ms", span_ms("ranking.rerank"), "ms"},
        {"ranking.apply_delta_ms", span_ms("ranking.apply_delta"), "ms"},
        {"ranking.warm_hit_rate",
         Ratio(static_cast<double>(c.ranking_warm_hits),
               static_cast<double>(c.ranking_evaluations)),
         "frac"},
        {"ranking.invalidated",
         t.PerOp(static_cast<double>(c.ranking_invalidated)), "count"},
        {"shard.request_ms", span_ms("shard.request"), "ms"},
        {"shard.attempts_per_request",
         Ratio(static_cast<double>(c.shard_attempts),
               static_cast<double>(c.shard_requests)),
         "count"},
        {"shard.degraded_frac",
         Ratio(static_cast<double>(c.shard_degraded),
               static_cast<double>(c.shard_requests)),
         "frac"},
        {"shard.backoff_ms", span_ms("shard.backoff"), "ms"},
        {"trace.overhead_frac", Ratio(traced_p50, p50) - 1.0, "frac"},
    };
  }
  std::fflush(stdout);
  PrintResult(correct, attempted, run.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
