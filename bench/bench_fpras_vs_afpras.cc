// Thm. 7.1 vs Thm. 8.1 ablation: on CQ(+,<)-shaped formulas both engines
// apply; the FPRAS gives a multiplicative guarantee via convex-geometry
// machinery (LP seeding + hit-and-run + annealing + Karp–Luby), the AFPRAS an
// additive one via direction sampling. This bench compares their time and
// accuracy on random cone DNFs of growing dimension, against exact ground
// truth in 2-D (arc measure) and high-precision sampling otherwise.
//
// The threads axis sweeps the FPRAS over pools of {1, 2, 4} threads and checks
// the parallel-runtime contract: wall-clock drops with more workers (on
// hardware that has them) while the estimate stays bit-identical.
//
// Flags:
//   --json=<path>  emit the schema documented in bench_json.h; the
//                  hnr_kernel_* rows are the raw single-chain hit-and-run
//                  steps/sec tracked by the checked-in BENCH_sampling.json.
//   --quick        CI-sized run (fewer dimensions, shorter kernel loops).

#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

#include "bench/bench_json.h"
#include "src/convex/batch_sampler.h"
#include "src/convex/body.h"
#include "src/convex/sampler.h"
#include "src/measure/afpras.h"
#include "src/measure/fpras.h"
#include "src/measure/nu_exact.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace {

// The representative kernel body: a random cone of n halfspaces through the
// origin, the unit ball, and one annealing-style inner ball — the constraint
// mix every FPRAS chain walks on.
mudb::convex::ConvexBody MakeKernelBody(int n) {
  using namespace mudb;  // NOLINT: bench brevity
  util::Rng cone_rng(7 + n);
  convex::ConvexBody body(n);
  for (int i = 0; i < n; ++i) {
    geom::Vec a(n);
    for (int j = 0; j < n; ++j) a[j] = cone_rng.Uniform(-1, 1);
    // Keep the negative diagonal so the origin stays interior-adjacent.
    if (a[i] > 0) a[i] = -a[i];
    body.AddHalfspace(a, 0.0);
  }
  body.AddBall(geom::Vec(n, 0.0), 1.0);
  body.AddBall(geom::Vec(n, 0.0), 0.7);
  return body;
}

// Raw scalar sampler throughput (single chain, single thread).
mudb::bench::BenchResult HnrKernelThroughput(int n, int64_t steps) {
  using namespace mudb;  // NOLINT: bench brevity
  convex::ConvexBody body = MakeKernelBody(n);
  convex::HitAndRunSampler sampler(&body, geom::Vec(n, 0.0));
  util::Rng rng(42);
  sampler.Walk(1000, rng);  // warm-up
  util::WallTimer timer;
  sampler.Walk(static_cast<int>(steps), rng);
  double ms = timer.ElapsedMillis();
  mudb::bench::BenchResult r;
  r.workload = "hnr_kernel_n" + std::to_string(n);
  r.threads = 1;
  r.wall_ms = ms;
  r.samples_per_sec = steps / (ms / 1e3);
  r.estimate = sampler.current()[0];  // determinism fingerprint
  return r;
}

// Batched K-chain kernel throughput on the same body and step schedule.
// Lane 0 runs the scalar row's exact substream (seed 42, same warm-up), so
// its fingerprint must equal the scalar row's — the bench hard-asserts the
// lane ≡ scalar bit-identity contract before reporting any speedup.
mudb::bench::BenchResult HnrBatchThroughput(int n, int lanes,
                                            int64_t steps_per_lane,
                                            double scalar_fingerprint) {
  using namespace mudb;  // NOLINT: bench brevity
  convex::ConvexBody body = MakeKernelBody(n);
  convex::BatchedHitAndRunSampler batched(&body, lanes);
  std::vector<util::Rng> rngs;
  for (int l = 0; l < lanes; ++l) {
    rngs.push_back(util::Rng(l == 0 ? 42 : 4200 + l));
    batched.ResetLane(l, geom::Vec(n, 0.0));
  }
  batched.WalkAll(1000, rngs.data());  // warm-up, matching the scalar row
  util::WallTimer timer;
  batched.WalkAll(static_cast<int>(steps_per_lane), rngs.data());
  double ms = timer.ElapsedMillis();
  geom::Vec lane0;
  batched.GetCurrent(0, &lane0);
  MUDB_CHECK(lane0[0] == scalar_fingerprint);
  mudb::bench::BenchResult r;
  r.workload =
      "hnr_kernel_n" + std::to_string(n) + "_k" + std::to_string(lanes);
  r.threads = 1;
  r.wall_ms = ms;
  // Aggregate chain steps per second: K lanes each advanced steps_per_lane.
  r.samples_per_sec = lanes * steps_per_lane / (ms / 1e3);
  r.estimate = lane0[0];  // determinism fingerprint (≡ scalar row)
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mudb;  // NOLINT: bench brevity
  using constraints::CmpOp;
  using constraints::RealFormula;
  using poly::Polynomial;

  const std::string json_path = bench::JsonFlagPath(argc, argv);
  const bool quick = bench::QuickFlag(argc, argv);
  bench::BenchJson json("fpras_vs_afpras");

  std::printf("# FPRAS (Thm 7.1) vs AFPRAS (Thm 8.1) on linear cone DNFs\n");
  std::printf("# hardware threads: %u\n", std::thread::hardware_concurrency());
  // cpu/wall4 is the process CPU seconds per wall second of the 4-thread
  // run: how many CPUs it actually got. A speedup4 near 1 with cpu/wall4
  // near 1 means a contended host, not threads that do not help.
  std::printf("# %3s %10s %12s %12s %12s %12s %12s %12s %12s %9s %9s %4s\n",
              "n", "truth", "fpras_mu", "fpras_1t_ms", "fpras_2t_ms",
              "fpras_4t_ms", "afpras_mu", "afpras_ms", "rel_err", "speedup4",
              "cpu/wall4", "det");
  bool all_deterministic = true;
  double sum_speedup = 0.0;
  int rows = 0;

  const int max_n = quick ? 3 : 5;
  const int64_t kernel_steps = quick ? 200000 : 2000000;
  util::Rng formula_rng(7);
  for (int n = 2; n <= max_n; ++n) {
    // A disjunction of two random cones, each cut by n halfspaces through
    // the origin (plus a positivity constraint to keep volumes moderate).
    auto random_cone = [&]() {
      std::vector<RealFormula> parts;
      for (int i = 0; i < n; ++i) {
        Polynomial p;
        for (int v = 0; v < n; ++v) {
          p = p + Polynomial::Constant(formula_rng.Uniform(-1, 1)) *
                      Polynomial::Variable(v);
        }
        parts.push_back(RealFormula::Cmp(p, CmpOp::kLe));
      }
      return RealFormula::And(std::move(parts));
    };
    std::vector<RealFormula> ors{random_cone(), random_cone()};
    RealFormula f = RealFormula::Or(std::move(ors));

    // Ground truth: exact in 2-D, very-high-precision AFPRAS otherwise.
    double truth;
    if (n == 2) {
      auto exact = measure::NuExact2D(f);
      MUDB_CHECK(exact.ok());
      truth = *exact;
    } else {
      measure::AfprasOptions ref;
      ref.num_samples = 4000000;
      util::Rng rng(42);
      auto r = measure::Afpras(f, ref, rng);
      MUDB_CHECK(r.ok());
      truth = r->estimate;
    }

    // The FPRAS across the threads axis: same seed, so every run must
    // return the identical estimate — only the wall-clock may move.
    double fpras_ms[3] = {0, 0, 0};
    double fpras_mu = 0.0;
    double cpu_per_wall4 = 0.0;
    bool deterministic = true;
    const int thread_axis[3] = {1, 2, 4};
    for (int t = 0; t < 3; ++t) {
      util::ThreadPool pool(thread_axis[t]);
      measure::FprasOptions fopts;
      fopts.epsilon = 0.1;
      fopts.pool = &pool;
      util::Rng frng(n);
      const std::clock_t cpu_start = std::clock();
      util::WallTimer ftimer;
      auto fpras = measure::FprasConjunctive(f, fopts, frng);
      MUDB_CHECK(fpras.ok());
      fpras_ms[t] = ftimer.ElapsedMillis();
      const double cpu_s =
          static_cast<double>(std::clock() - cpu_start) / CLOCKS_PER_SEC;
      if (thread_axis[t] == 4) cpu_per_wall4 = cpu_s / (fpras_ms[t] / 1e3);
      if (t == 0) {
        fpras_mu = fpras->estimate;
      } else if (fpras->estimate != fpras_mu) {
        deterministic = false;
      }
      bench::BenchResult row;
      row.workload = "fpras_cone_dnf_n" + std::to_string(n);
      row.threads = thread_axis[t];
      row.wall_ms = fpras_ms[t];
      // Hit-and-run steps/sec: the sampling pipeline's throughput.
      row.samples_per_sec =
          static_cast<double>(fpras->sampling_steps) / (fpras_ms[t] / 1e3);
      row.estimate = fpras->estimate;
      json.Add(row);
    }
    all_deterministic = all_deterministic && deterministic;
    sum_speedup += fpras_ms[0] / fpras_ms[2];
    ++rows;

    measure::AfprasOptions aopts;
    aopts.epsilon = 0.01;
    util::Rng arng(n);
    util::WallTimer atimer;
    auto afpras = measure::Afpras(f, aopts, arng);
    MUDB_CHECK(afpras.ok());
    double afpras_ms = atimer.ElapsedMillis();
    {
      bench::BenchResult row;
      row.workload = "afpras_cone_dnf_n" + std::to_string(n);
      row.threads = 1;
      row.wall_ms = afpras_ms;
      row.samples_per_sec =
          static_cast<double>(afpras->samples) / (afpras_ms / 1e3);
      row.estimate = afpras->estimate;
      json.Add(row);
    }

    double rel = truth > 1e-9 ? std::fabs(fpras_mu / truth - 1.0)
                              : std::fabs(fpras_mu - truth);
    std::printf(
        "  %3d %10.4f %12.4f %12.2f %12.2f %12.2f %12.4f %12.2f %12.3f "
        "%9.2f %9.2f %4s\n",
        n, truth, fpras_mu, fpras_ms[0], fpras_ms[1], fpras_ms[2],
        afpras->estimate, afpras_ms, rel, fpras_ms[0] / fpras_ms[2],
        cpu_per_wall4, deterministic ? "ok" : "DIFF");
  }

  // Raw kernel throughput: the steps/sec trajectory metric. The scalar row
  // first, then the K-sweep of the batched lockstep kernel on the same body
  // (aggregate lane-steps/s; lane 0 re-runs the scalar substream and the
  // bench aborts unless it lands bit-identically).
  std::printf("# raw hit-and-run kernel (scalar chain, then batched K-sweep):\n");
  for (int n : {2, 3, 4, 5, 8}) {
    bench::BenchResult row = HnrKernelThroughput(n, kernel_steps);
    std::printf("#   n=%d: scalar %8.3f Msteps/s", n,
                row.samples_per_sec / 1e6);
    json.Add(row);
    for (int lanes : {1, 2, 4, 8, 16}) {
      bench::BenchResult batch =
          HnrBatchThroughput(n, lanes, kernel_steps, row.estimate);
      std::printf("  K%d %8.3f", lanes, batch.samples_per_sec / 1e6);
      json.Add(batch);
    }
    std::printf("\n");
  }

  std::printf("# mean 4-thread speedup: %.2fx; estimates %s across thread "
              "counts\n",
              sum_speedup / rows,
              all_deterministic ? "bit-identical" : "DIVERGED");
  std::printf("# expected: both track truth; FPRAS cost grows quickly with n "
              "(annealing phases), AFPRAS stays cheap — why §9 implements "
              "the AFPRAS. With >= 4 hardware threads the 4t column should "
              "run >= 2x faster than 1t.\n");
  if (!json.WriteTo(json_path)) return 1;
  return all_deterministic ? 0 : 1;
}
